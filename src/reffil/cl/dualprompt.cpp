#include "reffil/cl/dualprompt.hpp"

#include "reffil/cl/prompt_utils.hpp"
#include "reffil/tensor/ops.hpp"

namespace reffil::cl {

namespace AG = reffil::autograd;
namespace T = reffil::tensor;

DualPromptMethod::DualPromptMethod(MethodConfig config, DualPromptConfig dual)
    : MethodBase(dual.use_pool ? "FedDualPrompt\xE2\x80\xA0" : "FedDualPrompt",
                 std::move(config)),
      dual_(dual) {
  init_workers();
}

std::unique_ptr<Replica> DualPromptMethod::make_replica(util::Rng& rng) {
  return std::make_unique<DualPromptReplica>(config_, dual_, rng);
}

AG::Var DualPromptMethod::assemble_prompt(const DualPromptReplica& rep,
                                          std::size_t expert_index) const {
  return AG::concat_rows(rep.general.table(),
                         AG::select_row(rep.experts.table(), expert_index));
}

AG::Var DualPromptMethod::sample_loss(Replica& replica,
                                      const TaggedSample& sample,
                                      const fed::TrainJob&, std::size_t) {
  auto& rep = static_cast<DualPromptReplica&>(replica);
  // Training knows each sample's task id; the pool variant trains that
  // task's expert, the rehearsal-free variant the single shared expert.
  const std::size_t expert = dual_.use_pool ? sample.task : 0;
  const AG::Var prompt = assemble_prompt(rep, expert);
  const auto out = rep.net.forward(sample.sample->image, prompt);
  AG::Var loss = AG::cross_entropy_logits(out.logits, {sample.sample->label});
  if (dual_.use_pool) {
    const T::Tensor query = prompt_query(rep.net, sample.sample->image);
    loss = AG::add(
        loss, AG::mul_scalar(key_pull_loss(rep.expert_keys.table(), {expert}, query),
                             dual_.key_loss_weight));
  }
  return loss;
}

AG::Var DualPromptMethod::eval_logits(Replica& replica,
                                      const tensor::Tensor& image, std::size_t) {
  auto& rep = static_cast<DualPromptReplica&>(replica);
  std::size_t expert = 0;
  if (dual_.use_pool) {
    // Task id unknown at test time: match the input query against the keys
    // of the experts trained so far.
    const T::Tensor query = prompt_query(rep.net, image);
    const std::size_t learned = std::min(current_task_ + 1,
                                         rep.expert_keys.count());
    const T::Tensor keys =
        T::slice_rows(rep.expert_keys.table()->value(), 0, learned);
    expert = top_k_by_cosine(keys, query, 1).front();
  }
  return rep.net.forward(image, assemble_prompt(rep, expert)).logits;
}

}  // namespace reffil::cl
