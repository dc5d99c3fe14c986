#include "reffil/cl/l2p.hpp"

#include "reffil/cl/prompt_utils.hpp"
#include "reffil/tensor/ops.hpp"

namespace reffil::cl {

namespace AG = reffil::autograd;

L2pMethod::L2pMethod(MethodConfig config, L2pConfig l2p)
    : MethodBase(l2p.use_pool ? "FedL2P\xE2\x80\xA0" : "FedL2P",
                 std::move(config)),
      l2p_(l2p) {
  init_workers();
}

std::unique_ptr<Replica> L2pMethod::make_replica(util::Rng& rng) {
  return std::make_unique<L2pReplica>(config_, l2p_, rng);
}

std::vector<std::size_t> L2pMethod::select(const L2pReplica& rep,
                                           const tensor::Tensor& image) const {
  if (!l2p_.use_pool) {
    std::vector<std::size_t> fixed(l2p_.top_k);
    for (std::size_t i = 0; i < fixed.size(); ++i) fixed[i] = i;
    return fixed;
  }
  const tensor::Tensor query = prompt_query(rep.net, image);
  return top_k_by_cosine(rep.keys.table()->value(), query, l2p_.top_k);
}

AG::Var L2pMethod::sample_loss(Replica& replica, const TaggedSample& sample,
                               const fed::TrainJob&, std::size_t) {
  auto& rep = static_cast<L2pReplica&>(replica);
  const tensor::Tensor& image = sample.sample->image;
  const auto indices = select(rep, image);
  const AG::Var prompt = gather_rows(rep.prompts.table(), indices);
  const auto out = rep.net.forward(image, prompt);
  AG::Var loss = AG::cross_entropy_logits(out.logits, {sample.sample->label});
  if (l2p_.use_pool) {
    const tensor::Tensor query = prompt_query(rep.net, image);
    loss = AG::add(loss,
                   AG::mul_scalar(key_pull_loss(rep.keys.table(), indices, query),
                                  l2p_.key_loss_weight));
  }
  return loss;
}

AG::Var L2pMethod::eval_logits(Replica& replica, const tensor::Tensor& image,
                               std::size_t) {
  auto& rep = static_cast<L2pReplica&>(replica);
  const auto indices = select(rep, image);
  const AG::Var prompt = gather_rows(rep.prompts.table(), indices);
  return rep.net.forward(image, prompt).logits;
}

}  // namespace reffil::cl
