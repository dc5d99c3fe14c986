#include "reffil/cl/lwf.hpp"

#include "reffil/autograd/ops.hpp"
#include "reffil/tensor/ops.hpp"

namespace reffil::cl {

namespace AG = reffil::autograd;
namespace T = reffil::tensor;

LwfMethod::LwfMethod(MethodConfig config, LwfConfig lwf)
    : MethodBase("FedLwF", std::move(config)), lwf_(lwf) {
  init_workers();
  teachers_.resize(config_.parallelism);
  teacher_loaded_.assign(config_.parallelism, 0);
}

void LwfMethod::on_task_start(std::size_t task) {
  MethodBase::on_task_start(task);
  if (task > 0) {
    // Snapshot the converged previous-task global model as the teacher.
    teacher_state_ = global_state_;
    have_teacher_ = true;
    teacher_loaded_.assign(config_.parallelism, 0);
  }
}

void LwfMethod::write_broadcast_extras(util::ByteWriter& writer) {
  writer.write_u32(have_teacher_ ? 1 : 0);
  if (have_teacher_) fed::serialize_state(teacher_state_, writer);
}

void LwfMethod::read_broadcast_extras(util::ByteReader& reader, std::size_t slot) {
  const bool teacher_present = reader.read_u32() != 0;
  if (teacher_present) {
    const fed::ModelState state = fed::deserialize_state(reader);
    if (!teachers_[slot]) {  // built the first time its slot needs one
      util::Rng rng(config_.seed ^ 0x7EAC4E2ULL);
      teachers_[slot] = std::make_unique<nn::PromptNet>(config_.net, rng);
    }
    teachers_[slot]->load(state);
    teacher_loaded_[slot] = 1;
  } else {
    teacher_loaded_[slot] = 0;
  }
  MethodBase::read_broadcast_extras(reader, slot);  // checks exhaustion
}

AG::Var LwfMethod::sample_loss(Replica& rep, const TaggedSample& sample,
                               const fed::TrainJob&, std::size_t slot) {
  const auto out = rep.net.forward(sample.sample->image);
  AG::Var loss = AG::cross_entropy_logits(out.logits, {sample.sample->label});
  if (teacher_loaded_[slot]) {
    // Teacher probabilities are treated as constants; only the student's
    // graph receives gradients.
    const auto teacher_out = teachers_[slot]->forward(sample.sample->image);
    const T::Tensor teacher_probs = T::softmax_rows(
        T::mul_scalar(teacher_out.logits->value(), 1.0f / lwf_.temperature));
    loss = AG::add(loss, AG::mul_scalar(AG::distillation_loss(
                                            out.logits, teacher_probs,
                                            lwf_.temperature),
                                        lwf_.distill_weight));
  }
  return loss;
}

}  // namespace reffil::cl
