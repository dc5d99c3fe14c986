#include "reffil/cl/ewc.hpp"

#include <algorithm>
#include <cmath>

#include "reffil/autograd/ops.hpp"
#include "reffil/tensor/ops.hpp"
#include "reffil/util/error.hpp"

namespace reffil::cl {

namespace AG = reffil::autograd;
namespace T = reffil::tensor;

EwcMethod::EwcMethod(MethodConfig config, EwcConfig ewc)
    : MethodBase("FedEWC", std::move(config)), ewc_(ewc) {
  init_workers();
  worker_penalty_.resize(config_.parallelism);
}

void EwcMethod::on_task_start(std::size_t task) {
  MethodBase::on_task_start(task);
  if (task == 0) return;
  // Consolidate the Fisher diagonals collected at the end of the previous
  // task into the penalty that guards it.
  if (!pending_fishers_.empty()) {
    fisher_ = fed::federated_average(pending_fishers_, pending_fisher_weights_);
    // Normalize to unit maximum so lambda is architecture-independent.
    float max_entry = 0.0f;
    for (const auto& t : fisher_) max_entry = std::max(max_entry, T::max_all(t));
    if (max_entry > 0.0f) {
      for (auto& t : fisher_) T::scale_inplace(t, 1.0f / max_entry);
    }
    anchor_ = global_state_;
    have_penalty_ = true;
    pending_fishers_.clear();
    pending_fisher_weights_.clear();
  }
}

void EwcMethod::write_broadcast_extras(util::ByteWriter& writer) {
  writer.write_u32(have_penalty_ ? 1 : 0);
  if (have_penalty_) {
    fed::serialize_state(fisher_, writer);
    fed::serialize_state(anchor_, writer);
  }
}

void EwcMethod::read_broadcast_extras(util::ByteReader& reader, std::size_t slot) {
  WorkerPenalty& penalty = worker_penalty_[slot];
  penalty.active = reader.read_u32() != 0;
  if (penalty.active) {
    penalty.fisher = fed::deserialize_state(reader);
    penalty.anchor = fed::deserialize_state(reader);
  }
  MethodBase::read_broadcast_extras(reader, slot);
}

void EwcMethod::post_backward(Replica& rep, const fed::TrainJob& job,
                              std::size_t slot) {
  const WorkerPenalty& penalty = worker_penalty_[slot];
  if (!penalty.active) return;
  (void)job;
  const auto params = rep.parameters();
  REFFIL_CHECK_MSG(params.size() == penalty.fisher.size(),
                   "EWC: fisher/parameter count mismatch");
  for (std::size_t i = 0; i < params.size(); ++i) {
    // grad += lambda * F ⊙ (theta - theta*)
    T::Tensor delta = T::sub(params[i]->value(), penalty.anchor[i]);
    T::Tensor g = T::mul(penalty.fisher[i], delta);
    T::scale_inplace(g, ewc_.lambda);
    params[i]->accumulate_grad(g);
  }
}

void EwcMethod::write_update_extras(util::ByteWriter& writer, Replica& rep,
                                    const fed::TrainJob& job) {
  const bool last_round = job.round + 1 == job.total_rounds;
  writer.write_u32(last_round ? 1 : 0);
  if (!last_round) return;

  // Empirical diagonal Fisher: mean over samples of squared CE gradients.
  const auto view = local_view(job);
  const std::size_t budget = std::min(view.size(), ewc_.fisher_samples);
  const auto params = rep.parameters();
  std::vector<T::Tensor> fisher;
  fisher.reserve(params.size());
  for (const auto& p : params) fisher.emplace_back(p->value().shape());

  for (std::size_t i = 0; i < budget; ++i) {
    const data::Sample& s = *view[i].sample;
    for (const auto& p : params) p->zero_grad();
    const auto out = rep.net.forward(s.image);
    AG::backward(AG::cross_entropy_logits(out.logits, {s.label}));
    for (std::size_t j = 0; j < params.size(); ++j) {
      const T::Tensor& g = params[j]->grad();
      if (g.shape() != fisher[j].shape()) continue;  // param not in CE graph
      T::add_inplace(fisher[j], T::mul(g, g));
    }
  }
  for (auto& f : fisher) T::scale_inplace(f, 1.0f / static_cast<float>(budget));
  fed::serialize_state(fisher, writer);
  writer.write_f64(static_cast<double>(view.size()));
}

std::any EwcMethod::decode_update_extras(util::ByteReader& reader) const {
  const std::uint32_t flag = reader.read_u32();
  if (flag > 1) throw SerializationError("EWC fisher flag is neither 0 nor 1");
  if (flag == 0) return {};
  FisherUpload upload{.fisher = decode_model_shaped(reader),
                      .weight = reader.read_f64()};
  for (const auto& t : upload.fisher) {
    if (std::any_of(t.begin(), t.end(), [](float v) { return v < 0.0f; })) {
      throw SerializationError("EWC fisher has a negative entry");
    }
  }
  if (!std::isfinite(upload.weight) || upload.weight < 0.0) {
    throw SerializationError("EWC fisher weight not finite and non-negative");
  }
  return upload;
}

void EwcMethod::after_aggregate(std::vector<std::any> extras) {
  for (std::any& extra : extras) {
    if (auto* upload = std::any_cast<FisherUpload>(&extra)) {
      pending_fishers_.push_back(std::move(upload->fisher));
      pending_fisher_weights_.push_back(upload->weight);
    }
  }
}

}  // namespace reffil::cl
