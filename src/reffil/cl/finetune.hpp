// Finetune baseline: plain FedAvg training on whatever data a client holds.
// No forgetting mitigation whatsoever — the paper's lower anchor.
#pragma once

#include "reffil/cl/method_base.hpp"

namespace reffil::cl {

class FinetuneMethod : public MethodBase {
 public:
  explicit FinetuneMethod(MethodConfig config)
      : MethodBase("Finetune", std::move(config)) {
    init_workers();
  }

 protected:
  bool batched_step() const override { return true; }

  /// Plain per-batch cross-entropy: one static graph per batch size.
  std::string replay_signature(const Replica&, const fed::TrainJob&,
                               std::size_t) const override {
    return "ce";
  }
};

}  // namespace reffil::cl
