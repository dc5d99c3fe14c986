// SGD optimizer with optional momentum and weight decay — the paper trains
// all methods with SGD.
#pragma once

#include <vector>

#include "reffil/autograd/variable.hpp"
#include "reffil/tensor/tensor.hpp"

namespace reffil::nn {

struct SgdConfig {
  float learning_rate = 0.03f;  ///< paper: 0.03–0.06 depending on dataset
  float momentum = 0.0f;
  float weight_decay = 0.0f;
  /// Global gradient-norm clip (0 disables). Applied across all parameters
  /// before the update — keeps the few-round federated runs stable.
  float clip_norm = 0.0f;
};

class SgdOptimizer {
 public:
  SgdOptimizer(std::vector<autograd::Var> params, SgdConfig config);

  /// Apply one update from accumulated gradients, then leave grads in place
  /// (call zero_grad before the next backward pass).
  void step();

  /// Zero every tracked parameter's gradient.
  void zero_grad();

  float learning_rate() const { return config_.learning_rate; }

 private:
  std::vector<autograd::Var> params_;
  std::vector<tensor::Tensor> velocity_;
  SgdConfig config_;
};

}  // namespace reffil::nn
