// Basic neural-network layers: Linear, MLP, LayerNorm, Embedding, Conv2d.
//
// All layers take and return autograd Vars so gradients flow through any
// composition. Initialisation is He/Xavier-style scaled normal driven by a
// caller-supplied Rng (determinism contract: same seed => same weights).
#pragma once

#include <cstddef>
#include <vector>

#include "reffil/autograd/ops.hpp"
#include "reffil/nn/module.hpp"
#include "reffil/util/rng.hpp"

namespace reffil::nn {

/// Fully connected layer: y = x W + b with x [m, in] -> y [m, out]. The
/// `samples` argument of a layer's forward says how many equal row blocks
/// (samples) x holds; the weights' gradients fold one partial per sample
/// (autograd/ops.hpp).
class Linear : public Module {
 public:
  Linear(std::size_t in_features, std::size_t out_features, util::Rng& rng);

  autograd::Var forward(const autograd::Var& x, std::size_t samples = 1) const;

 private:
  autograd::Var weight_;  // [in, out]
  autograd::Var bias_;    // [out]
};

/// Multi-layer perceptron with ReLU between layers (none after the last).
class Mlp : public Module {
 public:
  /// dims = {in, hidden..., out}; at least {in, out}.
  Mlp(const std::vector<std::size_t>& dims, util::Rng& rng);

  autograd::Var forward(const autograd::Var& x, std::size_t samples = 1) const;

 private:
  std::vector<std::unique_ptr<Linear>> layers_;
};

/// Row-wise layer normalization with learned gain and bias.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(std::size_t dim);

  autograd::Var forward(const autograd::Var& x, std::size_t samples = 1) const;

 private:
  autograd::Var gain_;  // [dim], init 1
  autograd::Var bias_;  // [dim], init 0
};

/// Trainable lookup table; forward(i) returns row i as a [1, dim] Var.
/// Used for the task-specific key embedding (conditional input v in Eq. 1).
class Embedding : public Module {
 public:
  Embedding(std::size_t count, std::size_t dim, util::Rng& rng);

  autograd::Var forward(std::size_t index) const;
  /// Row indices[s] for each sample s: [samples, dim].
  autograd::Var forward(const std::vector<std::size_t>& indices) const;

  /// Whole table as a [count, dim] Var (for pool-style similarity search).
  const autograd::Var& table() const { return table_; }

  std::size_t count() const { return count_; }
  std::size_t dim() const { return dim_; }

 private:
  std::size_t count_, dim_;
  autograd::Var table_;  // [count, dim]
};

/// 2-D convolution over a [Cin, H, W] sample or an [N, Cin, H, W] batch.
class Conv2d : public Module {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t stride, std::size_t pad, util::Rng& rng);

  autograd::Var forward(const autograd::Var& x) const;

 private:
  std::size_t kernel_, stride_, pad_;
  autograd::Var weight_;  // [Cout, Cin*k*k]
  autograd::Var bias_;    // [Cout]
};

}  // namespace reffil::nn
