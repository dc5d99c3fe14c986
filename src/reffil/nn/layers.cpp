#include "reffil/nn/layers.hpp"

#include <cmath>

#include "reffil/tensor/ops.hpp"
#include "reffil/util/error.hpp"

namespace reffil::nn {

namespace AG = reffil::autograd;
namespace T = reffil::tensor;

Linear::Linear(std::size_t in_features, std::size_t out_features, util::Rng& rng) {
  REFFIL_CHECK(in_features > 0 && out_features > 0);
  // He initialisation keeps activations well-scaled under ReLU.
  const float stddev = std::sqrt(2.0f / static_cast<float>(in_features));
  weight_ = add_parameter(T::randn({in_features, out_features}, rng, 0.0f, stddev));
  bias_ = add_parameter(T::zeros({out_features}));
}

AG::Var Linear::forward(const AG::Var& x, std::size_t samples) const {
  return AG::linear(x, weight_, bias_, samples);
}

Mlp::Mlp(const std::vector<std::size_t>& dims, util::Rng& rng) {
  REFFIL_CHECK_MSG(dims.size() >= 2, "Mlp needs at least {in, out}");
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.push_back(std::make_unique<Linear>(dims[i], dims[i + 1], rng));
    register_submodule(*layers_.back());
  }
}

AG::Var Mlp::forward(const AG::Var& x, std::size_t samples) const {
  AG::Var h = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i]->forward(h, samples);
    if (i + 1 < layers_.size()) h = AG::relu(h);
  }
  return h;
}

LayerNorm::LayerNorm(std::size_t dim) {
  REFFIL_CHECK(dim > 0);
  gain_ = add_parameter(T::ones({dim}));
  bias_ = add_parameter(T::zeros({dim}));
}

AG::Var LayerNorm::forward(const AG::Var& x, std::size_t samples) const {
  return AG::layer_norm(x, gain_, bias_, samples);
}

Embedding::Embedding(std::size_t count, std::size_t dim, util::Rng& rng)
    : count_(count), dim_(dim) {
  REFFIL_CHECK(count > 0 && dim > 0);
  table_ = add_parameter(T::randn({count, dim}, rng, 0.0f, 0.5f));
}

AG::Var Embedding::forward(std::size_t index) const {
  return forward(std::vector<std::size_t>{index});
}

AG::Var Embedding::forward(const std::vector<std::size_t>& indices) const {
  for (std::size_t index : indices) {
    REFFIL_CHECK_MSG(index < count_, "Embedding index out of range");
  }
  return AG::select_rows(table_, indices);
}

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t pad,
               util::Rng& rng)
    : kernel_(kernel), stride_(stride), pad_(pad) {
  REFFIL_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0);
  const std::size_t fan_in = in_channels * kernel * kernel;
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  weight_ = add_parameter(T::randn({out_channels, fan_in}, rng, 0.0f, stddev));
  bias_ = add_parameter(T::zeros({out_channels}));
}

AG::Var Conv2d::forward(const AG::Var& x) const {
  return AG::conv2d(x, weight_, bias_, kernel_, kernel_, stride_, pad_);
}

}  // namespace reffil::nn
