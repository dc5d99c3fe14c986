#include "reffil/nn/backbone.hpp"

#include <cmath>

#include "reffil/autograd/graph.hpp"
#include "reffil/tensor/ops.hpp"
#include "reffil/util/error.hpp"
#include "reffil/util/prof.hpp"

namespace reffil::nn {

namespace AG = reffil::autograd;
namespace T = reffil::tensor;

ResidualBlock::ResidualBlock(std::size_t channels, util::Rng& rng) {
  conv1_ = std::make_unique<Conv2d>(channels, channels, 3, 1, 1, rng);
  conv2_ = std::make_unique<Conv2d>(channels, channels, 3, 1, 1, rng);
  register_submodule(*conv1_);
  register_submodule(*conv2_);
}

AG::Var ResidualBlock::forward(const AG::Var& x) const {
  const AG::Var h = conv2_->forward(AG::relu(conv1_->forward(x)));
  return AG::relu(AG::add(x, h));
}

ResNetMini::ResNetMini(std::size_t in_channels, util::Rng& rng) {
  stem_ = std::make_unique<Conv2d>(in_channels, 8, 3, 1, 1, rng);
  block1_ = std::make_unique<ResidualBlock>(8, rng);
  down1_ = std::make_unique<Conv2d>(8, 16, 3, 2, 1, rng);
  block2_ = std::make_unique<ResidualBlock>(16, rng);
  down2_ = std::make_unique<Conv2d>(16, kFeatChannels, 3, 2, 1, rng);
  register_submodule(*stem_);
  register_submodule(*block1_);
  register_submodule(*down1_);
  register_submodule(*block2_);
  register_submodule(*down2_);
}

AG::Var ResNetMini::forward(const AG::Var& image) const {
  AG::Var h = AG::relu(stem_->forward(image));   // [8, 16, 16]
  h = block1_->forward(h);                       // [8, 16, 16]
  h = AG::relu(down1_->forward(h));              // [16, 8, 8]
  h = block2_->forward(h);                       // [16, 8, 8]
  h = AG::relu(down2_->forward(h));              // [32, 4, 4]
  return h;
}

PatchEmbed::PatchEmbed(std::size_t channels, std::size_t map_size,
                       std::size_t patch, std::size_t token_dim,
                       std::uint64_t frozen_seed)
    : channels_(channels),
      map_size_(map_size),
      patch_(patch),
      token_dim_(token_dim) {
  REFFIL_CHECK_MSG(patch > 0 && map_size % patch == 0,
                   "PatchEmbed: map size must be divisible by patch");
  const std::size_t per_side = map_size / patch;
  num_tokens_ = per_side * per_side;
  const std::size_t patch_dim = channels * patch * patch;
  util::Rng rng(frozen_seed);
  const float stddev = std::sqrt(1.0f / static_cast<float>(patch_dim));
  projection_ = AG::constant(T::randn({patch_dim, token_dim}, rng, 0.0f, stddev));
}

AG::Var PatchEmbed::forward(const AG::Var& feature_map) const {
  const auto& shape = feature_map->value().shape();
  if ((shape.size() != 3 && shape.size() != 4) ||
      T::Shape(shape.end() - 3, shape.end()) !=
          T::Shape{channels_, map_size_, map_size_}) {
    throw ShapeError("PatchEmbed expects [" + std::to_string(channels_) + "," +
                     std::to_string(map_size_) + "," +
                     std::to_string(map_size_) + "] per sample, got " +
                     T::shape_to_string(shape));
  }
  return AG::matmul(AG::patchify(feature_map, patch_), projection_);
}

PromptNet::PromptNet(const PromptNetConfig& config, util::Rng& rng)
    : config_(config) {
  REFFIL_CHECK_MSG(config.image_size == 16,
                   "PromptNet is sized for 16x16 inputs (ResNetMini)");
  features_ = std::make_unique<ResNetMini>(config.image_channels, rng);
  patch_embed_ = std::make_unique<PatchEmbed>(
      ResNetMini::kFeatChannels, ResNetMini::kFeatSize, config.patch,
      config.token_dim, config.frozen_seed);
  cls_token_ = add_parameter(T::randn({1, config.token_dim}, rng, 0.0f, 0.2f));
  block_ = std::make_unique<AttentionBlock>(config.token_dim, config.attn_heads,
                                            config.mlp_hidden, rng);
  classifier_ = std::make_unique<Linear>(config.token_dim, config.num_classes, rng);
  register_submodule(*features_);
  register_submodule(*block_);
  register_submodule(*classifier_);
}

AG::Var PromptNet::tokenize(const T::Tensor& images) const {
  const auto& shape = images.shape();
  const bool batch = shape.size() == 4;
  if ((shape.size() != 3 && !batch) ||
      T::Shape(shape.end() - 3, shape.end()) !=
          T::Shape{config_.image_channels, config_.image_size,
                   config_.image_size}) {
    throw ShapeError("PromptNet expects [" + std::to_string(config_.image_channels) +
                     ",16,16] images, got " + T::shape_to_string(shape));
  }
  // graph::input is autograd::constant outside capture; under capture the
  // node becomes a rebindable per-sample image slot of the replayed graph.
  const AG::Var feats = features_->forward(AG::graph::input(images));
  const AG::Var patches = patch_embed_->forward(feats);  // [N·n, d]
  return AG::prepend_rows(cls_token_, patches, batch ? shape[0] : 1);  // Eq. (12)
}

PromptNetOutput PromptNet::forward(const T::Tensor& images,
                                   const std::optional<AG::Var>& prompts) const {
  const std::size_t samples = images.rank() == 4 ? images.dim(0) : 1;
  return forward_tokens(tokenize(images), prompts, samples);
}

PromptNetOutput PromptNet::forward_tokens(const AG::Var& tokens,
                                          const std::optional<AG::Var>& prompts,
                                          std::size_t samples,
                                          bool per_sample_prompts) const {
  obs::prof::Span span("nn.forward");
  std::size_t cls_index = 0;
  AG::Var seq = tokens;
  if (prompts.has_value()) {
    const auto& pv = (*prompts)->value();
    const std::size_t sets = per_sample_prompts ? samples : 1;
    if (pv.rank() != 2 || pv.dim(1) != config_.token_dim ||
        pv.dim(0) % sets != 0) {
      throw ShapeError("prompts must be [" + std::to_string(sets) +
                       "·p, token_dim], got " + T::shape_to_string(pv.shape()));
    }
    // A shared set's gradient folds one partial per sample.
    seq = per_sample_prompts ? AG::concat_rows(*prompts, tokens, samples)
                             : AG::prepend_rows(*prompts, tokens, samples);
    cls_index = pv.dim(0) / sets;
  }
  const AG::Var out = block_->forward(seq, samples);
  const AG::Var cls = AG::sample_row(out, cls_index, samples);     // [N, d]
  const AG::Var logits = classifier_->forward(cls, samples);       // Eq. (14)
  return PromptNetOutput{logits, cls, tokens};
}

}  // namespace reffil::nn
