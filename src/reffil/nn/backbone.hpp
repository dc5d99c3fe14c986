// The classification backbone from the paper's Appendix A ("Learning with
// Prompts"), scaled for CPU simulation:
//
//   image --ResNetMini--> feature map F --frozen PatchEmbed--> patch tokens
//   I = [CLS; PT_1..PT_n]                                   (Eq. 12)
//   seq = [prompts; I]  (prompt tuning: prompts prepended)
//   out = AttentionBlock(seq)                                (Eq. 13)
//   logits = G([CLS]_B)                                      (Eq. 14)
//
// ResNetMini substitutes the paper's ResNet-10: same family (conv stem +
// residual blocks with stride-2 downsampling), sized for 16x16 synthetic
// images. The patch embed is initialised once from a fixed seed and frozen,
// exactly as the paper freezes its ViT-style tokenizer.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>

#include "reffil/nn/attention.hpp"
#include "reffil/nn/layers.hpp"
#include "reffil/nn/module.hpp"
#include "reffil/tensor/tensor.hpp"

namespace reffil::nn {

/// Residual block: x + conv(relu(conv(x))), then ReLU.
class ResidualBlock : public Module {
 public:
  ResidualBlock(std::size_t channels, util::Rng& rng);
  autograd::Var forward(const autograd::Var& x) const;

 private:
  std::unique_ptr<Conv2d> conv1_, conv2_;
};

/// Small residual CNN feature extractor: [C,16,16] -> [feat_channels,4,4]
/// per sample, for one [C,16,16] image or an [N,C,16,16] batch.
class ResNetMini : public Module {
 public:
  ResNetMini(std::size_t in_channels, util::Rng& rng);

  autograd::Var forward(const autograd::Var& image) const;

  static constexpr std::size_t kFeatChannels = 32;
  static constexpr std::size_t kFeatSize = 4;  // spatial side of output map

 private:
  std::unique_ptr<Conv2d> stem_;
  std::unique_ptr<ResidualBlock> block1_;
  std::unique_ptr<Conv2d> down1_;
  std::unique_ptr<ResidualBlock> block2_;
  std::unique_ptr<Conv2d> down2_;
};

/// Frozen ViT-style tokenizer: gathers the [C,S,S] feature map's
/// (S/patch)^2 patches into rows (AG::patchify) and projects each to
/// token_dim with a fixed random matrix. Not a Module — it owns no trainable
/// parameters; every participant builds an identical tokenizer from the same
/// seed.
class PatchEmbed {
 public:
  PatchEmbed(std::size_t channels, std::size_t map_size, std::size_t patch,
             std::size_t token_dim, std::uint64_t frozen_seed);

  /// [C,S,S] feature map Var -> [n, token_dim] patch tokens; an [N,C,S,S]
  /// batch gives [N·n, token_dim], sample by sample.
  autograd::Var forward(const autograd::Var& feature_map) const;

  std::size_t num_tokens() const { return num_tokens_; }
  std::size_t token_dim() const { return token_dim_; }

 private:
  std::size_t channels_, map_size_, patch_, token_dim_, num_tokens_;
  autograd::Var projection_;  // constant [C*patch*patch, token_dim]
};

struct PromptNetConfig {
  std::size_t image_channels = 1;
  std::size_t image_size = 16;
  std::size_t token_dim = 32;   ///< d in the paper
  std::size_t num_classes = 10;
  std::size_t attn_heads = 2;
  std::size_t mlp_hidden = 64;
  std::size_t patch = 2;        ///< patch side on the 4x4 feature map
  std::uint64_t frozen_seed = 0xF0F0F0F0ULL;  ///< patch-embed seed (shared)
};

/// Output of one forward pass over N samples (N = 1 for a single image).
struct PromptNetOutput {
  autograd::Var logits;  ///< [N, K]
  autograd::Var cls;     ///< [N, d] — post-attention class tokens
  autograd::Var tokens;  ///< [N·(n+1), d] — pre-attention input tokens I (Eq. 12)
};

/// The full prompt-conditioned classifier.
class PromptNet : public Module {
 public:
  PromptNet(const PromptNetConfig& config, util::Rng& rng);

  /// Forward a single [C,H,W] image, or an [N,C,H,W] batch as one graph of
  /// N samples whose values and gradients are bitwise those of N one-image
  /// graphs. If `prompts` is provided it must be a [p, d] Var and is
  /// prepended to every sample's token sequence before attention.
  PromptNetOutput forward(const tensor::Tensor& images,
                          const std::optional<autograd::Var>& prompts = {}) const;

  /// Forward from pre-computed tokens (Eq. 12's I) of `samples` images. Lets
  /// callers run the CNN once and attach several prompt sets (RefFiL
  /// computes xi_l and xi_g from one shared token graph). With `prompts`,
  /// each sample's sequence is [prompts; tokens]: one [p, d] set shared by
  /// every sample, or with per_sample_prompts one [p, d] block per sample
  /// ([samples·p, d]).
  PromptNetOutput forward_tokens(const autograd::Var& tokens,
                                 const std::optional<autograd::Var>& prompts = {},
                                 std::size_t samples = 1,
                                 bool per_sample_prompts = false) const;

  /// Tokenize only (Eq. 12): returns I = [CLS; PT...] per image without
  /// attention — this is the CDAP generator's input.
  autograd::Var tokenize(const tensor::Tensor& images) const;

  const PromptNetConfig& config() const { return config_; }
  std::size_t num_tokens() const { return patch_embed_->num_tokens() + 1; }

 private:
  PromptNetConfig config_;
  std::unique_ptr<ResNetMini> features_;
  std::unique_ptr<PatchEmbed> patch_embed_;  // frozen, parameter-free
  autograd::Var cls_token_;                  // [1, d]
  std::unique_ptr<AttentionBlock> block_;
  std::unique_ptr<Linear> classifier_;
};

}  // namespace reffil::nn
