// Multi-head self-attention and the Appendix-A attention block.
//
// Eq. (13):  I_{b+1} = LN(I'_b + I''_b)
//            I''_b   = MLP(I'_b)
//            I'_b    = LN(MHSA(I_b, I_b, I_b))
#pragma once

#include <cstddef>
#include <memory>

#include "reffil/nn/layers.hpp"
#include "reffil/nn/module.hpp"

namespace reffil::nn {

/// Multi-head self-attention over a [T, d] token sequence, or over `samples`
/// sequences stacked as [samples·T, d]: projections run on all rows at once,
/// scores and softmax per sample.
class MultiHeadSelfAttention : public Module {
 public:
  MultiHeadSelfAttention(std::size_t dim, std::size_t heads, util::Rng& rng);

  autograd::Var forward(const autograd::Var& tokens,
                        std::size_t samples = 1) const;

 private:
  std::size_t dim_, heads_, head_dim_;
  std::unique_ptr<Linear> wq_, wk_, wv_, wo_;
};

/// One transformer block per Eq. (13).
class AttentionBlock : public Module {
 public:
  AttentionBlock(std::size_t dim, std::size_t heads, std::size_t mlp_hidden,
                 util::Rng& rng);

  /// tokens: [samples·T, d], one T-token sequence per sample.
  autograd::Var forward(const autograd::Var& tokens,
                        std::size_t samples = 1) const;

 private:
  std::unique_ptr<MultiHeadSelfAttention> mhsa_;
  std::unique_ptr<LayerNorm> norm_attn_;
  std::unique_ptr<Mlp> mlp_;
  std::unique_ptr<LayerNorm> norm_out_;
};

}  // namespace reffil::nn
