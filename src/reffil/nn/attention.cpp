#include "reffil/nn/attention.hpp"

#include <cmath>

#include "reffil/util/error.hpp"
#include "reffil/util/prof.hpp"

namespace reffil::nn {

namespace AG = reffil::autograd;

MultiHeadSelfAttention::MultiHeadSelfAttention(std::size_t dim, std::size_t heads,
                                               util::Rng& rng)
    : dim_(dim), heads_(heads), head_dim_(dim / heads) {
  REFFIL_CHECK_MSG(heads > 0 && dim % heads == 0,
                   "attention dim must be divisible by head count");
  wq_ = std::make_unique<Linear>(dim, dim, rng);
  wk_ = std::make_unique<Linear>(dim, dim, rng);
  wv_ = std::make_unique<Linear>(dim, dim, rng);
  wo_ = std::make_unique<Linear>(dim, dim, rng);
  register_submodule(*wq_);
  register_submodule(*wk_);
  register_submodule(*wv_);
  register_submodule(*wo_);
}

AG::Var MultiHeadSelfAttention::forward(const AG::Var& tokens,
                                        std::size_t samples) const {
  REFFIL_CHECK_MSG(tokens->value().rank() == 2 && tokens->value().dim(1) == dim_,
                   "MHSA expects [T, dim] tokens");
  obs::prof::Span span("nn.attention");
  const AG::Var q = wq_->forward(tokens, samples);
  const AG::Var k = wk_->forward(tokens, samples);
  const AG::Var v = wv_->forward(tokens, samples);
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  AG::Var merged;  // concat of per-head outputs along columns
  // Heads are evaluated sequentially because autograd graph construction is
  // single-threaded by design; the per-head score/context matmuls and the
  // row softmax are where the work lives, and they run serially too.
  for (std::size_t h = 0; h < heads_; ++h) {
    const std::size_t lo = h * head_dim_, hi = lo + head_dim_;
    const AG::Var qh = AG::slice_cols(q, lo, hi);
    const AG::Var kh = AG::slice_cols(k, lo, hi);
    const AG::Var vh = AG::slice_cols(v, lo, hi);
    // Fused q·kᵀ: no transposed key copy is materialized in forward or
    // backward (AG::matmul_nt routes both through the _nt/_tn kernels).
    // Each sample attends over its own T tokens: [samples·T, T] scores.
    const AG::Var scores = AG::matmul_nt(qh, kh, samples, scale);
    const AG::Var attn = AG::softmax_rows(scores);
    const AG::Var out_h = AG::matmul_per_sample(attn, vh, samples);
    merged = (h == 0) ? out_h : AG::concat_cols(merged, out_h);
  }
  return wo_->forward(merged, samples);
}

AttentionBlock::AttentionBlock(std::size_t dim, std::size_t heads,
                               std::size_t mlp_hidden, util::Rng& rng) {
  mhsa_ = std::make_unique<MultiHeadSelfAttention>(dim, heads, rng);
  norm_attn_ = std::make_unique<LayerNorm>(dim);
  mlp_ = std::make_unique<Mlp>(std::vector<std::size_t>{dim, mlp_hidden, dim}, rng);
  norm_out_ = std::make_unique<LayerNorm>(dim);
  register_submodule(*mhsa_);
  register_submodule(*norm_attn_);
  register_submodule(*mlp_);
  register_submodule(*norm_out_);
}

AG::Var AttentionBlock::forward(const AG::Var& tokens,
                                std::size_t samples) const {
  // Eq. (13): I' = LN(MHSA(I)); I'' = MLP(I'); I_{b+1} = LN(I' + I'').
  const AG::Var i_prime =
      norm_attn_->forward(mhsa_->forward(tokens, samples), samples);
  const AG::Var i_second = mlp_->forward(i_prime, samples);
  return norm_out_->forward(AG::add(i_prime, i_second), samples);
}

}  // namespace reffil::nn
