#include "reffil/core/cdap.hpp"

#include "reffil/autograd/ops.hpp"
#include "reffil/util/error.hpp"

namespace reffil::core {

namespace AG = reffil::autograd;

CdapGenerator::CdapGenerator(const CdapConfig& config, util::Rng& rng)
    : config_(config) {
  REFFIL_CHECK_MSG(config.num_tokens > 0 && config.token_dim > 0 &&
                       config.prompt_rows > 0,
                   "CDAP: degenerate dimensions");
  norm_ = std::make_unique<nn::LayerNorm>(config.token_dim);
  mlp_ = std::make_unique<nn::Mlp>(
      std::vector<std::size_t>{config.num_tokens, config.mlp_hidden,
                               config.prompt_rows},
      rng);
  ccda_ = std::make_unique<nn::Linear>(config.prompt_rows, config.prompt_rows, rng);
  task_keys_ = std::make_unique<nn::Embedding>(config.max_tasks, config.key_dim, rng);
  phi_ = std::make_unique<nn::Linear>(config.key_dim, 2 * config.prompt_rows, rng);
  register_submodule(*norm_);
  register_submodule(*mlp_);
  register_submodule(*ccda_);
  register_submodule(*task_keys_);
  register_submodule(*phi_);
}

AG::Var CdapGenerator::generate(const AG::Var& tokens,
                                const std::vector<std::size_t>& tasks) const {
  const std::size_t n = tasks.size();
  const auto& shape = tokens->value().shape();
  if (n == 0 || shape.size() != 2 || shape[0] != n * config_.num_tokens ||
      shape[1] != config_.token_dim) {
    throw ShapeError("CDAP expects " + std::to_string(n) + " x [" +
                     std::to_string(config_.num_tokens) + ", " +
                     std::to_string(config_.token_dim) + "] tokens, got " +
                     tensor::shape_to_string(shape));
  }
  for (std::size_t task : tasks) {
    REFFIL_CHECK_MSG(task < config_.max_tasks, "CDAP: task id beyond key capacity");
  }

  // Eq. (1), steps 1-5, per input block.
  const AG::Var normalized = norm_->forward(tokens, n);        // LN(I)
  const AG::Var transposed = AG::transpose(normalized, n);     // [d, n+1]
  const AG::Var projected = mlp_->forward(transposed, n);      // [d, p]
  const AG::Var adapted = AG::tanh(ccda_->forward(projected, n));  // CCDA
  const AG::Var base_prompts = AG::transpose(adapted, n);      // [p, d]

  // Step 6: FiLM conditioning on each input's task-key embedding v.
  const AG::Var v = task_keys_->forward(tasks);                // [1, key_dim]
  const AG::Var affine = phi_->forward(v, n);                  // [1, 2p]
  const std::size_t p = config_.prompt_rows;
  // alpha is offset by +1 so the generator starts near identity scaling and
  // gradients reach the base-prompt path from step one.
  const AG::Var alpha = AG::add_scalar(
      AG::reshape(AG::slice_cols(affine, 0, p), {n * p}), 1.0f);
  const AG::Var lambda = AG::reshape(AG::slice_cols(affine, p, 2 * p), {n * p});
  return AG::rowwise_affine(base_prompts, alpha, lambda);      // alpha*(P+lambda)
}

AG::Var CdapGenerator::generate(const AG::Var& tokens, std::size_t task) const {
  return generate(tokens, std::vector<std::size_t>{task});
}

}  // namespace reffil::core
