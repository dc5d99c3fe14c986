// Client-wise Domain Adaptive Prompt generator (paper Eq. 1).
//
//   P_m = LT( CCDA( MLP( LN(I)^T ) ); phi(v) )^T
//       = ( alpha_v * ( CCDA(MLP(LN(I)^T)) + lambda_v ) )^T  in R^{p x d}
//
// Pipeline, for input tokens I in R^{(n+1) x d}:
//   1. LN         — layer-normalize tokens,
//   2. transpose  — to [d, n+1],
//   3. MLP        — (n+1) -> p per latent row, yielding [d, p],
//   4. CCDA       — Cross-Client Domain Adaptation layer: a shared linear
//                   p -> p map (with tanh) whose parameters are FedAvg'd,
//                   giving the generator cross-client generalization,
//   5. transpose  — to prompt form [p, d],
//   6. LT (FiLM)  — affine modulation alpha_v * (P + lambda_v) with
//                   [alpha_v, lambda_v] = phi(v), v the task-key embedding
//                   that conditions prompts on the client's local task id.
#pragma once

#include <memory>
#include <vector>

#include "reffil/nn/layers.hpp"
#include "reffil/nn/module.hpp"

namespace reffil::core {

struct CdapConfig {
  std::size_t num_tokens = 5;   ///< n+1 (CLS + patch tokens)
  std::size_t token_dim = 32;   ///< d
  std::size_t prompt_rows = 4;  ///< p
  std::size_t mlp_hidden = 16;
  std::size_t max_tasks = 8;    ///< task-key embedding capacity
  std::size_t key_dim = 8;      ///< conditional embedding size of v
};

class CdapGenerator : public nn::Module {
 public:
  CdapGenerator(const CdapConfig& config, util::Rng& rng);

  /// Generate the instance-level prompts for the tokens of tasks.size()
  /// inputs ([N·(n+1), d], one block per input), each conditioned on its
  /// own local task id: [N·p, d], one [p, d] block per input, bitwise what
  /// N one-input calls give (N = 1 is the per-sample graph).
  autograd::Var generate(const autograd::Var& tokens,
                         const std::vector<std::size_t>& tasks) const;
  /// One input's prompt [p, d]: generate(tokens, {task}).
  autograd::Var generate(const autograd::Var& tokens, std::size_t task) const;

  const CdapConfig& config() const { return config_; }

 private:
  CdapConfig config_;
  std::unique_ptr<nn::LayerNorm> norm_;
  std::unique_ptr<nn::Mlp> mlp_;
  std::unique_ptr<nn::Linear> ccda_;
  std::unique_ptr<nn::Embedding> task_keys_;
  std::unique_ptr<nn::Linear> phi_;
};

}  // namespace reffil::core
