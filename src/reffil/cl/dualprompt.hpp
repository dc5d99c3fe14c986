// FedDualPrompt: DualPrompt (Wang et al. 2022) adapted to FDIL.
//
// Two prompt kinds: a General-Prompt shared by all tasks and Expert-Prompts
// specialised per task. During training the expert for the current task id
// is used; at evaluation the task is unknown, so the expert whose key best
// matches the input query is chosen. The paper's two variants:
//   * pool disabled ("FedDualPrompt")  — a single shared expert prompt
//     (no per-task storage; strictly rehearsal-free), and
//   * pool enabled  ("FedDualPrompt†") — one expert per task with key
//     matching, i.e. the expert set acts as a prompt-level rehearsal store.
#pragma once

#include <memory>

#include "reffil/cl/method_base.hpp"
#include "reffil/nn/layers.hpp"

namespace reffil::cl {

struct DualPromptConfig {
  bool use_pool = false;        ///< the dagger variant (per-task experts)
  std::size_t general_rows = 2; ///< G-Prompt token rows
  float key_loss_weight = 0.5f;
};

class DualPromptReplica : public Replica {
 public:
  DualPromptReplica(const MethodConfig& config, const DualPromptConfig& dual,
                    util::Rng& rng)
      : Replica(config, rng),
        general(dual.general_rows, config.net.token_dim, rng),
        experts(config.max_tasks, config.net.token_dim, rng),
        expert_keys(config.max_tasks, config.net.token_dim, rng) {}

  nn::Embedding general;      ///< [g, d] G-Prompt rows
  nn::Embedding experts;      ///< [T_max, d] one E-Prompt row per task
  nn::Embedding expert_keys;  ///< [T_max, d] matching keys

  std::vector<nn::Module*> modules() override {
    return {&net, &general, &experts, &expert_keys};
  }
};

class DualPromptMethod : public MethodBase {
 public:
  DualPromptMethod(MethodConfig config, DualPromptConfig dual = {});

 protected:
  std::unique_ptr<Replica> make_replica(util::Rng& rng) override;
  autograd::Var sample_loss(Replica& replica, const TaggedSample& sample,
                            const fed::TrainJob& job, std::size_t slot) override;
  autograd::Var eval_logits(Replica& replica, const tensor::Tensor& image,
                            std::size_t slot) override;

 private:
  autograd::Var assemble_prompt(const DualPromptReplica& replica,
                                std::size_t expert_index) const;

  DualPromptConfig dual_;
};

}  // namespace reffil::cl
