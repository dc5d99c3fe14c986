// FedL2P: Learning-to-Prompt (Wang et al. 2022) adapted to FDIL.
//
// A pool of (key, prompt) pairs is trained with the model. For every input,
// the top-k prompts whose keys best match the input's query embedding are
// prepended to the token sequence; a key-pull loss draws selected keys
// toward their queries. The paper evaluates two variants:
//   * pool disabled  ("FedL2P")  — a fixed set of k shared prompts, no
//     selection (rehearsal-free, the fair-comparison setting), and
//   * pool enabled   ("FedL2P†") — full pool with key matching, which acts
//     as a prompt-level rehearsal buffer.
#pragma once

#include <memory>

#include "reffil/cl/method_base.hpp"
#include "reffil/nn/layers.hpp"

namespace reffil::cl {

struct L2pConfig {
  bool use_pool = false;  ///< the dagger variant
  std::size_t pool_size = 6;
  std::size_t top_k = 2;
  float key_loss_weight = 0.5f;
};

class L2pReplica : public Replica {
 public:
  L2pReplica(const MethodConfig& config, const L2pConfig& l2p, util::Rng& rng)
      : Replica(config, rng),
        keys(l2p.pool_size, config.net.token_dim, rng),
        prompts(l2p.pool_size, config.net.token_dim, rng) {}

  nn::Embedding keys;
  nn::Embedding prompts;

  std::vector<nn::Module*> modules() override { return {&net, &keys, &prompts}; }
};

class L2pMethod : public MethodBase {
 public:
  L2pMethod(MethodConfig config, L2pConfig l2p = {});

 protected:
  std::unique_ptr<Replica> make_replica(util::Rng& rng) override;
  autograd::Var sample_loss(Replica& replica, const TaggedSample& sample,
                            const fed::TrainJob& job, std::size_t slot) override;
  autograd::Var eval_logits(Replica& replica, const tensor::Tensor& image,
                            std::size_t slot) override;

 private:
  /// Prompt selection for one input: pool variant matches keys against the
  /// query; non-pool variant always uses the first top_k prompts.
  std::vector<std::size_t> select(const L2pReplica& replica,
                                  const tensor::Tensor& image) const;

  L2pConfig l2p_;
};

}  // namespace reffil::cl
