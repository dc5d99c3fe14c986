// RefFiL: Rehearsal-free Federated Domain-incremental Learning (the paper's
// contribution, Section 3).
//
// Per client round:
//   * the CDAP generator produces an instance-level local prompt P_l from the
//     input tokens and the task-key embedding (Eq. 1),
//   * L_CE   = cross-entropy with the local prompt attached (Eq. 10),
//   * L_GPL  = cross-entropy with the globally averaged clustered prompt
//              P̄^g attached (Eq. 8-9) — the domain-invariance driver,
//   * L_DPCL = prompt contrastive loss against same-class global prompts
//              with temperature decay (Eq. 6-7),
//   * total  = L_CE + L_GPL + L_DPCL (Eq. 11).
// After training, the client averages its per-class generated prompts into a
// Local Prompt Group (Eq. 2) and uploads it with the model. The server
// FedAvgs the models, clusters the uploaded prompts per class with FINCH
// (Eq. 4-5), and broadcasts the representative set.
//
// Ablation switches reproduce Table 5: use_cdap swaps the generator for a
// static per-class prompt table; use_gpl/use_dpcl disable the respective
// losses (DPCL requires GPL's global prompts).
#pragma once

#include <map>
#include <utility>
#include <memory>

#include "reffil/cl/method_base.hpp"
#include "reffil/core/cdap.hpp"
#include "reffil/nn/layers.hpp"

namespace reffil::core {

/// How inference resolves the unknown test-time task id (the paper lists
/// task-id reliance as a limitation; these policies are the extension that
/// removes it).
enum class EvalTaskPolicy {
  kLatest,      ///< condition the CDAP on the most recent task key only
  kEnsemble,    ///< average logits over every learned task key (default)
  kConfidence,  ///< per instance, pick the task key whose prediction is most
                ///< confident (max softmax probability) — task-free inference
};

struct RefFiLConfig {
  bool use_cdap = true;
  bool use_gpl = true;
  bool use_dpcl = true;

  EvalTaskPolicy eval_task_policy = EvalTaskPolicy::kEnsemble;

  std::size_t prompt_rows = 4;   ///< p in Eq. (1)
  std::size_t cdap_hidden = 16;
  std::size_t key_dim = 8;

  /// Loss weights for Eq. (11). The paper uses unit weights at its scale
  /// (R=30, E=20); at this simulation's depth the auxiliary losses need
  /// smaller steps to avoid destabilizing the few SGD rounds available.
  float gpl_weight = 0.5f;
  float dpcl_weight = 2.5f;

  // Eq. (7) temperature schedule (paper Section 4.1 values).
  float tau = 0.9f;
  float tau_min = 0.3f;
  float gamma = 0.1f;
  float beta = 0.05f;
  bool temperature_decay = true;  ///< ablation knob: fixed tau when false

  std::size_t lpg_sample_budget = 24;  ///< samples used to build the LPG
  std::size_t max_representatives = 8; ///< server-side cap per class
};

/// Eq. (7): tau' = max(tau_min, tau * (1 - (gamma + (t-1) * beta))), with the
/// paper's 1-based task index t.
float dpcl_temperature(const RefFiLConfig& config, std::size_t task_zero_based);

class RefFiLReplica : public cl::Replica {
 public:
  RefFiLReplica(const cl::MethodConfig& config, const RefFiLConfig& reffil,
                util::Rng& rng);

  /// Local prompts for the tokens of tasks.size() inputs, each under its own
  /// task key (Eq. 1 path, one [p, d] block per input), or the static
  /// per-class table in the no-CDAP ablation, one set every input shares.
  autograd::Var local_prompt(const autograd::Var& tokens,
                             const std::vector<std::size_t>& tasks) const;

  std::vector<nn::Module*> modules() override;

  std::unique_ptr<CdapGenerator> cdap;        ///< when use_cdap
  std::unique_ptr<nn::Embedding> class_table; ///< when !use_cdap: [K, d]

 private:
  bool use_cdap_ = true;
};

class RefFiLMethod : public cl::MethodBase {
 public:
  RefFiLMethod(cl::MethodConfig config, RefFiLConfig reffil = {});

  /// Current per-class representative prompts (for analysis / tests).
  const std::map<std::size_t, std::vector<tensor::Tensor>>& representatives() const {
    return representatives_;
  }

 protected:
  std::unique_ptr<cl::Replica> make_replica(util::Rng& rng) override;
  void write_broadcast_extras(util::ByteWriter& writer) override;
  void read_broadcast_extras(util::ByteReader& reader, std::size_t slot) override;
  void write_update_extras(util::ByteWriter& writer, cl::Replica& replica,
                           const fed::TrainJob& job) override;
  /// The local prompt groups: a count the bytes left can hold, then per
  /// group a (label, task) key, strictly increasing, with label <
  /// num_classes and task <= the current task, and a [token_dim] prompt.
  std::any decode_update_extras(util::ByteReader& reader) const override;
  void after_aggregate(std::vector<std::any> extras) override;
  autograd::Var sample_loss(cl::Replica& replica, const TaggedSample& sample,
                            const fed::TrainJob& job, std::size_t slot) override;
  bool batched_step() const override { return true; }
  /// sample_loss over batch[lo, hi) with one node per op for the run.
  autograd::Var run_loss(cl::Replica& replica,
                         const std::vector<TaggedSample>& batch, std::size_t lo,
                         std::size_t hi, const fed::TrainJob& job,
                         std::size_t slot) override;
  autograd::Var eval_logits(cl::Replica& replica, const tensor::Tensor& image,
                            std::size_t slot) override;
  std::string replay_signature(const cl::Replica& replica,
                               const fed::TrainJob& job,
                               std::size_t slot) const override;
  /// The CDAP task key and the GPL context skip are per-sample tag choices.
  bool replay_tags_matter() const override { return true; }

 private:
  struct WorkerPrompts {
    bool has_prompts = false;
    /// Per-domain context matrices [K, d] (row k = that domain's class-k
    /// prompt summary) — the "diverse domain prompts" of Figure 1(c).
    std::map<std::size_t, tensor::Tensor> per_task;
    /// FINCH-clustered representatives per class (Eq. 5) for DPCL sampling.
    std::map<std::size_t, std::vector<tensor::Tensor>> reps_by_class;
    tensor::Tensor pbar;  ///< Eq. (8), [K, d]
  };

  /// dpcl_weight · Eq. (6) summed over the samples with labels[i] whose
  /// class has more global prompts than positives (null when none), off
  /// `local`, the prompts generated for those samples' tokens.
  autograd::Var dpcl_term(const RefFiLReplica& rep, const autograd::Var& local,
                          const std::vector<std::size_t>& labels,
                          const WorkerPrompts& prompts,
                          const fed::TrainJob& job) const;

  using PromptKey = std::pair<std::size_t, std::size_t>;  ///< (class, task)
  /// One client's uploaded prompt per key, in key order.
  using PromptGroups = std::vector<std::pair<PromptKey, tensor::Tensor>>;

  RefFiLConfig reffil_;
  std::vector<WorkerPrompts> worker_prompts_;
  // Server state: fresh per-(class, domain-task) prompt summaries and the
  // FINCH-clustered representatives derived from them.
  std::map<PromptKey, tensor::Tensor> lpg_summaries_;
  std::map<std::size_t, std::vector<tensor::Tensor>> representatives_;
};

}  // namespace reffil::core
