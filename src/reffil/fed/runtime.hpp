// The federated domain-incremental runner (paper Algorithm 1).
//
// For every incremental task: partition the new domain across the grown
// client population, then run R communication rounds — each round samples
// participants, assigns U_n/U_b/U_o groups, broadcasts the serialized global
// state, trains clients in parallel on a thread pool, and aggregates the
// uploaded updates. After each task the global model is evaluated on every
// domain seen so far, producing the accuracy matrix behind all of the
// paper's tables and figures.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "reffil/data/generator.hpp"
#include "reffil/data/spec.hpp"
#include "reffil/fed/compress.hpp"
#include "reffil/fed/health.hpp"
#include "reffil/fed/method.hpp"
#include "reffil/fed/scheduler.hpp"
#include "reffil/fed/result.hpp"
#include "reffil/fed/transport.hpp"

namespace reffil::fed {

/// Source of per-task train/test data. The default is the synthetic domain
/// generator driven by the DatasetSpec; custom sources enable curricula the
/// spec alone cannot express (e.g. the streaming domain+class-incremental
/// extension in reffil/data/streaming.hpp).
class TaskSource {
 public:
  virtual ~TaskSource() = default;
  virtual data::Dataset train_split(std::size_t task) const = 0;
  virtual data::Dataset test_split(std::size_t task) const = 0;
};

struct RunConfig {
  data::DatasetSpec spec;
  std::size_t parallelism = 0;  ///< 0 = thread pool default
  std::uint64_t seed = 1;       ///< scheduler + partition randomness
  double partition_skew = 1.0;  ///< quantity-shift strength
  /// Probability that a selected client fails to return its update this
  /// round (straggler/dropout simulation). Rounds where every participant
  /// drops are skipped entirely (no aggregation).
  double dropout_probability = 0.0;
  /// Simulated transport faults (corruption, duplication, latency/deadline,
  /// retry budget — see fed/transport.hpp). The default profile is inert:
  /// the runner bypasses the transport entirely and the run is
  /// bitwise-identical to a transport-free one. All fault randomness derives
  /// from `seed`, so armed runs are exactly reproducible too.
  FaultProfile faults;
  /// Discrete-event federation (see fed/scheduler.hpp). Disabled by default:
  /// cohorts are then drawn from the data population with zero upload
  /// delays. When enabled, participants are sampled on a virtual clock from
  /// a registered population far larger than the data population, gated by
  /// availability traces. Either way a round trains in a bounded window of
  /// 4 x parallelism clients (largest first) and folds in simulated-arrival
  /// order into one running FedAvg sum, so server memory stays
  /// O(window x payload + model) no matter how many clients a round samples.
  DesConfig des;
  /// Wire compression (fed/compress.hpp): quantized broadcast frames and
  /// top-k sparsified + quantized client deltas with server-held
  /// error-feedback residuals. Disabled by default — every payload, byte
  /// count and cache key is then identical to an uncompressed build.
  CompressionConfig compress;
  /// Optional observer invoked after each task's evaluation, while the
  /// method is still in its prepared-for-eval state (used by the figure
  /// benches to extract features/embeddings per task step).
  std::function<void(Method&, std::size_t task)> after_task;
  /// Optional data-source override; when null, data comes from the spec's
  /// synthetic domain generator (the paper's setting).
  std::shared_ptr<const TaskSource> source;
  /// Live telemetry (fed/health.hpp): when set, the runner feeds the
  /// per-round health detectors and the /progress board, and copies the
  /// health log into the RunResult. Null (the default) keeps the training
  /// path bitwise-identical — the only cost is a null check at round
  /// cadence. Observation only: a monitor never alters a run.
  std::shared_ptr<RunMonitor> monitor;
};

class FederatedRunner {
 public:
  explicit FederatedRunner(RunConfig config);

  /// Run the full T-task curriculum with the given method. Dense and
  /// discrete-event runs (RunConfig::des) share this one round loop; only
  /// the round plan and the fold policy differ.
  RunResult run(Method& method);

  /// Test split for a domain (cached) — exposed for analysis/benches.
  const data::Dataset& test_set(std::size_t domain) const;

  const RunConfig& config() const { return config_; }

 private:
  void evaluate_task(Method& method, std::size_t task, RunResult& result);
  data::Dataset train_pool(std::size_t task) const;

  RunConfig config_;
  data::SyntheticDomainSource generator_;
  mutable std::vector<data::Dataset> test_cache_;
  std::size_t parallelism_;
};

}  // namespace reffil::fed
