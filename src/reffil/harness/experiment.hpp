// Experiment harness shared by the bench binaries, examples and tests:
// a method registry, scale control, and single-call experiment execution.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "reffil/core/reffil.hpp"
#include "reffil/data/spec.hpp"
#include "reffil/fed/runtime.hpp"
#include "reffil/util/thread_pool.hpp"

namespace reffil::harness {

/// The eight columns of the paper's Tables 1-4.
enum class MethodKind {
  kFinetune,
  kLwf,
  kEwc,
  kL2p,
  kL2pPool,        ///< FedL2P†
  kDualPrompt,
  kDualPromptPool, ///< FedDualPrompt†
  kRefFiL,
};

std::vector<MethodKind> all_method_kinds();
std::string method_display_name(MethodKind kind);
/// The name `reffil_run --method` takes and `--list` prints (plain ASCII:
/// the pool variants are FedL2P+pool and FedDualPrompt+pool).
std::string method_cli_name(MethodKind kind);
/// The kind whose method_cli_name is `name`, if any.
std::optional<MethodKind> parse_method_name(const std::string& name);

/// Execution scale. The paper trains 30 rounds x 20 epochs on a GPU; the
/// default "scaled" profile keeps every bench binary in CPU seconds while
/// preserving the protocol. REFFIL_BENCH_SCALE=full doubles depth for
/// higher-fidelity runs; REFFIL_BENCH_SCALE=smoke shrinks further for CI.
enum class Scale { kSmoke, kScaled, kFull };

Scale scale_from_env();
std::string to_string(Scale scale);

/// Apply a scale profile to a dataset spec (rounds, epochs, sample counts).
data::DatasetSpec apply_scale(data::DatasetSpec spec, Scale scale);

struct ExperimentConfig {
  std::uint64_t seed = 1;
  /// Client slots: method replicas trained concurrently, each client on one
  /// pool thread. One per pool thread by default, the value
  /// RunConfig::parallelism = 0 resolves to.
  std::size_t parallelism = util::global_thread_pool().size();
  Scale scale = Scale::kScaled;
  /// Capture-and-replay client training graphs through the arena planner
  /// (see autograd/graph.hpp). Replayed steps are bitwise-identical to
  /// eager, so this deliberately does NOT change the result-cache key.
  bool graph_replay = false;
  /// Train each eager batch as runs of at most three samples (or one graph
  /// per sample), swept one after another on the client's thread
  /// (cl::MethodConfig::parallel_samples). Bitwise-identical either way, so
  /// it does not change the result-cache key either.
  bool parallel_samples = true;
  /// RefFiL component switches (Table 5 ablations; ignored by baselines).
  core::RefFiLConfig reffil;
  /// Transport fault simulation (inert by default; see fed/transport.hpp).
  /// Armed profiles change the cache key via FaultProfile::tag(), so a
  /// faulted cell never aliases a clean cached run.
  fed::FaultProfile faults;
  /// Discrete-event federation (disabled by default; see fed/scheduler.hpp).
  /// An enabled config changes the cache key via DesConfig::tag(), same
  /// no-aliasing guarantee as faults.
  fed::DesConfig des;
  /// Wire compression (disabled by default; see fed/compress.hpp). An
  /// enabled codec changes the cache key via CompressionConfig::tag(), so a
  /// compressed cell never aliases an uncompressed cached run.
  fed::CompressionConfig compress;
};

/// Build a method instance for the given dataset.
std::unique_ptr<fed::Method> make_method(MethodKind kind,
                                         const data::DatasetSpec& spec,
                                         const ExperimentConfig& config);

/// Run one (dataset, method) cell end to end.
fed::RunResult run_experiment(const data::DatasetSpec& spec, MethodKind kind,
                              const ExperimentConfig& config);

/// Run one (dataset, RefFiL-variant) cell with explicit component switches
/// (for the Table 5 ablation).
fed::RunResult run_reffil_variant(const data::DatasetSpec& spec,
                                  const core::RefFiLConfig& reffil,
                                  const ExperimentConfig& config);

}  // namespace reffil::harness
