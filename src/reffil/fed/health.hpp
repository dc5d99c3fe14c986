// Live health & anomaly monitoring for a federated run.
//
// Post-mortem traces tell you a run went wrong; a health monitor tells you
// *while it is still running*. A RunMonitor bundles the two live views the
// runner feeds at round boundaries:
//
//   * a HealthMonitor evaluating pluggable per-round detectors,
//   * a ProgressBoard the exposition server (util/expo.hpp) renders as
//     /progress JSON and /metrics extras (run_extras).
//
// Detectors (each disabled by setting its knob <= 0):
//   norm_z          |z| of the round's mean accepted-update L2 norm against a
//                   trailing window of previous rounds — a drifting or
//                   hostile cohort moves this first (cf. Byzantine-tolerant
//                   aggregation, which consumes exactly these statistics)
//   quarantine_rate quarantined / selected within one round — poisoning or
//                   validator regressions spike it
//   latency_slo_s   round wall seconds SLO; fires when more than slo_burn of
//                   the trailing slo_window rounds exceeded it (burn rate,
//                   not a single outlier)
//   accuracy_drop   per-task cumulative accuracy more than this many points
//                   below the mean of previously completed tasks
//
// A firing appends a HealthEvent to the run log and flips the /healthz
// status to degraded with the reason; the status recovers after
// recovery_rounds consecutive clean rounds. The observe calls return their
// firings, which the runner traces as `health` records (fed/records.hpp).
// All of this is observation only: detectors never touch payloads, never draw
// randomness, and never change control flow, so an armed monitor leaves run
// results bitwise-identical (tested) and a missing monitor costs the hot
// path nothing but one null-pointer check per round.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "reffil/fed/result.hpp"
#include "reffil/util/expo.hpp"
#include "reffil/util/obs.hpp"

namespace reffil::fed {

struct MonitorConfig {
  // Detector knobs; a non-positive value disables that detector.
  double norm_z = 4.0;             ///< z-score threshold for norm drift
  std::size_t norm_window = 8;     ///< trailing rounds in the norm baseline
  double quarantine_rate = 0.25;   ///< quarantined / selected per round
  double latency_slo_s = 0.0;      ///< round wall-seconds SLO (off by default)
  double slo_burn = 0.5;           ///< firing fraction of the SLO window
  std::size_t slo_window = 10;
  double accuracy_drop = 2.0;      ///< points below trailing-task mean
  std::size_t recovery_rounds = 5; ///< clean rounds until healthy again

  /// Parse a comma-separated "key=value" spec (keys above, e.g.
  /// "quarantine_rate=0.1,latency_slo=2.5,norm_z=3"). Unknown keys or
  /// unparsable values throw ConfigError; empty spec yields the defaults.
  static MonitorConfig parse(const std::string& spec);
};

/// Running (Welford) mean the runner's uplink sweep feeds with per-update
/// model-state L2 norms (fed::update_state_l2_norm).
struct NormAccumulator {
  std::uint32_t count = 0;
  double mean = 0.0;

  void add(double x) {
    ++count;
    mean += (x - mean) / static_cast<double>(count);
  }
};

class HealthMonitor {
 public:
  explicit HealthMonitor(MonitorConfig config);

  /// Evaluate every per-round detector on a committed round (its latency is
  /// train + aggregate seconds) and its accepted-update norms; returns (and
  /// records) the firings.
  std::vector<HealthEvent> observe_round(const RoundStats& round,
                                         std::uint64_t global_round,
                                         const NormAccumulator& norms);

  /// Evaluate the accuracy-regression detector after a task's evaluation.
  std::vector<HealthEvent> observe_eval(std::uint32_t task,
                                        double cumulative_accuracy,
                                        std::uint64_t global_round);

  /// /healthz view: healthy unless a detector fired within the last
  /// recovery_rounds committed rounds.
  bool healthy() const;
  std::string reason() const;  ///< latest firing's detail ("" while healthy)

  std::vector<HealthEvent> events() const;  ///< all firings, in order
  const MonitorConfig& config() const { return config_; }

 private:
  /// Completes `event` (whose coordinates are set) and logs it.
  void fire(HealthEvent event, std::string detector, double value,
            double threshold, std::string detail,
            std::vector<HealthEvent>& out);

  mutable std::mutex mutex_;
  MonitorConfig config_;
  std::deque<double> norm_history_;  ///< per-round mean norms (trailing)
  std::deque<bool> slo_history_;     ///< true = round exceeded the SLO
  std::vector<double> task_accuracy_;
  std::vector<HealthEvent> events_;
  std::uint64_t rounds_seen_ = 0;
  std::uint64_t last_fire_seen_ = 0;  ///< rounds_seen_ at the latest firing
  bool ever_fired_ = false;
  std::string reason_;
};

/// Live progress shared between the runner (sole writer) and the exposition
/// server / monitor CLI (readers). Plain data with a field list: /progress
/// is its JSON walk, so the network counters render flat under the same
/// names as in run_end and `reffil_run --json`.
struct ProgressSnapshot {
  std::string method;
  std::string dataset;
  std::uint64_t tasks_total = 0;
  std::uint64_t rounds_per_task = 0;
  std::uint64_t task = 0;            ///< current (0-based) task
  std::uint64_t round_in_task = 0;   ///< rounds committed within the task
  std::uint64_t rounds_done = 0;     ///< rounds committed overall
  std::uint64_t rounds_total = 0;
  std::uint64_t participants = 0;    ///< cumulative selected
  NetworkStats network;              ///< the run-so-far RunResult::network
  double round_p50_s = 0.0;  ///< round train+aggregate seconds, this run only
  double round_p95_s = 0.0;
  double round_p99_s = 0.0;
  std::vector<double> task_accuracy;  ///< cumulative accuracy per done task
  double sim_time_s = 0.0;
  double wall_seconds = 0.0;
  bool done = false;
  bool healthy = true;
  std::string health_reason;
  std::uint64_t alerts_fired = 0;   ///< detector firings over the run
  std::vector<HealthEvent> alerts;  ///< most recent firings (bounded)

  REFFIL_FIELDS(method, dataset, tasks_total, rounds_per_task, task,
                round_in_task, rounds_done, rounds_total, participants, network,
                round_p50_s, round_p95_s, round_p99_s, task_accuracy,
                sim_time_s, wall_seconds, done, healthy, health_reason,
                alerts_fired, alerts)

  /// The /progress body.
  std::string render_json() const;
};
static_assert(util::fields_match_members<ProgressSnapshot>());

/// The /metrics extras a monitored run exposes beyond the process registry:
/// run-scoped `reffil_run_*` series from the progress board. Every
/// NetworkStats field is a counter, so the final values reconcile exactly
/// with RunResult::network and the `--json` output.
std::vector<obs::expo::ExtraMetric> run_extras(const ProgressSnapshot& p);

class ProgressBoard {
 public:
  void update(ProgressSnapshot snap);
  ProgressSnapshot get() const;

 private:
  mutable std::mutex mutex_;
  ProgressSnapshot snap_;
};

/// The bundle a monitored run carries: health + progress. Created by the
/// driver (reffil_run --serve-metrics), handed to the runner via
/// RunConfig::monitor, read by the exposition server. All hooks are cheap
/// (a mutex and a board copy at round cadence) and rng-free.
class RunMonitor {
 public:
  explicit RunMonitor(MonitorConfig config);

  HealthMonitor& health() { return health_; }
  ProgressBoard& board() { return board_; }

  // -- runner hooks ----------------------------------------------------------
  void on_run_start(const std::string& method, const std::string& dataset,
                    std::uint64_t tasks_total, std::uint64_t rounds_per_task);
  /// Called from commit_round with the run-so-far result, the committed
  /// round, and the uplink norm statistics; returns the firings. After a
  /// task's evaluation the runner calls health().observe_eval directly.
  std::vector<HealthEvent> on_round(const RunResult& result,
                                    const RoundStats& round,
                                    std::uint64_t global_round,
                                    double sim_time_s,
                                    const NormAccumulator& norms);
  /// Marks the board done and copies the health log and its summary into
  /// the result (RunResult::health / RunResult::monitor).
  void finalize(RunResult& result);

 private:
  void refresh_board(const RunResult& result, const RoundStats* round,
                     double sim_time_s, bool done = false);

  HealthMonitor health_;
  ProgressBoard board_;
  obs::Histogram round_latency_;  ///< this run's per-round train+agg seconds
  std::chrono::steady_clock::time_point start_;
};

}  // namespace reffil::fed
