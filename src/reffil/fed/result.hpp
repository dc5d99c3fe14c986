// The result records of a federated run and their field lists.
//
// RunResult carries the per-domain accuracy matrix (TaskResult), network
// accounting (NetworkStats), per-round breakdowns (RoundStats), and the
// health log (HealthEvent, MonitorSummary). Each struct names its members
// once in a static fields() list (util/fields.hpp); the cache encoding, the
// run_end trace event, `reffil_run --json`, /progress and the /metrics
// extras are all walks over these lists, so the channels cannot disagree.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "reffil/util/fields.hpp"

namespace reffil::fed {

/// One detector firing. Stored on the RunResult (and in the cache), traced
/// by the runner as a `health` record, listed by /progress and reffil_report.
struct HealthEvent {
  static constexpr const char* kEvent = "health";
  std::uint32_t task = 0;
  std::uint32_t round = 0;          ///< round within the task
  std::uint64_t global_round = 0;   ///< curriculum-order round index
  std::string detector;             ///< "norm_z" | "quarantine_rate" | ...
  double value = 0.0;               ///< observed statistic
  double threshold = 0.0;           ///< configured limit it crossed
  std::string detail;               ///< human-readable cause

  bool operator==(const HealthEvent&) const = default;
  REFFIL_FIELDS(task, round, global_round, detector, value, threshold, detail)
};
static_assert(util::fields_match_members<HealthEvent>());

/// Compact monitor accounting carried on the RunResult (and the cache) so
/// post-hoc tools know a run was monitored and how it ended.
struct MonitorSummary {
  bool enabled = false;
  std::uint64_t alerts = 0;  ///< detector firings over the run
  bool healthy_at_end = true;

  bool operator==(const MonitorSummary&) const = default;
  REFFIL_FIELDS(enabled, alerts, healthy_at_end)
};
static_assert(util::fields_match_members<MonitorSummary>());

/// Evaluation after finishing one task.
struct TaskResult {
  std::size_t task = 0;
  std::string domain_name;                ///< the domain learned in this task
  std::vector<double> per_domain_accuracy;  ///< on each seen domain's test set
  double cumulative_accuracy = 0.0;  ///< over the union of seen test sets —
                                     ///< the paper's per-step accuracy
  double eval_seconds = 0.0;  ///< wall time of this task's evaluation sweep

  bool operator==(const TaskResult&) const = default;
  REFFIL_FIELDS(task, domain_name, per_domain_accuracy, cumulative_accuracy,
                eval_seconds)
};
static_assert(util::fields_match_members<TaskResult>());

/// A run's traffic: the sum of its committed rounds' RoundStats.
struct NetworkStats {
  std::uint64_t bytes_down = 0;  ///< server -> clients (all delivery attempts)
  std::uint64_t bytes_up = 0;    ///< clients -> server (all delivery attempts)
  std::uint64_t messages = 0;    ///< logical messages (retries are not new ones)
  std::uint64_t dropped_updates = 0;  ///< client dropouts (see RunConfig)
  // Transport-fault accounting — all zero unless RunConfig::faults is armed.
  std::uint64_t quarantined = 0;  ///< inbound updates rejected by validation
  std::uint64_t retries = 0;      ///< retransmissions, both directions
  std::uint64_t timed_out = 0;    ///< deliveries lost to the round deadline
  std::uint64_t bytes_retransmitted = 0;  ///< wire bytes beyond first attempts
  // Compression accounting: the f32-serialized bytes the same logical
  // payloads would have cost uncompressed (first attempts only — retries do
  // not inflate the raw equivalent). Equal to bytes_down/bytes_up when
  // compression is off and the transport is inert; the ratio
  // raw_equiv / bytes is the wire compression factor.
  std::uint64_t bytes_down_raw_equiv = 0;
  std::uint64_t bytes_up_raw_equiv = 0;

  bool operator==(const NetworkStats&) const = default;
  REFFIL_FIELDS(bytes_down, bytes_up, messages, dropped_updates, quarantined,
                retries, timed_out, bytes_retransmitted, bytes_down_raw_equiv,
                bytes_up_raw_equiv)
};
static_assert(util::fields_match_members<NetworkStats>());

/// Timing / traffic breakdown of one communication round. Its counters are
/// the sums of the round's records (fed/records.hpp), and RunResult::network
/// is their sum over rounds.
struct RoundStats {
  std::uint32_t task = 0;
  std::uint32_t round = 0;
  std::uint32_t selected = 0;  ///< participants chosen (before dropout)
  std::uint32_t dropped = 0;   ///< of which lost to the dropout simulation
  std::uint64_t bytes_down = 0;
  std::uint64_t bytes_up = 0;
  /// Wall time of the round's client window: training plus the streamed
  /// folds that run inside it.
  double train_seconds = 0.0;
  /// Wall time after the window: the sink's finish(). The two never count
  /// the same time, so their sum is the round's train-and-fold latency (the
  /// monitor's round latency and SLO).
  double aggregate_seconds = 0.0;
  // Transport-fault, message and raw-equivalent accounting: see NetworkStats.
  std::uint32_t quarantined = 0;
  std::uint32_t retries = 0;
  std::uint32_t timed_out = 0;
  std::uint64_t bytes_retransmitted = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes_down_raw_equiv = 0;
  std::uint64_t bytes_up_raw_equiv = 0;

  bool operator==(const RoundStats&) const = default;
  REFFIL_FIELDS(task, round, selected, dropped, bytes_down, bytes_up,
                train_seconds, aggregate_seconds, quarantined, retries,
                timed_out, bytes_retransmitted, messages, bytes_down_raw_equiv,
                bytes_up_raw_equiv)
};
static_assert(util::fields_match_members<RoundStats>());

/// Everything a run reports. Its field list is the one schema behind the
/// cache encoding (harness/cache.hpp), the run_end trace event and the
/// `reffil_run --json` document (write_run_summary / write_run_json below).
struct RunResult {
  std::string method_name;
  std::string dataset_name;
  /// Canonical CompressionConfig::to_string() of the run ("none", "q8,..."),
  /// so cached cells and JSON output are self-describing.
  std::string compression = "none";
  std::vector<TaskResult> tasks;
  NetworkStats network;
  double wall_seconds = 0.0;
  std::vector<RoundStats> rounds;  ///< one entry per round, curriculum order
  /// Health-detector firings, in firing order (empty for unmonitored runs —
  /// and for healthy monitored ones). Cached with the run and surfaced by
  /// reffil_run --json ("health" block) and reffil_report's alerts column.
  std::vector<HealthEvent> health;
  MonitorSummary monitor;  ///< enabled=false when the run was unmonitored

  bool operator==(const RunResult&) const = default;
  REFFIL_FIELDS(method_name, dataset_name, compression, tasks, network,
                wall_seconds, rounds, health, monitor)

  /// iCaRL-style Average: mean of the per-step cumulative accuracies.
  double average_accuracy() const;
  /// Final-step cumulative accuracy (the paper's "Last").
  double last_accuracy() const;
  /// Sums over rounds / tasks (0 when breakdowns are absent).
  double train_seconds() const;
  double aggregate_seconds() const;
  double eval_seconds() const;
  /// Participants selected over all rounds. Under DES this counts sampled
  /// cohort members; dense runs count clients_per_round per round.
  std::uint64_t participants() const;
  /// Raw-equivalent over wire bytes (1 when nothing was sent).
  double compression_ratio_down() const;
  double compression_ratio_up() const;
};
static_assert(util::fields_match_members<RunResult>());

/// The run summary the run_end trace event carries: RunResult's scalar
/// fields, its network counters (flat), and the derived avg, last,
/// participants, compression ratios and phase seconds.
void write_run_summary(obs::JsonWriter& w, const RunResult& result);

/// The members of the `reffil_run --json` document: write_run_summary, then
/// "tasks" (the TaskResult list — the accuracy matrix) and a "health" object
/// (the MonitorSummary fields and the HealthEvent list as "events"). The
/// caller opens and closes the object.
void write_run_json(obs::JsonWriter& w, const RunResult& result);

}  // namespace reffil::fed
