// The trace records of a federated run: one typed record per occurrence.
//
// Each record names its trace kind once (kEvent) and its members once
// (REFFIL_FIELDS, util/fields.hpp); its trace line is {"event": kEvent, then
// the field-list walk}. A round record that counts something applies itself
// to its round's RoundStats, and RunResult::network is the sum of committed
// rounds, so the trace, the round counters and the run totals cannot
// disagree: summing a traced run's records reproduces every counter
// (tested).
#pragma once

#include <cstdint>
#include <string>

#include "reffil/fed/result.hpp"
#include "reffil/util/fields.hpp"

namespace reffil::fed {

/// The run_start `trace_schema`: the version of the record kinds and fields
/// DESIGN.md §7 lists. Bump it with any change to them.
inline constexpr std::uint32_t kTraceSchema = 2;

/// Writes `r` as one trace line when tracing is on.
template <class R>
void trace_record(const R& r) {
  static_assert(util::fields_match_members<R>());
  if (!obs::trace_enabled()) return;
  obs::TraceEvent event(R::kEvent);
  util::json_members(event.writer(), r);
  obs::trace(event);
}

/// How the round loop records an occurrence: applies `r` to the round's
/// counters (a record without apply() counts nothing) and traces it.
template <class R>
void record(RoundStats& round, const R& r) {
  if constexpr (requires { r.apply(round); }) r.apply(round);
  trace_record(r);
}

/// The coordinates every round record leads with.
struct RoundAt {
  std::uint32_t task = 0, round = 0;
  REFFIL_FIELDS(task, round)
};

struct RunStart {
  static constexpr const char* kEvent = "run_start";
  std::uint32_t trace_schema = kTraceSchema;
  std::string method, dataset;
  std::uint64_t tasks = 0, rounds_per_task = 0, seed = 0;
  REFFIL_FIELDS(trace_schema, method, dataset, tasks, rounds_per_task, seed)
};

/// bytes_down meters every delivery attempt; the raw equivalent is what
/// the first attempts would have cost uncompressed.
struct Broadcast {
  static constexpr const char* kEvent = "broadcast";
  RoundAt at;
  std::uint32_t participants = 0;
  std::uint64_t payload_bytes = 0, bytes_down = 0, bytes_down_raw_equiv = 0;
  double sim_time_s = 0.0;
  REFFIL_FIELDS(at, participants, payload_bytes, bytes_down,
                bytes_down_raw_equiv, sim_time_s)
  void apply(RoundStats& r) const {
    r.selected += participants;
    r.messages += participants;
    r.bytes_down += bytes_down;
    r.bytes_down_raw_equiv += bytes_down_raw_equiv;
  }
};

/// A delivery that needed retransmissions or arrived more than once.
struct Retry {
  static constexpr const char* kEvent = "fed.retry";
  RoundAt at;
  std::uint64_t client = 0;
  const char* direction = "";  ///< "down" | "up"
  std::uint32_t retries = 0, duplicates = 0;
  std::uint64_t bytes_retransmitted = 0;
  REFFIL_FIELDS(at, client, direction, retries, duplicates, bytes_retransmitted)
  void apply(RoundStats& r) const {
    r.retries += retries;
    r.bytes_retransmitted += bytes_retransmitted;
  }
};

struct Timeout {
  static constexpr const char* kEvent = "fed.timeout";
  RoundAt at;
  std::uint64_t client = 0;
  const char* direction = "";
  std::string reason;
  REFFIL_FIELDS(at, client, direction, reason)
  void apply(RoundStats& r) const { ++r.timed_out; }
};

struct Dropout {
  static constexpr const char* kEvent = "dropout";
  RoundAt at;
  std::uint64_t client = 0;
  REFFIL_FIELDS(at, client)
  void apply(RoundStats& r) const { ++r.dropped; }
};

/// One client trained and uploaded; bytes_up meters every attempt.
struct ClientTrain {
  static constexpr const char* kEvent = "client_train";
  RoundAt at;
  std::uint64_t client = 0, shard = 0;
  const char* group = "";
  std::uint64_t slot = 0;
  double wall_s = 0.0, sim_start_s = 0.0;
  std::uint64_t samples = 0, bytes_up = 0, bytes_up_raw_equiv = 0;
  REFFIL_FIELDS(at, client, shard, group, slot, wall_s, sim_start_s, samples,
                bytes_up, bytes_up_raw_equiv)
  void apply(RoundStats& r) const {
    ++r.messages;
    r.bytes_up += bytes_up;
    r.bytes_up_raw_equiv += bytes_up_raw_equiv;
  }
};

/// The server rejected one update, at validation or aggregation.
struct Quarantine {
  static constexpr const char* kEvent = "fed.quarantine";
  RoundAt at;
  std::uint64_t client = 0;
  std::string reason;
  REFFIL_FIELDS(at, client, reason)
  void apply(RoundStats& r) const { ++r.quarantined; }
};

struct Aggregate {
  static constexpr const char* kEvent = "aggregate";
  RoundAt at;
  std::uint64_t updates = 0;
  double wall_s = 0.0;
  REFFIL_FIELDS(at, updates, wall_s)
};

/// A round that carried the global state forward: its committed counters
/// and why.
struct RoundLost {
  static constexpr const char* kEvent = "round_lost";
  RoundStats stats;
  std::string reason;
  REFFIL_FIELDS(stats, reason)
};

/// One seen domain's test accuracy after a task.
struct Eval {
  static constexpr const char* kEvent = "eval";
  std::uint64_t task = 0, domain = 0;
  std::string domain_name;
  double accuracy = 0.0;
  std::uint64_t samples = 0;
  double wall_s = 0.0;
  REFFIL_FIELDS(task, domain, domain_name, accuracy, samples, wall_s)
};

struct DesSummary {
  static constexpr const char* kEvent = "des_summary";
  std::uint64_t registered_clients = 0, sample_per_round = 0;
  std::uint64_t participations = 0, unique_participants = 0;
  std::uint64_t forced_rounds = 0;
  REFFIL_FIELDS(registered_clients, sample_per_round, participations,
                unique_participants, forced_rounds)
};

}  // namespace reffil::fed
