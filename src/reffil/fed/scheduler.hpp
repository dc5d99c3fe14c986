// Client-increment scheduler (paper Appendix A, "Client increment strategy").
//
// The client population grows with each incremental task; at every round the
// selected participants are partitioned into three groups:
//   U_n  "new"        — joined at the current task, only has new-domain data
//   U_b  "in-between" — transitioned old client, trains on old + new data
//                       (Algorithm 1 lines 12-13: D_m = concat(D^{t-1}, D^t))
//   U_o  "old"        — old client that has not transitioned; trains only on
//                       its previous-domain data
// 80% of old clients transition per task (Section 4.1); the composition is
// randomly redrawn every round, as in the paper.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "reffil/util/rng.hpp"

namespace reffil::fed {

enum class ClientGroup { kNew, kInBetween, kOld };

const char* to_string(ClientGroup group);

struct ClientAssignment {
  std::size_t client_id = 0;
  ClientGroup group = ClientGroup::kNew;
  /// Which data shard the client trains on. The dense scheduler's population
  /// IS the data population, so shard == client_id; the discrete-event
  /// scheduler folds a registered population far larger than the data
  /// population onto the spec's shards (client_id mod shards-at-task).
  std::size_t shard = 0;
  /// Simulated seconds from receiving the broadcast to starting the upload
  /// (compute time, jitter, straggler penalty). The runner trains, uploads
  /// and folds a round in this order and cuts clients whose delay passes
  /// the round deadline. Always 0 from the dense scheduler.
  double upload_delay_s = 0.0;
};

struct RoundPlan {
  std::size_t task = 0;
  std::size_t round = 0;
  std::vector<ClientAssignment> participants;
};

struct SchedulerConfig {
  std::size_t initial_clients = 20;
  std::size_t clients_per_round = 10;
  std::size_t client_increment = 2;
  double transition_fraction = 0.8;  ///< share of old clients that move on
};

class ClientIncrementScheduler {
 public:
  ClientIncrementScheduler(SchedulerConfig config, std::uint64_t seed);

  /// Total clients present during task t (0-based); each holds one data
  /// shard.
  std::size_t data_population(std::size_t task) const;

  /// The task at which a client joined the federation (0-based).
  std::size_t join_task(std::size_t client_id) const;

  /// Draw the participant set and group assignment for one round. The dense
  /// federation has no virtual clock, so `sim_time_s` is ignored; it is
  /// there so both schedulers take the same calls.
  RoundPlan plan_round(std::size_t task, std::size_t round,
                       double sim_time_s = 0.0);

 private:
  SchedulerConfig config_;
  util::Rng rng_;
};

/// Knobs of the discrete-event federation. A registered population far larger
/// than the data population is sampled per round; availability traces
/// (diurnal cycles, churn, stragglers) gate who can be drawn and how late
/// their uploads land. The default-constructed config is disabled: the runner
/// then plans rounds with the dense ClientIncrementScheduler. Either way the
/// runner drives the same round loop and fold; only the round plan (this
/// scheduler or the dense one) changes.
struct DesConfig {
  /// Size of the registered population; 0 disables discrete-event federation.
  std::size_t registered_clients = 0;
  /// Participants drawn per round; 0 means "use spec.clients_per_round".
  std::size_t sample_per_round = 0;
  /// Fraction of each client's diurnal cycle spent offline, in [0, 1).
  double offline_fraction = 0.0;
  /// Length of the diurnal cycle in simulated seconds. Each client gets a
  /// stable random phase, so the population's availability follows a
  /// staggered day/night wave rather than a global blackout.
  double diurnal_period_s = 86400.0;
  /// Churn: each client's lifetime is Exp(churn_rate) simulated seconds.
  /// 0 disables churn.
  double churn_rate = 0.0;
  /// When > 0, a churned client rejoins after this long offline (the
  /// lifetime/offline cycle repeats); when 0, churned clients are gone for
  /// good.
  double rejoin_s = 0.0;
  /// Fraction of the population that is persistently slow, and the extra
  /// upload latency those stragglers pay (simulated seconds).
  double straggler_fraction = 0.0;
  double straggler_latency_s = 0.0;
  /// Simulated local-training time: compute_s + compute_jitter_s * U[0,1)
  /// (per client/round, from the client's stable hash stream).
  double compute_s = 0.0;
  double compute_jitter_s = 0.0;
  /// Simulated seconds between consecutive round starts.
  double round_interval_s = 60.0;

  bool enabled() const { return registered_clients > 0; }

  /// Canonical cache-key tag; empty when disabled so existing dense cache
  /// keys stay stable.
  std::string tag() const;

  /// Parse a comma-separated "key=value" spec, e.g.
  ///   "registered=1000000,sample=10000,offline=0.3,churn=1e-6,
  ///    straggler=0.05,straggler_latency=20,compute=5,jitter=3"
  /// Keys: registered, sample, offline, diurnal, churn, rejoin, straggler,
  /// straggler_latency, compute, jitter, interval. Unknown keys or
  /// unparsable values throw ConfigError; empty spec -> disabled config.
  static DesConfig parse(const std::string& spec);
};

/// Participation planner for the discrete-event runner. Holds NO live
/// per-client actors: availability, straggler membership, and group
/// assignment are pure functions of (seed, client, time), and the only
/// O(registered) state is a compact per-client participation counter
/// (4 bytes each — 4 MB for a million clients). Round plans are drawn from
/// a per-round derived generator, so round r's cohort is reproducible from
/// (seed, task, round) alone, independent of what earlier rounds did — the
/// same seeded-reproducibility guarantee the dense scheduler gives.
class DesScheduler {
 public:
  /// `dense` supplies the data-population growth schedule and the group
  /// transition fraction; `des` the registered population and traces.
  /// Throws ConfigError when the resolved per-round sample exceeds the
  /// registered population.
  DesScheduler(SchedulerConfig dense, DesConfig des, std::uint64_t seed);

  /// Data shards present during task t — the dense population schedule.
  std::size_t data_population(std::size_t task) const;

  /// Resolved participants drawn per round.
  std::size_t sample_per_round() const { return sample_; }

  /// True when the client is reachable at simulated time `t` under the
  /// churn and diurnal traces. Pure (seed, client, t) function.
  bool available(std::size_t client_id, double t) const;

  /// Simulated delay between a client receiving the broadcast and its upload
  /// starting: compute time + jitter + straggler penalty. Pure function of
  /// (seed, client, task, round).
  double upload_delay(std::size_t client_id, std::size_t task,
                      std::size_t round) const;

  /// Draw one round's cohort from the available registered population at
  /// simulated time `sim_time_s`. Rejection-samples without replacement and
  /// falls back to a deterministic scan when availability is sparse; if
  /// nobody at all is available the draw ignores availability rather than
  /// stalling the round (counted in forced_rounds()). Each participant's
  /// upload_delay_s is filled from upload_delay().
  RoundPlan plan_round(std::size_t task, std::size_t round, double sim_time_s);

  /// Number of distinct registered clients that have participated so far.
  std::size_t unique_participants() const { return unique_; }
  /// Total participation events (one per selected client per round).
  std::uint64_t total_participations() const { return total_; }
  /// Rounds where the availability traces left nobody to sample and the
  /// draw proceeded ignoring them.
  std::uint64_t forced_rounds() const { return forced_; }

 private:
  double hash01(std::uint64_t a, std::uint64_t b) const;

  SchedulerConfig dense_;
  DesConfig des_;
  std::uint64_t seed_ = 0;
  std::size_t sample_ = 0;
  /// The ONLY per-registered-client state: participation counts.
  std::vector<std::uint32_t> participations_;
  std::size_t unique_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t forced_ = 0;
};

}  // namespace reffil::fed
