#include "reffil/fed/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "reffil/util/error.hpp"

namespace reffil::fed {

const char* to_string(ClientGroup group) {
  switch (group) {
    case ClientGroup::kNew: return "U_n";
    case ClientGroup::kInBetween: return "U_b";
    case ClientGroup::kOld: return "U_o";
  }
  return "?";
}

ClientIncrementScheduler::ClientIncrementScheduler(SchedulerConfig config,
                                                   std::uint64_t seed)
    : config_(config), rng_(seed) {
  REFFIL_CHECK_MSG(config.initial_clients > 0, "scheduler: no initial clients");
  REFFIL_CHECK_MSG(config.clients_per_round > 0, "scheduler: zero per round");
  REFFIL_CHECK_MSG(config.clients_per_round <= config.initial_clients,
                   "scheduler: cannot select more clients than exist");
  REFFIL_CHECK_MSG(
      config.transition_fraction >= 0.0 && config.transition_fraction <= 1.0,
      "scheduler: transition fraction must be in [0,1]");
}

std::size_t ClientIncrementScheduler::data_population(std::size_t task) const {
  return config_.initial_clients + task * config_.client_increment;
}

std::size_t ClientIncrementScheduler::join_task(std::size_t client_id) const {
  if (client_id < config_.initial_clients) return 0;
  if (config_.client_increment == 0) {
    throw ConfigError("client id beyond initial population with zero increment");
  }
  return (client_id - config_.initial_clients) / config_.client_increment + 1;
}

RoundPlan ClientIncrementScheduler::plan_round(std::size_t task,
                                               std::size_t round,
                                               double /*sim_time_s*/) {
  const std::size_t population = data_population(task);
  // The constructor only checked against initial_clients; a shrinking or
  // misconfigured schedule could still present a task whose population is
  // smaller than the cohort, so validate against the population actually
  // sampled this task.
  REFFIL_CHECK_MSG(config_.clients_per_round <= population,
                   "scheduler: round cohort exceeds this task's population");
  const auto selected =
      rng_.sample_without_replacement(population, config_.clients_per_round);

  RoundPlan plan;
  plan.task = task;
  plan.round = round;
  plan.participants.reserve(selected.size());

  // Old clients (joined before this task) transition with probability
  // config.transition_fraction — the paper's Section 4.1 setup uses 0.8
  // (redrawn each round, as the paper specifies): a transitioned client now
  // trains on the new domain only — its old-task data is gone, which is what
  // makes the setting rehearsal-free. The non-transitioned minority splits
  // between U_b (mid-transition, holds old + new per Algorithm 1 line 13)
  // and U_o (still exclusively on the previous domain). Task 0 has no old
  // domains, so everyone is U_n.
  for (std::size_t client_id : selected) {
    ClientAssignment assignment;
    assignment.client_id = client_id;
    assignment.shard = client_id;  // dense: population == data population
    if (task == 0 || join_task(client_id) == task ||
        rng_.bernoulli(config_.transition_fraction)) {
      assignment.group = ClientGroup::kNew;
    } else if (rng_.bernoulli(0.5)) {
      assignment.group = ClientGroup::kInBetween;
    } else {
      assignment.group = ClientGroup::kOld;
    }
    plan.participants.push_back(assignment);
  }
  return plan;
}

namespace {

// %g keeps the tag short and canonical for any knob a parse() round-trip
// can produce (same convention as FaultProfile::tag).
std::string format_knob(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", v);
  return buffer;
}

}  // namespace

std::string DesConfig::tag() const {
  if (!enabled()) return "";
  return "des:n" + std::to_string(registered_clients) + ",k" +
         std::to_string(sample_per_round) + ",off" +
         format_knob(offline_fraction) + ",dp" + format_knob(diurnal_period_s) +
         ",ch" + format_knob(churn_rate) + ",rj" + format_knob(rejoin_s) +
         ",st" + format_knob(straggler_fraction) + ",sl" +
         format_knob(straggler_latency_s) + ",c" + format_knob(compute_s) +
         ",j" + format_knob(compute_jitter_s) + ",iv" +
         format_knob(round_interval_s);
}

DesConfig DesConfig::parse(const std::string& spec) {
  DesConfig config;
  std::size_t begin = 0;
  while (begin < spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(begin, end - begin);
    begin = end + 1;
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      throw ConfigError("des spec entry '" + entry + "' is not key=value");
    }
    const std::string key = entry.substr(0, eq);
    const std::string value = entry.substr(eq + 1);
    char* parse_end = nullptr;
    const double v = std::strtod(value.c_str(), &parse_end);
    if (parse_end == value.c_str() || *parse_end != '\0' || !std::isfinite(v) ||
        v < 0.0) {
      throw ConfigError("des spec value '" + value + "' for '" + key +
                        "' is not a non-negative number");
    }
    if (key == "registered") {
      config.registered_clients = spec_count(v, "des registered");
    } else if (key == "sample") {
      config.sample_per_round = spec_count(v, "des sample");
    } else if (key == "offline") {
      config.offline_fraction = v;
    } else if (key == "diurnal") {
      config.diurnal_period_s = v;
    } else if (key == "churn") {
      config.churn_rate = v;
    } else if (key == "rejoin") {
      config.rejoin_s = v;
    } else if (key == "straggler") {
      config.straggler_fraction = v;
    } else if (key == "straggler_latency") {
      config.straggler_latency_s = v;
    } else if (key == "compute") {
      config.compute_s = v;
    } else if (key == "jitter") {
      config.compute_jitter_s = v;
    } else if (key == "interval") {
      config.round_interval_s = v;
    } else {
      throw ConfigError("unknown des spec key '" + key +
                        "' (known: registered, sample, offline, diurnal, "
                        "churn, rejoin, straggler, straggler_latency, "
                        "compute, jitter, interval)");
    }
  }
  if (config.offline_fraction >= 1.0 || config.straggler_fraction > 1.0) {
    throw ConfigError("des fractions must be < 1 (offline) / <= 1 (straggler)");
  }
  if (config.enabled() && config.diurnal_period_s <= 0.0) {
    throw ConfigError("des diurnal period must be positive");
  }
  return config;
}

DesScheduler::DesScheduler(SchedulerConfig dense, DesConfig des,
                           std::uint64_t seed)
    : dense_(dense), des_(des), seed_(seed) {
  REFFIL_CHECK_MSG(des_.enabled(), "DesScheduler needs registered clients");
  sample_ = des_.sample_per_round == 0 ? dense_.clients_per_round
                                       : des_.sample_per_round;
  if (sample_ == 0 || sample_ > des_.registered_clients) {
    throw ConfigError("des sample size must be in [1, registered population]");
  }
  participations_.assign(des_.registered_clients, 0);
}

std::size_t DesScheduler::data_population(std::size_t task) const {
  return dense_.initial_clients + task * dense_.client_increment;
}

double DesScheduler::hash01(std::uint64_t a, std::uint64_t b) const {
  // Stable per-(client, purpose[, round]) uniform draw: one splitmix64 pass
  // over the mixed key. 2^-53-grained in [0, 1).
  std::uint64_t key = seed_ ^ (a * 0x9E3779B97F4A7C15ULL) ^
                      (b * 0xC2B2AE3D27D4EB4FULL);
  return static_cast<double>(util::splitmix64(key) >> 11) *
         (1.0 / 9007199254740992.0);
}

bool DesScheduler::available(std::size_t client_id, double t) const {
  if (des_.churn_rate > 0.0) {
    // Lifetime ~ Exp(churn_rate) via the client's stable uniform draw.
    const double u = hash01(client_id, 0xC42C17ULL);
    const double lifetime = -std::log1p(-u) / des_.churn_rate;
    if (des_.rejoin_s > 0.0) {
      // alive for `lifetime`, offline for `rejoin_s`, repeat.
      if (std::fmod(t, lifetime + des_.rejoin_s) >= lifetime) return false;
    } else if (t >= lifetime) {
      return false;  // departed for good
    }
  }
  if (des_.offline_fraction > 0.0) {
    // Staggered diurnal wave: each client sleeps through the same fraction
    // of its cycle, phase-shifted by its stable hash.
    const double phase = hash01(client_id, 0xD1A2ULL);
    const double local = std::fmod(t / des_.diurnal_period_s + phase, 1.0);
    if (local < des_.offline_fraction) return false;
  }
  return true;
}

double DesScheduler::upload_delay(std::size_t client_id, std::size_t task,
                                  std::size_t round) const {
  double delay = des_.compute_s;
  if (des_.compute_jitter_s > 0.0) {
    const std::uint64_t per_round =
        (task + 1) * 0x9DDFEA08EB382D69ULL + round;
    delay += des_.compute_jitter_s * hash01(client_id, per_round);
  }
  if (des_.straggler_fraction > 0.0 &&
      hash01(client_id, 0x57A66ULL) < des_.straggler_fraction) {
    delay += des_.straggler_latency_s;
  }
  return delay;
}

RoundPlan DesScheduler::plan_round(std::size_t task, std::size_t round,
                                   double sim_time_s) {
  const std::size_t n = des_.registered_clients;
  // Per-round derived generator: the cohort depends on (seed, task, round)
  // only, never on how earlier rounds consumed randomness — editing round 3
  // cannot reshuffle round 7.
  util::Rng rng(seed_ ^ (task * 0x9E3779B97F4A7C15ULL) ^
                ((round + 1) * 0xC2B2AE3D27D4EB4FULL) ^ 0xDE5ULL);

  std::vector<bool> picked(n, false);
  std::vector<std::size_t> selected;
  selected.reserve(sample_);

  // Rejection sampling covers the common case (availability well above
  // sample/population) in O(sample) expected draws; the deterministic scan
  // from a random offset finishes the job when availability is sparse or
  // sample approaches the population.
  const std::size_t max_attempts = 16 * sample_ + 64;
  for (std::size_t attempt = 0;
       attempt < max_attempts && selected.size() < sample_; ++attempt) {
    const std::size_t c = rng.uniform_index(n);
    if (picked[c] || !available(c, sim_time_s)) continue;
    picked[c] = true;
    selected.push_back(c);
  }
  if (selected.size() < sample_) {
    const std::size_t start = rng.uniform_index(n);
    for (std::size_t i = 0; i < n && selected.size() < sample_; ++i) {
      const std::size_t c = (start + i) % n;
      if (picked[c] || !available(c, sim_time_s)) continue;
      picked[c] = true;
      selected.push_back(c);
    }
  }
  if (selected.empty()) {
    // Everyone is offline (e.g. churn with no rejoin past every lifetime).
    // Stalling the federation forever would be worse than sampling through
    // the trace, so draw ignoring availability and count the event.
    ++forced_;
    for (std::size_t i = 0; i < sample_; ++i) {
      selected.push_back(rng.uniform_index(n));
      // duplicates possible only when sample_ > n, which the ctor forbids;
      // still, keep the draw without replacement.
      while (picked[selected.back()]) {
        selected.back() = (selected.back() + 1) % n;
      }
      picked[selected.back()] = true;
    }
  }
  std::sort(selected.begin(), selected.end());

  RoundPlan plan;
  plan.task = task;
  plan.round = round;
  plan.participants.reserve(selected.size());
  const std::size_t shards = data_population(task);
  for (const std::size_t client_id : selected) {
    if (participations_[client_id]++ == 0) ++unique_;
    ++total_;

    ClientAssignment assignment;
    assignment.client_id = client_id;
    assignment.shard = client_id % shards;
    assignment.upload_delay_s = upload_delay(client_id, task, round);
    // Group draw is a pure hash of (client, task, round) so it matches the
    // dense semantics (redrawn each round, transition_fraction of old
    // clients move on) while staying history-independent.
    const std::size_t join = dense_.client_increment == 0
                                 ? 0
                                 : (assignment.shard < dense_.initial_clients
                                        ? 0
                                        : (assignment.shard -
                                           dense_.initial_clients) /
                                                  dense_.client_increment +
                                              1);
    const std::uint64_t per_round =
        (task + 1) * 0xA0761D6478BD642FULL + round;
    if (task == 0 || join == task ||
        hash01(client_id * 2 + 1, per_round) < dense_.transition_fraction) {
      assignment.group = ClientGroup::kNew;
    } else if (hash01(client_id * 2, per_round) < 0.5) {
      assignment.group = ClientGroup::kInBetween;
    } else {
      assignment.group = ClientGroup::kOld;
    }
    plan.participants.push_back(assignment);
  }
  return plan;
}

}  // namespace reffil::fed
