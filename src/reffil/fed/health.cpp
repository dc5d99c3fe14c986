#include "reffil/fed/health.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "reffil/fed/runtime.hpp"
#include "reffil/util/error.hpp"
#include "reffil/util/obs.hpp"

namespace reffil::fed {

namespace {

std::string format_stat(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

}  // namespace

// ---- MonitorConfig ---------------------------------------------------------

MonitorConfig MonitorConfig::parse(const std::string& spec) {
  MonitorConfig config;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      throw ConfigError("monitor spec item '" + item +
                        "' is not key=value");
    }
    const std::string key = item.substr(0, eq);
    const std::string raw = item.substr(eq + 1);
    double value = 0.0;
    try {
      std::size_t used = 0;
      value = std::stod(raw, &used);
      if (used != raw.size()) throw std::invalid_argument(raw);
    } catch (const std::exception&) {
      throw ConfigError("monitor spec value '" + raw + "' for key '" + key +
                        "' is not a number");
    }
    const auto as_size = [&](const char* name) {
      if (value < 0.0) {
        throw ConfigError(std::string("monitor ") + name +
                          " must be non-negative");
      }
      return static_cast<std::size_t>(value);
    };
    if (key == "capacity" || key == "timeseries_capacity") {
      config.timeseries_capacity = as_size("capacity");
    } else if (key == "interval" || key == "wallclock_interval") {
      config.wallclock_interval_s = value;
    } else if (key == "norm_z") {
      config.norm_z = value;
    } else if (key == "norm_window") {
      config.norm_window = as_size("norm_window");
    } else if (key == "quarantine_rate") {
      config.quarantine_rate = value;
    } else if (key == "latency_slo" || key == "latency_slo_s") {
      config.latency_slo_s = value;
    } else if (key == "slo_burn") {
      config.slo_burn = value;
    } else if (key == "slo_window") {
      config.slo_window = as_size("slo_window");
    } else if (key == "accuracy_drop") {
      config.accuracy_drop = value;
    } else if (key == "recovery_rounds") {
      config.recovery_rounds = as_size("recovery_rounds");
    } else {
      throw ConfigError("unknown monitor spec key '" + key + "'");
    }
  }
  return config;
}

// ---- HealthMonitor ---------------------------------------------------------

HealthMonitor::HealthMonitor(MonitorConfig config)
    : config_(std::move(config)) {}

void HealthMonitor::fire(const RoundObservation& o, std::string detector,
                         double value, double threshold, std::string detail,
                         std::vector<HealthEvent>& out) {
  HealthEvent event;
  event.task = o.task;
  event.round = o.round;
  event.global_round = o.global_round;
  event.detector = std::move(detector);
  event.value = value;
  event.threshold = threshold;
  event.detail = std::move(detail);
  if (obs::trace_enabled()) {
    obs::trace(obs::TraceEvent("health")
                   .field("detector", event.detector)
                   .field("task", event.task)
                   .field("round", event.round)
                   .field("global_round", event.global_round)
                   .field("value", event.value)
                   .field("threshold", event.threshold)
                   .field("detail", event.detail));
  }
  reason_ = event.detector + ": " + event.detail;
  last_fire_seen_ = rounds_seen_;
  ever_fired_ = true;
  events_.push_back(event);
  out.push_back(std::move(event));
}

std::vector<HealthEvent> HealthMonitor::observe_round(
    const RoundObservation& o) {
  std::lock_guard lock(mutex_);
  ++rounds_seen_;
  std::vector<HealthEvent> fired;

  // Quarantine-rate spike: instantaneous per-round fraction.
  if (config_.quarantine_rate > 0.0 && o.selected > 0) {
    const double rate =
        static_cast<double>(o.quarantined) / static_cast<double>(o.selected);
    if (rate > config_.quarantine_rate) {
      fire(o, "quarantine_rate", rate, config_.quarantine_rate,
           std::to_string(o.quarantined) + "/" + std::to_string(o.selected) +
               " updates quarantined in round " + std::to_string(o.round),
           fired);
    }
  }

  // Update-norm drift: z-score of this round's mean accepted-update norm
  // against the trailing window of previous rounds' means. Needs at least
  // three baseline rounds; a near-zero baseline spread is floored so a
  // perfectly stable cohort doesn't turn numeric noise into infinities.
  if (config_.norm_z > 0.0 && o.norm_count > 0) {
    if (norm_history_.size() >= 3) {
      double mean = 0.0;
      for (const double v : norm_history_) mean += v;
      mean /= static_cast<double>(norm_history_.size());
      double var = 0.0;
      for (const double v : norm_history_) var += (v - mean) * (v - mean);
      var /= static_cast<double>(norm_history_.size());
      const double floor = 1e-9 * std::max(1.0, std::abs(mean));
      const double stddev = std::max(std::sqrt(var), floor);
      const double z = std::abs(o.norm_mean - mean) / stddev;
      if (z > config_.norm_z) {
        fire(o, "norm_z", z, config_.norm_z,
             "mean update norm " + format_stat(o.norm_mean) + " vs baseline " +
                 format_stat(mean) + " (z=" + format_stat(z) + ")",
             fired);
      }
    }
    norm_history_.push_back(o.norm_mean);
    while (norm_history_.size() > std::max<std::size_t>(1, config_.norm_window))
      norm_history_.pop_front();
  }

  // Latency SLO burn: fraction of the trailing window over the SLO. Requires
  // a few rounds of history so one slow outlier cannot page by itself.
  if (config_.latency_slo_s > 0.0) {
    slo_history_.push_back(o.round_seconds > config_.latency_slo_s);
    while (slo_history_.size() > std::max<std::size_t>(1, config_.slo_window))
      slo_history_.pop_front();
    const std::size_t need =
        std::min<std::size_t>(3, std::max<std::size_t>(1, config_.slo_window));
    if (slo_history_.size() >= need) {
      const std::size_t over = static_cast<std::size_t>(
          std::count(slo_history_.begin(), slo_history_.end(), true));
      const double burn =
          static_cast<double>(over) / static_cast<double>(slo_history_.size());
      if (burn > config_.slo_burn) {
        fire(o, "latency_slo", burn, config_.slo_burn,
             std::to_string(over) + "/" + std::to_string(slo_history_.size()) +
                 " trailing rounds over " + format_stat(config_.latency_slo_s) +
                 "s",
             fired);
      }
    }
  }

  if (fired.empty() && ever_fired_ &&
      rounds_seen_ - last_fire_seen_ >= config_.recovery_rounds) {
    reason_.clear();
  }
  return fired;
}

std::vector<HealthEvent> HealthMonitor::observe_eval(
    std::uint32_t task, double cumulative_accuracy,
    std::uint64_t global_round) {
  std::lock_guard lock(mutex_);
  std::vector<HealthEvent> fired;
  if (config_.accuracy_drop > 0.0 && !task_accuracy_.empty()) {
    double mean = 0.0;
    for (const double a : task_accuracy_) mean += a;
    mean /= static_cast<double>(task_accuracy_.size());
    if (cumulative_accuracy < mean - config_.accuracy_drop) {
      RoundObservation o;
      o.task = task;
      o.global_round = global_round;
      fire(o, "accuracy_drop", mean - cumulative_accuracy,
           config_.accuracy_drop,
           "task " + std::to_string(task) + " cumulative accuracy " +
               format_stat(cumulative_accuracy) + " vs trailing mean " +
               format_stat(mean),
           fired);
    }
  }
  task_accuracy_.push_back(cumulative_accuracy);
  return fired;
}

bool HealthMonitor::healthy() const {
  std::lock_guard lock(mutex_);
  return !ever_fired_ || reason_.empty();
}

std::string HealthMonitor::reason() const {
  std::lock_guard lock(mutex_);
  return reason_;
}

std::vector<HealthEvent> HealthMonitor::events() const {
  std::lock_guard lock(mutex_);
  return events_;
}

// ---- ProgressSnapshot / ProgressBoard --------------------------------------

namespace {

void json_kv(std::string& out, const char* key, std::uint64_t v) {
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(v);
}

void json_kv(std::string& out, const char* key, double v) {
  char buf[48];
  if (std::isfinite(v)) {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  } else {
    std::snprintf(buf, sizeof(buf), "null");
  }
  out += '"';
  out += key;
  out += "\":";
  out += buf;
}

void json_kv(std::string& out, const char* key, const std::string& v) {
  out += '"';
  out += key;
  out += "\":\"";
  obs::json_escape(out, v);
  out += '"';
}

void json_kv(std::string& out, const char* key, bool v) {
  out += '"';
  out += key;
  out += "\":";
  out += v ? "true" : "false";
}

}  // namespace

std::string ProgressSnapshot::render_json() const {
  std::string out = "{";
  json_kv(out, "method", method);
  out += ',';
  json_kv(out, "dataset", dataset);
  out += ',';
  json_kv(out, "tasks_total", tasks_total);
  out += ',';
  json_kv(out, "rounds_per_task", rounds_per_task);
  out += ',';
  json_kv(out, "task", task);
  out += ',';
  json_kv(out, "round_in_task", round_in_task);
  out += ',';
  json_kv(out, "rounds_done", rounds_done);
  out += ',';
  json_kv(out, "rounds_total", rounds_total);
  out += ',';
  json_kv(out, "participants", participants);
  out += ',';
  json_kv(out, "bytes_down", bytes_down);
  out += ',';
  json_kv(out, "bytes_up", bytes_up);
  out += ',';
  json_kv(out, "bytes_down_raw_equiv", bytes_down_raw_equiv);
  out += ',';
  json_kv(out, "bytes_up_raw_equiv", bytes_up_raw_equiv);
  out += ',';
  json_kv(out, "messages", messages);
  out += ',';
  json_kv(out, "dropped", dropped);
  out += ',';
  json_kv(out, "quarantined", quarantined);
  out += ',';
  json_kv(out, "retries", retries);
  out += ',';
  json_kv(out, "timed_out", timed_out);
  out += ',';
  json_kv(out, "bytes_retransmitted", bytes_retransmitted);
  out += ',';
  json_kv(out, "round_p50_s", round_p50_s);
  out += ',';
  json_kv(out, "round_p95_s", round_p95_s);
  out += ',';
  json_kv(out, "round_p99_s", round_p99_s);
  out += ",\"task_accuracy\":[";
  for (std::size_t i = 0; i < task_accuracy.size(); ++i) {
    if (i != 0) out += ',';
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.9g", task_accuracy[i]);
    out += buf;
  }
  out += "],";
  json_kv(out, "sim_time_s", sim_time_s);
  out += ',';
  json_kv(out, "wall_seconds", wall_seconds);
  out += ',';
  json_kv(out, "done", done);
  out += ',';
  json_kv(out, "healthy", healthy);
  out += ',';
  json_kv(out, "health_reason", health_reason);
  out += ",\"alerts\":[";
  for (std::size_t i = 0; i < alerts.size(); ++i) {
    if (i != 0) out += ',';
    const HealthEvent& e = alerts[i];
    out += '{';
    json_kv(out, "detector", e.detector);
    out += ',';
    json_kv(out, "task", static_cast<std::uint64_t>(e.task));
    out += ',';
    json_kv(out, "round", static_cast<std::uint64_t>(e.round));
    out += ',';
    json_kv(out, "global_round", e.global_round);
    out += ',';
    json_kv(out, "value", e.value);
    out += ',';
    json_kv(out, "threshold", e.threshold);
    out += ',';
    json_kv(out, "detail", e.detail);
    out += '}';
  }
  out += "]}";
  return out;
}

void ProgressBoard::update(ProgressSnapshot snap) {
  std::lock_guard lock(mutex_);
  snap_ = std::move(snap);
}

ProgressSnapshot ProgressBoard::get() const {
  std::lock_guard lock(mutex_);
  return snap_;
}

// ---- RunMonitor ------------------------------------------------------------

RunMonitor::RunMonitor(MonitorConfig config)
    : config_(config),
      timeseries_(config.timeseries_capacity),
      health_(config),
      start_(std::chrono::steady_clock::now()) {}

void RunMonitor::on_run_start(const std::string& method,
                              const std::string& dataset,
                              std::uint64_t tasks_total,
                              std::uint64_t rounds_per_task) {
  start_ = std::chrono::steady_clock::now();
  ProgressSnapshot snap;
  snap.method = method;
  snap.dataset = dataset;
  snap.tasks_total = tasks_total;
  snap.rounds_per_task = rounds_per_task;
  snap.rounds_total = tasks_total * rounds_per_task;
  board_.update(std::move(snap));
}

void RunMonitor::on_round(const RunResult& result, const RoundStats& round,
                          std::uint64_t global_round, double sim_time_s,
                          const NormAccumulator& norms) {
  global_round_ = global_round;
  round_latency_.observe(round.train_seconds + round.aggregate_seconds);

  RoundObservation o;
  o.task = round.task;
  o.round = round.round;
  o.global_round = global_round;
  o.selected = round.selected;
  o.dropped = round.dropped;
  o.quarantined = round.quarantined;
  o.timed_out = round.timed_out;
  o.round_seconds = round.train_seconds + round.aggregate_seconds;
  o.sim_time_s = sim_time_s;
  o.norm_count = norms.count;
  o.norm_mean = norms.mean;
  o.norm_m2 = norms.m2;
  health_.observe_round(o);

  timeseries_.sample(sim_time_s, global_round);
  refresh_board(result, &round, sim_time_s);
}

void RunMonitor::on_wave(double sim_time_s, std::uint64_t global_round) {
  timeseries_.maybe_sample(config_.wallclock_interval_s, sim_time_s,
                           global_round);
}

void RunMonitor::on_eval(std::uint32_t task, double cumulative_accuracy) {
  health_.observe_eval(task, cumulative_accuracy, global_round_);
}

void RunMonitor::finalize(RunResult& result) {
  result.health = health_.events();
  const auto ts = timeseries_.summary();
  result.monitor.enabled = true;
  result.monitor.samples_taken = ts.taken;
  result.monitor.samples_retained = ts.retained;
  result.monitor.samples_capacity = ts.capacity;
  result.monitor.alerts = result.health.size();
  result.monitor.healthy_at_end = health_.healthy();

  ProgressSnapshot snap = board_.get();
  snap.done = true;
  snap.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  snap.healthy = health_.healthy();
  snap.health_reason = health_.reason();
  snap.task_accuracy.clear();
  for (const auto& t : result.tasks) {
    snap.task_accuracy.push_back(t.cumulative_accuracy);
  }
  board_.update(std::move(snap));
}

void RunMonitor::refresh_board(const RunResult& result,
                               const RoundStats* round, double sim_time_s) {
  ProgressSnapshot snap = board_.get();
  if (round != nullptr) {
    snap.task = round->task;
    snap.round_in_task = static_cast<std::uint64_t>(round->round) + 1;
    ++snap.rounds_done;
    snap.participants += round->selected;
  }
  const NetworkStats& net = result.network;
  snap.bytes_down = net.bytes_down;
  snap.bytes_up = net.bytes_up;
  snap.bytes_down_raw_equiv = net.bytes_down_raw_equiv;
  snap.bytes_up_raw_equiv = net.bytes_up_raw_equiv;
  snap.messages = net.messages;
  snap.dropped = net.dropped_updates;
  snap.quarantined = net.quarantined;
  snap.retries = net.retries;
  snap.timed_out = net.timed_out;
  snap.bytes_retransmitted = net.bytes_retransmitted;
  const auto lat = round_latency_.snapshot();
  snap.round_p50_s = lat.quantile(0.5);
  snap.round_p95_s = lat.quantile(0.95);
  snap.round_p99_s = lat.quantile(0.99);
  snap.task_accuracy.clear();
  for (const auto& t : result.tasks) {
    snap.task_accuracy.push_back(t.cumulative_accuracy);
  }
  snap.sim_time_s = sim_time_s;
  snap.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  snap.healthy = health_.healthy();
  snap.health_reason = health_.reason();
  auto events = health_.events();
  constexpr std::size_t kMaxAlerts = 16;  // /progress stays single-screen
  if (events.size() > kMaxAlerts) {
    events.erase(events.begin(),
                 events.end() - static_cast<std::ptrdiff_t>(kMaxAlerts));
  }
  snap.alerts = std::move(events);
  board_.update(std::move(snap));
}

}  // namespace reffil::fed
