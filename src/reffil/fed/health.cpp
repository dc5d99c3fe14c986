#include "reffil/fed/health.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

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
      if (used != raw.size() || !std::isfinite(value)) {
        throw std::invalid_argument(raw);
      }
    } catch (const std::exception&) {
      throw ConfigError("monitor spec value '" + raw + "' for key '" + key +
                        "' is not a finite number");
    }
    if (key == "norm_z") {
      config.norm_z = value;
    } else if (key == "norm_window") {
      config.norm_window = spec_count(value, "monitor norm_window");
    } else if (key == "quarantine_rate") {
      config.quarantine_rate = value;
    } else if (key == "latency_slo" || key == "latency_slo_s") {
      config.latency_slo_s = value;
    } else if (key == "slo_burn") {
      config.slo_burn = value;
    } else if (key == "slo_window") {
      config.slo_window = spec_count(value, "monitor slo_window");
    } else if (key == "accuracy_drop") {
      config.accuracy_drop = value;
    } else if (key == "recovery_rounds") {
      config.recovery_rounds = spec_count(value, "monitor recovery_rounds");
    } else {
      throw ConfigError("unknown monitor spec key '" + key + "'");
    }
  }
  return config;
}

// ---- HealthMonitor ---------------------------------------------------------

HealthMonitor::HealthMonitor(MonitorConfig config)
    : config_(std::move(config)) {}

void HealthMonitor::fire(HealthEvent event, std::string detector,
                         double value, double threshold, std::string detail,
                         std::vector<HealthEvent>& out) {
  event.detector = std::move(detector);
  event.value = value;
  event.threshold = threshold;
  event.detail = std::move(detail);
  reason_ = event.detector + ": " + event.detail;
  last_fire_seen_ = rounds_seen_;
  ever_fired_ = true;
  events_.push_back(event);
  out.push_back(std::move(event));
}

std::vector<HealthEvent> HealthMonitor::observe_round(
    const RoundStats& r, std::uint64_t global_round,
    const NormAccumulator& norms) {
  std::lock_guard lock(mutex_);
  ++rounds_seen_;
  std::vector<HealthEvent> fired;
  HealthEvent at;  // the round's coordinates; fire() completes each firing
  at.task = r.task;
  at.round = r.round;
  at.global_round = global_round;

  // Quarantine-rate spike: instantaneous per-round fraction.
  if (config_.quarantine_rate > 0.0 && r.selected > 0) {
    const double rate =
        static_cast<double>(r.quarantined) / static_cast<double>(r.selected);
    if (rate > config_.quarantine_rate) {
      fire(at, "quarantine_rate", rate, config_.quarantine_rate,
           std::to_string(r.quarantined) + "/" + std::to_string(r.selected) +
               " updates quarantined in round " + std::to_string(r.round),
           fired);
    }
  }

  // Update-norm drift: z-score of this round's mean accepted-update norm
  // against the trailing window of previous rounds' means. Needs at least
  // three baseline rounds; a near-zero baseline spread is floored so a
  // perfectly stable cohort doesn't turn numeric noise into infinities.
  if (config_.norm_z > 0.0 && norms.count > 0) {
    if (norm_history_.size() >= 3) {
      double mean = 0.0;
      for (const double v : norm_history_) mean += v;
      mean /= static_cast<double>(norm_history_.size());
      double var = 0.0;
      for (const double v : norm_history_) var += (v - mean) * (v - mean);
      var /= static_cast<double>(norm_history_.size());
      const double floor = 1e-9 * std::max(1.0, std::abs(mean));
      const double stddev = std::max(std::sqrt(var), floor);
      const double z = std::abs(norms.mean - mean) / stddev;
      if (z > config_.norm_z) {
        fire(at, "norm_z", z, config_.norm_z,
             "mean update norm " + format_stat(norms.mean) + " vs baseline " +
                 format_stat(mean) + " (z=" + format_stat(z) + ")",
             fired);
      }
    }
    norm_history_.push_back(norms.mean);
    while (norm_history_.size() > std::max<std::size_t>(1, config_.norm_window))
      norm_history_.pop_front();
  }

  // Latency SLO burn: fraction of the trailing window over the SLO. Requires
  // a few rounds of history so one slow outlier cannot page by itself.
  if (config_.latency_slo_s > 0.0) {
    slo_history_.push_back(r.train_seconds + r.aggregate_seconds >
                           config_.latency_slo_s);
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
        fire(at, "latency_slo", burn, config_.slo_burn,
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
      HealthEvent at;
      at.task = task;
      at.global_round = global_round;
      fire(at, "accuracy_drop", mean - cumulative_accuracy,
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

std::string ProgressSnapshot::render_json() const {
  obs::JsonWriter w;
  util::json_value(w, *this);
  return w.str();
}

std::vector<obs::expo::ExtraMetric> run_extras(const ProgressSnapshot& p) {
  std::vector<obs::expo::ExtraMetric> extras;
  const auto add = [&](std::string name, std::string help, const char* type,
                       double v) {
    extras.push_back({"reffil_run_" + name, std::move(help), type, {}, v});
  };
  extras.push_back({"reffil_run_info",
                    "run identity",
                    "gauge",
                    {{"method", p.method}, {"dataset", p.dataset}},
                    1.0});
  add("rounds", "committed rounds this run", "counter",
      static_cast<double>(p.rounds_done));
  add("participants", "cumulative selected participants", "counter",
      static_cast<double>(p.participants));
  util::for_each_field(p.network, [&](const char* name, std::uint64_t v) {
    add(name, std::string("RunResult::network.") + name, "counter",
        static_cast<double>(v));
  });
  add("alerts", "health detector firings", "counter",
      static_cast<double>(p.alerts_fired));
  add("task", "current task index", "gauge", static_cast<double>(p.task));
  add("round_p95_seconds", "p95 round train+aggregate seconds", "gauge",
      p.round_p95_s);
  add("healthy", "1 while /healthz is ok", "gauge", p.healthy ? 1.0 : 0.0);
  add("done", "1 once the run finished", "gauge", p.done ? 1.0 : 0.0);
  return extras;
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
    : health_(std::move(config)),
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

std::vector<HealthEvent> RunMonitor::on_round(const RunResult& result,
                                              const RoundStats& round,
                                              std::uint64_t global_round,
                                              double sim_time_s,
                                              const NormAccumulator& norms) {
  round_latency_.observe(round.train_seconds + round.aggregate_seconds);
  auto fired = health_.observe_round(round, global_round, norms);
  refresh_board(result, &round, sim_time_s);
  return fired;
}

void RunMonitor::finalize(RunResult& result) {
  result.health = health_.events();
  result.monitor.enabled = true;
  result.monitor.alerts = result.health.size();
  result.monitor.healthy_at_end = health_.healthy();
  refresh_board(result, nullptr, board_.get().sim_time_s, /*done=*/true);
}

void RunMonitor::refresh_board(const RunResult& result,
                               const RoundStats* round, double sim_time_s,
                               bool done) {
  ProgressSnapshot snap = board_.get();
  snap.done = done;
  if (round != nullptr) {
    snap.task = round->task;
    snap.round_in_task = static_cast<std::uint64_t>(round->round) + 1;
    ++snap.rounds_done;
    snap.participants += round->selected;
  }
  snap.network = result.network;
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
  snap.alerts_fired = events.size();
  constexpr std::size_t kMaxAlerts = 16;  // /progress stays single-screen
  if (events.size() > kMaxAlerts) {
    events.erase(events.begin(),
                 events.end() - static_cast<std::ptrdiff_t>(kMaxAlerts));
  }
  snap.alerts = std::move(events);
  board_.update(std::move(snap));
}

}  // namespace reffil::fed
