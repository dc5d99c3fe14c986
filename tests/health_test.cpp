// Health-monitor tests (fed/health.hpp): MonitorConfig spec parsing, each
// detector's firing and non-firing sides, /healthz recovery after clean
// rounds, the /progress JSON render, the /metrics alert counter past the
// bounded /progress alert list, and the end-to-end contracts the design
// leans on — a monitored run reports its accounting on the RunResult,
// arming a monitor leaves the run bitwise-identical to an unmonitored one,
// and the run_end trace event, the --json document, /progress and the
// /metrics extras agree on every shared field.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <optional>

#include "reffil/fed/health.hpp"
#include "reffil/fed/runtime.hpp"
#include "reffil/harness/experiment.hpp"
#include "reffil/util/error.hpp"
#include "reffil/util/json.hpp"
#include "reffil/util/obs.hpp"

using namespace reffil;

namespace {

/// All detectors off; tests turn on exactly the one under test.
fed::MonitorConfig quiet() {
  fed::MonitorConfig config;
  config.norm_z = 0.0;
  config.quarantine_rate = 0.0;
  config.latency_slo_s = 0.0;
  config.accuracy_drop = 0.0;
  return config;
}

/// A committed round of 10 selected participants, as the runner hands it
/// to the monitor; global round g is round g - 1 of task 0.
fed::RoundStats round_at(std::uint64_t global_round) {
  fed::RoundStats r;
  r.round = static_cast<std::uint32_t>(global_round - 1);
  r.selected = 10;
  return r;
}

/// Accepted-update norms with the given count and mean.
fed::NormAccumulator norms(std::uint32_t count, double mean) {
  return {.count = count, .mean = mean};
}

data::DatasetSpec one_domain_spec() {
  data::DatasetSpec spec;
  spec.name = "HealthEdge";
  spec.num_classes = 3;
  spec.seed = 70;
  data::DomainSpec d;
  d.train_samples = 36;
  d.test_samples = 15;
  d.noise = 0.1f;
  d.name = "Only";
  spec.domains.push_back(d);
  spec.initial_clients = 4;
  spec.clients_per_round = 2;
  spec.client_increment = 0;
  spec.rounds_per_task = 2;
  spec.local_epochs = 1;
  spec.learning_rate = 0.03f;
  return spec;
}

}  // namespace

TEST(MonitorConfig, ParseEmptySpecYieldsDefaults) {
  const auto config = fed::MonitorConfig::parse("");
  EXPECT_DOUBLE_EQ(config.norm_z, 4.0);
  EXPECT_DOUBLE_EQ(config.quarantine_rate, 0.25);
  EXPECT_DOUBLE_EQ(config.latency_slo_s, 0.0);
  EXPECT_EQ(config.recovery_rounds, 5u);
}

TEST(MonitorConfig, ParseSetsEveryKnob) {
  const auto config = fed::MonitorConfig::parse(
      "norm_z=3,norm_window=4,quarantine_rate=0.1,latency_slo=2.5,"
      "slo_burn=0.25,slo_window=5,accuracy_drop=1,recovery_rounds=2");
  EXPECT_DOUBLE_EQ(config.norm_z, 3.0);
  EXPECT_EQ(config.norm_window, 4u);
  EXPECT_DOUBLE_EQ(config.quarantine_rate, 0.1);
  EXPECT_DOUBLE_EQ(config.latency_slo_s, 2.5);
  EXPECT_DOUBLE_EQ(config.slo_burn, 0.25);
  EXPECT_EQ(config.slo_window, 5u);
  EXPECT_DOUBLE_EQ(config.accuracy_drop, 1.0);
  EXPECT_EQ(config.recovery_rounds, 2u);
}

TEST(MonitorConfig, ParseRejectsUnknownKeysAndBadValues) {
  EXPECT_THROW(fed::MonitorConfig::parse("nope=1"), ConfigError);
  EXPECT_THROW(fed::MonitorConfig::parse("capacity=8"), ConfigError);
  EXPECT_THROW(fed::MonitorConfig::parse("interval=1"), ConfigError);
  EXPECT_THROW(fed::MonitorConfig::parse("norm_z=abc"), ConfigError);
  EXPECT_THROW(fed::MonitorConfig::parse("norm_z"), ConfigError);
  EXPECT_THROW(fed::MonitorConfig::parse("norm_window=-1"), ConfigError);
  // Trailing/empty items are tolerated.
  EXPECT_NO_THROW(fed::MonitorConfig::parse("norm_z=3,"));
}

TEST(MonitorConfig, ParseRejectsNonFiniteKnobsAndCountsThatDoNotFit) {
  // norm_z=nan compared false against every z-score: a silently dead detector.
  EXPECT_THROW(fed::MonitorConfig::parse("norm_z=nan"), ConfigError);
  EXPECT_THROW(fed::MonitorConfig::parse("latency_slo=inf"), ConfigError);
  EXPECT_THROW(fed::MonitorConfig::parse("accuracy_drop=-inf"), ConfigError);
  EXPECT_THROW(fed::MonitorConfig::parse("norm_window=1e30"), ConfigError);
  EXPECT_THROW(fed::MonitorConfig::parse("slo_window=1e30"), ConfigError);
  EXPECT_THROW(fed::MonitorConfig::parse("recovery_rounds=1e30"), ConfigError);
  EXPECT_THROW(fed::MonitorConfig::parse("norm_window=2.5"), ConfigError);
  // A negative double knob still disables its detector.
  EXPECT_DOUBLE_EQ(fed::MonitorConfig::parse("norm_z=-1").norm_z, -1.0);
}

TEST(HealthMonitor, QuarantineRateFiresOnSpike) {
  auto config = quiet();
  config.quarantine_rate = 0.25;
  fed::HealthMonitor monitor(config);

  auto r = round_at(1);
  r.quarantined = 2;  // 0.2 <= 0.25: clean
  EXPECT_TRUE(monitor.observe_round(r, 1, {}).empty());
  EXPECT_TRUE(monitor.healthy());

  r = round_at(2);
  r.quarantined = 3;  // 0.3 > 0.25: fires
  const auto fired = monitor.observe_round(r, 2, {});
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].detector, "quarantine_rate");
  EXPECT_NEAR(fired[0].value, 0.3, 1e-12);
  EXPECT_DOUBLE_EQ(fired[0].threshold, 0.25);
  EXPECT_EQ(fired[0].global_round, 2u);
  EXPECT_FALSE(monitor.healthy());
  EXPECT_NE(monitor.reason().find("quarantine_rate"), std::string::npos);
  ASSERT_EQ(monitor.events().size(), 1u);
}

TEST(HealthMonitor, NormZNeedsBaselineThenFlagsDrift) {
  auto config = quiet();
  config.norm_z = 3.0;
  config.norm_window = 8;
  fed::HealthMonitor monitor(config);

  // Build a three-round baseline around 1.0; none of these can fire (the
  // detector is silent until the baseline exists).
  std::uint64_t round = 1;
  for (const double mean : {1.0, 1.02, 0.98}) {
    EXPECT_TRUE(
        monitor.observe_round(round_at(round), round, norms(5, mean)).empty());
    ++round;
  }
  // In-family round: no fire.
  EXPECT_TRUE(monitor.observe_round(round_at(4), 4, norms(5, 1.01)).empty());
  // A hostile cohort: the mean norm jumps far outside the baseline spread.
  const auto fired = monitor.observe_round(round_at(5), 5, norms(5, 50.0));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].detector, "norm_z");
  EXPECT_GT(fired[0].value, 3.0);
  // Rounds with no accepted updates contribute nothing (no norm to judge).
  EXPECT_TRUE(monitor.observe_round(round_at(6), 6, norms(0, 0.0)).empty());
}

TEST(HealthMonitor, LatencySloFiresOnBurnRateNotOneOutlier) {
  auto config = quiet();
  config.latency_slo_s = 1.0;
  config.slo_burn = 0.5;
  config.slo_window = 4;
  fed::HealthMonitor monitor(config);

  // One slow round in a fresh window cannot page: the window needs at least
  // three samples.
  // A round's latency is its train plus aggregate seconds.
  auto r = round_at(1);
  r.train_seconds = 4.0;
  r.aggregate_seconds = 1.0;
  EXPECT_TRUE(monitor.observe_round(r, 1, {}).empty());
  r = round_at(2);
  r.train_seconds = 0.1;
  EXPECT_TRUE(monitor.observe_round(r, 2, {}).empty());
  // Third sample: 2/3 over SLO > 0.5 burn -> fires.
  r = round_at(3);
  r.aggregate_seconds = 2.0;
  const auto fired = monitor.observe_round(r, 3, {});
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].detector, "latency_slo");
  EXPECT_NEAR(fired[0].value, 2.0 / 3.0, 1e-12);
}

TEST(HealthMonitor, AccuracyDropComparesAgainstTrailingMean) {
  auto config = quiet();
  config.accuracy_drop = 2.0;
  fed::HealthMonitor monitor(config);

  EXPECT_TRUE(monitor.observe_eval(0, 80.0, 2).empty());   // no baseline yet
  EXPECT_TRUE(monitor.observe_eval(1, 79.5, 4).empty());   // within 2 points
  const auto fired = monitor.observe_eval(2, 70.0, 6);     // mean 79.75
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].detector, "accuracy_drop");
  EXPECT_EQ(fired[0].task, 2u);
  EXPECT_EQ(fired[0].global_round, 6u);
  EXPECT_NEAR(fired[0].value, 9.75, 1e-9);
}

TEST(HealthMonitor, RecoversAfterCleanRounds) {
  auto config = quiet();
  config.quarantine_rate = 0.25;
  config.recovery_rounds = 2;
  fed::HealthMonitor monitor(config);

  auto r = round_at(1);
  r.quarantined = 9;
  ASSERT_EQ(monitor.observe_round(r, 1, {}).size(), 1u);
  EXPECT_FALSE(monitor.healthy());

  // One clean round is not enough...
  EXPECT_TRUE(monitor.observe_round(round_at(2), 2, {}).empty());
  EXPECT_FALSE(monitor.healthy());
  // ...two are.
  EXPECT_TRUE(monitor.observe_round(round_at(3), 3, {}).empty());
  EXPECT_TRUE(monitor.healthy());
  EXPECT_TRUE(monitor.reason().empty());
  // The event log keeps the history even after recovery.
  EXPECT_EQ(monitor.events().size(), 1u);
}

TEST(Progress, RenderJsonParsesAndRoundTrips) {
  fed::ProgressSnapshot snap;
  snap.method = "Ref\"FiL";
  snap.dataset = "PACS";
  snap.rounds_done = 7;
  snap.rounds_total = 40;
  snap.network.bytes_up = 12345;
  snap.task_accuracy = {81.25, 79.5};
  snap.healthy = false;
  snap.health_reason = "norm_z: drift";
  fed::HealthEvent alert;
  alert.detector = "norm_z";
  alert.global_round = 6;
  alert.detail = "mean update norm 50 vs baseline 1";
  snap.alerts.push_back(alert);

  const auto parsed = util::json::parse(snap.render_json());
  EXPECT_EQ(parsed.string_or("method", ""), "Ref\"FiL");
  EXPECT_EQ(parsed.string_or("dataset", ""), "PACS");
  EXPECT_DOUBLE_EQ(parsed.number_or("rounds_done", 0), 7.0);
  EXPECT_DOUBLE_EQ(parsed.number_or("bytes_up", 0), 12345.0);
  ASSERT_NE(parsed.find("task_accuracy"), nullptr);
  ASSERT_EQ(parsed.find("task_accuracy")->as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(parsed.find("task_accuracy")->as_array()[0].as_number(),
                   81.25);
  ASSERT_NE(parsed.find("healthy"), nullptr);
  EXPECT_FALSE(parsed.find("healthy")->as_bool());
  EXPECT_EQ(parsed.string_or("health_reason", ""), "norm_z: drift");
  ASSERT_NE(parsed.find("alerts"), nullptr);
  const auto& alerts = parsed.find("alerts")->as_array();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].string_or("detector", ""), "norm_z");
  EXPECT_DOUBLE_EQ(alerts[0].number_or("global_round", 0), 6.0);
}

// /progress lists only the most recent firings; the /metrics alerts counter
// must keep counting every one of them, like the --json health block.
TEST(RunMonitor, MetricsAlertCounterCountsEveryFiring) {
  auto config = quiet();
  config.quarantine_rate = 0.25;
  fed::RunMonitor monitor(config);
  constexpr std::uint32_t kRounds = 24;
  monitor.on_run_start("Finetune", "HealthEdge", 1, kRounds);
  fed::RunResult result;
  for (std::uint32_t r = 0; r < kRounds; ++r) {
    fed::RoundStats round;
    round.round = r;
    round.selected = 10;
    round.quarantined = 5;  // 0.5 > 0.25: fires every round
    result.rounds.push_back(round);
    monitor.on_round(result, round, r + 1, 0.0, fed::NormAccumulator{});
  }
  monitor.finalize(result);
  const auto events = monitor.health().events();
  ASSERT_EQ(events.size(), kRounds);
  EXPECT_EQ(result.monitor.alerts, events.size());

  const auto board = monitor.board().get();
  EXPECT_LT(board.alerts.size(), events.size());  // the list is bounded
  const std::string metrics =
      obs::expo::render_openmetrics({}, fed::run_extras(board));
  const std::string line =
      "\nreffil_run_alerts_total " + std::to_string(events.size()) + "\n";
  EXPECT_NE(metrics.find(line), std::string::npos) << metrics;
}

TEST(RunMonitorEndToEnd, MonitoredRunReportsAccountingOnTheResult) {
  const auto spec = one_domain_spec();
  harness::ExperimentConfig config;
  config.parallelism = 1;
  auto method = harness::make_method(harness::MethodKind::kFinetune, spec, config);
  auto monitor = std::make_shared<fed::RunMonitor>(fed::MonitorConfig{});
  fed::FederatedRunner runner(
      {.spec = spec, .parallelism = 1, .seed = 3, .monitor = monitor});
  const auto result = runner.run(*method);

  EXPECT_TRUE(result.monitor.enabled);
  EXPECT_EQ(result.monitor.alerts, result.health.size());

  const auto board = monitor->board().get();
  EXPECT_TRUE(board.done);
  EXPECT_EQ(board.rounds_done, result.rounds.size());
  EXPECT_EQ(board.rounds_total, spec.rounds_per_task * spec.domains.size());
  EXPECT_EQ(board.network, result.network);
  ASSERT_EQ(board.task_accuracy.size(), result.tasks.size());
  EXPECT_DOUBLE_EQ(board.task_accuracy[0], result.tasks[0].cumulative_accuracy);
}

TEST(RunMonitorEndToEnd, ArmedMonitorLeavesRunBitwiseIdentical) {
  const auto spec = one_domain_spec();
  harness::ExperimentConfig config;
  config.parallelism = 1;
  auto run = [&](std::shared_ptr<fed::RunMonitor> monitor) {
    auto method =
        harness::make_method(harness::MethodKind::kFinetune, spec, config);
    fed::FederatedRunner runner(
        {.spec = spec, .parallelism = 1, .seed = 11, .monitor = monitor});
    return runner.run(*method);
  };
  const auto plain = run(nullptr);
  const auto monitored = run(std::make_shared<fed::RunMonitor>(
      fed::MonitorConfig::parse("quarantine_rate=0.01,norm_z=1")));

  ASSERT_EQ(monitored.tasks.size(), plain.tasks.size());
  for (std::size_t t = 0; t < plain.tasks.size(); ++t) {
    EXPECT_EQ(monitored.tasks[t].cumulative_accuracy,
              plain.tasks[t].cumulative_accuracy);
    ASSERT_EQ(monitored.tasks[t].per_domain_accuracy.size(),
              plain.tasks[t].per_domain_accuracy.size());
    for (std::size_t d = 0; d < plain.tasks[t].per_domain_accuracy.size(); ++d) {
      EXPECT_EQ(monitored.tasks[t].per_domain_accuracy[d],
                plain.tasks[t].per_domain_accuracy[d]);
    }
  }
  EXPECT_EQ(monitored.network.bytes_down, plain.network.bytes_down);
  EXPECT_EQ(monitored.network.bytes_up, plain.network.bytes_up);
  EXPECT_EQ(monitored.network.messages, plain.network.messages);
  EXPECT_EQ(monitored.network.dropped_updates, plain.network.dropped_updates);
  EXPECT_EQ(monitored.rounds.size(), plain.rounds.size());
  // The unmonitored run reports an inert monitor summary.
  EXPECT_FALSE(plain.monitor.enabled);
  EXPECT_TRUE(monitored.monitor.enabled);
}

namespace {
bool same_value(const util::json::Value& a, const util::json::Value& b) {
  if (a.type() != b.type()) return false;
  if (a.is_number()) return a.as_number() == b.as_number();
  if (a.is_string()) return a.as_string() == b.as_string();
  return a.is_bool() && a.as_bool() == b.as_bool();
}
}  // namespace

// The channels a run reports through are walks over the same field lists,
// so they must agree key for key and digit for digit. norm_z=1e-6 makes the
// drift detector fire on every round after its 3-round baseline, with
// z-scores that need all nine significant digits.
TEST(CrossChannel, RunEndJsonProgressAndMetricsAgree) {
  const std::string path = "/tmp/reffil_cross_channel_test.jsonl";
  const auto spec = harness::apply_scale(data::digits_five_spec(),
                                         harness::Scale::kSmoke);
  harness::ExperimentConfig config;
  config.parallelism = 2;
  auto method =
      harness::make_method(harness::MethodKind::kFinetune, spec, config);
  auto monitor = std::make_shared<fed::RunMonitor>(
      fed::MonitorConfig::parse("norm_z=0.000001,quarantine_rate=0.1"));
  fed::FederatedRunner runner(
      {.spec = spec,
       .parallelism = 2,
       .seed = 7,
       .dropout_probability = 0.2,
       .faults = fed::FaultProfile::parse("poison=0.3,corrupt=0.2,retries=1"),
       .monitor = monitor});
  obs::set_trace_path(path);
  const fed::RunResult result = runner.run(*method);
  obs::set_trace_path("");
  ASSERT_GE(result.health.size(), 2u);
  ASSERT_GT(result.network.quarantined, 0u);
  ASSERT_GT(result.network.bytes_retransmitted, 0u);

  std::ifstream trace(path);
  std::optional<util::json::Value> run_end;
  std::vector<util::json::Value> traced_health;
  for (std::string line; std::getline(trace, line);) {
    auto event = util::json::parse(line);
    const std::string type = event.string_or("event", "");
    if (type == "run_end") run_end = std::move(event);
    if (type == "health") traced_health.push_back(std::move(event));
  }
  ASSERT_TRUE(run_end.has_value());
  const util::json::Value& end = *run_end;
  obs::JsonWriter w;
  w.begin_object();
  fed::write_run_json(w, result);
  w.end_object();
  const auto json = util::json::parse(w.str());
  const fed::ProgressSnapshot board = monitor->board().get();
  const auto progress = util::json::parse(board.render_json());
  const auto extras = fed::run_extras(board);

  std::size_t checked = 0;
  util::for_each_field(result.network, [&](const char* name,
                                           std::uint64_t value) {
    for (const auto* doc : {&end, &json, &progress}) {
      const auto* got = doc->find(name);
      ASSERT_NE(got, nullptr) << name;
      EXPECT_EQ(got->as_number(), static_cast<double>(value)) << name;
    }
    const auto metric = std::find_if(
        extras.begin(), extras.end(), [&](const obs::expo::ExtraMetric& m) {
          return m.name == std::string("reffil_run_") + name;
        });
    ASSERT_NE(metric, extras.end()) << name;
    EXPECT_EQ(metric->type, "counter") << name;
    EXPECT_EQ(metric->value, static_cast<double>(value)) << name;
    ++checked;
  });
  EXPECT_EQ(checked, util::field_count<fed::NetworkStats>());

  // Every firing matches across the --json events and the health trace
  // events; /progress keeps the most recent ones, which must match too.
  const auto& events = json.find("health")->find("events")->as_array();
  const auto& alerts = progress.find("alerts")->as_array();
  ASSERT_EQ(events.size(), result.health.size());
  ASSERT_EQ(traced_health.size(), events.size());
  ASSERT_FALSE(alerts.empty());
  ASSERT_LE(alerts.size(), events.size());
  const std::size_t offset = events.size() - alerts.size();
  const auto expect_same = [](const util::json::Value& a,
                              const util::json::Value& b) {
    util::for_each_field(fed::HealthEvent{}, [&](const char* name,
                                                 const auto&) {
      ASSERT_NE(a.find(name), nullptr) << name;
      ASSERT_NE(b.find(name), nullptr) << name;
      EXPECT_TRUE(same_value(*a.find(name), *b.find(name))) << name;
    });
  };
  for (std::size_t i = 0; i < events.size(); ++i) {
    expect_same(events[i], traced_health[i]);
    if (i >= offset) expect_same(events[i], alerts[i - offset]);
  }
}
