// Golden RunResults for the federated round loop. Five small configurations
// cover both participation modes and every side path of a round: dense
// Finetune, dense with dropout and an armed fault transport, dense RefFiL
// with compressed deltas and method extras, discrete-event (DES) runs with
// availability traces, a deadline and dropout, and a monitored DES run with
// quantized deltas. Each result is pinned field by field with EXPECT_EQ:
// accuracies as exact doubles, every NetworkStats field, every non-timing
// RoundStats field, the health log and a digest of the final global state.
// The values were recorded from the round loop before the dense and DES
// loops were merged into one, so any change to transport, dropout, ordering
// or fold order shows up here. The state digests of dense_faults and
// des_traces were re-recorded once, when every round came to fold through
// the one streaming sink (float(w/W) * x per update, then one W/W_folded
// rescale if an update was lost after training).
//
// Learned values depend on the kernel target (fused vs unfused float math),
// so accuracies, the accuracy-driven health log and the state digest are
// checked under `avx2` and `REFFIL_ISA=scalar` only and skipped on other
// targets; byte and round accounting is target-independent.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "reffil/fed/runtime.hpp"
#include "reffil/harness/experiment.hpp"
#include "reffil/tensor/kernels_dispatch.hpp"

using namespace reffil;

namespace {

data::DatasetSpec golden_spec() {
  data::DatasetSpec spec;
  spec.name = "Golden";
  spec.num_classes = 3;
  spec.seed = 71;
  for (std::size_t d = 0; d < 3; ++d) {
    data::DomainSpec domain;
    domain.name = "D" + std::to_string(d);
    domain.train_samples = 30;
    domain.test_samples = 24;
    domain.noise = 0.1f;
    domain.stream_id = d;
    spec.domains.push_back(domain);
  }
  spec.initial_clients = 4;
  spec.clients_per_round = 3;
  spec.client_increment = 1;
  spec.rounds_per_task = 2;
  spec.local_epochs = 1;
  spec.learning_rate = 0.05f;
  return spec;
}

struct Case {
  const char* name;
  harness::MethodKind method;
  double dropout;
  const char* faults;
  const char* des;
  const char* compress;
  bool monitored;
};

const std::vector<Case>& cases() {
  static const std::vector<Case> all = {
      {"dense_finetune", harness::MethodKind::kFinetune, 0.0, "", "", "",
       false},
      {"dense_faults", harness::MethodKind::kFinetune, 0.3,
       "corrupt=0.3,poison=0.3,dup=0.2,retries=1", "", "", false},
      {"dense_reffil_q8", harness::MethodKind::kRefFiL, 0.0, "", "",
       "q8,topk=0.1", false},
      {"des_traces", harness::MethodKind::kFinetune, 0.2, "deadline=8",
       "registered=500,sample=6,offline=0.3,diurnal=200,compute=2,jitter=3,"
       "straggler=0.3,straggler_latency=10,interval=30",
       "", false},
      {"des_q8_monitored", harness::MethodKind::kFinetune, 0.0, "",
       "registered=300,sample=5,compute=1,jitter=1", "q8,topk=0.1",
       true},
  };
  return all;
}

struct Outcome {
  fed::RunResult result;
  /// FNV-1a-64 of the final global state as the server broadcasts it. The
  /// accuracies of a model this small move only in coarse steps, so this
  /// digest is what pins the global model's bits (fold order included).
  std::uint64_t state_digest = 0;
};

std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

Outcome run_case(const Case& c) {
  const auto spec = golden_spec();
  harness::ExperimentConfig config;
  config.parallelism = 1;
  auto method = harness::make_method(c.method, spec, config);
  fed::RunConfig run;
  run.spec = spec;
  run.parallelism = 1;
  run.seed = 17;
  run.dropout_probability = c.dropout;
  run.faults = fed::FaultProfile::parse(c.faults);
  run.des = fed::DesConfig::parse(c.des);
  run.compress = fed::CompressionConfig::parse(c.compress);
  if (c.monitored) {
    run.monitor = std::make_shared<fed::RunMonitor>(fed::MonitorConfig{});
  }
  fed::FederatedRunner runner(std::move(run));
  Outcome outcome;
  outcome.result = runner.run(*method);
  outcome.state_digest = fnv1a64(method->make_broadcast());
  return outcome;
}

struct RoundGolden {
  std::uint32_t task, round, selected, dropped;
  std::uint64_t bytes_down, bytes_up;
  std::uint32_t quarantined, retries, timed_out;
  std::uint64_t bytes_retransmitted;
};

struct HealthGolden {
  std::uint32_t task, round;
  std::uint64_t global_round;
  const char* detector;
  double value, threshold;
  const char* detail;
};

struct AccuracyGolden {
  std::vector<std::vector<double>> per_domain;  // per task
  std::vector<double> cumulative;               // per task
};

struct Golden {
  fed::NetworkStats network;
  std::vector<RoundGolden> rounds;
  std::vector<HealthGolden> health;
  /// Recorded under both avx2 and REFFIL_ISA=scalar; at these sizes the
  /// two targets agree on every accuracy, so one table serves both.
  AccuracyGolden accuracy;
  /// Outcome::state_digest per target: the weights do differ in their low
  /// bits between fused (avx2) and unfused (scalar) float math.
  std::uint64_t state_avx2;
  std::uint64_t state_scalar;
};

const std::vector<Golden>& goldens() {
  static const std::vector<Golden> all = {
      // dense_finetune
      {.network = {1483272, 1483272, 36, 0, 0, 0, 0, 0, 1483272, 1483272},
       .rounds = {{0, 0, 3, 0, 247212, 247212, 0, 0, 0, 0},
                  {0, 1, 3, 0, 247212, 247212, 0, 0, 0, 0},
                  {1, 0, 3, 0, 247212, 247212, 0, 0, 0, 0},
                  {1, 1, 3, 0, 247212, 247212, 0, 0, 0, 0},
                  {2, 0, 3, 0, 247212, 247212, 0, 0, 0, 0},
                  {2, 1, 3, 0, 247212, 247212, 0, 0, 0, 0}},
       .health = {},
       .accuracy = {
           .per_domain = {{54.166666666666664},
                          {66.666666666666671, 45.833333333333336},
                          {33.333333333333336, 45.833333333333336,
                           33.333333333333336}},
           .cumulative = {54.166666666666664, 56.25, 37.5}},
       .state_avx2 = 0xe668746566ed0829ULL,
       .state_scalar = 0x49f0f50ddacd84aaULL},
      // dense_faults
      {.network = {1730904, 1483632, 30, 6, 4, 7, 0, 741816, 1483272, 988848},
       .rounds = {{0, 0, 3, 0, 247272, 412120, 0, 0, 0, 164848},
                  {0, 1, 3, 2, 329696, 164848, 1, 2, 0, 164848},
                  {1, 0, 3, 1, 329696, 164848, 0, 1, 0, 82424},
                  {1, 1, 3, 0, 247272, 412120, 2, 2, 0, 164848},
                  {2, 0, 3, 1, 247272, 247272, 1, 1, 0, 82424},
                  {2, 1, 3, 2, 329696, 82424, 0, 1, 0, 82424}},
       .health = {},
       .accuracy = {
           .per_domain = {{33.333333333333336},
                          {33.333333333333336, 33.333333333333336},
                          {33.333333333333336, 33.333333333333336,
                           33.333333333333336}},
           .cumulative = {33.333333333333336, 33.333333333333336,
                          33.333333333333336}},
       .state_avx2 = 0xafcd8a7b6d839aeaULL,
       .state_scalar = 0xbb6496f2ee0fe779ULL},
      // dense_reffil_q8
      {.network = {475674, 247644, 36, 0, 0, 0, 0, 0, 1540464, 1523232},
       .rounds = {{0, 0, 3, 0, 74799, 41190, 0, 0, 0, 0},
                  {0, 1, 3, 0, 77871, 41190, 0, 0, 0, 0},
                  {1, 0, 3, 0, 77871, 41190, 0, 0, 0, 0},
                  {1, 1, 3, 0, 80751, 41190, 0, 0, 0, 0},
                  {2, 0, 3, 0, 80751, 41694, 0, 0, 0, 0},
                  {2, 1, 3, 0, 83631, 41190, 0, 0, 0, 0}},
       .health = {},
       .accuracy = {
           .per_domain = {{66.666666666666671},
                          {66.666666666666671, 45.833333333333336},
                          {58.333333333333336, 75, 75}},
           .cumulative = {66.666666666666671, 56.25, 69.444444444444443}},
       .state_avx2 = 0xef238ab02ef22738ULL,
       .state_scalar = 0x7361ef7f32f7913cULL},
      // des_traces
      {.network = {2967264, 1648480, 56, 7, 0, 0, 9, 0, 2966544, 1648080},
       .rounds = {{0, 0, 6, 1, 494544, 329696, 0, 0, 1, 0},
                  {0, 1, 6, 1, 494544, 247272, 0, 0, 2, 0},
                  {1, 0, 6, 2, 494544, 247272, 0, 0, 1, 0},
                  {1, 1, 6, 1, 494544, 247272, 0, 0, 2, 0},
                  {2, 0, 6, 1, 494544, 329696, 0, 0, 1, 0},
                  {2, 1, 6, 1, 494544, 247272, 0, 0, 2, 0}},
       .health = {},
       .accuracy = {
           .per_domain = {{50},
                          {37.5, 33.333333333333336},
                          {66.666666666666671, 58.333333333333336,
                           54.166666666666664}},
           .cumulative = {50, 35.416666666666664, 59.722222222222221}},
       .state_avx2 = 0x34e99e83ffa7f19eULL,
       .state_scalar = 0x0d7c73f5e669e521ULL},
      // des_q8_monitored
      {.network = {723990, 371850, 60, 0, 0, 0, 0, 0, 2472120, 2472120},
       .rounds = {{0, 0, 5, 0, 120665, 61975, 0, 0, 0, 0},
                  {0, 1, 5, 0, 120665, 61975, 0, 0, 0, 0},
                  {1, 0, 5, 0, 120665, 61975, 0, 0, 0, 0},
                  {1, 1, 5, 0, 120665, 61975, 0, 0, 0, 0},
                  {2, 0, 5, 0, 120665, 61975, 0, 0, 0, 0},
                  {2, 1, 5, 0, 120665, 61975, 0, 0, 0, 0}},
       .health = {{1, 0, 4, "accuracy_drop", 12.500000000000007, 2,
                   "task 1 cumulative accuracy 54.17 vs trailing mean 66.67"},
                  {2, 0, 6, "accuracy_drop", 17.361111111111114, 2,
                   "task 2 cumulative accuracy 43.06 vs trailing mean 60.42"}},
       .accuracy = {
           .per_domain = {{66.666666666666671},
                          {41.666666666666664, 66.666666666666671},
                          {33.333333333333336, 50, 45.833333333333336}},
           .cumulative = {66.666666666666671, 54.166666666666664,
                          43.055555555555557}},
       .state_avx2 = 0xcd7a316d25443f1bULL,
       .state_scalar = 0x97528ab7f103d513ULL},
  };
  return all;
}

class GoldenRun : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GoldenRun, ReproducesTheRecordedResult) {
  const Case& c = cases()[GetParam()];
  ASSERT_EQ(goldens().size(), cases().size());
  const Golden& g = goldens()[GetParam()];
  const Outcome outcome = run_case(c);
  const fed::RunResult& r = outcome.result;

  EXPECT_EQ(r.network.bytes_down, g.network.bytes_down);
  EXPECT_EQ(r.network.bytes_up, g.network.bytes_up);
  EXPECT_EQ(r.network.messages, g.network.messages);
  EXPECT_EQ(r.network.dropped_updates, g.network.dropped_updates);
  EXPECT_EQ(r.network.quarantined, g.network.quarantined);
  EXPECT_EQ(r.network.retries, g.network.retries);
  EXPECT_EQ(r.network.timed_out, g.network.timed_out);
  EXPECT_EQ(r.network.bytes_retransmitted, g.network.bytes_retransmitted);
  EXPECT_EQ(r.network.bytes_down_raw_equiv, g.network.bytes_down_raw_equiv);
  EXPECT_EQ(r.network.bytes_up_raw_equiv, g.network.bytes_up_raw_equiv);

  ASSERT_EQ(r.rounds.size(), g.rounds.size());
  for (std::size_t i = 0; i < g.rounds.size(); ++i) {
    SCOPED_TRACE("round " + std::to_string(i));
    const fed::RoundStats& got = r.rounds[i];
    const RoundGolden& want = g.rounds[i];
    EXPECT_EQ(got.task, want.task);
    EXPECT_EQ(got.round, want.round);
    EXPECT_EQ(got.selected, want.selected);
    EXPECT_EQ(got.dropped, want.dropped);
    EXPECT_EQ(got.bytes_down, want.bytes_down);
    EXPECT_EQ(got.bytes_up, want.bytes_up);
    EXPECT_EQ(got.quarantined, want.quarantined);
    EXPECT_EQ(got.retries, want.retries);
    EXPECT_EQ(got.timed_out, want.timed_out);
    EXPECT_EQ(got.bytes_retransmitted, want.bytes_retransmitted);
  }

  EXPECT_EQ(r.monitor.enabled, c.monitored);
  const std::string isa = tensor::kern::active_name();
  if (isa != "avx2" && isa != "scalar") {
    GTEST_SKIP() << "learned values are recorded for avx2 and scalar only, "
                    "not "
                 << isa;
  }
  ASSERT_EQ(r.tasks.size(), g.accuracy.cumulative.size());
  for (std::size_t t = 0; t < g.accuracy.cumulative.size(); ++t) {
    SCOPED_TRACE("task " + std::to_string(t));
    EXPECT_EQ(r.tasks[t].cumulative_accuracy, g.accuracy.cumulative[t]);
    EXPECT_EQ(r.tasks[t].per_domain_accuracy, g.accuracy.per_domain[t]);
  }
  EXPECT_EQ(outcome.state_digest,
            isa == "avx2" ? g.state_avx2 : g.state_scalar)
      << std::hex << "0x" << outcome.state_digest;
  ASSERT_EQ(r.health.size(), g.health.size());
  for (std::size_t i = 0; i < g.health.size(); ++i) {
    SCOPED_TRACE("health event " + std::to_string(i));
    EXPECT_EQ(r.health[i].task, g.health[i].task);
    EXPECT_EQ(r.health[i].round, g.health[i].round);
    EXPECT_EQ(r.health[i].global_round, g.health[i].global_round);
    EXPECT_EQ(r.health[i].detector, g.health[i].detector);
    EXPECT_EQ(r.health[i].value, g.health[i].value);
    EXPECT_EQ(r.health[i].threshold, g.health[i].threshold);
    EXPECT_EQ(r.health[i].detail, g.health[i].detail);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, GoldenRun, ::testing::Range<std::size_t>(0, cases().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(cases()[info.param].name);
    });

}  // namespace
