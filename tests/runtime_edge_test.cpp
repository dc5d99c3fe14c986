// Edge-path tests for the federated runtime and logging: total-dropout
// rounds, single-client federations, the aggregation-error policy, and the
// log-level plumbing.
#include <gtest/gtest.h>

#include <memory>

#include "reffil/fed/runtime.hpp"
#include "reffil/harness/experiment.hpp"
#include "reffil/util/error.hpp"
#include "reffil/util/logging.hpp"

using namespace reffil;

namespace {
data::DatasetSpec one_domain_spec() {
  data::DatasetSpec spec;
  spec.name = "Edge";
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

/// Forwards to a real method, except that the server-side fold rejects every
/// other update: the 1st, 3rd, ... add() of each round's sink throws, and the
/// rest fold into the method's own sink.
class RejectingFold : public fed::Method {
 public:
  explicit RejectingFold(std::unique_ptr<fed::Method> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  void on_task_start(std::size_t task) override { inner_->on_task_start(task); }
  std::vector<std::uint8_t> make_broadcast() override {
    return inner_->make_broadcast();
  }
  fed::ClientUpdate train_client(const std::vector<std::uint8_t>& broadcast,
                                 const fed::TrainJob& job) override {
    return inner_->train_client(broadcast, job);
  }
  fed::UpdateValidator update_validator() const override {
    return inner_->update_validator();
  }
  std::unique_ptr<fed::AggregationSink> begin_streaming_aggregate(
      std::size_t planned_samples) override {
    struct Sink : fed::AggregationSink {
      explicit Sink(std::unique_ptr<fed::AggregationSink> s)
          : inner(std::move(s)) {}
      void add(const fed::ClientUpdate& update) override {
        if (adds++ % 2 == 0) throw SerializationError("rejected by the fold");
        inner->add(update);
      }
      std::size_t count() const override { return inner->count(); }
      void finish() override { inner->finish(); }
      std::unique_ptr<fed::AggregationSink> inner;
      std::size_t adds = 0;
    };
    return std::make_unique<Sink>(
        inner_->begin_streaming_aggregate(planned_samples));
  }
  void prepare_eval() override { inner_->prepare_eval(); }
  std::size_t predict(std::size_t slot, const tensor::Tensor& image) override {
    return inner_->predict(slot, image);
  }
  tensor::Tensor eval_feature(std::size_t slot,
                              const tensor::Tensor& image) override {
    return inner_->eval_feature(slot, image);
  }

 private:
  std::unique_ptr<fed::Method> inner_;
};

fed::RunResult run_rejecting(const fed::FaultProfile& faults,
                             const fed::DesConfig& des) {
  const auto spec = one_domain_spec();
  harness::ExperimentConfig config;
  config.parallelism = 1;
  RejectingFold method(
      harness::make_method(harness::MethodKind::kFinetune, spec, config));
  fed::RunConfig run;
  run.spec = spec;
  run.parallelism = 1;
  run.seed = 5;
  run.faults = faults;
  run.des = des;
  fed::FederatedRunner runner(std::move(run));
  return runner.run(method);
}
}  // namespace

TEST(RuntimeEdge, AggregationErrorsAreQuarantinedOnlyUnderAnArmedTransport) {
  // Only the armed transport delivers bytes the server did not produce, so
  // only then is a fold error the payload's fault: quarantine that update
  // and fold the rest. Without it the error is a bug and must surface — in
  // dense and DES runs alike, which share the one streaming fold.
  const auto armed = fed::FaultProfile::parse("deadline=1e9");
  const auto des = fed::DesConfig::parse("registered=50,sample=3");
  const auto spec = one_domain_spec();

  // Each round's 1st and 3rd add() threw: each such update is quarantined on
  // its own, not the round's whole cohort.
  const auto dense = run_rejecting(armed, {});
  EXPECT_EQ(dense.network.quarantined, spec.rounds_per_task * 1);
  ASSERT_EQ(dense.tasks.size(), 1u);
  const auto sampled = run_rejecting(armed, des);
  EXPECT_EQ(sampled.network.quarantined, spec.rounds_per_task * 2);
  ASSERT_EQ(sampled.tasks.size(), 1u);

  EXPECT_THROW(run_rejecting({}, {}), SerializationError);
  EXPECT_THROW(run_rejecting({}, des), SerializationError);
}

TEST(RuntimeEdge, TotalDropoutSkipsEveryRoundButStillEvaluates) {
  const auto spec = one_domain_spec();
  harness::ExperimentConfig config;
  config.parallelism = 1;
  auto method = harness::make_method(harness::MethodKind::kFinetune, spec, config);
  fed::FederatedRunner runner({.spec = spec,
                               .parallelism = 1,
                               .seed = 1,
                               .dropout_probability = 1.0});
  const auto result = runner.run(*method);
  // Every selected client dropped: no uploads, no aggregation — but the
  // curriculum still completes and evaluates the untrained model. The
  // server's broadcast happened before anyone dropped, so the downlink
  // traffic for the full selection is still metered (a real federation pays
  // for those bytes whether or not the client answers).
  const std::uint64_t selected =
      spec.rounds_per_task * spec.clients_per_round;
  EXPECT_EQ(result.network.messages, selected);  // broadcasts only
  EXPECT_GT(result.network.bytes_down, 0u);
  EXPECT_EQ(result.network.bytes_down % selected, 0u);  // selected × payload
  EXPECT_EQ(result.network.bytes_up, 0u);
  EXPECT_EQ(result.network.dropped_updates, selected);
  ASSERT_EQ(result.tasks.size(), 1u);
  EXPECT_GE(result.tasks[0].cumulative_accuracy, 0.0);
}

TEST(RuntimeEdge, BroadcastBytesAreMeteredForDroppedClients) {
  // Regression: bytes_down used to be metered after dropout filtering, so a
  // federation with heavy dropout under-reported its downlink traffic. With
  // identical seeds, the broadcast accounting must not depend on dropout.
  const auto spec = one_domain_spec();
  harness::ExperimentConfig config;
  config.parallelism = 1;
  auto run_with_dropout = [&](double p) {
    auto method =
        harness::make_method(harness::MethodKind::kFinetune, spec, config);
    fed::FederatedRunner runner({.spec = spec,
                                 .parallelism = 1,
                                 .seed = 5,
                                 .dropout_probability = p});
    return runner.run(*method);
  };
  const auto lossless = run_with_dropout(0.0);
  const auto lossy = run_with_dropout(1.0);
  EXPECT_GT(lossy.network.dropped_updates, 0u);
  // Same rounds, same participant count, same per-round broadcast size for
  // an untrained-vs-trained finetune payload of fixed tensor shapes.
  EXPECT_EQ(lossy.network.bytes_down, lossless.network.bytes_down);
}

TEST(RuntimeEdge, SingleClientFederationWorks) {
  auto spec = one_domain_spec();
  spec.initial_clients = 1;
  spec.clients_per_round = 1;
  harness::ExperimentConfig config;
  config.parallelism = 1;
  auto method = harness::make_method(harness::MethodKind::kRefFiL, spec, config);
  fed::FederatedRunner runner({.spec = spec, .parallelism = 1, .seed = 2});
  const auto result = runner.run(*method);
  EXPECT_EQ(result.network.messages,
            2 * spec.rounds_per_task);  // 1 down + 1 up per round
  EXPECT_GT(result.tasks[0].cumulative_accuracy, 30.0);  // above 1/3 chance
}

TEST(RuntimeEdge, WallClockAndTrafficAreRecorded) {
  const auto spec = one_domain_spec();
  harness::ExperimentConfig config;
  config.parallelism = 1;
  auto method = harness::make_method(harness::MethodKind::kLwf, spec, config);
  fed::FederatedRunner runner({.spec = spec, .parallelism = 1, .seed = 3});
  const auto result = runner.run(*method);
  EXPECT_GT(result.wall_seconds, 0.0);
  EXPECT_GT(result.network.bytes_down, result.network.bytes_up / 10);
}

TEST(Logging, LevelGatesMessages) {
  const auto original = util::log_level();
  util::set_log_level(util::LogLevel::kOff);
  // No crash, no output assertions possible — just exercise the paths.
  REFFIL_LOG_DEBUG << "hidden";
  REFFIL_LOG_ERROR << "also hidden at kOff";
  util::set_log_level(util::LogLevel::kError);
  REFFIL_LOG_WARN << "below threshold";
  util::set_log_level(original);
  SUCCEED();
}

TEST(Logging, LevelRoundTrip) {
  const auto original = util::log_level();
  util::set_log_level(util::LogLevel::kDebug);
  EXPECT_EQ(util::log_level(), util::LogLevel::kDebug);
  util::set_log_level(util::LogLevel::kWarn);
  EXPECT_EQ(util::log_level(), util::LogLevel::kWarn);
  util::set_log_level(original);
}
