// Tests for the extension features: client dropout in the runtime and
// RefFiL's task-ID-free eval policies.
#include <gtest/gtest.h>

#include "reffil/tensor/ops.hpp"
#include "reffil/fed/runtime.hpp"
#include "reffil/harness/experiment.hpp"

using namespace reffil;

namespace {
data::DatasetSpec dropout_spec() {
  data::DatasetSpec spec;
  spec.name = "DropoutTiny";
  spec.num_classes = 4;
  spec.seed = 55;
  data::DomainSpec d;
  d.train_samples = 64;
  d.test_samples = 20;
  d.noise = 0.15f;
  d.name = "A";
  spec.domains.push_back(d);
  spec.initial_clients = 6;
  spec.clients_per_round = 4;
  spec.client_increment = 0;
  spec.rounds_per_task = 3;
  spec.local_epochs = 1;
  spec.learning_rate = 0.04f;
  return spec;
}
}  // namespace

TEST(Dropout, DropsUpdatesAndStillCompletes) {
  const auto spec = dropout_spec();
  harness::ExperimentConfig config;
  config.parallelism = 1;
  auto method = harness::make_method(harness::MethodKind::kFinetune, spec, config);
  fed::FederatedRunner runner({.spec = spec,
                               .parallelism = 1,
                               .seed = 3,
                               .dropout_probability = 0.5});
  const auto result = runner.run(*method);
  EXPECT_GT(result.network.dropped_updates, 0u);
  // Some clients still got through.
  EXPECT_GT(result.network.messages, 0u);
  ASSERT_EQ(result.tasks.size(), 1u);
}

TEST(Dropout, ZeroProbabilityChangesNothing) {
  const auto spec = dropout_spec();
  harness::ExperimentConfig config;
  config.parallelism = 1;
  auto run = [&](double p) {
    auto method =
        harness::make_method(harness::MethodKind::kFinetune, spec, config);
    fed::FederatedRunner runner(
        {.spec = spec, .parallelism = 1, .seed = 3, .dropout_probability = p});
    return runner.run(*method);
  };
  const auto baseline = run(0.0);
  const auto again = run(0.0);
  EXPECT_EQ(baseline.network.dropped_updates, 0u);
  EXPECT_DOUBLE_EQ(baseline.tasks[0].cumulative_accuracy,
                   again.tasks[0].cumulative_accuracy);
}

TEST(EvalTaskPolicy, AllPoliciesProduceValidPredictions) {
  cl::MethodConfig method_config;
  method_config.net.num_classes = 4;
  method_config.parallelism = 1;
  method_config.max_tasks = 3;
  for (const auto policy :
       {core::EvalTaskPolicy::kLatest, core::EvalTaskPolicy::kEnsemble,
        core::EvalTaskPolicy::kConfidence}) {
    core::RefFiLConfig reffil;
    reffil.eval_task_policy = policy;
    core::RefFiLMethod method(method_config, reffil);
    method.on_task_start(2);  // pretend two tasks learned
    method.prepare_eval();
    util::Rng rng(8);
    for (int i = 0; i < 4; ++i) {
      const auto label = method.predict(0, tensor::randn({1, 16, 16}, rng));
      EXPECT_LT(label, 4u);
    }
  }
}
