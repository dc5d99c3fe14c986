// Per-sample training: the end-to-end contract that sweeping a batch as
// several graphs (runs or single samples) is bitwise-identical to training
// the batch as one graph, and that the result does not depend on the number
// of client slots.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "reffil/cl/method_base.hpp"
#include "reffil/harness/experiment.hpp"
#include "reffil/util/thread_pool.hpp"

using namespace reffil;
namespace T = reffil::tensor;

namespace {

bool same_bits(const T::Tensor& a, const T::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.begin(), b.begin(), a.numel() * sizeof(float)) == 0;
}

data::DatasetSpec two_domain_spec() {
  data::DatasetSpec spec;
  spec.name = "TwoDomain";
  spec.num_classes = 4;
  spec.seed = 31;
  data::DomainSpec d;
  d.train_samples = 96;
  d.test_samples = 24;
  d.noise = 0.1f;
  d.clutter = 0.2f;
  d.style_shift = 0.6f;
  d.render_mix = 0.5f;
  d.name = "A";
  spec.domains.push_back(d);
  d.name = "B";
  d.style_shift = 1.0f;
  spec.domains.push_back(d);
  spec.initial_clients = 5;
  spec.clients_per_round = 3;
  spec.client_increment = 1;
  spec.rounds_per_task = 3;  // task B's later rounds carry GPL/DPCL prompts
  spec.local_epochs = 2;
  spec.learning_rate = 0.05f;
  return spec;
}

struct Outcome {
  fed::RunResult result;
  fed::ModelState global;
};

Outcome run(harness::MethodKind kind, bool parallel_samples,
            std::size_t slots) {
  const auto spec = two_domain_spec();
  harness::ExperimentConfig config;
  config.seed = 3;
  config.parallelism = slots;
  config.parallel_samples = parallel_samples;
  auto method = harness::make_method(kind, spec, config);
  fed::RunConfig run_config;
  run_config.spec = spec;
  run_config.parallelism = slots;
  run_config.seed = config.seed;
  fed::FederatedRunner runner(run_config);
  Outcome out{runner.run(*method), {}};
  out.global = dynamic_cast<cl::MethodBase&>(*method).global_state();
  return out;
}

void expect_identical(const Outcome& a, const Outcome& b) {
  ASSERT_EQ(a.result.tasks.size(), b.result.tasks.size());
  for (std::size_t t = 0; t < a.result.tasks.size(); ++t) {
    EXPECT_EQ(a.result.tasks[t].per_domain_accuracy,
              b.result.tasks[t].per_domain_accuracy);
  }
  EXPECT_EQ(a.result.network.bytes_up, b.result.network.bytes_up);
  EXPECT_EQ(a.result.network.bytes_down, b.result.network.bytes_down);
  ASSERT_EQ(a.global.size(), b.global.size());
  for (std::size_t i = 0; i < a.global.size(); ++i) {
    EXPECT_TRUE(same_bits(a.global[i], b.global[i])) << "tensor " << i;
  }
}

}  // namespace

class ParallelSamples : public ::testing::TestWithParam<harness::MethodKind> {};

TEST_P(ParallelSamples, FinalModelMatchesOneGraphBatchesBitwise) {
  expect_identical(run(GetParam(), /*parallel_samples=*/true, 2),
                   run(GetParam(), /*parallel_samples=*/false, 2));
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, ParallelSamples,
    ::testing::ValuesIn(harness::all_method_kinds()),
    [](const ::testing::TestParamInfo<harness::MethodKind>& info) {
      std::string safe;
      for (char c : harness::method_display_name(info.param)) {
        if (std::isalnum(static_cast<unsigned char>(c))) safe += c;
      }
      if (info.param == harness::MethodKind::kL2pPool ||
          info.param == harness::MethodKind::kDualPromptPool) {
        safe += "Pool";
      }
      return safe;
    });

TEST(ClientSlots, ResultDoesNotDependOnSlotCount) {
  // Slots pull the next client dynamically, so which replica trains which
  // client varies from run to run; the result must not. Replicas (and
  // FedLwF's teachers) are built the first time their slot trains.
  const std::size_t threads = util::global_thread_pool().size();
  for (const auto kind : {harness::MethodKind::kRefFiL, harness::MethodKind::kLwf}) {
    SCOPED_TRACE(harness::method_display_name(kind));
    const Outcome one = run(kind, true, 1);
    expect_identical(one, run(kind, true, 3));
    expect_identical(one, run(kind, false, 2));
    expect_identical(one, run(kind, true, threads));      // one per thread
    expect_identical(one, run(kind, true, threads + 2));  // more than threads
  }
}
