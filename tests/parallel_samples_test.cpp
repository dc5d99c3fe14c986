// Per-sample parallel training: the ordered gradient fold and the end-to-end
// contract that fanning a batch's samples out to idle workers is
// bitwise-identical to training the batch as one graph on one thread.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "reffil/autograd/ops.hpp"
#include "reffil/autograd/variable.hpp"
#include "reffil/cl/method_base.hpp"
#include "reffil/harness/experiment.hpp"
#include "reffil/tensor/ops.hpp"
#include "reffil/util/rng.hpp"

using namespace reffil;
namespace AG = reffil::autograd;
namespace T = reffil::tensor;

namespace {

bool same_bits(const T::Tensor& a, const T::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.begin(), b.begin(), a.numel() * sizeof(float)) == 0;
}

// Float addition does not reassociate: (1 + 1e8) - 1e8 == 0, but any order
// that adds the 1 after the two large terms cancel leaves 1. A fold that
// commits sweeps out of order therefore changes the gradient's bits.
const std::vector<float> kOrderSensitive = {1.0f, 1e8f, -1e8f};

void sweep(const AG::Var& p, float c) { AG::backward(AG::mul_scalar(p, c)); }

}  // namespace

TEST(OrderedFold, CommitsInOrderWhateverTheFinishOrder) {
  const AG::Var serial = AG::parameter(T::Tensor({1}));
  for (float c : kOrderSensitive) sweep(serial, c);

  const AG::Var p = AG::parameter(T::Tensor({1}));
  AG::OrderedFold fold;
  for (int round = 0; round < 2; ++round) {  // second round recycles tapes
    p->zero_grad();
    fold.begin(3);
    // Sweeps finish 2, 1, 0: nothing may land before sweep 0 does.
    for (std::size_t k : {2u, 1u}) {
      fold.sweep(k, [&] { sweep(p, kOrderSensitive[k]); });
      EXPECT_EQ(p->grad().at(0), 0.0f) << "sweep " << k << " landed early";
    }
    fold.sweep(0, [&] { sweep(p, kOrderSensitive[0]); });
    EXPECT_TRUE(same_bits(p->grad(), serial->grad()))
        << p->grad().at(0) << " vs " << serial->grad().at(0);
  }
  EXPECT_EQ(serial->grad().at(0), 0.0f);  // the order really mattered
  // Outside a sweep, accumulation is direct again.
  sweep(p, 1.0f);
  EXPECT_EQ(p->grad().at(0), 1.0f);
}

TEST(OrderedFold, ConcurrentSweepsMatchOneThreadBitwise) {
  // A small classifier: several contributions per parameter per sweep
  // (the weight feeds two logits paths), random inputs, 12 sweeps.
  util::Rng rng(11);
  const T::Tensor w0 = T::randn({6, 5}, rng);
  const T::Tensor b0 = T::randn({5}, rng);
  std::vector<T::Tensor> inputs;
  for (int k = 0; k < 12; ++k) inputs.push_back(T::randn({1, 6}, rng, 0.0f, 3.0f));
  const auto loss = [&](const AG::Var& w, const AG::Var& b, std::size_t k) {
    const AG::Var x = AG::constant(inputs[k]);
    const AG::Var h = AG::add_rowvec(AG::matmul(x, w), b);
    const AG::Var twice = AG::add(h, AG::add_rowvec(AG::matmul(x, w), b));
    return AG::mul_scalar(AG::cross_entropy_logits(twice, {k % 5}), 1.0f / 12.0f);
  };

  const AG::Var ws = AG::parameter(w0), bs = AG::parameter(b0);
  for (std::size_t k = 0; k < inputs.size(); ++k) AG::backward(loss(ws, bs, k));

  const AG::Var wp = AG::parameter(w0), bp = AG::parameter(b0);
  AG::OrderedFold fold;
  fold.begin(inputs.size());
  std::vector<std::thread> threads;
  // Launch in reverse so late sweeps tend to finish first.
  for (std::size_t k = inputs.size(); k-- > 0;) {
    threads.emplace_back(
        [&, k] { fold.sweep(k, [&] { AG::backward(loss(wp, bp, k)); }); });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(same_bits(wp->grad(), ws->grad()));
  EXPECT_TRUE(same_bits(bp->grad(), bs->grad()));
}

namespace {

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
  // client varies from run to run; the result must not.
  const Outcome one = run(harness::MethodKind::kRefFiL, true, 1);
  expect_identical(one, run(harness::MethodKind::kRefFiL, true, 3));
  expect_identical(one, run(harness::MethodKind::kRefFiL, false, 2));
}
