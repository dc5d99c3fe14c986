// Graph capture + arena replay tests.
//
// The contract under test (autograd/graph.hpp): a captured training step
// replays bitwise-identically to the eager computation, allocation-free in
// steady state (pool miss counter flat across replays), and every batch the
// captured structure cannot express falls back to eager via bind() == false
// rather than replaying a wrong graph. The end-to-end half runs every
// method's full curriculum with graph replay on and off and requires the
// exact same accuracies.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "reffil/autograd/graph.hpp"
#include "reffil/autograd/ops.hpp"
#include "reffil/fed/runtime.hpp"
#include "reffil/harness/experiment.hpp"
#include "reffil/nn/backbone.hpp"
#include "reffil/tensor/ops.hpp"
#include "reffil/tensor/pool.hpp"
#include "reffil/util/obs.hpp"
#include "reffil/util/rng.hpp"

using namespace reffil;
namespace AG = reffil::autograd;
namespace T = reffil::tensor;

namespace {

nn::PromptNetConfig tiny_net_config() {
  nn::PromptNetConfig net;
  net.num_classes = 4;
  return net;
}

T::Tensor random_image(util::Rng& rng) {
  return T::randn({1, 16, 16}, rng, 0.0f, 1.0f);
}

/// One eager/captured training step: mean cross-entropy over the batch.
AG::Var batch_ce(const nn::PromptNet& net,
                 const std::vector<T::Tensor>& images,
                 const std::vector<std::size_t>& labels) {
  AG::Var total;
  for (std::size_t i = 0; i < images.size(); ++i) {
    const auto out = net.forward(images[i]);
    const AG::Var ce = AG::cross_entropy_logits(out.logits, {labels[i]});
    total = (i == 0) ? ce : AG::add(total, ce);
  }
  return AG::mul_scalar(total, 1.0f / static_cast<float>(images.size()));
}

std::uint64_t counter_value(const char* name) {
  const auto snap = obs::Registry::instance().snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

// Same miniature curriculum as methods_test: two domains, seconds per run.
data::DatasetSpec tiny_spec() {
  data::DatasetSpec spec;
  spec.name = "Tiny";
  spec.num_classes = 4;
  spec.seed = 77;
  data::DomainSpec d;
  d.train_samples = 72;
  d.test_samples = 24;
  d.noise = 0.10f;
  d.clutter = 0.2f;
  d.style_shift = 0.6f;
  d.render_mix = 0.5f;
  d.name = "A";
  spec.domains.push_back(d);
  d.name = "B";
  d.style_shift = 1.0f;
  spec.domains.push_back(d);
  spec.initial_clients = 6;
  spec.clients_per_round = 3;
  spec.client_increment = 1;
  spec.rounds_per_task = 3;
  spec.local_epochs = 3;
  spec.learning_rate = 0.05f;
  return spec;
}

fed::RunResult run_tiny(harness::MethodKind kind, bool graph_replay) {
  const auto spec = tiny_spec();
  harness::ExperimentConfig config;
  config.seed = 5;
  config.parallelism = 1;
  config.scale = harness::Scale::kScaled;
  config.graph_replay = graph_replay;
  auto method = harness::make_method(kind, spec, config);
  fed::FederatedRunner runner(
      {.spec = spec, .parallelism = 1, .seed = config.seed});
  return runner.run(*method);
}

}  // namespace

// ---- direct capture/replay ---------------------------------------------------

TEST(GraphReplay, ReplayedGradientsBitwiseMatchEager) {
  const std::size_t kBatch = 2;
  util::Rng data_rng(11);
  std::vector<T::Tensor> batch_a, batch_b;
  std::vector<std::size_t> labels_a = {0, 2}, labels_b = {3, 1};
  for (std::size_t i = 0; i < kBatch; ++i) {
    batch_a.push_back(random_image(data_rng));
    batch_b.push_back(random_image(data_rng));
  }

  // Two identically initialized nets: one trains eagerly on batch B, the
  // other captures on batch A and replays on batch B.
  util::Rng rng_eager(42), rng_replay(42);
  nn::PromptNet eager_net(tiny_net_config(), rng_eager);
  nn::PromptNet replay_net(tiny_net_config(), rng_replay);

  for (auto& p : eager_net.parameters()) p->zero_grad();
  const AG::Var eager_loss = batch_ce(eager_net, batch_b, labels_b);
  AG::backward(eager_loss);

  std::shared_ptr<AG::graph::CapturedGraph> graph;
  {
    AG::graph::Capture capture;
    AG::Var loss = batch_ce(replay_net, batch_a, labels_a);
    AG::backward(loss);
    graph = capture.finish(loss, /*tag_sensitive=*/false, {0, 0});
  }
  ASSERT_NE(graph, nullptr) << "CE training step must be capturable";
  EXPECT_EQ(graph->batch_size(), kBatch);
  EXPECT_GT(graph->arena_bytes(), 0u);

  for (auto& p : replay_net.parameters()) p->zero_grad();
  std::vector<const T::Tensor*> images = {&batch_b[0], &batch_b[1]};
  ASSERT_TRUE(graph->bind(images, labels_b, {0, 0}));
  graph->replay();

  // Bitwise: the replayed step runs the same forward closures over the same
  // kernels as eager, so every float must match exactly.
  const auto eager_params = eager_net.parameters();
  const auto replay_params = replay_net.parameters();
  ASSERT_EQ(eager_params.size(), replay_params.size());
  EXPECT_EQ(graph->root()->value().item(), eager_loss->value().item());
  for (std::size_t p = 0; p < eager_params.size(); ++p) {
    const T::Tensor& ge = eager_params[p]->grad();
    const T::Tensor& gr = replay_params[p]->grad();
    ASSERT_EQ(ge.shape(), gr.shape());
    ASSERT_EQ(std::memcmp(ge.begin(), gr.begin(), ge.numel() * sizeof(float)),
              0)
        << "parameter " << p << " gradient differs between eager and replay";
  }
}

TEST(GraphReplay, SteadyStateReplaysAreAllocationFree) {
  util::Rng rng(7), data_rng(3);
  nn::PromptNet net(tiny_net_config(), rng);
  std::vector<T::Tensor> batch = {random_image(data_rng),
                                  random_image(data_rng)};
  std::vector<std::size_t> labels = {1, 3};

  std::shared_ptr<AG::graph::CapturedGraph> graph;
  {
    AG::graph::Capture capture;
    AG::Var loss = batch_ce(net, batch, labels);
    AG::backward(loss);
    graph = capture.finish(loss, false, {0, 0});
  }
  ASSERT_NE(graph, nullptr);

  std::vector<const T::Tensor*> images = {&batch[0], &batch[1]};
  const auto step = [&] {
    for (auto& p : net.parameters()) p->zero_grad();
    ASSERT_TRUE(graph->bind(images, labels, {0, 0}));
    graph->replay();
  };
  // Warm up: the first replays may still fault pool buckets the capture
  // never touched.
  for (int i = 0; i < 3; ++i) step();

  const std::uint64_t misses_before = counter_value("tensor.pool.miss");
  const std::uint64_t replays_before = counter_value("ag.graph.replay");
  for (int i = 0; i < 100; ++i) step();
  EXPECT_EQ(counter_value("tensor.pool.miss"), misses_before)
      << "steady-state replay must not allocate (pool miss counter moved)";
  EXPECT_EQ(counter_value("ag.graph.replay"), replays_before + 100);
}

TEST(GraphCache, CyclingNineBatchSizesRecapturesOnlyTheEvictedKey) {
  // One worker slot, as MethodBase drives it: key "<signature>|b=<size>",
  // capture on a miss, replay on a hit, 8 graphs at most. Partial batches
  // of quantity-skewed clients produce more distinct sizes than that; the
  // cache must then drop one graph — the least recently used — not all.
  constexpr std::size_t kSizes = 9;
  util::Rng rng(31), eager_rng(31), data_rng(5);
  nn::PromptNet net(tiny_net_config(), rng);
  nn::PromptNet eager_net(tiny_net_config(), eager_rng);
  std::vector<T::Tensor> images;
  std::vector<std::size_t> labels;
  for (std::size_t i = 0; i < kSizes; ++i) {
    images.push_back(random_image(data_rng));
    labels.push_back(i % 4);
  }
  AG::graph::GraphCache cache(8);
  std::map<std::size_t, int> captures;
  const auto step = [&](std::size_t b) {
    SCOPED_TRACE("batch size " + std::to_string(b));
    const std::vector<T::Tensor> batch(images.begin(), images.begin() + b);
    const std::vector<std::size_t> batch_labels(labels.begin(),
                                                labels.begin() + b);
    const std::vector<std::size_t> tags(b, 0);
    const std::string key = "sig|b=" + std::to_string(b);
    for (auto& p : net.parameters()) p->zero_grad();
    if (const auto* graph = cache.find(key)) {
      ASSERT_NE(*graph, nullptr);
      std::vector<const T::Tensor*> ptrs;
      for (const auto& im : batch) ptrs.push_back(&im);
      ASSERT_TRUE((*graph)->bind(ptrs, batch_labels, tags));
      (*graph)->replay();
    } else {
      ++captures[b];
      AG::graph::Capture capture;
      AG::Var loss = batch_ce(net, batch, batch_labels);
      AG::backward(loss);
      cache.insert(key, capture.finish(loss, false, tags));
    }
    EXPECT_LE(cache.size(), 8u);
    // Captured or replayed, the step's gradients are the eager step's.
    for (auto& p : eager_net.parameters()) p->zero_grad();
    AG::backward(batch_ce(eager_net, batch, batch_labels));
    const auto got = net.parameters();
    const auto want = eager_net.parameters();
    for (std::size_t p = 0; p < got.size(); ++p) {
      ASSERT_EQ(std::memcmp(got[p]->grad().begin(), want[p]->grad().begin(),
                            got[p]->grad().numel() * sizeof(float)),
                0)
          << "parameter " << p;
    }
  };
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t b = 1; b <= 8; ++b) step(b);  // 8 captures, then hits
  }
  step(9);  // full: evicts b=1, the least recently used
  for (std::size_t b = 2; b <= 9; ++b) step(b);  // all still cached
  step(1);  // the one evicted key comes back
  for (std::size_t b = 1; b <= kSizes; ++b) {
    EXPECT_EQ(captures[b], b == 1 ? 2 : 1) << "batch size " << b;
  }
}

TEST(GraphReplay, BindRefusesMismatchedBatches) {
  util::Rng rng(9), data_rng(4);
  nn::PromptNet net(tiny_net_config(), rng);
  std::vector<T::Tensor> batch = {random_image(data_rng),
                                  random_image(data_rng)};
  std::vector<std::size_t> labels = {0, 1};

  std::shared_ptr<AG::graph::CapturedGraph> graph;
  {
    AG::graph::Capture capture;
    AG::Var loss = batch_ce(net, batch, labels);
    AG::backward(loss);
    graph = capture.finish(loss, /*tag_sensitive=*/true, {0, 1});
  }
  ASSERT_NE(graph, nullptr);
  std::vector<const T::Tensor*> images = {&batch[0], &batch[1]};

  // Wrong batch size: the graph was captured for 2 samples.
  std::vector<const T::Tensor*> three = {&batch[0], &batch[1], &batch[0]};
  EXPECT_FALSE(graph->bind(three, {0, 1, 2}, {0, 1, 0}));

  // Image shape drift.
  const T::Tensor wrong_shape({3, 16, 16});
  std::vector<const T::Tensor*> reshaped = {&batch[0], &wrong_shape};
  EXPECT_FALSE(graph->bind(reshaped, labels, {0, 1}));

  // Label outside the captured class count.
  EXPECT_FALSE(graph->bind(images, {0, 99}, {0, 1}));

  // Tag pattern mismatch on a tag-sensitive capture.
  EXPECT_FALSE(graph->bind(images, labels, {1, 0}));

  // The matching batch still binds after every rejection (nothing was
  // partially committed).
  EXPECT_TRUE(graph->bind(images, labels, {0, 1}));
  graph->replay();
}

TEST(GraphReplay, CaptureRejectsTapeWithoutBackward) {
  util::Rng rng(13), data_rng(6);
  nn::PromptNet net(tiny_net_config(), rng);
  std::vector<T::Tensor> batch = {random_image(data_rng)};
  std::shared_ptr<AG::graph::CapturedGraph> graph;
  {
    AG::graph::Capture capture;
    AG::Var loss = batch_ce(net, batch, {2});
    // No backward(): the tape has no sweep order to freeze.
    graph = capture.finish(loss, false, {0});
  }
  EXPECT_EQ(graph, nullptr);
}

// ---- end-to-end: every method, replay on vs off ------------------------------

class GraphReplayParity : public ::testing::TestWithParam<harness::MethodKind> {
};

TEST_P(GraphReplayParity, RunMatchesEagerExactly) {
  const std::uint64_t replays_before = counter_value("ag.graph.replay");
  const fed::RunResult eager = run_tiny(GetParam(), /*graph_replay=*/false);
  EXPECT_EQ(counter_value("ag.graph.replay"), replays_before)
      << "eager run must not touch the replay machinery";
  const fed::RunResult replay = run_tiny(GetParam(), /*graph_replay=*/true);

  ASSERT_EQ(eager.tasks.size(), replay.tasks.size());
  for (std::size_t t = 0; t < eager.tasks.size(); ++t) {
    EXPECT_EQ(eager.tasks[t].cumulative_accuracy,
              replay.tasks[t].cumulative_accuracy)
        << "task " << t << " accuracy diverged under --graph-replay";
    EXPECT_EQ(eager.tasks[t].per_domain_accuracy,
              replay.tasks[t].per_domain_accuracy);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, GraphReplayParity,
    ::testing::Values(harness::MethodKind::kFinetune, harness::MethodKind::kLwf,
                      harness::MethodKind::kEwc, harness::MethodKind::kL2p,
                      harness::MethodKind::kDualPrompt,
                      harness::MethodKind::kRefFiL),
    [](const ::testing::TestParamInfo<harness::MethodKind>& info) {
      std::string name = harness::method_display_name(info.param);
      for (auto& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(GraphReplayParity, OptedInMethodsActuallyReplay) {
  for (const auto kind :
       {harness::MethodKind::kFinetune, harness::MethodKind::kEwc,
        harness::MethodKind::kRefFiL}) {
    const std::uint64_t before = counter_value("ag.graph.replay");
    (void)run_tiny(kind, true);
    EXPECT_GT(counter_value("ag.graph.replay"), before)
        << harness::method_display_name(kind) << " never replayed";
  }
}

TEST(GraphReplayParity, DataDependentMethodsStayEager) {
  // LwF bakes per-sample teacher probabilities and the prompt-pool methods
  // select prompts per sample: their structure is data-dependent, so they
  // must not opt in even with the flag set.
  for (const auto kind :
       {harness::MethodKind::kLwf, harness::MethodKind::kL2p,
        harness::MethodKind::kDualPrompt}) {
    const std::uint64_t replays = counter_value("ag.graph.replay");
    const std::uint64_t captures = counter_value("ag.graph.capture");
    (void)run_tiny(kind, true);
    EXPECT_EQ(counter_value("ag.graph.replay"), replays)
        << harness::method_display_name(kind) << " replayed unexpectedly";
    EXPECT_EQ(counter_value("ag.graph.capture"), captures);
  }
}
