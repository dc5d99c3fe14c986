// Engineering micro-benchmarks (google-benchmark): the numeric kernels and
// federated-protocol operations the paper's system rests on. Not a paper
// table — these quantify the design choices DESIGN.md calls out (FINCH cost
// vs. plain averaging, serialization overhead, CDAP generation cost).
#include <benchmark/benchmark.h>

#include "reffil/autograd/graph.hpp"
#include "reffil/autograd/ops.hpp"
#include "reffil/cl/method_base.hpp"
#include "reffil/core/cdap.hpp"
#include "reffil/core/reffil.hpp"
#include "reffil/core/finch.hpp"
#include "reffil/data/generator.hpp"
#include "reffil/fed/compress.hpp"
#include "reffil/fed/fedavg.hpp"
#include "reffil/metrics/tsne.hpp"
#include "reffil/tensor/kernels_dispatch.hpp"
#include "reffil/tensor/quant.hpp"
#include "reffil/nn/backbone.hpp"
#include "reffil/nn/optimizer.hpp"
#include "reffil/tensor/ops.hpp"
#include "reffil/tensor/pool.hpp"
#include "reffil/util/prof.hpp"
#include "reffil/util/byte_buffer.hpp"

namespace AG = reffil::autograd;
namespace T = reffil::tensor;
using reffil::util::Rng;

static void BM_TensorMatmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const T::Tensor a = T::randn({n, n}, rng);
  const T::Tensor b = T::randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(T::matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n * n * n);
}
BENCHMARK(BM_TensorMatmul)->Arg(16)->Arg(64)->Arg(128)->Arg(256)->Arg(384);

// Fused a·bᵀ — the backward-pass workhorse (dA of every matmul/linear) and
// the attention q·kᵀ score kernel. Compare against BM_TensorMatmul at the
// same size: the delta is what eliminating the materialized transpose buys.
static void BM_MatmulNT(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const T::Tensor a = T::randn({n, n}, rng);
  const T::Tensor b = T::randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(T::matmul_nt(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n * n * n);
}
BENCHMARK(BM_MatmulNT)->Arg(64)->Arg(128)->Arg(256);

// Fused aᵀ·b — dB of every matmul/linear, dcol of conv2d.
static void BM_MatmulTN(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const T::Tensor a = T::randn({n, n}, rng);
  const T::Tensor b = T::randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(T::matmul_tn(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n * n * n);
}
BENCHMARK(BM_MatmulTN)->Arg(64)->Arg(128)->Arg(256);

// The seven convs of nn::ResNetMini on a [3, 16, 16] image, by layer name.
struct ConvBenchGeom {
  const char* name;
  std::size_t cin, side, cout, stride;
};
constexpr ConvBenchGeom kResNetMiniConvs[] = {
    {"stem", 3, 16, 8, 1},          {"block1.conv1", 8, 16, 8, 1},
    {"block1.conv2", 8, 16, 8, 1},  {"down1", 8, 16, 16, 2},
    {"block2.conv1", 16, 8, 16, 1}, {"block2.conv2", 16, 8, 16, 1},
    {"down2", 16, 8, 32, 2},
};

// One 3x3, pad-1 conv forward + backward (input, weight and bias grads).
static void BM_Conv2dForwardBackward(benchmark::State& state) {
  const ConvBenchGeom& c =
      kResNetMiniConvs[static_cast<std::size_t>(state.range(0))];
  state.SetLabel(c.name);
  Rng rng(2);
  auto input = AG::parameter(T::randn({c.cin, c.side, c.side}, rng));
  auto weight = AG::parameter(T::randn({c.cout, c.cin * 3 * 3}, rng, 0.0f, 0.1f));
  auto bias = AG::parameter(T::zeros({c.cout}));
  for (auto _ : state) {
    input->zero_grad();
    weight->zero_grad();
    bias->zero_grad();
    auto y = AG::conv2d(input, weight, bias, 3, 3, c.stride, 1);
    AG::backward(AG::mean_all(y));
    benchmark::DoNotOptimize(weight->grad());
  }
}
BENCHMARK(BM_Conv2dForwardBackward)->DenseRange(0, 6);

static void BM_PromptNetForward(benchmark::State& state) {
  Rng rng(3);
  reffil::nn::PromptNetConfig config;
  reffil::nn::PromptNet net(config, rng);
  const T::Tensor image = T::randn({1, 16, 16}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.forward(image).logits->value());
  }
}
BENCHMARK(BM_PromptNetForward);

static void BM_PromptNetTrainStep(benchmark::State& state) {
  Rng rng(4);
  reffil::nn::PromptNetConfig config;
  reffil::nn::PromptNet net(config, rng);
  const T::Tensor image = T::randn({1, 16, 16}, rng);
  for (auto _ : state) {
    net.zero_grad();
    auto out = net.forward(image);
    AG::backward(AG::cross_entropy_logits(out.logits, {3}));
    benchmark::DoNotOptimize(net.parameters().front()->grad());
  }
}
BENCHMARK(BM_PromptNetTrainStep);

// One client local-training step at batch granularity, exactly as
// MethodBase::train_client runs it: zero grads, per-sample CE summed over the
// batch, backward through the prompt net, SGD step. This is the unit the
// kernel/pool layer is tuned for — BENCH_kernels.json tracks it before/after.
static void BM_TrainStep(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  reffil::nn::PromptNetConfig config;
  reffil::nn::PromptNet net(config, rng);
  std::vector<T::Tensor> images;
  std::vector<std::size_t> labels;
  for (std::size_t i = 0; i < batch; ++i) {
    images.push_back(T::randn({1, 16, 16}, rng));
    labels.push_back(i % config.num_classes);
  }
  reffil::nn::SgdOptimizer optimizer(net.parameters(),
                                     {.learning_rate = 0.01f, .momentum = 0.9f});
  for (auto _ : state) {
    optimizer.zero_grad();
    AG::Var total;
    for (std::size_t i = 0; i < batch; ++i) {
      const auto out = net.forward(images[i]);
      const AG::Var ce = AG::cross_entropy_logits(out.logits, {labels[i]});
      total = (i == 0) ? ce : AG::add(total, ce);
    }
    AG::backward(AG::mul_scalar(total, 1.0f / static_cast<float>(batch)));
    optimizer.step();
    benchmark::DoNotOptimize(net.parameters().front()->grad());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * batch);
}
BENCHMARK(BM_TrainStep)->Arg(4)->Arg(8);

// One Finetune step (zero grads, forward, backward, SGD) on the two eager
// paths MethodBase::train_step_eager has taken under parallel_samples, both
// swept one graph after another on the calling thread
// (MethodBase::sweep_runs): each sample on its own graph (the path before
// batched steps), or runs of at most three samples as one graph each, split
// by MethodBase::batched_runs. Both leave bitwise-identical gradients
// (tests/batched_step_test.cpp).
struct TrainStepData {
  explicit TrainStepData(std::size_t n) : rng(11), net(config, rng) {
    images = T::randn({n, config.image_channels, 16, 16}, rng);
    const std::size_t size = images.numel() / n;
    for (std::size_t i = 0; i < n; ++i) {
      samples.emplace_back(
          T::Shape{config.image_channels, 16, 16},
          std::vector<float>(images.begin() + i * size,
                             images.begin() + (i + 1) * size));
      labels.push_back(i % config.num_classes);
    }
  }
  Rng rng;
  reffil::nn::PromptNetConfig config;
  reffil::nn::PromptNet net;
  T::Tensor images;
  std::vector<T::Tensor> samples;
  std::vector<std::size_t> labels;
};

static void BM_TrainStepPerSample(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  TrainStepData step(n);
  reffil::nn::SgdOptimizer optimizer(step.net.parameters(),
                                     {.learning_rate = 0.01f, .momentum = 0.9f});
  const float scale = 1.0f / static_cast<float>(n);
  for (auto _ : state) {
    optimizer.zero_grad();
    reffil::cl::MethodBase::sweep_runs(n, n, [&](std::size_t i, std::size_t) {
      const auto out = step.net.forward(step.samples[i]);
      AG::backward(AG::mul_scalar(
          AG::cross_entropy_logits(out.logits, {step.labels[i]}), scale));
    });
    optimizer.step();
    benchmark::DoNotOptimize(step.net.parameters().front()->grad());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_TrainStepPerSample)->Arg(1)->Arg(9)->Arg(16)->UseRealTime();

static void BM_TrainStepBatched(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  TrainStepData step(n);
  reffil::nn::SgdOptimizer optimizer(step.net.parameters(),
                                     {.learning_rate = 0.01f, .momentum = 0.9f});
  const std::size_t size = step.images.numel() / n;
  for (auto _ : state) {
    optimizer.zero_grad();
    reffil::cl::MethodBase::sweep_runs(
        n, reffil::cl::MethodBase::batched_runs(n),
        [&](std::size_t lo, std::size_t hi) {
          const T::Tensor run({hi - lo, step.config.image_channels, 16, 16},
                              std::vector<float>(step.images.begin() + lo * size,
                                                 step.images.begin() + hi * size));
          const std::vector<std::size_t> labels(step.labels.begin() + lo,
                                                step.labels.begin() + hi);
          AG::backward(AG::cross_entropy_logits(step.net.forward(run).logits,
                                                labels, n));
        });
    optimizer.step();
    benchmark::DoNotOptimize(step.net.parameters().front()->grad());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_TrainStepBatched)->Arg(1)->Arg(9)->Arg(16)->UseRealTime();

// The same two paths for one RefFiL step (CE, GPL over P-bar and two other
// domains' contexts, DPCL) on a third-task in-between client: its batch
// mixes two task keys, so the GPL contexts a sample takes differ. The
// broadcast prompt state is made up from random summaries of three domains.
class RefFiLStep : public reffil::core::RefFiLMethod {
 public:
  explicit RefFiLStep(std::size_t n)
      : RefFiLMethod(reffil::cl::MethodConfig{.parallelism = 1}) {
    Rng rng(13);
    const auto& net = config().net;
    reffil::util::ByteWriter writer;
    writer.write_u32(1);
    writer.write_u64(3 * net.num_classes);  // (class, domain) summaries
    for (std::size_t label = 0; label < net.num_classes; ++label) {
      for (std::size_t task = 0; task < 3; ++task) {
        writer.write_u64(label);
        writer.write_u64(task);
        T::randn({net.token_dim}, rng).serialize(writer);
      }
    }
    writer.write_u64(net.num_classes);  // three representatives per class
    for (std::size_t label = 0; label < net.num_classes; ++label) {
      writer.write_u64(label);
      writer.write_u64(3);
      for (int r = 0; r < 3; ++r) T::randn({net.token_dim}, rng).serialize(writer);
    }
    const std::vector<std::uint8_t> bytes = writer.take();
    reffil::util::ByteReader reader(bytes);
    read_broadcast_extras(reader, 0);
    job.task = 2;
    job.group = reffil::fed::ClientGroup::kInBetween;
    for (std::size_t i = 0; i < n; ++i) {
      samples.push_back({T::randn({1, 16, 16}, rng), i % net.num_classes});
    }
    for (std::size_t i = 0; i < n; ++i) batch.push_back({&samples[i], 1 + i % 2});
  }

  /// One step: per-sample graphs, or runs split as train_step_eager does.
  void step(bool batched) {
    const std::size_t n = batch.size();
    const std::size_t runs = batched ? batched_runs(n) : n;
    auto& rep = replica(0);
    reffil::nn::SgdOptimizer optimizer(rep.parameters(),
                                       {.learning_rate = 0.01f, .momentum = 0.9f});
    optimizer.zero_grad();
    const float scale = 1.0f / static_cast<float>(n);
    sweep_runs(n, runs, [&](std::size_t lo, std::size_t hi) {
      AG::backward(batched ? run_loss(rep, batch, lo, hi, job, 0)
                           : AG::mul_scalar(sample_loss(rep, batch[lo], job, 0),
                                            scale));
    });
    optimizer.step();
  }

  reffil::fed::TrainJob job;
  std::vector<reffil::data::Sample> samples;
  std::vector<TaggedSample> batch;
};

static void BM_TrainStepPerSampleRefFiL(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  RefFiLStep step(n);
  for (auto _ : state) step.step(/*batched=*/false);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_TrainStepPerSampleRefFiL)->Arg(1)->Arg(9)->Arg(16)->UseRealTime();

static void BM_TrainStepBatchedRefFiL(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  RefFiLStep step(n);
  for (auto _ : state) step.step(/*batched=*/true);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_TrainStepBatchedRefFiL)->Arg(1)->Arg(9)->Arg(16)->UseRealTime();

// The same client step through capture-and-replay (autograd/graph.hpp): one
// capture outside the loop, then bind+replay+SGD per iteration. Compare
// directly against BM_TrainStep at the same batch — the gap is the cost of
// eager graph construction (node/closure churn and pool traffic) that the
// arena plan eliminates.
static void BM_GraphReplayStep(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  reffil::nn::PromptNetConfig config;
  reffil::nn::PromptNet net(config, rng);
  std::vector<T::Tensor> images;
  std::vector<std::size_t> labels;
  std::vector<std::size_t> tags(batch, 0);
  for (std::size_t i = 0; i < batch; ++i) {
    images.push_back(T::randn({1, 16, 16}, rng));
    labels.push_back(i % config.num_classes);
  }
  reffil::nn::SgdOptimizer optimizer(net.parameters(),
                                     {.learning_rate = 0.01f, .momentum = 0.9f});
  std::shared_ptr<AG::graph::CapturedGraph> graph;
  {
    AG::graph::Capture capture;
    AG::Var total;
    for (std::size_t i = 0; i < batch; ++i) {
      const auto out = net.forward(images[i]);
      const AG::Var ce = AG::cross_entropy_logits(out.logits, {labels[i]});
      total = (i == 0) ? ce : AG::add(total, ce);
    }
    const AG::Var loss =
        AG::mul_scalar(total, 1.0f / static_cast<float>(batch));
    AG::backward(loss);
    graph = capture.finish(loss, false, tags);
  }
  if (!graph) {
    state.SkipWithError("train step failed to capture");
    return;
  }
  std::vector<const T::Tensor*> image_ptrs;
  for (const auto& image : images) image_ptrs.push_back(&image);
  for (auto _ : state) {
    optimizer.zero_grad();
    graph->bind(image_ptrs, labels, tags);
    graph->replay();
    optimizer.step();
    benchmark::DoNotOptimize(net.parameters().front()->grad());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * batch);
}
BENCHMARK(BM_GraphReplayStep)->Arg(4)->Arg(8);

// Scratch-pool miss cost with and without the zero-fill. clear_thread_cache
// forces every borrow down the allocator path; both variants pay that
// identically, so the inter-bench delta isolates what the unconditional
// zero-fill used to cost callers that overwrite every element anyway
// (matmul outputs, conv gradients).
static void BM_PoolMissNoZero(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    T::pool::clear_thread_cache();
    T::pool::Scratch s({n}, /*zero=*/false);
    benchmark::DoNotOptimize(s->begin());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(float)));
}
BENCHMARK(BM_PoolMissNoZero)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

static void BM_PoolMissZeroFill(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    T::pool::clear_thread_cache();
    T::pool::Scratch s({n}, /*zero=*/true);
    benchmark::DoNotOptimize(s->begin());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(float)));
}
BENCHMARK(BM_PoolMissZeroFill)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

// Guard for the profiler's disabled-path contract (DESIGN.md §9): with no
// sink armed, a Span costs one relaxed load — low single-digit ns. If this
// creeps toward clock-read territory (~20ns+), instrumentation has leaked
// onto the hot path; BM_TrainStep above is the end-to-end <2% check.
static void BM_ProfSpanDisabled(benchmark::State& state) {
  if (reffil::obs::prof::enabled()) {
    state.SkipWithError("profiler is armed; disabled-path cost unmeasurable");
    return;
  }
  for (auto _ : state) {
    reffil::obs::prof::Span span("bench.disabled");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_ProfSpanDisabled);

static void BM_CdapGenerate(benchmark::State& state) {
  Rng rng(5);
  reffil::core::CdapConfig config;
  reffil::core::CdapGenerator generator(config, rng);
  const auto tokens = AG::constant(T::randn({config.num_tokens, config.token_dim}, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.generate(tokens, 2)->value());
  }
}
BENCHMARK(BM_CdapGenerate);

static void BM_FinchCluster(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  std::vector<T::Tensor> points;
  for (std::size_t i = 0; i < n; ++i) {
    // Three latent domains so FINCH has real structure to find.
    T::Tensor base = T::full({32}, static_cast<float>(i % 3) * 4.0f);
    T::add_inplace(base, T::randn({32}, rng, 0.0f, 0.4f));
    points.push_back(std::move(base));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(reffil::core::finch_representatives(points));
  }
}
BENCHMARK(BM_FinchCluster)->Arg(16)->Arg(64)->Arg(256);

// Ablation anchor: what FINCH replaces — plain averaging of all prompts.
static void BM_PlainPromptAverage(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  std::vector<T::Tensor> points;
  for (std::size_t i = 0; i < n; ++i) points.push_back(T::randn({32}, rng));
  for (auto _ : state) {
    T::Tensor mean({32});
    for (const auto& p : points) T::add_inplace(mean, p);
    T::scale_inplace(mean, 1.0f / static_cast<float>(n));
    benchmark::DoNotOptimize(mean);
  }
}
BENCHMARK(BM_PlainPromptAverage)->Arg(64)->Arg(256);

static void BM_FedAvgAggregate(benchmark::State& state) {
  const auto clients = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  reffil::nn::PromptNetConfig config;
  reffil::nn::PromptNet net(config, rng);
  std::vector<reffil::fed::ModelState> states(clients, net.snapshot());
  std::vector<double> weights(clients, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reffil::fed::federated_average(states, weights));
  }
}
BENCHMARK(BM_FedAvgAggregate)->Arg(5)->Arg(10)->Arg(20);

static void BM_ModelSerializeRoundTrip(benchmark::State& state) {
  Rng rng(9);
  reffil::nn::PromptNetConfig config;
  reffil::nn::PromptNet net(config, rng);
  for (auto _ : state) {
    reffil::util::ByteWriter writer;
    reffil::fed::serialize_state(net.snapshot(), writer);
    reffil::util::ByteReader reader(writer.bytes());
    benchmark::DoNotOptimize(reffil::fed::deserialize_state(reader));
  }
  state.counters["bytes"] = [&] {
    reffil::util::ByteWriter writer;
    reffil::fed::serialize_state(net.snapshot(), writer);
    return static_cast<double>(writer.size());
  }();
}
BENCHMARK(BM_ModelSerializeRoundTrip);

// Same round trip with the writer pre-sized via serialized_size(): the
// broadcast/update hot paths reserve exactly once instead of growing the
// byte vector geometrically (BENCH_micro.json notes track the delta).
static void BM_ModelSerializePresized(benchmark::State& state) {
  Rng rng(9);
  reffil::nn::PromptNetConfig config;
  reffil::nn::PromptNet net(config, rng);
  for (auto _ : state) {
    // Identical to BM_ModelSerializeRoundTrip except for the reserve, so
    // the pair isolates the cost of geometric ByteWriter growth.
    const auto snapshot = net.snapshot();
    reffil::util::ByteWriter writer;
    writer.reserve(reffil::fed::serialized_size(snapshot));
    reffil::fed::serialize_state(snapshot, writer);
    reffil::util::ByteReader reader(writer.bytes());
    benchmark::DoNotOptimize(reffil::fed::deserialize_state(reader));
  }
}
BENCHMARK(BM_ModelSerializePresized);

// Q8 codec kernels (quant.hpp) through the dispatch table — the per-value
// costs behind the compressed wire format's encode/decode/fold paths.
static void BM_Q8Encode(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  std::vector<float> x(n);
  for (auto& v : x) v = static_cast<float>(rng.normal(0.0, 1.0));
  std::vector<std::int8_t> q(n);
  std::vector<float> scales(reffil::tensor::quant::q8_num_blocks(n));
  const auto& kern = reffil::tensor::kern::active();
  for (auto _ : state) {
    kern.q8_encode(x.data(), q.data(), scales.data(), n);
    benchmark::DoNotOptimize(q.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(float)));
}
BENCHMARK(BM_Q8Encode)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

static void BM_Q8Decode(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(12);
  std::vector<float> x(n), out(n);
  for (auto& v : x) v = static_cast<float>(rng.normal(0.0, 1.0));
  std::vector<std::int8_t> q(n);
  std::vector<float> scales(reffil::tensor::quant::q8_num_blocks(n));
  const auto& kern = reffil::tensor::kern::active();
  kern.q8_encode(x.data(), q.data(), scales.data(), n);
  for (auto _ : state) {
    kern.q8_decode(q.data(), scales.data(), out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(float)));
}
BENCHMARK(BM_Q8Decode)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

// The dequant-free FedAvg fold: weight * scale * int8 streamed straight into
// the f32 accumulator, compared against decode-then-axpy by the notes.
static void BM_Q8Axpy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(13);
  std::vector<float> x(n), y(n, 0.0f);
  for (auto& v : x) v = static_cast<float>(rng.normal(0.0, 1.0));
  std::vector<std::int8_t> q(n);
  std::vector<float> scales(reffil::tensor::quant::q8_num_blocks(n));
  const auto& kern = reffil::tensor::kern::active();
  kern.q8_encode(x.data(), q.data(), scales.data(), n);
  for (auto _ : state) {
    kern.q8_axpy(y.data(), 0.25f, q.data(), scales.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(float)));
}
BENCHMARK(BM_Q8Axpy)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

// Full compressed-frame cost for one model: dense q8 state encode + decode.
static void BM_CompressedStateRoundTrip(benchmark::State& state) {
  Rng rng(14);
  reffil::nn::PromptNetConfig config;
  reffil::nn::PromptNet net(config, rng);
  const auto snapshot = net.snapshot();
  for (auto _ : state) {
    reffil::util::ByteWriter writer;
    writer.reserve(
        reffil::fed::encoded_state_size(snapshot, reffil::fed::Codec::kQ8));
    reffil::fed::encode_state(snapshot, reffil::fed::Codec::kQ8, writer);
    reffil::util::ByteReader reader(writer.bytes());
    benchmark::DoNotOptimize(reffil::fed::deserialize_state_any(reader));
  }
  state.counters["bytes"] = static_cast<double>(
      reffil::fed::encoded_state_size(snapshot, reffil::fed::Codec::kQ8));
}
BENCHMARK(BM_CompressedStateRoundTrip);

static void BM_SyntheticSampleGeneration(benchmark::State& state) {
  const auto spec = reffil::data::digits_five_spec();
  reffil::data::SyntheticDomainSource source(spec);
  std::size_t domain = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(source.test_split(domain % spec.domains.size()));
    ++domain;
  }
}
BENCHMARK(BM_SyntheticSampleGeneration);

static void BM_TsneEmbedding(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(10);
  std::vector<T::Tensor> points;
  for (std::size_t i = 0; i < n; ++i) {
    T::Tensor p = T::full({16}, static_cast<float>(i % 4) * 3.0f);
    T::add_inplace(p, T::randn({16}, rng, 0.0f, 0.5f));
    points.push_back(std::move(p));
  }
  reffil::metrics::TsneConfig config;
  config.iterations = 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(reffil::metrics::tsne(points, config));
  }
}
BENCHMARK(BM_TsneEmbedding)->Arg(50)->Arg(100);
