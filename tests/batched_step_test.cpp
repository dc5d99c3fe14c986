// Batched steps (DESIGN.md §16): N samples in one graph must leave bitwise
// the values and gradients that N one-sample graphs leave when swept sample
// N-1 first, the order the one-graph batch sweep adds per-sample
// contributions in. Each shared parameter's gradient is then the left fold
// 0 + c(N-1) + ... + c(0) of per-sample partials.
//
// The conv kernels' sample axis is checked on every runnable ISA target
// through the dispatch tables; the autograd ops run on the active target,
// which the test suite is run under by default and under REFFIL_ISA=scalar.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "reffil/autograd/ops.hpp"
#include "reffil/autograd/variable.hpp"
#include "reffil/cl/method_base.hpp"
#include "reffil/harness/experiment.hpp"
#include "reffil/nn/attention.hpp"
#include "reffil/nn/backbone.hpp"
#include "reffil/nn/layers.hpp"
#include "reffil/tensor/kernels_dispatch.hpp"
#include "reffil/tensor/ops.hpp"
#include "reffil/util/error.hpp"
#include "reffil/util/rng.hpp"
#include "reffil/util/thread_pool.hpp"

using namespace reffil;
namespace AG = reffil::autograd;
namespace T = reffil::tensor;
namespace kern = reffil::tensor::kern;

namespace {

constexpr std::size_t kSampleCounts[] = {1, 2, 9, 16};

bool same_bits(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

bool same_bits(const T::Tensor& a, const T::Tensor& b) {
  return a.numel() == b.numel() && same_bits(a.begin(), b.begin(), a.numel());
}

/// Sample s of a tensor holding n equal samples, as a tensor of `shape`.
T::Tensor sample_of(const T::Tensor& t, std::size_t s, std::size_t n,
                    const T::Shape& shape) {
  const std::size_t size = t.numel() / n;
  return T::Tensor(shape, std::vector<float>(t.begin() + s * size,
                                             t.begin() + (s + 1) * size));
}

// ---- conv kernels: the sample axis on every runnable target ----------------

kern::Conv2dGeom geom(std::size_t cin, std::size_t side, std::size_t stride,
                      std::size_t cout) {
  const std::size_t out = (side + 2 - 3) / stride + 1;
  return {cin, side, side, 3, 3, stride, 1, out, out, cout};
}

// The seven convs of nn::ResNetMini on a [3, 16, 16] image.
const kern::Conv2dGeom kResNetMini[] = {
    geom(3, 16, 1, 8),  geom(8, 16, 1, 8),  geom(8, 16, 1, 8),
    geom(8, 16, 2, 16), geom(16, 8, 1, 16), geom(16, 8, 1, 16),
    geom(16, 8, 2, 32),
};

TEST(BatchedStep, ConvKernelsSampleAxisMatchesOneSampleCallsOnEveryTarget) {
  util::Rng rng(5);
  for (const kern::Kernels* t : kern::runnable()) {
    for (std::size_t layer = 0; layer < std::size(kResNetMini); ++layer) {
      for (std::size_t n : kSampleCounts) {
        SCOPED_TRACE(std::string(t->name) + " layer " + std::to_string(layer) +
                     " n=" + std::to_string(n));
        kern::Conv2dGeom g = kResNetMini[layer];
        const std::size_t in_size = g.cin * g.h * g.w;
        const std::size_t out_size = g.cout * g.hout * g.wout;
        const std::size_t w_size = g.cout * g.cin * 9;
        const T::Tensor in = T::randn({n * in_size}, rng);
        const T::Tensor w = T::randn({w_size}, rng, 0.0f, 0.3f);
        const T::Tensor b = T::randn({g.cout}, rng);
        const T::Tensor gout = T::randn({n * out_size}, rng);
        T::Tensor out({n * out_size}), dw({n * w_size}), din({n * in_size});
        g.n = n;
        t->conv2d_forward(in.begin(), w.begin(), b.begin(), out.begin(), g);
        t->conv2d_weight_grad(in.begin(), gout.begin(), dw.begin(), g);
        t->conv2d_input_grad(w.begin(), gout.begin(), din.begin(), g);
        g.n = 1;
        for (std::size_t s = 0; s < n; ++s) {
          T::Tensor out1({out_size}), dw1({w_size}), din1({in_size});
          t->conv2d_forward(in.begin() + s * in_size, w.begin(), b.begin(),
                            out1.begin(), g);
          t->conv2d_weight_grad(in.begin() + s * in_size,
                                gout.begin() + s * out_size, dw1.begin(), g);
          t->conv2d_input_grad(w.begin(), gout.begin() + s * out_size,
                               din1.begin(), g);
          EXPECT_TRUE(same_bits(out.begin() + s * out_size, out1.begin(),
                                out_size))
              << "forward, sample " << s;
          EXPECT_TRUE(same_bits(dw.begin() + s * w_size, dw1.begin(), w_size))
              << "weight-gradient partial, sample " << s;
          EXPECT_TRUE(same_bits(din.begin() + s * in_size, din1.begin(),
                                in_size))
              << "input gradient, sample " << s;
        }
      }
    }
  }
}

// ---- autograd ops: one N-sample graph vs N one-sample graphs ----------------

/// A batched op and the parameters every sample shares. `forward(x,
/// samples)` runs it over `samples` samples stacked in x.
struct Built {
  std::vector<AG::Var> params;
  std::function<AG::Var(const AG::Var&, std::size_t)> forward;
};

/// Builds the op and its parameters from the same seed on every call, so
/// the batched run and the per-sample runs start from identical values.
using Factory = std::function<Built()>;

/// Runs the op once over n samples and once per sample (sample n-1 first),
/// each output seeded by the same random weights through
/// sum(out ⊙ weights), and compares outputs, input gradients and parameter
/// gradients bit for bit. `sample_shape` is one sample's input; rows ==
/// true stacks samples along axis 0 (rank-2 ops), false adds a sample axis.
void check_batched(const Factory& make, const T::Shape& sample_shape,
                   bool rows, std::size_t n, std::uint64_t seed) {
  SCOPED_TRACE("n=" + std::to_string(n));
  util::Rng rng(seed);
  T::Shape batch_shape = sample_shape;
  if (rows) {
    batch_shape[0] *= n;
  } else {
    batch_shape.insert(batch_shape.begin(), n);
  }
  const T::Tensor x = T::randn(batch_shape, rng);

  const Built batched = make();
  const AG::Var xb = AG::parameter(x);
  const AG::Var out = batched.forward(xb, n);
  const T::Tensor weights = T::randn(out->value().shape(), rng);
  AG::backward(AG::sum_all(AG::mul(out, AG::constant(weights))));

  const Built serial = make();
  const std::size_t out_size = out->value().numel() / n;
  for (std::size_t s = n; s-- > 0;) {
    const AG::Var xs = AG::parameter(sample_of(x, s, n, sample_shape));
    const AG::Var os = serial.forward(xs, 1);
    ASSERT_EQ(os->value().numel(), out_size);
    EXPECT_TRUE(same_bits(out->value().begin() + s * out_size,
                          os->value().begin(), out_size))
        << "forward, sample " << s;
    const T::Tensor ws = sample_of(weights, s, n, os->value().shape());
    AG::backward(AG::sum_all(AG::mul(os, AG::constant(ws))));
    EXPECT_TRUE(same_bits(xb->grad().begin() + s * xs->value().numel(),
                          xs->grad().begin(), xs->value().numel()))
        << "input gradient, sample " << s;
  }
  ASSERT_EQ(batched.params.size(), serial.params.size());
  for (std::size_t i = 0; i < serial.params.size(); ++i) {
    EXPECT_TRUE(same_bits(batched.params[i]->grad(), serial.params[i]->grad()))
        << "parameter " << i;
  }
}

void check_all_counts(const Factory& make, const T::Shape& sample_shape,
                      bool rows) {
  std::uint64_t seed = 40;
  for (std::size_t n : kSampleCounts) {
    check_batched(make, sample_shape, rows, n, ++seed);
  }
}

TEST(BatchedStep, Conv2dAtEveryResNetMiniGeometry) {
  for (std::size_t layer = 0; layer < std::size(kResNetMini); ++layer) {
    SCOPED_TRACE("layer " + std::to_string(layer));
    const kern::Conv2dGeom g = kResNetMini[layer];
    const Factory make = [g] {
      util::Rng rng(9);
      const AG::Var w = AG::parameter(T::randn({g.cout, g.cin * 9}, rng, 0.0f, 0.3f));
      const AG::Var b = AG::parameter(T::randn({g.cout}, rng));
      return Built{{w, b}, [w, b, g](const AG::Var& x, std::size_t) {
                     return AG::conv2d(x, w, b, 3, 3, g.stride, g.pad);
                   }};
    };
    check_all_counts(make, {g.cin, g.h, g.w}, /*rows=*/false);
  }
}

TEST(BatchedStep, LinearWeightGradientFoldsPerSample) {
  check_all_counts(
      [] {
        util::Rng rng(10);
        const AG::Var w = AG::parameter(T::randn({32, 24}, rng));
        return Built{{w}, [w](const AG::Var& x, std::size_t samples) {
                       return AG::matmul(x, w, samples);
                     }};
      },
      {5, 32}, /*rows=*/true);
}

TEST(BatchedStep, AddRowvecBiasFoldsPerSample) {
  check_all_counts(
      [] {
        util::Rng rng(11);
        const AG::Var b = AG::parameter(T::randn({32}, rng));
        return Built{{b}, [b](const AG::Var& x, std::size_t samples) {
                       return AG::add_rowvec(x, b, samples);
                     }};
      },
      {5, 32}, /*rows=*/true);
}

TEST(BatchedStep, LayerNormGainAndBiasFoldPerSample) {
  check_all_counts(
      [] {
        util::Rng rng(12);
        const AG::Var gain = AG::parameter(T::randn({32}, rng, 1.0f, 0.2f));
        const AG::Var bias = AG::parameter(T::randn({32}, rng));
        return Built{{gain, bias},
                     [gain, bias](const AG::Var& x, std::size_t samples) {
                       return AG::layer_norm(x, gain, bias, samples);
                     }};
      },
      {5, 32}, /*rows=*/true);
}

TEST(BatchedStep, AttentionBlockScoresPerSample) {
  check_all_counts(
      [] {
        util::Rng rng(13);
        auto block = std::make_shared<nn::AttentionBlock>(32, 2, 64, rng);
        return Built{block->parameters(),
                     [block](const AG::Var& x, std::size_t samples) {
                       return block->forward(x, samples);
                     }};
      },
      {5, 32}, /*rows=*/true);
}

TEST(BatchedStep, ClsGatherFoldsTheSharedHeadPerSample) {
  check_all_counts(
      [] {
        util::Rng rng(14);
        const AG::Var cls = AG::parameter(T::randn({1, 32}, rng));
        return Built{{cls}, [cls](const AG::Var& x, std::size_t samples) {
                       return AG::prepend_rows(cls, x, samples);
                     }};
      },
      {4, 32}, /*rows=*/true);
}

TEST(BatchedStep, SampleRowAndPatchifyAreSampleWise) {
  check_all_counts(
      [] {
        return Built{{}, [](const AG::Var& x, std::size_t samples) {
                       return AG::sample_row(x, 2, samples);
                     }};
      },
      {5, 32}, /*rows=*/true);
  check_all_counts(
      [] {
        return Built{{}, [](const AG::Var& x, std::size_t) {
                       return AG::patchify(x, 2);
                     }};
      },
      {32, 4, 4}, /*rows=*/false);
}

TEST(BatchedStep, CrossEntropyRowsSeedLikeScaledPerSampleLosses) {
  for (std::size_t n : kSampleCounts) {
    SCOPED_TRACE("n=" + std::to_string(n));
    util::Rng rng(15 + n);
    const T::Tensor logits = T::randn({n, 10}, rng, 0.0f, 2.0f);
    std::vector<std::size_t> labels;
    for (std::size_t s = 0; s < n; ++s) labels.push_back((s * 7) % 10);
    const AG::Var lb = AG::parameter(logits);
    AG::backward(AG::cross_entropy_logits(lb, labels));
    // batch_loss's shape: one CE per sample, summed, times 1/n.
    const float scale = 1.0f / static_cast<float>(n);
    for (std::size_t s = n; s-- > 0;) {
      const AG::Var ls = AG::parameter(sample_of(logits, s, n, {1, 10}));
      AG::backward(
          AG::mul_scalar(AG::cross_entropy_logits(ls, {labels[s]}), scale));
      EXPECT_TRUE(same_bits(lb->grad().begin() + s * 10, ls->grad().begin(), 10))
          << "sample " << s;
    }
  }
}

// ---- the whole plain-network step ---------------------------------------------

struct Step {
  explicit Step(std::size_t n) : rng(21), net(config, rng) {
    util::Rng data(22 + n);
    images = T::randn({n, 1, 16, 16}, data);
    for (std::size_t s = 0; s < n; ++s) labels.push_back((s * 3) % 10);
  }
  util::Rng rng;
  nn::PromptNetConfig config;
  nn::PromptNet net;
  T::Tensor images;
  std::vector<std::size_t> labels;

  /// The one-graph reference: per-sample CE summed left to right, times
  /// 1/n, swept once — MethodBase::batch_loss.
  std::vector<T::Tensor> serial_grads() {
    const std::size_t n = labels.size();
    net.zero_grad();
    AG::Var total;
    for (std::size_t s = 0; s < n; ++s) {
      const auto out = net.forward(sample_of(images, s, n, {1, 16, 16}));
      const AG::Var ce = AG::cross_entropy_logits(out.logits, {labels[s]});
      total = s == 0 ? ce : AG::add(total, ce);
    }
    AG::backward(AG::mul_scalar(total, 1.0f / static_cast<float>(n)));
    return grads();
  }

  /// Samples [lo, hi) as one batched graph, their share of the batch mean.
  void sweep_run(std::size_t lo, std::size_t hi) {
    const std::size_t n = labels.size();
    const std::size_t size = images.numel() / n;
    const T::Tensor run({hi - lo, 1, 16, 16},
                        std::vector<float>(images.begin() + lo * size,
                                           images.begin() + hi * size));
    const std::vector<std::size_t> run_labels(labels.begin() + lo,
                                              labels.begin() + hi);
    AG::backward(
        AG::cross_entropy_logits(net.forward(run).logits, run_labels, n));
  }

  std::vector<T::Tensor> grads() const {
    std::vector<T::Tensor> out;
    for (const auto& p : net.parameters()) out.push_back(p->grad());
    return out;
  }
};

bool same_grads(const std::vector<T::Tensor>& a, const std::vector<T::Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

TEST(BatchedStep, PromptNetStepMatchesTheOneGraphBatchForAnyRunSplit) {
  for (std::size_t n : kSampleCounts) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Step step(n);
    const std::vector<T::Tensor> serial = step.serial_grads();
    for (std::size_t runs : {std::size_t{1}, std::size_t{2}, std::size_t{3}, n}) {
      if (runs > n) continue;
      SCOPED_TRACE("runs=" + std::to_string(runs));
      step.net.zero_grad();
      cl::MethodBase::sweep_runs(n, runs, [&](std::size_t lo, std::size_t hi) {
        step.sweep_run(lo, hi);
      });
      EXPECT_TRUE(same_grads(step.grads(), serial));
    }
  }
}

TEST(BatchedStep, RunSplitIsRunsOfAtMostThreeSamples) {
  using cl::MethodBase;
  EXPECT_EQ(MethodBase::batched_runs(1), 1u);  // never more runs than samples
  EXPECT_EQ(MethodBase::batched_runs(2), 1u);
  EXPECT_EQ(MethodBase::batched_runs(3), 1u);  // one graph
  EXPECT_EQ(MethodBase::batched_runs(4), 2u);
  EXPECT_EQ(MethodBase::batched_runs(10), 4u);
  EXPECT_EQ(MethodBase::batched_runs(16), 6u);
  EXPECT_EQ(MethodBase::batched_runs(18), 6u);
}

TEST(BatchedStep, OneWorkerAndFourWorkerPoolsGiveTheSameBits) {
  // Client slots run their steps concurrently, one per pool thread; a step's
  // bits must not depend on which thread sweeps it or what runs beside it.
  const std::size_t n = 9;
  const std::vector<T::Tensor> serial = Step(n).serial_grads();
  for (std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    util::ThreadPool pool(workers);
    std::vector<char> same(4, 0);
    pool.parallel_for(same.size(), [&](std::size_t slot) {
      Step step(n);
      for (int repeat = 0; repeat < 3; ++repeat) {
        step.net.zero_grad();
        // The split MethodBase::train_step_eager picks.
        cl::MethodBase::sweep_runs(n, cl::MethodBase::batched_runs(n),
                                   [&](std::size_t lo, std::size_t hi) {
                                     step.sweep_run(lo, hi);
                                   });
      }
      same[slot] = same_grads(step.grads(), serial);
    });
    for (std::size_t slot = 0; slot < same.size(); ++slot) {
      EXPECT_TRUE(same[slot]) << "slot " << slot;
    }
  }
}

// ---- the fold order and the one-use rule --------------------------------------

// Float addition does not reassociate: (0 + -1e8) + 1e8 + 1 is 1, but adding
// the 1 before the large terms cancel leaves 0 — an ascending fold fails.
const std::vector<float> kOrderSensitive = {1.0f, 1e8f, -1e8f};

TEST(BatchedStep, FoldIsTheSerialSweepOrderAndAscendingWouldFail) {
  const std::size_t n = kOrderSensitive.size();
  // One row per sample; the loss weights become the bias partials.
  const T::Tensor weights({n, 1}, kOrderSensitive);
  const AG::Var b = AG::parameter(T::Tensor({1}));
  const AG::Var x = AG::constant(T::Tensor({n, 1}));
  AG::backward(AG::sum_all(
      AG::mul(AG::add_rowvec(x, b, n), AG::constant(weights))));

  const AG::Var serial = AG::parameter(T::Tensor({1}));
  for (std::size_t s = n; s-- > 0;) {
    const AG::Var ws = AG::constant(T::Tensor({1, 1}, {kOrderSensitive[s]}));
    AG::backward(AG::sum_all(AG::mul(
        AG::add_rowvec(AG::constant(T::Tensor({1, 1})), serial, 1), ws)));
  }
  EXPECT_TRUE(same_bits(b->grad(), serial->grad()))
      << b->grad().at(0) << " vs " << serial->grad().at(0);

  // The mutation: the same partials folded sample 0 first.
  T::Tensor ascending({1});
  for (float partial : kOrderSensitive) {
    T::add_inplace(ascending, T::Tensor({1}, {partial}));
  }
  EXPECT_FALSE(same_bits(ascending, serial->grad()))
      << "the data must make the fold order observable";
}

// A toy weight used twice by every sample and once more by a masked subset
// (the odd samples), as RefFiL's attention block is used by its CE pass, its
// prompt-free pass and the GPL contexts a sample takes. Per sample the
// one-sample graph adds the uses interleaved; the batched fold must too.
struct MultiUse {
  explicit MultiUse(std::size_t n) : n(n) {
    util::Rng rng(31 + n);
    w0 = T::randn({4, 4}, rng, 0.0f, 0.8f);
    x = T::randn({2 * n, 4}, rng, 0.0f, 3.0f);
    seed_twice = T::randn({2 * n, 4}, rng, 0.0f, 2.0f);
    seed_masked = T::randn({2 * n, 4}, rng, 0.0f, 5.0f);
  }
  std::size_t n;
  T::Tensor w0, x, seed_twice, seed_masked;

  static bool masked(std::size_t s) { return s % 2 == 1; }

  /// Rows of `t` for samples [lo, hi) (or only the masked ones).
  T::Tensor rows(const T::Tensor& t, std::size_t lo, std::size_t hi,
                 bool only_masked) const {
    std::vector<float> out;
    for (std::size_t s = lo; s < hi; ++s) {
      if (only_masked && !masked(s)) continue;
      out.insert(out.end(), t.begin() + s * 8, t.begin() + (s + 1) * 8);
    }
    const std::size_t count = out.size() / 4;
    return T::Tensor({count, 4}, std::move(out));
  }

  /// Samples [lo, hi) as one graph, built in the per-sample graph's order.
  void sweep_run(const AG::Var& w, std::size_t lo, std::size_t hi) const {
    const std::size_t m = hi - lo;
    const AG::Var twice = AG::matmul(
        AG::matmul(AG::constant(rows(x, lo, hi, false)), w, m), w, m);
    AG::Var loss =
        AG::sum_all(AG::mul(twice, AG::constant(rows(seed_twice, lo, hi, false))));
    std::vector<std::size_t> takers;
    for (std::size_t s = lo; s < hi; ++s) {
      if (masked(s)) takers.push_back(s - lo);
    }
    if (!takers.empty()) {
      const AG::SampleSubset subset(takers);
      const AG::Var once =
          AG::matmul(AG::constant(rows(x, lo, hi, true)), w, takers.size());
      loss = AG::add(loss, AG::sum_all(AG::mul(
                               once, AG::constant(rows(seed_masked, lo, hi, true)))));
    }
    AG::backward(loss);
  }

  /// The per-sample graphs swept sample n-1 first, each use of the weight
  /// on its own leaf and its gradient added by hand in the order the
  /// one-sample sweep reaches the uses: the masked one, the outer matmul,
  /// the inner one.
  T::Tensor serial() const {
    T::Tensor total;
    bool first = true;
    const auto add = [&](const T::Tensor& g) {
      if (first) {
        total = g;
        first = false;
      } else {
        T::add_inplace(total, g);
      }
    };
    for (std::size_t s = n; s-- > 0;) {
      const AG::Var inner = AG::parameter(w0), outer = AG::parameter(w0),
                    extra = AG::parameter(w0);
      const AG::Var xs = AG::constant(rows(x, s, s + 1, false));
      AG::Var loss = AG::sum_all(
          AG::mul(AG::matmul(AG::matmul(xs, inner), outer),
                  AG::constant(rows(seed_twice, s, s + 1, false))));
      if (masked(s)) {
        loss = AG::add(loss, AG::sum_all(AG::mul(
                                 AG::matmul(xs, extra),
                                 AG::constant(rows(seed_masked, s, s + 1, false)))));
      }
      AG::backward(loss);
      if (masked(s)) add(extra->grad());
      add(outer->grad());
      add(inner->grad());
    }
    return total;
  }
};

TEST(BatchedStep, AWeightUsedTwiceAndOnceMaskedFoldsLikeThePerSampleGraphs) {
  for (std::size_t n : kSampleCounts) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const MultiUse toy(n);
    const T::Tensor serial = toy.serial();
    for (std::size_t runs : {std::size_t{1}, std::size_t{2}, n}) {
      if (runs > n) continue;
      SCOPED_TRACE("runs=" + std::to_string(runs));
      const AG::Var w = AG::parameter(toy.w0);
      cl::MethodBase::sweep_runs(n, runs, [&](std::size_t lo, std::size_t hi) {
        toy.sweep_run(w, lo, hi);
      });
      EXPECT_TRUE(same_bits(w->grad(), serial));
    }
  }
}

// ---- RefFiL's batched step ------------------------------------------------------

/// Three domains, so a later task has two other-domain GPL contexts and
/// DPCL has three prompts per class; with in-between clients, one batch
/// mixes task keys and which contexts its samples take.
data::DatasetSpec three_domain_spec() {
  data::DatasetSpec spec;
  spec.name = "ThreeDomain";
  spec.num_classes = 4;
  spec.seed = 37;
  data::DomainSpec d;
  d.train_samples = 80;
  d.test_samples = 16;
  d.noise = 0.1f;
  d.clutter = 0.2f;
  d.render_mix = 0.5f;
  for (const char* name : {"A", "B", "C"}) {
    d.name = name;
    d.style_shift = 0.4f + 0.3f * static_cast<float>(spec.domains.size());
    spec.domains.push_back(d);
  }
  spec.initial_clients = 4;
  spec.clients_per_round = 4;
  spec.client_increment = 2;
  spec.rounds_per_task = 3;
  spec.local_epochs = 1;
  spec.learning_rate = 0.05f;
  return spec;
}

/// The final global model of a RefFiL run: batched runs under
/// parallel_samples, or batch_loss's one graph per batch.
fed::ModelState reffil_run(const core::RefFiLConfig& reffil,
                           bool parallel_samples) {
  const auto spec = three_domain_spec();
  harness::ExperimentConfig config;
  config.seed = 5;
  config.parallel_samples = parallel_samples;
  config.reffil = reffil;
  auto method = harness::make_method(harness::MethodKind::kRefFiL, spec, config);
  fed::RunConfig run_config;
  run_config.spec = spec;
  run_config.parallelism = config.parallelism;
  run_config.seed = config.seed;
  fed::FederatedRunner(run_config).run(*method);
  return dynamic_cast<cl::MethodBase&>(*method).global_state();
}

void expect_batched_matches_one_graph(const core::RefFiLConfig& reffil) {
  const fed::ModelState batched = reffil_run(reffil, true);
  const fed::ModelState one_graph = reffil_run(reffil, false);
  ASSERT_EQ(batched.size(), one_graph.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_TRUE(same_bits(batched[i], one_graph[i])) << "tensor " << i;
  }
}

TEST(BatchedStep, RefFiLRunsMatchTheOneGraphBatchOnThreeDomains) {
  expect_batched_matches_one_graph({});
}

TEST(BatchedStep, RefFiLStaticPromptTableRunsMatchTheOneGraphBatch) {
  core::RefFiLConfig reffil;
  reffil.use_cdap = false;
  expect_batched_matches_one_graph(reffil);
}

TEST(BatchedStep, RefFiLRunsWithoutDpclMatchTheOneGraphBatch) {
  core::RefFiLConfig reffil;
  reffil.use_dpcl = false;
  expect_batched_matches_one_graph(reffil);
}

}  // namespace
