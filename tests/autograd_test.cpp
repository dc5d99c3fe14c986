// Autograd correctness tests.
//
// The core instrument is a finite-difference checker: every differentiable
// op is exercised inside a random scalar-valued graph and the analytic
// gradient from backward() is compared against central differences.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "reffil/autograd/ops.hpp"
#include "reffil/autograd/variable.hpp"
#include "reffil/tensor/ops.hpp"
#include "reffil/util/rng.hpp"

namespace AG = reffil::autograd;
namespace T = reffil::tensor;

namespace {

// Checks d loss / d leaf for every element of every leaf against central
// finite differences. `build` must construct the graph from the current leaf
// values and return the scalar loss Var.
void check_gradients(std::vector<AG::Var> leaves,
                     const std::function<AG::Var()>& build, float eps = 1e-3f,
                     float tol = 2e-2f) {
  AG::Var loss = build();
  AG::backward(loss);

  for (auto& leaf : leaves) {
    const T::Tensor analytic = leaf->grad();
    for (std::size_t i = 0; i < leaf->value().numel(); ++i) {
      const float original = leaf->value().at(i);
      leaf->mutable_value().at(i) = original + eps;
      const float up = build()->value().item();
      leaf->mutable_value().at(i) = original - eps;
      const float down = build()->value().item();
      leaf->mutable_value().at(i) = original;
      const float numeric = (up - down) / (2.0f * eps);
      const float got = analytic.at(i);
      const float scale = std::max({1.0f, std::fabs(numeric), std::fabs(got)});
      EXPECT_NEAR(got, numeric, tol * scale)
          << "leaf element " << i << " analytic=" << got
          << " numeric=" << numeric;
    }
  }
}

AG::Var randn_param(T::Shape shape, reffil::util::Rng& rng, float stddev = 1.0f) {
  return AG::parameter(T::randn(std::move(shape), rng, 0.0f, stddev));
}

}  // namespace

TEST(Autograd, BackwardRequiresScalarRoot) {
  auto p = AG::parameter(T::Tensor::vector({1, 2}));
  EXPECT_THROW(AG::backward(p), reffil::Error);
}

TEST(Autograd, ConstantGetsNoGradient) {
  auto c = AG::constant(T::Tensor::vector({1, 2}));
  auto p = AG::parameter(T::Tensor::vector({3, 4}));
  auto loss = AG::sum_all(AG::mul(c, p));
  AG::backward(loss);
  EXPECT_FALSE(c->requires_grad());
  EXPECT_TRUE(p->grad().all_close(T::Tensor::vector({1, 2})));
}

TEST(Autograd, GradientAccumulatesAcrossUses) {
  // loss = sum(p + p) -> dp = 2
  auto p = AG::parameter(T::Tensor::vector({1, 1}));
  auto loss = AG::sum_all(AG::add(p, p));
  AG::backward(loss);
  EXPECT_TRUE(p->grad().all_close(T::Tensor::vector({2, 2})));
}

TEST(Autograd, DiamondGraphAccumulates) {
  // loss = sum(relu(p) * p): p participates through two paths.
  auto p = AG::parameter(T::Tensor::vector({2, -3}));
  auto loss = AG::sum_all(AG::mul(AG::relu(p), p));
  AG::backward(loss);
  // For x>0: d(x*x)=2x; for x<=0: relu=0 with zero slope -> d = relu(x) = 0.
  EXPECT_TRUE(p->grad().all_close(T::Tensor::vector({4, 0})));
}

TEST(Autograd, ZeroGradResets) {
  auto p = AG::parameter(T::Tensor::vector({1, 2}));
  AG::backward(AG::sum_all(p));
  EXPECT_TRUE(p->grad().all_close(T::Tensor::vector({1, 1})));
  p->zero_grad();
  EXPECT_TRUE(p->grad().all_close(T::Tensor::vector({0, 0})));
}

TEST(Autograd, BackwardTwiceOnSameRootThrows) {
  auto p = AG::parameter(T::Tensor::vector({1, 2}));
  auto loss = AG::sum_all(p);
  AG::backward(loss);
  EXPECT_TRUE(p->grad().all_close(T::Tensor::vector({1, 1})));
  // A second sweep from the same root would silently re-seed with ones and
  // double every accumulated gradient; it must throw instead.
  EXPECT_THROW(AG::backward(loss), reffil::Error);
  // The gradients from the first sweep are untouched.
  EXPECT_TRUE(p->grad().all_close(T::Tensor::vector({1, 1})));
}

TEST(Autograd, FreshRootOverSameSubgraphStillSweeps) {
  // The double-backward guard is per root node: building a NEW loss over the
  // same parameters is deliberate gradient accumulation and must keep
  // working after a previous sweep (and after a rejected re-sweep).
  auto p = AG::parameter(T::Tensor::vector({3}));
  auto first = AG::sum_all(AG::mul_scalar(p, 2.0f));
  AG::backward(first);
  EXPECT_THROW(AG::backward(first), reffil::Error);
  AG::backward(AG::sum_all(AG::mul_scalar(p, 3.0f)));
  EXPECT_TRUE(p->grad().all_close(T::Tensor::vector({5})));
}

TEST(AutogradGradCheck, AddSubMul) {
  reffil::util::Rng rng(1);
  auto a = randn_param({3, 4}, rng);
  auto b = randn_param({3, 4}, rng);
  check_gradients({a, b}, [&] {
    return AG::sum_all(AG::mul(AG::add(a, b), AG::sub(a, b)));
  });
}

TEST(AutogradGradCheck, ScalarOpsAndNeg) {
  reffil::util::Rng rng(2);
  auto a = randn_param({5}, rng);
  check_gradients({a}, [&] {
    return AG::mean_all(AG::neg(AG::mul_scalar(AG::add_scalar(a, 0.5f), 3.0f)));
  });
}

TEST(AutogradGradCheck, Nonlinearities) {
  reffil::util::Rng rng(3);
  auto a = randn_param({6}, rng);
  check_gradients({a}, [&] {
    return AG::sum_all(AG::tanh(AG::mul_scalar(a, 2.0f)));
  });
}

TEST(AutogradGradCheck, ExpLog) {
  reffil::util::Rng rng(4);
  // keep log input strictly positive via exp + offset
  auto a = randn_param({4}, rng);
  check_gradients({a}, [&] {
    return AG::sum_all(AG::log(AG::add_scalar(AG::exp(a), 0.5f)));
  });
}

TEST(AutogradGradCheck, MatmulBothSides) {
  reffil::util::Rng rng(5);
  auto a = randn_param({3, 4}, rng);
  auto b = randn_param({4, 2}, rng);
  check_gradients({a, b}, [&] { return AG::sum_all(AG::matmul(a, b)); });
}

TEST(AutogradGradCheck, MatmulChainWithRelu) {
  reffil::util::Rng rng(6);
  auto a = randn_param({2, 3}, rng);
  auto b = randn_param({3, 3}, rng);
  auto c = randn_param({3, 2}, rng);
  check_gradients({a, b, c}, [&] {
    return AG::mean_all(AG::matmul(AG::relu(AG::matmul(a, b)), c));
  });
}

TEST(AutogradGradCheck, Transpose) {
  reffil::util::Rng rng(7);
  auto a = randn_param({3, 5}, rng);
  auto w = randn_param({3, 5}, rng);
  check_gradients({a, w}, [&] {
    return AG::sum_all(AG::matmul(AG::transpose(a), w));
  });
}

TEST(AutogradGradCheck, AddRowvec) {
  reffil::util::Rng rng(8);
  auto x = randn_param({4, 3}, rng);
  auto b = randn_param({3}, rng);
  check_gradients({x, b}, [&] {
    return AG::sum_all(AG::tanh(AG::add_rowvec(x, b)));
  });
}

TEST(AutogradGradCheck, RowwiseAffine) {
  reffil::util::Rng rng(9);
  auto x = randn_param({4, 3}, rng);
  auto alpha = randn_param({4}, rng);
  auto lambda = randn_param({4}, rng);
  check_gradients({x, alpha, lambda}, [&] {
    return AG::mean_all(AG::rowwise_affine(x, alpha, lambda));
  });
}

TEST(AutogradGradCheck, ConcatAndSlice) {
  reffil::util::Rng rng(10);
  auto a = randn_param({2, 3}, rng);
  auto b = randn_param({3, 3}, rng);
  check_gradients({a, b}, [&] {
    auto cat = AG::concat_rows(a, b);               // [5,3]
    auto mid = AG::slice_rows(cat, 1, 4);           // [3,3]
    return AG::sum_all(AG::mul(mid, mid));
  });
}

TEST(AutogradGradCheck, ConcatColsAndSliceCols) {
  reffil::util::Rng rng(11);
  auto a = randn_param({3, 2}, rng);
  auto b = randn_param({3, 4}, rng);
  check_gradients({a, b}, [&] {
    auto cat = AG::concat_cols(a, b);               // [3,6]
    auto mid = AG::slice_cols(cat, 1, 5);           // [3,4]
    return AG::mean_all(AG::mul(mid, mid));
  });
}

TEST(AutogradGradCheck, SelectRow) {
  reffil::util::Rng rng(12);
  auto table = randn_param({5, 4}, rng);
  check_gradients({table}, [&] {
    auto r1 = AG::select_row(table, 1);
    auto r3 = AG::select_row(table, 3);
    return AG::sum_all(AG::mul(r1, r3));
  });
}

TEST(AutogradGradCheck, Reshape) {
  reffil::util::Rng rng(13);
  auto a = randn_param({2, 6}, rng);
  check_gradients({a}, [&] {
    auto r = AG::reshape(a, {3, 4});
    return AG::sum_all(AG::mul(r, r));
  });
}

TEST(AutogradGradCheck, MeanRows) {
  reffil::util::Rng rng(14);
  auto a = randn_param({5, 3}, rng);
  check_gradients({a}, [&] {
    auto m = AG::mean_rows(a);
    return AG::sum_all(AG::mul(m, m));
  });
}

TEST(AutogradGradCheck, LayerNorm) {
  reffil::util::Rng rng(15);
  auto x = randn_param({3, 6}, rng);
  auto gain = AG::parameter(T::add_scalar(T::randn({6}, rng, 0.0f, 0.1f), 1.0f));
  auto bias = randn_param({6}, rng, 0.1f);
  check_gradients({x, gain, bias}, [&] {
    auto y = AG::layer_norm(x, gain, bias);
    return AG::mean_all(AG::mul(y, y));
  });
}

TEST(AutogradGradCheck, SoftmaxRows) {
  reffil::util::Rng rng(16);
  auto x = randn_param({3, 4}, rng);
  auto w = randn_param({3, 4}, rng);
  check_gradients({x}, [&] {
    return AG::sum_all(AG::mul(AG::softmax_rows(x), w));
  });
}

TEST(AutogradGradCheck, CrossEntropyLogits) {
  reffil::util::Rng rng(17);
  auto logits = randn_param({4, 5}, rng);
  const std::vector<std::size_t> labels{0, 2, 4, 1};
  check_gradients({logits}, [&] {
    return AG::cross_entropy_logits(logits, labels);
  });
}

TEST(Autograd, CrossEntropyRejectsBadLabels) {
  auto logits = AG::parameter(T::zeros({2, 3}));
  EXPECT_THROW(AG::cross_entropy_logits(logits, {0, 3}), reffil::Error);
  EXPECT_THROW(AG::cross_entropy_logits(logits, {0}), reffil::Error);
}

TEST(AutogradGradCheck, DistillationLoss) {
  reffil::util::Rng rng(18);
  auto logits = randn_param({3, 4}, rng);
  const T::Tensor teacher = T::softmax_rows(T::randn({3, 4}, rng));
  check_gradients({logits}, [&] {
    return AG::distillation_loss(logits, teacher, 2.0f);
  });
}

TEST(Autograd, DistillationLossMinimisedAtTeacher) {
  // When student logits induce exactly the teacher distribution, moving the
  // logits in any direction should not decrease the loss (first-order
  // stationarity => gradient ~ 0).
  reffil::util::Rng rng(19);
  const T::Tensor teacher_logits = T::randn({2, 5}, rng);
  const float temp = 2.0f;
  const T::Tensor teacher =
      T::softmax_rows(T::mul_scalar(teacher_logits, 1.0f / temp));
  auto student = AG::parameter(teacher_logits);
  auto loss = AG::distillation_loss(student, teacher, temp);
  AG::backward(loss);
  for (std::size_t i = 0; i < student->grad().numel(); ++i) {
    EXPECT_NEAR(student->grad().at(i), 0.0f, 1e-5f);
  }
}

TEST(AutogradGradCheck, CosineSimilarity) {
  reffil::util::Rng rng(20);
  auto a = randn_param({6}, rng);
  auto b = randn_param({6}, rng);
  check_gradients({a, b}, [&] { return AG::cosine_similarity(a, b); });
}

TEST(Autograd, CosineSimilarityOfParallelVectorsIsOne) {
  auto a = AG::parameter(T::Tensor::vector({1, 2, 3}));
  auto b = AG::constant(T::mul_scalar(T::Tensor::vector({1, 2, 3}), 2.5f));
  auto c = AG::cosine_similarity(a, b);
  EXPECT_NEAR(c->value().item(), 1.0f, 1e-5f);
}

TEST(AutogradGradCheck, Conv2dAllParams) {
  reffil::util::Rng rng(21);
  auto input = randn_param({2, 5, 5}, rng);
  auto weight = randn_param({3, 2 * 3 * 3}, rng, 0.5f);
  auto bias = randn_param({3}, rng, 0.1f);
  check_gradients({input, weight, bias}, [&] {
    auto y = AG::conv2d(input, weight, bias, 3, 3, /*stride=*/1, /*pad=*/1);
    return AG::mean_all(AG::mul(y, y));
  });
}

TEST(AutogradGradCheck, Conv2dStridedNoPad) {
  reffil::util::Rng rng(22);
  auto input = randn_param({1, 6, 6}, rng);
  auto weight = randn_param({2, 1 * 2 * 2}, rng, 0.5f);
  auto bias = randn_param({2}, rng, 0.1f);
  check_gradients({input, weight, bias}, [&] {
    auto y = AG::conv2d(input, weight, bias, 2, 2, /*stride=*/2, /*pad=*/0);
    return AG::sum_all(AG::relu(y));
  });
}

TEST(Autograd, Conv2dOutputShape) {
  auto input = AG::constant(T::zeros({3, 8, 8}));
  auto weight = AG::constant(T::zeros({4, 3 * 3 * 3}));
  auto bias = AG::constant(T::zeros({4}));
  auto same = AG::conv2d(input, weight, bias, 3, 3, 1, 1);
  EXPECT_EQ(same->value().shape(), (T::Shape{4, 8, 8}));
  auto strided = AG::conv2d(input, weight, bias, 3, 3, 2, 1);
  EXPECT_EQ(strided->value().shape(), (T::Shape{4, 4, 4}));
}

TEST(Autograd, Conv2dIdentityKernelReproducesInput) {
  // 1x1 kernel with weight 1, bias 0: output == input.
  reffil::util::Rng rng(23);
  const T::Tensor x = T::randn({1, 4, 4}, rng);
  auto input = AG::constant(x);
  auto weight = AG::constant(T::ones({1, 1}));
  auto bias = AG::constant(T::zeros({1}));
  auto y = AG::conv2d(input, weight, bias, 1, 1, 1, 0);
  EXPECT_TRUE(y->value().all_close(x));
}

// End-to-end: a tiny MLP trained by hand-rolled SGD on a linearly separable
// problem must fit it. This is the integration test for the whole tape.
TEST(Autograd, TinyMlpLearnsLinearlySeparableData) {
  reffil::util::Rng rng(99);
  const std::size_t n = 64, d = 4;
  T::Tensor x = T::randn({n, d}, rng);
  std::vector<std::size_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = x.at(i * d) + 0.5f * x.at(i * d + 1) > 0.0f ? 1u : 0u;
  }

  auto w1 = AG::parameter(T::randn({d, 8}, rng, 0.0f, 0.5f));
  auto b1 = AG::parameter(T::zeros({8}));
  auto w2 = AG::parameter(T::randn({8, 2}, rng, 0.0f, 0.5f));
  auto b2 = AG::parameter(T::zeros({2}));
  const std::vector<AG::Var> params{w1, b1, w2, b2};

  float first_loss = 0.0f, last_loss = 0.0f;
  for (int step = 0; step < 200; ++step) {
    auto input = AG::constant(x);
    auto h = AG::relu(AG::add_rowvec(AG::matmul(input, w1), b1));
    auto logits = AG::add_rowvec(AG::matmul(h, w2), b2);
    auto loss = AG::cross_entropy_logits(logits, labels);
    for (auto& p : params) p->zero_grad();
    AG::backward(loss);
    for (auto& p : params) {
      T::axpy_inplace(p->mutable_value(), -0.5f, p->grad());
    }
    if (step == 0) first_loss = loss->value().item();
    last_loss = loss->value().item();
  }
  EXPECT_LT(last_loss, 0.1f);
  EXPECT_LT(last_loss, first_loss * 0.2f);
}
