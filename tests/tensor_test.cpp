// Unit tests for the tensor substrate: construction, shape checking,
// elementwise kernels, matmul, reductions, softmax family, serialization.
#include <gtest/gtest.h>

#include <cmath>

#include "reffil/tensor/ops.hpp"
#include "reffil/tensor/tensor.hpp"
#include "reffil/util/rng.hpp"

namespace T = reffil::tensor;

TEST(Tensor, DefaultIsScalarZero) {
  T::Tensor t;
  EXPECT_EQ(t.rank(), 0u);
  EXPECT_EQ(t.numel(), 1u);
  EXPECT_FLOAT_EQ(t.item(), 0.0f);
}

TEST(Tensor, RankZeroElementLivesInTheTensor) {
  // Copies, moves, reshapes and serialization carry the inline element.
  T::Tensor s = T::Tensor::scalar(3.5f);
  const T::Tensor copy = s;
  T::Tensor moved = std::move(s);
  EXPECT_EQ(s, T::Tensor()) << "a moved-from tensor is a rank-0 zero";
  EXPECT_FLOAT_EQ(copy.item(), 3.5f);
  EXPECT_FLOAT_EQ(moved.item(), 3.5f);
  const T::Tensor one = T::Tensor(moved).reshaped({1});
  EXPECT_EQ(one, T::Tensor::vector({3.5f}));
  EXPECT_EQ(T::Tensor::vector({2.0f}).reshaped({}), T::Tensor::scalar(2.0f));

  float borrowed = 1.25f;
  const T::Tensor view = T::Tensor::view(&borrowed, {});
  const T::Tensor owned = view;  // a copy of a view owns its element
  borrowed = 0.0f;
  EXPECT_FLOAT_EQ(owned.item(), 1.25f);

  reffil::util::ByteWriter writer;
  copy.serialize(writer);
  const auto bytes = writer.take();
  reffil::util::ByteReader reader(bytes);
  EXPECT_EQ(T::Tensor::deserialize(reader), copy);
}

TEST(Tensor, ShapeNumel) {
  EXPECT_EQ(T::shape_numel({}), 1u);
  EXPECT_EQ(T::shape_numel({4}), 4u);
  EXPECT_EQ(T::shape_numel({2, 3, 4}), 24u);
  EXPECT_EQ(T::shape_numel({5, 0}), 0u);
}

TEST(Tensor, ConstructorRejectsMismatchedData) {
  EXPECT_THROW(T::Tensor({2, 2}, {1.0f, 2.0f, 3.0f}), reffil::Error);
}

TEST(Tensor, MatrixFactoryAndAt2) {
  auto m = T::Tensor::matrix({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(m.shape(), (T::Shape{2, 3}));
  EXPECT_FLOAT_EQ(m.at2(0, 2), 3.0f);
  EXPECT_FLOAT_EQ(m.at2(1, 0), 4.0f);
  EXPECT_THROW(m.at2(2, 0), reffil::Error);
}

TEST(Tensor, MatrixFactoryRejectsRaggedRows) {
  EXPECT_THROW(T::Tensor::matrix({{1, 2}, {3}}), reffil::Error);
}

TEST(Tensor, ReshapePreservesDataAndChecksNumel) {
  auto m = T::Tensor::matrix({{1, 2}, {3, 4}});
  auto r = m.reshaped({4});
  EXPECT_EQ(r.rank(), 1u);
  EXPECT_FLOAT_EQ(r.at(3), 4.0f);
  EXPECT_THROW(m.reshaped({3}), reffil::ShapeError);
}

TEST(Tensor, ItemRequiresSingleElement) {
  auto v = T::Tensor::vector({1, 2});
  EXPECT_THROW(v.item(), reffil::ShapeError);
}

TEST(Tensor, SerializeRoundTrip) {
  reffil::util::Rng rng(42);
  auto t = T::randn({3, 5, 2}, rng);
  reffil::util::ByteWriter writer;
  t.serialize(writer);
  reffil::util::ByteReader reader(writer.bytes());
  auto back = T::Tensor::deserialize(reader);
  EXPECT_EQ(t, back);
  EXPECT_TRUE(reader.exhausted());
}

TEST(Tensor, DeserializeRejectsTruncation) {
  auto t = T::Tensor::matrix({{1, 2}, {3, 4}});
  reffil::util::ByteWriter writer;
  t.serialize(writer);
  auto bytes = writer.take();
  bytes.resize(bytes.size() - 4);
  reffil::util::ByteReader reader(bytes);
  EXPECT_THROW(T::Tensor::deserialize(reader), reffil::SerializationError);
}

TEST(TensorOps, ElementwiseArithmetic) {
  auto a = T::Tensor::vector({1, 2, 3});
  auto b = T::Tensor::vector({4, 5, 6});
  EXPECT_EQ(T::add(a, b), T::Tensor::vector({5, 7, 9}));
  EXPECT_EQ(T::sub(b, a), T::Tensor::vector({3, 3, 3}));
  EXPECT_EQ(T::mul(a, b), T::Tensor::vector({4, 10, 18}));
}

TEST(TensorOps, ShapeMismatchThrows) {
  auto a = T::Tensor::vector({1, 2, 3});
  auto b = T::Tensor::vector({1, 2});
  EXPECT_THROW(T::add(a, b), reffil::ShapeError);
}

TEST(TensorOps, ScalarOps) {
  auto a = T::Tensor::vector({1, 2});
  EXPECT_EQ(T::add_scalar(a, 1.0f), T::Tensor::vector({2, 3}));
  EXPECT_EQ(T::mul_scalar(a, -2.0f), T::Tensor::vector({-2, -4}));
  EXPECT_EQ(T::neg(a), T::Tensor::vector({-1, -2}));
}

TEST(TensorOps, MatmulMatchesHandComputation) {
  auto a = T::Tensor::matrix({{1, 2}, {3, 4}, {5, 6}});
  auto b = T::Tensor::matrix({{7, 8, 9}, {10, 11, 12}});
  auto c = T::matmul(a, b);
  EXPECT_EQ(c.shape(), (T::Shape{3, 3}));
  auto expected = T::Tensor::matrix(
      {{27, 30, 33}, {61, 68, 75}, {95, 106, 117}});
  EXPECT_TRUE(c.all_close(expected));
}

TEST(TensorOps, MatmulRejectsIncompatibleShapes) {
  auto a = T::Tensor::matrix({{1, 2}});
  auto b = T::Tensor::matrix({{1, 2}});
  EXPECT_THROW(T::matmul(a, b), reffil::ShapeError);
}

TEST(TensorOps, TransposeInvolution) {
  reffil::util::Rng rng(7);
  auto a = T::randn({4, 6}, rng);
  EXPECT_EQ(T::transpose2d(T::transpose2d(a)), a);
}

TEST(TensorOps, MatvecMatchesMatmul) {
  auto a = T::Tensor::matrix({{1, 2}, {3, 4}});
  auto x = T::Tensor::vector({5, 6});
  auto y = T::matvec(a, x);
  EXPECT_TRUE(y.all_close(T::Tensor::vector({17, 39})));
}

TEST(TensorOps, Reductions) {
  auto a = T::Tensor::matrix({{1, 2, 3}, {4, 5, 6}});
  EXPECT_FLOAT_EQ(T::sum_all(a), 21.0f);
  EXPECT_FLOAT_EQ(T::mean_all(a), 3.5f);
  EXPECT_FLOAT_EQ(T::max_all(a), 6.0f);
  EXPECT_TRUE(T::sum_rows(a).all_close(T::Tensor::vector({5, 7, 9})));
  EXPECT_TRUE(T::mean_rows(a).all_close(T::Tensor::vector({2.5f, 3.5f, 4.5f})));
}

TEST(TensorOps, DotNormCosine) {
  auto a = T::Tensor::vector({3, 4});
  auto b = T::Tensor::vector({4, 3});
  EXPECT_FLOAT_EQ(T::dot(a, b), 24.0f);
  EXPECT_FLOAT_EQ(T::l2_norm(a), 5.0f);
  EXPECT_NEAR(T::cosine_similarity(a, a), 1.0f, 1e-6);
  EXPECT_NEAR(T::cosine_similarity(a, T::neg(a)), -1.0f, 1e-6);
  EXPECT_NEAR(T::cosine_similarity(T::Tensor::vector({1, 0}),
                                   T::Tensor::vector({0, 1})),
              0.0f, 1e-6);
}

TEST(TensorOps, SoftmaxRowsSumToOneAndOrderPreserved) {
  auto logits = T::Tensor::matrix({{1, 2, 3}, {-5, 0, 5}});
  auto s = T::softmax_rows(logits);
  for (std::size_t i = 0; i < 2; ++i) {
    float total = 0.0f;
    for (std::size_t j = 0; j < 3; ++j) total += s.at2(i, j);
    EXPECT_NEAR(total, 1.0f, 1e-6);
    EXPECT_LT(s.at2(i, 0), s.at2(i, 2));
  }
}

TEST(TensorOps, SoftmaxNumericallyStableForLargeLogits) {
  auto logits = T::Tensor::matrix({{1000, 1001, 1002}});
  auto s = T::softmax_rows(logits);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_TRUE(std::isfinite(s.at2(0, j)));
  }
  EXPECT_NEAR(s.at2(0, 0) + s.at2(0, 1) + s.at2(0, 2), 1.0f, 1e-6);
}

TEST(TensorOps, LogSoftmaxMatchesLogOfSoftmax) {
  auto logits = T::Tensor::matrix({{0.3f, -1.2f, 2.0f, 0.0f}});
  auto ls = T::log_softmax_rows(logits);
  auto s = T::softmax_rows(logits);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(ls.at2(0, j), std::log(s.at2(0, j)), 1e-5);
  }
}

TEST(TensorOps, ArgmaxRows) {
  auto logits = T::Tensor::matrix({{1, 5, 2}, {9, 0, 3}});
  auto idx = T::argmax_rows(logits);
  EXPECT_EQ(idx[0], 1u);
  EXPECT_EQ(idx[1], 0u);
}

TEST(TensorOps, ConcatAndSlice) {
  auto a = T::Tensor::matrix({{1, 2}, {3, 4}});
  auto b = T::Tensor::matrix({{5, 6}, {7, 8}});
  auto cc = T::concat_cols(a, b);
  EXPECT_EQ(cc.shape(), (T::Shape{2, 4}));
  EXPECT_FLOAT_EQ(cc.at2(0, 2), 5.0f);
  auto cr = T::concat_rows(a, b);
  EXPECT_EQ(cr.shape(), (T::Shape{4, 2}));
  EXPECT_FLOAT_EQ(cr.at2(2, 0), 5.0f);
  auto s = T::slice_rows(cr, 1, 3);
  EXPECT_EQ(s.shape(), (T::Shape{2, 2}));
  EXPECT_FLOAT_EQ(s.at2(0, 0), 3.0f);
  EXPECT_TRUE(T::row(a, 1).all_close(T::Tensor::vector({3, 4})));
}

TEST(TensorOps, InplaceOps) {
  auto a = T::Tensor::vector({1, 2});
  T::add_inplace(a, T::Tensor::vector({10, 10}));
  EXPECT_EQ(a, T::Tensor::vector({11, 12}));
  T::axpy_inplace(a, 2.0f, T::Tensor::vector({1, 1}));
  EXPECT_EQ(a, T::Tensor::vector({13, 14}));
  T::scale_inplace(a, 0.5f);
  EXPECT_EQ(a, T::Tensor::vector({6.5f, 7.0f}));
}

TEST(TensorOps, RandnStatistics) {
  reffil::util::Rng rng(123);
  auto t = T::randn({10000}, rng, 2.0f, 3.0f);
  const float mean = T::mean_all(t);
  float var = 0.0f;
  for (float v : t) var += (v - mean) * (v - mean);
  var /= static_cast<float>(t.numel());
  EXPECT_NEAR(mean, 2.0f, 0.15f);
  EXPECT_NEAR(std::sqrt(var), 3.0f, 0.15f);
}

TEST(TensorOps, RandUniformBounds) {
  reffil::util::Rng rng(5);
  auto t = T::rand_uniform({1000}, rng, -1.0f, 1.0f);
  for (float v : t) {
    EXPECT_GE(v, -1.0f);
    EXPECT_LT(v, 1.0f);
  }
}

// Property sweep: matmul distributes over addition for a range of sizes.
class MatmulProperty : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulProperty, DistributesOverAddition) {
  auto [m, k, n] = GetParam();
  reffil::util::Rng rng(static_cast<std::uint64_t>(m * 1000 + k * 100 + n));
  auto a = T::randn({static_cast<std::size_t>(m), static_cast<std::size_t>(k)}, rng);
  auto b1 = T::randn({static_cast<std::size_t>(k), static_cast<std::size_t>(n)}, rng);
  auto b2 = T::randn({static_cast<std::size_t>(k), static_cast<std::size_t>(n)}, rng);
  auto lhs = T::matmul(a, T::add(b1, b2));
  auto rhs = T::add(T::matmul(a, b1), T::matmul(a, b2));
  EXPECT_TRUE(lhs.all_close(rhs, 1e-3f));
}

TEST_P(MatmulProperty, TransposeReversesProduct) {
  auto [m, k, n] = GetParam();
  reffil::util::Rng rng(static_cast<std::uint64_t>(m * 7 + k * 11 + n * 13));
  auto a = T::randn({static_cast<std::size_t>(m), static_cast<std::size_t>(k)}, rng);
  auto b = T::randn({static_cast<std::size_t>(k), static_cast<std::size_t>(n)}, rng);
  auto lhs = T::transpose2d(T::matmul(a, b));
  auto rhs = T::matmul(T::transpose2d(b), T::transpose2d(a));
  EXPECT_TRUE(lhs.all_close(rhs, 1e-3f));
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatmulProperty,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(2, 3, 4),
                                           std::make_tuple(5, 1, 7),
                                           std::make_tuple(8, 8, 8),
                                           std::make_tuple(13, 17, 3)));
