// Tests for the fused transpose-free matmul variants and the dispatch-table
// kernels behind the whole matmul family.
//
// The contracts under test are *bitwise*, not approximate:
//  * matmul_nt(a, b) == matmul(a, transpose2d(b)) exactly — whichever
//    dispatch target is active, both sides accumulate each output element
//    over k in the same order with the same (fused or unfused) per-step
//    rounding, so no float may differ.
//  * matmul_tn(a, b) == matmul(transpose2d(a), b) exactly, same reasoning.
//  * The scalar dispatch target equals a naive untiled i/k/j reference loop
//    exactly — tiling only reorders *which outputs* are produced when, never
//    the per-element accumulation order. (The SIMD targets may use FMA, so
//    this identity is pinned to the scalar table; cross-target equivalence
//    at 1e-5 lives in kernels_dispatch_test.cpp.)
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <tuple>

#include "reffil/tensor/kernels_dispatch.hpp"
#include "reffil/tensor/ops.hpp"
#include "reffil/tensor/tensor.hpp"
#include "reffil/util/rng.hpp"

namespace T = reffil::tensor;
namespace kern = reffil::tensor::kern;

namespace {

void expect_bitwise_equal(const T::Tensor& a, const T::Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a.at(i), b.at(i)) << "flat index " << i;
  }
}

/// Naive untiled reference: out[i,j] = sum_k a[i,k]*b[k,j], k in increasing
/// order, accumulating into the output element. Every product participates —
/// the historical skip-if-zero shortcut was removed from the production
/// kernels because it masked NaN/Inf operands (0 * NaN must be NaN); on
/// finite inputs the results are unchanged either way.
T::Tensor naive_matmul(const T::Tensor& a, const T::Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  T::Tensor out({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aik = a.at(i * k + kk);
      for (std::size_t j = 0; j < n; ++j) {
        out.at(i * n + j) += aik * b.at(kk * n + j);
      }
    }
  }
  return out;
}

}  // namespace

// Shapes straddle the tile sizes (kTileI=32, kTileJ=128, kTileK=128):
// degenerate 1-dims, primes, exact multiples and off-by-one around them.
class FusedMatmulShapes
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(FusedMatmulShapes, NtMatchesTransposeCompositionBitwise) {
  const auto [m, k, n] = GetParam();
  reffil::util::Rng rng(m * 1009 + k * 31 + n);
  const auto a = T::randn({m, k}, rng);
  const auto b = T::randn({n, k}, rng);
  expect_bitwise_equal(T::matmul_nt(a, b), T::matmul(a, T::transpose2d(b)));
}

TEST_P(FusedMatmulShapes, TnMatchesTransposeCompositionBitwise) {
  const auto [m, k, n] = GetParam();
  reffil::util::Rng rng(m * 2003 + k * 37 + n);
  const auto a = T::randn({k, m}, rng);
  const auto b = T::randn({k, n}, rng);
  expect_bitwise_equal(T::matmul_tn(a, b), T::matmul(T::transpose2d(a), b));
}

TEST_P(FusedMatmulShapes, TiledScalarTargetMatchesNaiveBitwise) {
  const auto [m, k, n] = GetParam();
  reffil::util::Rng rng(m * 4001 + k * 41 + n);
  auto a = T::randn({m, k}, rng);
  const auto b = T::randn({k, n}, rng);
  // Plant exact zeros: their products must still participate (as exact ±0
  // adds) without perturbing any result.
  for (std::size_t i = 0; i < a.numel(); i += 3) a.at(i) = 0.0f;
  const kern::Kernels* scalar = kern::by_name("scalar");
  ASSERT_NE(scalar, nullptr);
  T::Tensor out({m, n});
  scalar->matmul_rows_nn(a.begin(), b.begin(), out.begin(), m, k, n);
  expect_bitwise_equal(out, naive_matmul(a, b));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, FusedMatmulShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 5, 1),
                      std::make_tuple(1, 128, 129),  // 1 x n row with k tail
                      std::make_tuple(3, 2, 7), std::make_tuple(31, 33, 5),
                      std::make_tuple(32, 128, 128),   // exact tile multiples
                      std::make_tuple(33, 129, 127),   // one past / one short
                      std::make_tuple(64, 200, 130),   // spans several tiles
                      std::make_tuple(5, 300, 2),      // deep-k, narrow out
                      std::make_tuple(160, 144, 152)));  // five row tiles

TEST(FusedMatmulInto, IntoOverwritesStaleContents) {
  reffil::util::Rng rng(503);
  const auto a = T::randn({4, 6}, rng);
  const auto bn = T::randn({6, 3}, rng);
  const auto bt = T::randn({3, 6}, rng);
  T::Tensor out({4, 3});
  std::fill(out.begin(), out.end(), 42.0f);  // stale garbage must not leak
  T::matmul_into(a, bn, out);
  expect_bitwise_equal(out, T::matmul(a, bn));
  std::fill(out.begin(), out.end(), 42.0f);
  T::matmul_nt_into(a, bt, out);
  expect_bitwise_equal(out, T::matmul_nt(a, bt));
  const auto at = T::randn({6, 4}, rng);
  std::fill(out.begin(), out.end(), 42.0f);
  T::matmul_tn_into(at, bn, out);
  expect_bitwise_equal(out, T::matmul_tn(at, bn));
}

TEST(FusedMatmul, ShapeMismatchThrows) {
  const T::Tensor a({2, 3});
  EXPECT_THROW(T::matmul_nt(a, T::Tensor({4, 4})), reffil::ShapeError);
  EXPECT_THROW(T::matmul_tn(a, T::Tensor({4, 4})), reffil::ShapeError);
  EXPECT_THROW(T::matmul_nt(a, T::Tensor({3})), reffil::ShapeError);
}
