// Tests for the runtime-dispatched kernel table (tensor/kernels_dispatch.*).
//
// Four contracts:
//  * Registry sanity — scalar always exists, active() is runnable, REFFIL_ISA
//    (when the suite is run under it, as the CI ISA matrix does) pins the
//    choice.
//  * Cross-ISA equivalence — every target the host can run agrees with the
//    scalar target: matmul/softmax within 1e-5 relative (SIMD targets may
//    fuse multiply-adds and use a polynomial exp), elementwise bitwise. The
//    conv kernels have their own parity suite (conv_kernels_test.cpp).
//  * IEEE semantics — a zero in `a` no longer masks NaN/Inf in `b` (the
//    skip-zero bug): 0 * NaN = NaN must reach the output on every target,
//    because the transport layer's poison quarantine (DESIGN.md §10) relies
//    on NaNs surfacing.
//  * Degenerate softmax rows — all -inf logits produce the uniform row
//    (softmax) / -log(n) (log_softmax) instead of NaN; NaN rows still
//    propagate NaN.
//
// Everything here runs by calling table function pointers directly, so the
// whole matrix is exercised in one process regardless of which target
// active() picked — and the suite runs under ASan/TSan via the existing
// sanitizer CI jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "reffil/tensor/kernels_dispatch.hpp"
#include "reffil/tensor/ops.hpp"
#include "reffil/tensor/quant.hpp"
#include "reffil/tensor/tensor.hpp"
#include "reffil/util/rng.hpp"

namespace T = reffil::tensor;
namespace kern = reffil::tensor::kern;

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  reffil::util::Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal(0.0, 1.0));
  return v;
}

void expect_rel_close(const std::vector<float>& got,
                      const std::vector<float>& ref, const char* what) {
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float tol = 1e-5f * std::max(1.0f, std::abs(ref[i])) + 1e-7f;
    ASSERT_NEAR(got[i], ref[i], tol) << what << " flat index " << i;
  }
}

void expect_bitwise(const std::vector<float>& got,
                    const std::vector<float>& ref, const char* what) {
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], ref[i]) << what << " flat index " << i;
  }
}

/// Non-scalar runnable targets (the ones to compare against scalar). Empty
/// on a host with no SIMD support — every test over it then passes
/// trivially, which is correct: there is nothing to diverge.
std::vector<const kern::Kernels*> simd_targets() {
  std::vector<const kern::Kernels*> out;
  for (const kern::Kernels* k : kern::runnable()) {
    if (std::string_view(k->name) != "scalar") out.push_back(k);
  }
  return out;
}

}  // namespace

// ---- registry --------------------------------------------------------------

TEST(KernelDispatch, ScalarAlwaysCompiledAndFirst) {
  const auto all = kern::compiled();
  ASSERT_FALSE(all.empty());
  EXPECT_STREQ(all.front()->name, "scalar");
  EXPECT_TRUE(kern::host_supports(*all.front()));
}

TEST(KernelDispatch, ActiveIsRunnable) {
  const kern::Kernels& a = kern::active();
  bool found = false;
  for (const kern::Kernels* k : kern::runnable()) found |= (k == &a);
  EXPECT_TRUE(found) << "active() returned a target the host cannot run";
  EXPECT_STREQ(kern::active_name(), a.name);
}

TEST(KernelDispatch, ByNameRoundTripsAndRejectsUnknown) {
  for (const kern::Kernels* k : kern::compiled()) {
    EXPECT_EQ(kern::by_name(k->name), k);
  }
  EXPECT_EQ(kern::by_name("mmx"), nullptr);
  EXPECT_EQ(kern::by_name("neon"), nullptr);  // the NEON target is gone
  EXPECT_EQ(kern::by_name(""), nullptr);
}

TEST(KernelDispatch, EnvOverridePinsActiveTarget) {
  // The CI ISA matrix runs the whole suite under REFFIL_ISA=scalar (and the
  // host's best). When the override is present it must have won.
  if (const char* env = std::getenv("REFFIL_ISA"); env != nullptr && *env) {
    EXPECT_STREQ(kern::active_name(), env);
  } else {
    GTEST_SKIP() << "REFFIL_ISA not set";
  }
}

// ---- cross-ISA equivalence -------------------------------------------------

class CrossIsaShapes
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(CrossIsaShapes, MatmulFamilyMatchesScalarWithin1e5) {
  const auto [m, k, n] = GetParam();
  const kern::Kernels* scalar = kern::by_name("scalar");
  ASSERT_NE(scalar, nullptr);
  auto a = random_vec(m * k, m * 7919 + k * 53 + n);
  auto b = random_vec(k * n, m * 13 + k * 9973 + n);
  auto bt = random_vec(n * k, m * 17 + k * 29 + n * 31);  // [n, K] for nt
  auto at = random_vec(k * m, m * 37 + k * 3 + n * 11);   // [K, m] for tn
  // Planted zeros exercise the exact-±0 product path on every target.
  for (std::size_t i = 0; i < a.size(); i += 3) a[i] = 0.0f;
  for (std::size_t i = 0; i < b.size(); i += 5) b[i] = 0.0f;

  std::vector<float> ref_nn(m * n, 0.0f), ref_nt(m * n, 0.0f),
      ref_tn(m * n, 0.0f);
  scalar->matmul_rows_nn(a.data(), b.data(), ref_nn.data(), m, k, n);
  scalar->matmul_rows_nt(a.data(), bt.data(), ref_nt.data(), m, k, n);
  scalar->matmul_rows_tn(at.data(), b.data(), ref_tn.data(), m, k, n);

  for (const kern::Kernels* t : simd_targets()) {
    SCOPED_TRACE(t->name);
    std::vector<float> out(m * n, 0.0f);
    t->matmul_rows_nn(a.data(), b.data(), out.data(), m, k, n);
    expect_rel_close(out, ref_nn, "nn");
    std::fill(out.begin(), out.end(), 0.0f);
    t->matmul_rows_nt(a.data(), bt.data(), out.data(), m, k, n);
    expect_rel_close(out, ref_nt, "nt");
    std::fill(out.begin(), out.end(), 0.0f);
    t->matmul_rows_tn(at.data(), b.data(), out.data(), m, k, n);
    expect_rel_close(out, ref_tn, "tn");
  }
}

// Shapes straddle the cache tiles (128) AND the register micro-kernel's
// 4-row / 2-vector blocking: degenerate 1-dims, sub-block sizes, exact
// multiples and off-by-ones around both boundaries.
INSTANTIATE_TEST_SUITE_P(
    Sizes, CrossIsaShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                      std::make_tuple(4, 16, 16), std::make_tuple(5, 7, 9),
                      std::make_tuple(8, 32, 24), std::make_tuple(7, 64, 17),
                      std::make_tuple(33, 129, 127),
                      std::make_tuple(64, 200, 130),
                      std::make_tuple(5, 300, 2)));

TEST(CrossIsa, ElementwiseBitwiseMatchesScalar) {
  const std::size_t n = 1003;  // odd: forces scalar tails at every width
  const kern::Kernels* scalar = kern::by_name("scalar");
  const auto x = random_vec(n, 7);
  const auto y0 = random_vec(n, 11);
  const float s = 0.3127f;

  auto run = [&](const kern::Kernels* t) {
    std::vector<float> add = y0, axpy = y0, scale = y0;
    t->add(add.data(), x.data(), n);
    t->axpy(axpy.data(), s, x.data(), n);
    t->scale(scale.data(), s, n);
    return std::make_tuple(add, axpy, scale);
  };

  const auto [radd, raxpy, rscale] = run(scalar);
  for (const kern::Kernels* t : kern::runnable()) {
    SCOPED_TRACE(t->name);
    const auto [add, axpy, scale] = run(t);
    expect_bitwise(add, radd, "add");
    expect_bitwise(axpy, raxpy, "axpy");
    expect_bitwise(scale, rscale, "scale");
  }
}

TEST(CrossIsa, SoftmaxMatchesScalarWithin1e5) {
  const kern::Kernels* scalar = kern::by_name("scalar");
  for (const std::size_t n : {1u, 3u, 8u, 10u, 33u, 200u}) {
    const std::size_t m = 9;
    // Wide logit range stresses the polynomial exp across many octaves.
    reffil::util::Rng rng(n * 131);
    std::vector<float> src(m * n);
    for (float& v : src) v = static_cast<float>(rng.uniform(-30.0, 30.0));
    std::vector<float> ref_sm(m * n), ref_lsm(m * n);
    scalar->softmax_rows(src.data(), ref_sm.data(), m, n);
    scalar->log_softmax_rows(src.data(), ref_lsm.data(), m, n);
    for (const kern::Kernels* t : simd_targets()) {
      SCOPED_TRACE(std::string(t->name) + " n=" + std::to_string(n));
      std::vector<float> out(m * n);
      t->softmax_rows(src.data(), out.data(), m, n);
      expect_rel_close(out, ref_sm, "softmax");
      t->log_softmax_rows(src.data(), out.data(), m, n);
      expect_rel_close(out, ref_lsm, "log_softmax");
    }
  }
}

TEST(CrossIsa, ReluBackwardBitwiseMatchesScalarLoop) {
  // The span kernel must give the bits of `x <= 0 ? 0 : g` on every target:
  // masked lanes +0 (also for x = -0), NaN x passes g through, g's own
  // NaN/Inf/-0 come through untouched. n = 77 leaves a scalar tail at every
  // vector width.
  const std::size_t n = 77;
  auto x = random_vec(n, 91);
  auto g = random_vec(n, 92);
  x[1] = 0.0f;
  x[2] = -0.0f;
  x[3] = kNaN;
  x[4] = -kNaN;
  x[5] = kInf;
  x[6] = -kInf;
  x[7] = std::numeric_limits<float>::denorm_min();
  x[8] = -std::numeric_limits<float>::denorm_min();
  g[9] = kNaN;
  g[10] = -0.0f;
  g[11] = -kInf;
  for (std::size_t i = 12; i < n; i += 3) x[i] = -x[i - 1];
  std::vector<float> ref(n);
  for (std::size_t i = 0; i < n; ++i) ref[i] = x[i] <= 0.0f ? 0.0f : g[i];
  for (const kern::Kernels* t : kern::runnable()) {
    SCOPED_TRACE(t->name);
    std::vector<float> out(n, -1.0f);
    t->relu_backward(out.data(), x.data(), g.data(), n);
    ASSERT_EQ(std::memcmp(out.data(), ref.data(), n * sizeof(float)), 0);
  }
}

// ---- IEEE semantics: the skip-zero NaN-masking fix -------------------------

TEST(KernelSemantics, ZeroTimesNaNPropagatesOnEveryTarget) {
  // Regression for the skip-zero bug: a[i0, k0] == 0 with b[k0, *] == NaN
  // used to skip the whole product row and emit a finite (wrong) output.
  const std::size_t m = 6, k = 9, n = 7;
  const std::size_t i0 = 2, k0 = 4, j0 = 3;
  auto a = random_vec(m * k, 41);
  a[i0 * k + k0] = 0.0f;
  for (const kern::Kernels* t : kern::runnable()) {
    SCOPED_TRACE(t->name);
    {
      auto b = random_vec(k * n, 43);
      b[k0 * n + j0] = kNaN;
      std::vector<float> out(m * n, 0.0f);
      t->matmul_rows_nn(a.data(), b.data(), out.data(), m, k, n);
      EXPECT_TRUE(std::isnan(out[i0 * n + j0])) << "nn: 0 * NaN vanished";
      // The poison is confined to column j0 (the only outputs whose sums
      // touch b[k0, j0]); every other column stays finite.
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          if (j == j0) {
            EXPECT_TRUE(std::isnan(out[i * n + j])) << "nn row " << i;
          } else {
            EXPECT_TRUE(std::isfinite(out[i * n + j]))
                << "nn: NaN leaked to column " << j;
          }
        }
      }
    }
    {
      // 0 * Inf must also be NaN, not 0.
      auto b = random_vec(k * n, 47);
      b[k0 * n + j0] = kInf;
      std::vector<float> out(m * n, 0.0f);
      t->matmul_rows_nn(a.data(), b.data(), out.data(), m, k, n);
      EXPECT_TRUE(std::isnan(out[i0 * n + j0])) << "nn: 0 * Inf vanished";
    }
    {
      auto bt = random_vec(n * k, 53);  // [n, K]
      bt[j0 * k + k0] = kNaN;
      std::vector<float> out(m * n, 0.0f);
      t->matmul_rows_nt(a.data(), bt.data(), out.data(), m, k, n);
      EXPECT_TRUE(std::isnan(out[i0 * n + j0])) << "nt: 0 * NaN vanished";
    }
    {
      auto at = random_vec(k * m, 59);  // [K, m]
      at[k0 * m + i0] = 0.0f;
      auto b = random_vec(k * n, 61);
      b[k0 * n + j0] = kNaN;
      std::vector<float> out(m * n, 0.0f);
      t->matmul_rows_tn(at.data(), b.data(), out.data(), m, k, n);
      EXPECT_TRUE(std::isnan(out[i0 * n + j0])) << "tn: 0 * NaN vanished";
    }
  }
}

TEST(KernelSemantics, PublicMatmulPropagatesPlantedNaN) {
  // End-to-end via the active target: the transport quarantine's NaN
  // detection depends on this surviving whatever ISA is selected.
  reffil::util::Rng rng(71);
  auto a = T::randn({4, 6}, rng);
  auto b = T::randn({6, 5}, rng);
  a.at(1 * 6 + 2) = 0.0f;
  b.at(2 * 5 + 3) = kNaN;
  const auto out = T::matmul(a, b);
  EXPECT_TRUE(std::isnan(out.at(1 * 5 + 3)));
}

// ---- degenerate softmax rows -----------------------------------------------

TEST(KernelSemantics, AllNegInfRowYieldsUniformSoftmax) {
  const std::size_t n = 5;
  for (const kern::Kernels* t : kern::runnable()) {
    SCOPED_TRACE(t->name);
    std::vector<float> src(2 * n, -kInf);
    // Second row stays ordinary to prove the guard is per-row.
    for (std::size_t j = 0; j < n; ++j) src[n + j] = static_cast<float>(j);
    std::vector<float> sm(2 * n, -1.0f), lsm(2 * n, -1.0f);
    t->softmax_rows(src.data(), sm.data(), 2, n);
    t->log_softmax_rows(src.data(), lsm.data(), 2, n);
    float total = 0.0f;
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_FLOAT_EQ(sm[j], 1.0f / static_cast<float>(n));
      EXPECT_FLOAT_EQ(lsm[j], -std::log(static_cast<float>(n)));
      total += sm[n + j];
      EXPECT_TRUE(std::isfinite(sm[n + j]));
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(KernelSemantics, MinusInfLogitsGetZeroProbability) {
  // A row with a finite max and some -inf entries is NOT degenerate: the
  // -inf logits must get (numerically) zero probability, the rest a proper
  // distribution.
  const std::size_t n = 4;
  std::vector<float> src = {-kInf, 2.0f, -kInf, 2.0f};
  for (const kern::Kernels* t : kern::runnable()) {
    SCOPED_TRACE(t->name);
    std::vector<float> sm(n);
    t->softmax_rows(src.data(), sm.data(), 1, n);
    EXPECT_NEAR(sm[0], 0.0f, 1e-6f);
    EXPECT_NEAR(sm[2], 0.0f, 1e-6f);
    EXPECT_NEAR(sm[1], 0.5f, 1e-5f);
    EXPECT_NEAR(sm[3], 0.5f, 1e-5f);
  }
}

TEST(KernelSemantics, NaNRowStaysNaN) {
  const std::size_t n = 6;
  for (const kern::Kernels* t : kern::runnable()) {
    SCOPED_TRACE(t->name);
    std::vector<float> src(n, 1.0f);
    src[4] = kNaN;
    std::vector<float> sm(n, 0.0f), lsm(n, 0.0f);
    t->softmax_rows(src.data(), sm.data(), 1, n);
    t->log_softmax_rows(src.data(), lsm.data(), 1, n);
    // The poisoned element must come out NaN — and because the row sum is
    // NaN, the whole row is NaN on every target.
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_TRUE(std::isnan(sm[j])) << "softmax j=" << j;
      EXPECT_TRUE(std::isnan(lsm[j])) << "log_softmax j=" << j;
    }
  }
}

TEST(KernelSemantics, PublicSoftmaxHandlesDegenerateRows) {
  // Through the public op (active target).
  T::Tensor logits({2, 3});
  logits.at(0) = -kInf;
  logits.at(1) = -kInf;
  logits.at(2) = -kInf;
  logits.at(3) = 0.0f;
  logits.at(4) = 1.0f;
  logits.at(5) = 2.0f;
  const auto sm = T::softmax_rows(logits);
  const auto lsm = T::log_softmax_rows(logits);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_FLOAT_EQ(sm.at(j), 1.0f / 3.0f);
    EXPECT_FLOAT_EQ(lsm.at(j), -std::log(3.0f));
    EXPECT_TRUE(std::isfinite(sm.at(3 + j)));
  }
  // exp(log_softmax) == softmax holds on the degenerate row too.
  EXPECT_NEAR(std::exp(lsm.at(0)), sm.at(0), 1e-6f);
}

TEST(KernelSemantics, SingleElementRow) {
  for (const kern::Kernels* t : kern::runnable()) {
    SCOPED_TRACE(t->name);
    const float src = 3.5f;
    float sm = -1.0f, lsm = -1.0f;
    t->softmax_rows(&src, &sm, 1, 1);
    t->log_softmax_rows(&src, &lsm, 1, 1);
    EXPECT_FLOAT_EQ(sm, 1.0f);
    EXPECT_FLOAT_EQ(lsm, 0.0f);
  }
}

// ---- q8 block codec (quant.hpp) --------------------------------------------

TEST(CrossIsa, Q8CodecBitwiseMatchesScalar) {
  // The compressed wire format's cross-ISA reproducibility rests on the q8
  // kernels being BITWISE-identical across targets on finite inputs — not
  // merely 1e-5-close like matmul. Sizes cover empty, sub-block, exact
  // multiples of kQ8Block, and straggler tails.
  namespace quant = T::quant;
  const kern::Kernels* scalar = kern::by_name("scalar");
  ASSERT_NE(scalar, nullptr);
  for (const std::size_t n : {0u, 1u, 31u, 32u, 33u, 64u, 257u, 1003u}) {
    auto x = random_vec(n, 1000 + n);
    // Plant a tiny block (below kQ8TinyAmax -> scale 0) and exact zeros.
    for (std::size_t i = 0; i < std::min<std::size_t>(n, quant::kQ8Block); ++i) {
      x[i] = (i % 2 == 0) ? 0.0f : 1e-40f;
    }
    const std::size_t blocks = quant::q8_num_blocks(n);
    std::vector<std::int8_t> ref_q(n), q(n);
    std::vector<float> ref_scales(blocks), scales(blocks);
    scalar->q8_encode(x.data(), ref_q.data(), ref_scales.data(), n);
    std::vector<float> ref_dec(n), dec(n);
    scalar->q8_decode(ref_q.data(), ref_scales.data(), ref_dec.data(), n);
    auto ref_y = random_vec(n, 2000 + n);
    auto y = ref_y;
    const float s = 0.731f;
    scalar->q8_axpy(ref_y.data(), s, ref_q.data(), ref_scales.data(), n);
    for (const kern::Kernels* t : simd_targets()) {
      SCOPED_TRACE(std::string(t->name) + " n=" + std::to_string(n));
      t->q8_encode(x.data(), q.data(), scales.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(q[i], ref_q[i]) << "q8_encode q index " << i;
      }
      expect_bitwise(scales, ref_scales, "q8_encode scales");
      t->q8_decode(ref_q.data(), ref_scales.data(), dec.data(), n);
      expect_bitwise(dec, ref_dec, "q8_decode");
      auto ty = y;
      t->q8_axpy(ty.data(), s, ref_q.data(), ref_scales.data(), n);
      expect_bitwise(ty, ref_y, "q8_axpy");
    }
  }
}

TEST(CrossIsa, Q8RoundTripErrorBoundedByHalfStep) {
  // Decoded values sit within scale/2 = amax/254 of the original per block,
  // on every runnable target.
  namespace quant = T::quant;
  const std::size_t n = 321;
  const auto x = random_vec(n, 4242);
  for (const kern::Kernels* t : kern::runnable()) {
    SCOPED_TRACE(t->name);
    std::vector<std::int8_t> q(n);
    std::vector<float> scales(quant::q8_num_blocks(n));
    t->q8_encode(x.data(), q.data(), scales.data(), n);
    std::vector<float> dec(n);
    t->q8_decode(q.data(), scales.data(), dec.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const float half_step = 0.5f * scales[i / quant::kQ8Block] + 1e-7f;
      ASSERT_NEAR(dec[i], x[i], half_step) << "index " << i;
    }
  }
}

TEST(CrossIsa, Q8AxpyMatchesUnfusedDecodeThenAccumulate) {
  // The dequant-free contract: q8_axpy(y, s, ...) must equal the unfused
  // scalar expression y[i] += (s * scales[b]) * q[i] bitwise — NOT an FMA
  // variant, and NOT s * (scales[b] * q[i]) (different rounding).
  namespace quant = T::quant;
  const std::size_t n = 130;
  const auto x = random_vec(n, 5150);
  std::vector<std::int8_t> q(n);
  std::vector<float> scales(quant::q8_num_blocks(n));
  kern::by_name("scalar")->q8_encode(x.data(), q.data(), scales.data(), n);
  const float s = -1.0f / 3.0f;
  const auto y0 = random_vec(n, 5151);
  std::vector<float> expect = y0;
  for (std::size_t i = 0; i < n; ++i) {
    const float c = s * scales[i / quant::kQ8Block];
    const float prod = c * static_cast<float>(q[i]);  // rounded before the add
    expect[i] += prod;
  }
  for (const kern::Kernels* t : kern::runnable()) {
    SCOPED_TRACE(t->name);
    auto y = y0;
    t->q8_axpy(y.data(), s, q.data(), scales.data(), n);
    expect_bitwise(y, expect, "q8_axpy vs unfused reference");
  }
}

TEST(KernelSemantics, F16RoundTripClampsAndStaysFinite) {
  namespace quant = T::quant;
  // Exact halves round-trip exactly; overflow and non-finite clamp to
  // +-65504; the rounding boundary 65520 (first f32 that would RNE to Inf)
  // must clamp, not overflow.
  EXPECT_EQ(quant::f16_to_f32(quant::f32_to_f16(1.0f)), 1.0f);
  EXPECT_EQ(quant::f16_to_f32(quant::f32_to_f16(-0.5f)), -0.5f);
  EXPECT_EQ(quant::f16_to_f32(quant::f32_to_f16(65504.0f)), 65504.0f);
  EXPECT_EQ(quant::f16_to_f32(quant::f32_to_f16(65520.0f)), 65504.0f);
  EXPECT_EQ(quant::f16_to_f32(quant::f32_to_f16(1e30f)), 65504.0f);
  EXPECT_EQ(quant::f16_to_f32(quant::f32_to_f16(-1e30f)), -65504.0f);
  EXPECT_EQ(quant::f16_to_f32(quant::f32_to_f16(kInf)), 65504.0f);
  EXPECT_EQ(quant::f16_to_f32(quant::f32_to_f16(-kInf)), -65504.0f);
  EXPECT_EQ(quant::f16_to_f32(quant::f32_to_f16(kNaN)), 65504.0f);
  // Subnormal halves survive.
  const float tiny = 6e-8f;
  EXPECT_NEAR(quant::f16_to_f32(quant::f32_to_f16(tiny)), tiny, 6e-8f);
  // f16_is_finite rejects Inf/NaN bit patterns.
  EXPECT_FALSE(quant::f16_is_finite(0x7C00));  // +Inf
  EXPECT_FALSE(quant::f16_is_finite(0xFC00));  // -Inf
  EXPECT_FALSE(quant::f16_is_finite(0x7E00));  // NaN
  EXPECT_TRUE(quant::f16_is_finite(quant::f32_to_f16(123.456f)));
}
