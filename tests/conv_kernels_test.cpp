// Parity suite for the direct conv2d kernels (tensor/kernels_conv.inl).
//
// The oracle is the lowering the kernels replaced: unfold the input into a
// [cin*kh*kw, hout*wout] column matrix (im2col, below), run the *same
// target's* matmul row kernels on it, and fold input gradients back with
// col2im. Every runnable target's conv2d_forward / conv2d_weight_grad /
// conv2d_input_grad must reproduce that result bit for bit — on the
// ResNet-Mini geometries, on the edge geometries (1x1 and 5x5 kernels,
// stride 1/2, padding 0/1/2, cin = 1, hout = 1, non-square inputs) and on
// inputs planted with NaN, ±Inf and -0.0. NaNs compare equal to any NaN:
// IEEE leaves the propagated payload unspecified.
//
// The memory test pins the point of the change: a conv node no longer
// holds a column matrix, so forward graphs keep no pool borrows alive.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "reffil/autograd/ops.hpp"
#include "reffil/nn/backbone.hpp"
#include "reffil/tensor/kernels_dispatch.hpp"
#include "reffil/tensor/ops.hpp"
#include "reffil/tensor/pool.hpp"
#include "reffil/util/rng.hpp"

namespace AG = reffil::autograd;
namespace T = reffil::tensor;
namespace kern = reffil::tensor::kern;

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

kern::Conv2dGeom geom(std::size_t cin, std::size_t h, std::size_t w,
                      std::size_t k, std::size_t stride, std::size_t pad,
                      std::size_t cout) {
  return {cin,
          h,
          w,
          k,
          k,
          stride,
          pad,
          (h + 2 * pad - k) / stride + 1,
          (w + 2 * pad - k) / stride + 1,
          cout};
}

std::string describe(const kern::Conv2dGeom& g) {
  return "cin=" + std::to_string(g.cin) + " " + std::to_string(g.h) + "x" +
         std::to_string(g.w) + " k=" + std::to_string(g.kh) +
         " s=" + std::to_string(g.stride) + " p=" + std::to_string(g.pad) +
         " cout=" + std::to_string(g.cout);
}

/// Padding position of tap (ki, kj) at output (oi, oj), or -1 off-input.
std::ptrdiff_t input_index(const kern::Conv2dGeom& g, std::size_t c,
                           std::size_t ki, std::size_t kj, std::size_t oi,
                           std::size_t oj) {
  const std::ptrdiff_t ii = static_cast<std::ptrdiff_t>(oi * g.stride + ki) -
                            static_cast<std::ptrdiff_t>(g.pad);
  const std::ptrdiff_t jj = static_cast<std::ptrdiff_t>(oj * g.stride + kj) -
                            static_cast<std::ptrdiff_t>(g.pad);
  if (ii < 0 || ii >= static_cast<std::ptrdiff_t>(g.h) || jj < 0 ||
      jj >= static_cast<std::ptrdiff_t>(g.w)) {
    return -1;
  }
  return static_cast<std::ptrdiff_t>((c * g.h + static_cast<std::size_t>(ii)) *
                                         g.w +
                                     static_cast<std::size_t>(jj));
}

/// The old lowering: col[(c, ki, kj), (oi, oj)], padding taps as +0.
std::vector<float> im2col(const std::vector<float>& in,
                          const kern::Conv2dGeom& g) {
  const std::size_t hw = g.hout * g.wout;
  std::vector<float> col(g.cin * g.kh * g.kw * hw);
  std::size_t r = 0;
  for (std::size_t c = 0; c < g.cin; ++c) {
    for (std::size_t ki = 0; ki < g.kh; ++ki) {
      for (std::size_t kj = 0; kj < g.kw; ++kj, ++r) {
        for (std::size_t oi = 0; oi < g.hout; ++oi) {
          for (std::size_t oj = 0; oj < g.wout; ++oj) {
            const std::ptrdiff_t at = input_index(g, c, ki, kj, oi, oj);
            col[r * hw + oi * g.wout + oj] =
                at < 0 ? 0.0f : in[static_cast<std::size_t>(at)];
          }
        }
      }
    }
  }
  return col;
}

/// Adjoint of im2col into a +0 input, taps ascending.
std::vector<float> col2im(const std::vector<float>& dcol,
                          const kern::Conv2dGeom& g) {
  const std::size_t hw = g.hout * g.wout;
  std::vector<float> din(g.cin * g.h * g.w, 0.0f);
  std::size_t r = 0;
  for (std::size_t c = 0; c < g.cin; ++c) {
    for (std::size_t ki = 0; ki < g.kh; ++ki) {
      for (std::size_t kj = 0; kj < g.kw; ++kj, ++r) {
        for (std::size_t oi = 0; oi < g.hout; ++oi) {
          for (std::size_t oj = 0; oj < g.wout; ++oj) {
            const std::ptrdiff_t at = input_index(g, c, ki, kj, oi, oj);
            if (at >= 0) {
              din[static_cast<std::size_t>(at)] += dcol[r * hw + oi * g.wout + oj];
            }
          }
        }
      }
    }
  }
  return din;
}

struct Oracle {
  std::vector<float> out, dweight, dinput;
};

/// What the im2col + matmul path computed on target `t`.
Oracle lowered(const kern::Kernels& t, const kern::Conv2dGeom& g,
               const std::vector<float>& in, const std::vector<float>& w,
               const std::vector<float>& bias, const std::vector<float>& gout) {
  const std::size_t K = g.cin * g.kh * g.kw;
  const std::size_t hw = g.hout * g.wout;
  const std::vector<float> col = im2col(in, g);
  Oracle o;
  o.out.assign(g.cout * hw, 0.0f);
  t.matmul_rows_nn(w.data(), col.data(), o.out.data(), g.cout, K, hw);
  for (std::size_t c = 0; c < g.cout; ++c) {
    for (std::size_t p = 0; p < hw; ++p) o.out[c * hw + p] += bias[c];
  }
  o.dweight.assign(g.cout * K, 0.0f);
  t.matmul_rows_nt(gout.data(), col.data(), o.dweight.data(), g.cout, hw, K);
  std::vector<float> dcol(K * hw, 0.0f);
  t.matmul_rows_tn(w.data(), gout.data(), dcol.data(), K, g.cout, hw);
  o.dinput = col2im(dcol, g);
  return o;
}

void expect_same_bits(const std::vector<float>& got,
                      const std::vector<float>& ref, const char* what) {
  ASSERT_EQ(got.size(), ref.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::isnan(got[i]) && std::isnan(ref[i])) continue;
    std::uint32_t a = 0, b = 0;
    std::memcpy(&a, &got[i], sizeof a);
    std::memcpy(&b, &ref[i], sizeof b);
    ASSERT_EQ(a, b) << what << " flat index " << i << ": got " << got[i]
                    << ", lowering gives " << ref[i];
  }
}

std::vector<float> random_vec(std::size_t n, std::uint64_t seed,
                              double stddev = 1.0) {
  reffil::util::Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal(0.0, stddev));
  return v;
}

/// Runs every runnable target's three kernels on one problem against that
/// target's lowering.
void check_parity(const kern::Conv2dGeom& g, const std::vector<float>& in,
                  const std::vector<float>& w, const std::vector<float>& bias,
                  const std::vector<float>& gout) {
  const std::size_t K = g.cin * g.kh * g.kw;
  const std::size_t hw = g.hout * g.wout;
  for (const kern::Kernels* t : kern::runnable()) {
    SCOPED_TRACE(std::string(t->name) + " " + describe(g));
    const Oracle ref = lowered(*t, g, in, w, bias, gout);
    // Outputs start as garbage: every kernel overwrites its whole output.
    std::vector<float> out(g.cout * hw, -7.0f);
    t->conv2d_forward(in.data(), w.data(), bias.data(), out.data(), g);
    expect_same_bits(out, ref.out, "forward");
    std::vector<float> dw(g.cout * K, -7.0f);
    t->conv2d_weight_grad(in.data(), gout.data(), dw.data(), g);
    expect_same_bits(dw, ref.dweight, "weight grad");
    std::vector<float> din(g.cin * g.h * g.w, -7.0f);
    t->conv2d_input_grad(w.data(), gout.data(), din.data(), g);
    expect_same_bits(din, ref.dinput, "input grad");
  }
}

void check_random(const kern::Conv2dGeom& g, std::uint64_t seed) {
  const std::size_t K = g.cin * g.kh * g.kw;
  check_parity(g, random_vec(g.cin * g.h * g.w, seed),
               random_vec(g.cout * K, seed + 1, 0.3),
               random_vec(g.cout, seed + 2, 0.1),
               random_vec(g.cout * g.hout * g.wout, seed + 3));
}

// The seven convs of nn::ResNetMini on a [3, 16, 16] image.
struct NamedGeom {
  const char* name;
  kern::Conv2dGeom g;
};
const NamedGeom kResNetMini[] = {
    {"stem", geom(3, 16, 16, 3, 1, 1, 8)},
    {"block1.conv1", geom(8, 16, 16, 3, 1, 1, 8)},
    {"block1.conv2", geom(8, 16, 16, 3, 1, 1, 8)},
    {"down1", geom(8, 16, 16, 3, 2, 1, 16)},
    {"block2.conv1", geom(16, 8, 8, 3, 1, 1, 16)},
    {"block2.conv2", geom(16, 8, 8, 3, 1, 1, 16)},
    {"down2", geom(16, 8, 8, 3, 2, 1, 32)},
};

}  // namespace

TEST(ConvKernels, ResNetMiniGeometriesMatchTheLowering) {
  std::uint64_t seed = 100;
  for (const NamedGeom& c : kResNetMini) {
    SCOPED_TRACE(c.name);
    check_random(c.g, seed += 10);
  }
}

TEST(ConvKernels, EdgeGeometriesMatchTheLowering) {
  const kern::Conv2dGeom cases[] = {
      geom(4, 6, 6, 1, 1, 0, 5),   // 1x1
      geom(4, 7, 5, 1, 2, 0, 3),   // 1x1, stride 2, odd non-square
      geom(2, 9, 9, 5, 1, 2, 4),   // 5x5, padding 2
      geom(3, 10, 8, 5, 2, 2, 6),  // 5x5, stride 2
      geom(3, 7, 6, 3, 2, 0, 4),   // stride 2, no padding
      geom(2, 5, 6, 3, 1, 2, 3),   // padding wider than needed
      geom(1, 12, 12, 3, 1, 1, 8),  // cin = 1
      geom(1, 5, 7, 3, 2, 1, 2),   // cin = 1, stride 2
      geom(3, 3, 7, 3, 1, 0, 4),   // hout = 1
      geom(2, 3, 3, 3, 2, 0, 9),   // 1x1 output
      geom(5, 5, 11, 3, 1, 1, 7),  // non-square
      geom(2, 11, 5, 3, 2, 1, 1),  // cout = 1, tall
      geom(6, 8, 8, 3, 3, 1, 5),   // stride 3
      geom(3, 20, 33, 3, 1, 1, 13),  // wide rows, odd channel counts
  };
  std::uint64_t seed = 500;
  for (const kern::Conv2dGeom& g : cases) check_random(g, seed += 10);
}

TEST(ConvKernels, NonFiniteAndNegativeZeroMatchTheLowering) {
  // NaN / ±Inf in weights, inputs and output gradients, and -0.0 inputs:
  // padding taps are multiplied (0 * Inf = NaN), never skipped, and every
  // chain starts from +0, exactly as the lowering did.
  for (const kern::Conv2dGeom& g :
       {geom(3, 8, 8, 3, 1, 1, 4), geom(3, 9, 8, 3, 2, 1, 5),
        geom(2, 6, 7, 5, 1, 2, 3)}) {
    const std::size_t K = g.cin * g.kh * g.kw;
    const std::size_t hw = g.hout * g.wout;
    auto in = random_vec(g.cin * g.h * g.w, 11);
    auto w = random_vec(g.cout * K, 12, 0.3);
    auto bias = random_vec(g.cout, 13, 0.1);
    auto gout = random_vec(g.cout * hw, 14);
    for (std::size_t i = 0; i < in.size(); i += 5) in[i] = -0.0f;
    {
      SCOPED_TRACE("-0.0 inputs");
      check_parity(g, in, w, bias, gout);
    }
    {
      SCOPED_TRACE("zero weights and gradients against -0.0 inputs");
      std::vector<float> zw(w.size(), 0.0f), zg(gout.size(), -0.0f);
      check_parity(g, in, zw, std::vector<float>(g.cout, -0.0f), zg);
    }
    {
      // Every product is -0 (positive taps, -0 weights and gradients), so
      // only the +0 each chain starts from makes the sums +0.
      SCOPED_TRACE("all products -0");
      std::vector<float> pos(in.size());
      for (std::size_t i = 0; i < in.size(); ++i) pos[i] = std::abs(in[i]) + 1;
      const std::vector<float> nz(w.size(), -0.0f), ng(gout.size(), -0.0f);
      check_parity(g, pos, nz, std::vector<float>(g.cout, -0.0f), ng);
    }
    {
      SCOPED_TRACE("Inf weight against padding");
      auto w2 = w;
      w2[0] = kInf;          // tap (0, 0, 0) of channel 0 reads padding
      w2[K + 4] = -kInf;
      check_parity(g, in, w2, bias, gout);
    }
    {
      SCOPED_TRACE("NaN weight");
      auto w2 = w;
      w2[(g.cout - 1) * K + K / 2] = kNaN;
      check_parity(g, in, w2, bias, gout);
    }
    {
      SCOPED_TRACE("NaN and Inf inputs");
      auto in2 = in;
      in2[0] = kNaN;
      in2[g.w + 1] = kInf;
      in2[in2.size() - 1] = -kInf;
      check_parity(g, in2, w, bias, gout);
    }
    {
      SCOPED_TRACE("non-finite output gradients");
      auto g2 = gout;
      g2[0] = kInf;
      g2[hw + 1] = kNaN;
      g2[g2.size() - 1] = -kInf;
      check_parity(g, in, w, bias, g2);
    }
  }
}

TEST(ConvKernels, AutogradConvMatchesTheLoweringOnTheActiveTarget) {
  // The public op (tensor::conv2d_* drivers, graph node) gives the table
  // kernels' bits: forward value and all three gradients.
  const kern::Conv2dGeom g = geom(8, 16, 16, 3, 2, 1, 16);
  const std::size_t K = g.cin * g.kh * g.kw;
  const auto in = random_vec(g.cin * g.h * g.w, 71);
  const auto w = random_vec(g.cout * K, 72, 0.3);
  const auto bias = random_vec(g.cout, 73, 0.1);
  auto x = AG::parameter(T::Tensor({g.cin, g.h, g.w}, in));
  auto wv = AG::parameter(T::Tensor({g.cout, K}, w));
  auto bv = AG::parameter(T::Tensor({g.cout}, bias));
  auto y = AG::conv2d(x, wv, bv, g.kh, g.kw, g.stride, g.pad);
  AG::backward(AG::sum_all(y));
  const std::vector<float> ones(g.cout * g.hout * g.wout, 1.0f);
  const Oracle ref = lowered(kern::active(), g, in, w, bias, ones);
  expect_same_bits({y->value().begin(), y->value().end()}, ref.out, "forward");
  expect_same_bits({wv->grad().begin(), wv->grad().end()}, ref.dweight,
                   "weight grad");
  expect_same_bits({x->grad().begin(), x->grad().end()}, ref.dinput,
                   "input grad");
}

TEST(ConvKernels, ForwardGraphsHoldNoColumnMatrices) {
  // 16 per-sample ResNet-Mini forward graphs, all alive at once, as a
  // batch's graphs are until backward. The pool bytes their live borrows
  // hold must stay below the graphs' own input + output activations. A
  // conv node that kept its [cin*9, hout*wout] column matrix held ~9x its
  // input per conv — about 270 KiB per graph here.
  reffil::util::Rng rng(9);
  reffil::nn::ResNetMini net(3, rng);
  T::pool::clear_thread_cache();
  const std::int64_t before = T::pool::thread_stats().borrowed_bytes;
  std::vector<AG::Var> graphs;
  std::int64_t activation_bytes = 0;
  for (int s = 0; s < 16; ++s) {
    const AG::Var image = AG::constant(T::randn({3, 16, 16}, rng));
    graphs.push_back(net.forward(image));
    activation_bytes += static_cast<std::int64_t>(
        (image->value().numel() + graphs.back()->value().numel()) *
        sizeof(float));
  }
  const std::int64_t held = T::pool::thread_stats().borrowed_bytes - before;
  EXPECT_LT(held, activation_bytes);
  // The graphs are real: backward through one still trains the net.
  AG::backward(AG::sum_all(graphs.front()));
  EXPECT_EQ(T::pool::thread_stats().borrowed_bytes - before, held);
}
