// Runtime CPU-feature-dispatched kernel table (DESIGN.md §12).
//
// Every hot inner loop of the tensor layer — the matmul kernels, the
// elementwise/axpy sweeps, the row-wise softmax pair, and the direct conv2d
// kernels — is reached through one table of function
// pointers resolved exactly once at startup. There are two targets: scalar,
// always compiled, and AVX2, compiled on x86-64 only. The binary picks the
// best one the *running* CPU supports, so a single fat binary runs
// unmodified from a baseline VM to an AVX2 server; other architectures
// (aarch64 included) run scalar.
//
// Determinism contract (per dispatch target):
//  * Within one target, results are a pure function of the inputs.
//  * The scalar target is bitwise-identical to the pre-dispatch kernels on
//    finite inputs (it IS those kernels, minus the skip-zero rule, which
//    never changed a finite result — see kernels.hpp).
//  * Across targets, matmul, conv and softmax may differ by rounding (FMA
//    contraction, polynomial exp); the cross-ISA test suite bounds the
//    divergence at 1e-5 relative. Within a target, each conv kernel is
//    bitwise-identical to lowering through a column matrix and that
//    target's matmul row kernels (tests/conv_kernels_test.cpp). Elementwise
//    kernels are bitwise-identical across every target (no fused ops). The
//    q8 codec kernels are bitwise-identical across targets
//    on finite inputs too (exact max reduction, shared round-nearest-even,
//    unfused accumulate — see quant.hpp), which the compressed wire format
//    relies on for cross-ISA reproducibility.
//
// Selection order: the REFFIL_ISA environment variable ("scalar" or "avx2")
// wins if set — an unknown or uncompiled name throws with the list of
// compiled targets, a compiled-but-unsupported
// name falls back to scalar with a warning on stderr (the fat binary must
// still start on a baseline host) — otherwise the best target
// host_supports() accepts is chosen.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace reffil::tensor::kern {

/// Conv2d geometry shared by the conv kernels and the autograd conv node
/// that drives them: input [n, cin, h, w], weight [cout, cin*kh*kw], output
/// [n, cout, hout, wout]. Samples are independent: sample s reads and writes
/// its own plane block s, so a one-sample call is the n = 1 case.
struct Conv2dGeom {
  std::size_t cin, h, w, kh, kw, stride, pad, hout, wout, cout;
  std::size_t n = 1;  ///< samples
};

/// One dispatch target. All pointers are non-null in every registered
/// table. Every kernel covers its whole output.
struct Kernels {
  const char* name;

  /// out[m, n] += a[m, K] * b[K, n]; `out` zeroed on entry. Per output
  /// element, k streams in increasing order into a single accumulator
  /// (fused or not is the target's choice, but fixed per target).
  void (*matmul_rows_nn)(const float* a, const float* b, float* out,
                         std::size_t m, std::size_t K, std::size_t n);
  /// out[m, n] += a[m, K] * b[n, K]^T.
  void (*matmul_rows_nt)(const float* a, const float* b, float* out,
                         std::size_t m, std::size_t K, std::size_t n);
  /// out[m, n] += a[K, m]^T * b[K, n].
  void (*matmul_rows_tn)(const float* a, const float* b, float* out,
                         std::size_t m, std::size_t K, std::size_t n);

  /// y[i] += x[i] over [0, n). Bitwise-identical across targets.
  void (*add)(float* y, const float* x, std::size_t n);
  /// y[i] += s * x[i] over [0, n) — mul-then-add in every target (never
  /// fused), so results are bitwise-identical across targets.
  void (*axpy)(float* y, float s, const float* x, std::size_t n);
  /// y[i] *= s over [0, n). Bitwise-identical across targets.
  void (*scale)(float* y, float s, std::size_t n);

  /// Each of the m rows of dst = softmax(src) along n. Degenerate rows
  /// whose maximum is -inf yield the uniform distribution 1/n; rows
  /// containing NaN yield NaN (see DESIGN.md §12).
  void (*softmax_rows)(const float* src, float* dst, std::size_t m,
                       std::size_t n);
  /// Each of the m rows of dst = log_softmax(src); degenerate all -inf rows
  /// yield -log(n) (the log of the uniform row, so exp∘log_softmax ==
  /// softmax holds on every input).
  void (*log_softmax_rows)(const float* src, float* dst, std::size_t m,
                           std::size_t n);

  /// dx[i] = x[i] <= 0 ? +0 : g[i] over [0, n) — ReLU backward. A NaN x
  /// passes g through. Bitwise-identical across targets.
  void (*relu_backward)(float* dx, const float* x, const float* g,
                        std::size_t n);

  // Direct conv2d (DESIGN.md §12). The taps are read straight from the
  // input; no [cin*kh*kw, hout*wout] column matrix is ever built. Each
  // kernel is bitwise-identical, per target, to the im2col + matmul_rows_*
  // lowering it replaced: per element the same multiply-add chain, in the
  // same order, from +0, with padding taps multiplied as zeros. Each runs
  // over all g.n samples, sample by sample, with the one-sample chains.

  /// out[s, cout, hout*wout] = weight[cout, K] * taps(in[s]) + bias,
  /// K = cin*kh*kw. Per element the taps run ascending over (ci, ki, kj);
  /// the bias is added last.
  void (*conv2d_forward)(const float* in, const float* weight,
                         const float* bias, float* out, const Conv2dGeom& g);
  /// Each sample's partial dweight[s, cout, K] = gout[s, cout, hout*wout] *
  /// taps(in[s])^T; per element the output pixels run ascending. The
  /// partials are not summed over samples: the caller folds them in the
  /// order its gradient contract fixes.
  void (*conv2d_weight_grad)(const float* in, const float* gout,
                             float* dweight, const Conv2dGeom& g);
  /// dinput[s, cin, h, w]: each tap value (weight^T * gout[s])[k, p] is a
  /// chain ascending over output channels, and the values are summed into a
  /// +0 plane in ascending (ki, kj) order. Overwrites dinput.
  void (*conv2d_input_grad)(const float* weight, const float* gout,
                            float* dinput, const Conv2dGeom& g);

  // Q8 block codec (quant.hpp): int8 blocks of quant::kQ8Block with one f32
  // scale each. Bitwise-identical across targets on finite inputs.

  /// Quantize x[0..n): scales[b] = amax_b/127, q[i] = RNE(x[i] * 127/amax_b).
  void (*q8_encode)(const float* x, std::int8_t* q, float* scales,
                    std::size_t n);
  /// out[i] = scales[i / kQ8Block] * q[i].
  void (*q8_decode)(const std::int8_t* q, const float* scales, float* out,
                    std::size_t n);
  /// y[i] += (s * scales[i / kQ8Block]) * q[i] — dequant-free accumulate
  /// (one scalar multiply per block, unfused mul-then-add per element).
  void (*q8_axpy)(float* y, float s, const std::int8_t* q, const float* scales,
                  std::size_t n);
};

/// The table selected for this process. Resolved once on first use
/// (REFFIL_ISA override, else best supported); stable for the process
/// lifetime.
const Kernels& active();

/// active().name — what `reffil_run --json` reports as "isa".
const char* active_name();

/// Look up a compiled-in target by name ("scalar" | "avx2").
/// Returns nullptr when the name is unknown or the target was not compiled
/// into this binary. The result may still fail host_supports().
const Kernels* by_name(std::string_view name);

/// True when the running CPU can execute this target's code.
bool host_supports(const Kernels& k);

/// Every target compiled into this binary, scalar first.
std::vector<const Kernels*> compiled();

/// compiled() filtered by host_supports() — the targets the cross-ISA
/// equivalence suite can actually run on this machine.
std::vector<const Kernels*> runnable();

}  // namespace reffil::tensor::kern
