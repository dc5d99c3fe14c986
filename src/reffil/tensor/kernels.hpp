// Scalar reference kernels (library-internal).
//
// These are the bodies behind the "scalar" entry of the runtime dispatch
// table (kernels_dispatch.hpp); the AVX2 target reimplements the same
// contracts with vector registers. ops.cpp reaches whichever target is
// active through the table.
//
// Determinism contract: for every output element out[i, j], the k-dimension
// is streamed in increasing order with one float accumulator. The i/j cache
// tiles only reorder *which* outputs are produced when, never the
// accumulation order within one output, so results are bitwise identical to
// the untiled loop.
//
// IEEE semantics: every a[i,k] * b[k,j] product participates in the sum.
// The historical `if (aik == 0.0f) continue;` shortcut is gone — it never
// changed a finite result (adding the exact ±0 product of 0 * finite to the
// accumulator is a no-op, and the accumulator can never be -0 under
// round-to-nearest), but it silently masked non-finite operands: IEEE says
// 0 * NaN = NaN and 0 * Inf = NaN, and the transport layer's poison
// quarantine (DESIGN.md §10) relies on such NaNs surfacing downstream
// instead of vanishing inside a matmul.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <vector>

#include "reffil/tensor/kernels_dispatch.hpp"

namespace reffil::tensor::detail {

/// Cache-tile extents. kTileJ * kTileK floats of B (64 KiB) plus a row
/// stripe of the output stay L2-resident while K streams; the nt kernel's
/// pack buffer is the same kTileK x kTileJ footprint. The SIMD targets use
/// the same tiling, so per-element accumulation order matches across
/// targets (only the rounding of each step may differ).
inline constexpr std::size_t kTileJ = 128;
inline constexpr std::size_t kTileK = 128;

/// out[m, n] += a[m, K] * b[K, n]. `out` must be zero-filled on entry.
inline void matmul_rows_nn(const float* a, const float* b, float* out,
                           std::size_t m, std::size_t K, std::size_t n) {
  for (std::size_t j0 = 0; j0 < n; j0 += kTileJ) {
    const std::size_t j1 = std::min(n, j0 + kTileJ);
    for (std::size_t k0 = 0; k0 < K; k0 += kTileK) {
      const std::size_t k1 = std::min(K, k0 + kTileK);
      for (std::size_t i = 0; i < m; ++i) {
        const float* a_row = a + i * K;
        float* out_row = out + i * n;
        for (std::size_t kk = k0; kk < k1; ++kk) {
          const float aik = a_row[kk];
          const float* b_row = b + kk * n;
          for (std::size_t j = j0; j < j1; ++j) out_row[j] += aik * b_row[j];
        }
      }
    }
  }
}

/// out[m, n] += a[m, K] * b[n, K]^T. One kTileK x kTileJ
/// block of b at a time is transposed into a reused thread-local pack
/// buffer, then consumed by the same vectorizable j-sweep inner loop as the
/// nn kernel. A naive per-element dot over the rows of b would carry the
/// accumulator through every iteration and defeat vectorization (measured
/// ~5x slower); the pack buffer restores the nn kernel's throughput at a
/// constant 64 KiB footprint — never a full [K, n] transposed temporary,
/// never an allocation after the first call on a thread. Per output element
/// the accumulation still streams k upward, so results are bitwise
/// identical to matmul_rows_nn(a, transpose(b)). `out` must be
/// zero-filled.
inline void matmul_rows_nt(const float* a, const float* b, float* out,
                           std::size_t m, std::size_t K, std::size_t n) {
  thread_local std::vector<float> pack(kTileK * kTileJ);
  for (std::size_t j0 = 0; j0 < n; j0 += kTileJ) {
    const std::size_t j1 = std::min(n, j0 + kTileJ);
    const std::size_t jw = j1 - j0;
    for (std::size_t k0 = 0; k0 < K; k0 += kTileK) {
      const std::size_t k1 = std::min(K, k0 + kTileK);
      for (std::size_t j = j0; j < j1; ++j) {
        const float* b_row = b + j * K;
        for (std::size_t kk = k0; kk < k1; ++kk) {
          pack[(kk - k0) * jw + (j - j0)] = b_row[kk];
        }
      }
      for (std::size_t i = 0; i < m; ++i) {
        const float* a_row = a + i * K;
        float* out_row = out + i * n + j0;
        for (std::size_t kk = k0; kk < k1; ++kk) {
          const float aik = a_row[kk];
          const float* p_row = pack.data() + (kk - k0) * jw;
          for (std::size_t j = 0; j < jw; ++j) out_row[j] += aik * p_row[j];
        }
      }
    }
  }
}

/// out[m, n] += a[K, m]^T * b[K, n]. The k loop is the outer walk, so per
/// output element the accumulation order still streams k upward; a's
/// "column" a[., i] is read as the contiguous slice a[kk*m + i]. `out` must
/// be zero-filled.
inline void matmul_rows_tn(const float* a, const float* b, float* out,
                           std::size_t m, std::size_t K, std::size_t n) {
  for (std::size_t j0 = 0; j0 < n; j0 += kTileJ) {
    const std::size_t j1 = std::min(n, j0 + kTileJ);
    for (std::size_t kk = 0; kk < K; ++kk) {
      const float* a_col = a + kk * m;
      const float* b_row = b + kk * n;
      for (std::size_t i = 0; i < m; ++i) {
        const float aki = a_col[i];
        float* out_row = out + i * n;
        for (std::size_t j = j0; j < j1; ++j) out_row[j] += aki * b_row[j];
      }
    }
  }
}

// ---- elementwise spans -----------------------------------------------------
// Element-independent (no accumulator crosses elements); the SIMD targets
// deliberately use unfused mul-then-add to stay bitwise equal to these
// loops.

inline void add_span(float* y, const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += x[i];
}

inline void axpy_span(float* y, float s, const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += s * x[i];
}

inline void scale_span(float* y, float s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] *= s;
}

// ---- row-wise softmax ------------------------------------------------------
// Degenerate-row semantics (shared by every dispatch target): a row whose
// maximum is -inf (every logit -inf) has no information — the old code
// computed exp(-inf - -inf) = exp(NaN) and emitted a NaN row. Defined
// result: softmax returns the uniform distribution 1/n and log_softmax
// returns log(1/n) = -log(n), so exp(log_softmax(x)) == softmax(x) on every
// input. Rows containing NaN still propagate NaN (they are *poisoned*, not
// merely uninformative — the transport quarantine wants to see them).

inline void softmax_rows(const float* src, float* dst, std::size_t m,
                         std::size_t n) {
  if (n == 0) return;
  for (std::size_t i = 0; i < m; ++i) {
    const float* s = src + i * n;
    float* d = dst + i * n;
    const float mx = *std::max_element(s, s + n);
    if (mx == -std::numeric_limits<float>::infinity()) {
      std::fill(d, d + n, 1.0f / static_cast<float>(n));
      continue;
    }
    double total = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      d[j] = std::exp(s[j] - mx);
      total += d[j];
    }
    for (std::size_t j = 0; j < n; ++j) {
      d[j] = static_cast<float>(d[j] / total);
    }
  }
}

inline void log_softmax_rows(const float* src, float* dst, std::size_t m,
                             std::size_t n) {
  if (n == 0) return;
  for (std::size_t i = 0; i < m; ++i) {
    const float* s = src + i * n;
    float* d = dst + i * n;
    const float mx = *std::max_element(s, s + n);
    if (mx == -std::numeric_limits<float>::infinity()) {
      std::fill(d, d + n, -std::log(static_cast<float>(n)));
      continue;
    }
    double total = 0.0;
    for (std::size_t j = 0; j < n; ++j) total += std::exp(s[j] - mx);
    const float log_total = static_cast<float>(std::log(total));
    for (std::size_t j = 0; j < n; ++j) d[j] = s[j] - mx - log_total;
  }
}

// ---- ReLU backward ---------------------------------------------------------
// `x <= 0` is false for NaN, so a NaN input passes the gradient through;
// masked elements get +0. The SIMD targets select with a compare mask and
// produce the same bits.

inline void relu_backward_span(float* dx, const float* x, const float* g,
                               std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dx[i] = x[i] <= 0.0f ? 0.0f : g[i];
}

// ---- micro-kernel operand rows ---------------------------------------------
// Every target's accum_tile micro-kernel reads A(di, dk) = arow(di)[dk]
// through one of these accessors, so one register-blocked loop serves the
// matmul family (strided rows) and the direct conv kernels (taps gathered
// from a plane through an offset table).

/// A row stored with a fixed element stride: p[dk * stride].
struct StridedRow {
  const float* p;
  std::size_t stride;
  float operator[](std::size_t dk) const { return p[dk * stride]; }
};

/// A row gathered through an offset table: p[off[dk]].
struct GatherRow {
  const float* p;
  const std::size_t* off;
  float operator[](std::size_t dk) const { return p[off[dk]]; }
};

}  // namespace reffil::tensor::detail
