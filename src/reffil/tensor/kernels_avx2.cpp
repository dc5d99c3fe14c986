// "avx2" dispatch target: 8-lane FMA kernels for x86-64. This translation
// unit — and ONLY this one — is compiled with -mavx2 -mfma (see
// src/CMakeLists.txt), so nothing outside the table below may emit AVX2
// instructions and the fat binary still starts on baseline x86-64; the
// dispatcher only hands out this table after __builtin_cpu_supports says
// the running CPU has both AVX2 and FMA.

#include "reffil/tensor/kernels_dispatch.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <vector>

#include "reffil/tensor/kernels.hpp"
#include "reffil/tensor/quant.hpp"

namespace reffil::tensor::kern {
namespace avx2 {

using vfloat = __m256;
inline constexpr std::size_t kLanes = 8;

inline vfloat vload(const float* p) { return _mm256_loadu_ps(p); }
inline void vstore(float* p, vfloat v) { _mm256_storeu_ps(p, v); }
inline vfloat vbroadcast(float x) { return _mm256_set1_ps(x); }
inline vfloat vadd(vfloat a, vfloat b) { return _mm256_add_ps(a, b); }
inline vfloat vsub(vfloat a, vfloat b) { return _mm256_sub_ps(a, b); }
inline vfloat vmul(vfloat a, vfloat b) { return _mm256_mul_ps(a, b); }
// maxps/minps return the second operand when either input is NaN, so with
// the data in the second slot NaN propagates through vexp's range clamp.
inline vfloat vmax(vfloat a, vfloat b) { return _mm256_max_ps(a, b); }
inline vfloat vmin(vfloat a, vfloat b) { return _mm256_min_ps(a, b); }
inline vfloat vfma(vfloat a, vfloat b, vfloat acc) {
  return _mm256_fmadd_ps(a, b, acc);
}
inline float fma1(float a, float b, float acc) {
  return __builtin_fmaf(a, b, acc);  // vfmadd*ss under -mfma: same rounding
}
inline vfloat vround_nearest(vfloat v) {
  return _mm256_round_ps(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
}
// NLE_UQ is true where !(x <= 0), including NaN lanes; and-ing with that
// mask keeps g there and leaves +0 (all bits clear) elsewhere.
inline vfloat vpass_unless_le0(vfloat x, vfloat g) {
  return _mm256_and_ps(_mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_NLE_UQ), g);
}
inline vfloat vpow2i(vfloat n) {
  const __m256i e =
      _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127));
  return _mm256_castsi256_ps(_mm256_slli_epi32(e, 23));
}

/// Fixed-order lane reductions: deterministic per target (the order is a
/// compile-time property of this function, not of the caller's partition).
inline float vreduce_add(vfloat v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x1));
  return _mm_cvtss_f32(s);
}
inline float vreduce_max(vfloat v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_max_ps(lo, hi);
  s = _mm_max_ps(s, _mm_movehl_ps(s, s));
  s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 0x1));
  return _mm_cvtss_f32(s);
}

// ---- Q8 block codec --------------------------------------------------------
// Bitwise-identical to detail::q8_* on finite inputs: the abs-max reduction
// is exact, 127/amax and amax/127 round once, _mm256_cvtps_epi32 rounds
// nearest-even under the (default, never changed) MXCSR mode — the same
// rounding nearbyintf performs in the scalar reference — and the clamp to
// [-127, 127] cannot fire on finite data (it only keeps non-finite inputs
// defined). Partial tail blocks delegate to the scalar reference.

inline void q8_encode(const float* x, std::int8_t* q, float* scales,
                      std::size_t n) {
  const std::size_t nfull = n - n % quant::kQ8Block;
  const __m256 abs_mask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  const __m256 lo = _mm256_set1_ps(-127.0f);
  const __m256 hi = _mm256_set1_ps(127.0f);
  // packs_epi32 + packs_epi16 interleave 128-bit lanes; this permutation of
  // 32-bit groups restores the natural 0..31 byte order.
  const __m256i unshuffle = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  for (std::size_t b0 = 0; b0 < nfull; b0 += quant::kQ8Block) {
    const __m256 v0 = _mm256_loadu_ps(x + b0);
    const __m256 v1 = _mm256_loadu_ps(x + b0 + 8);
    const __m256 v2 = _mm256_loadu_ps(x + b0 + 16);
    const __m256 v3 = _mm256_loadu_ps(x + b0 + 24);
    const __m256 a01 = _mm256_max_ps(_mm256_and_ps(v0, abs_mask),
                                     _mm256_and_ps(v1, abs_mask));
    const __m256 a23 = _mm256_max_ps(_mm256_and_ps(v2, abs_mask),
                                     _mm256_and_ps(v3, abs_mask));
    const float amax = vreduce_max(_mm256_max_ps(a01, a23));
    float* scale = scales + b0 / quant::kQ8Block;
    if (!(amax >= quant::kQ8TinyAmax)) {
      *scale = 0.0f;
      std::memset(q + b0, 0, quant::kQ8Block);
      continue;
    }
    *scale = amax / 127.0f;
    const __m256 vis = _mm256_set1_ps(127.0f / amax);
    const auto quantize = [&](__m256 v) {
      const __m256 t =
          _mm256_min_ps(_mm256_max_ps(_mm256_mul_ps(v, vis), lo), hi);
      return _mm256_cvtps_epi32(t);  // MXCSR default: round-nearest-even
    };
    const __m256i i0 = quantize(v0);
    const __m256i i1 = quantize(v1);
    const __m256i i2 = quantize(v2);
    const __m256i i3 = quantize(v3);
    const __m256i p01 = _mm256_packs_epi32(i0, i1);
    const __m256i p23 = _mm256_packs_epi32(i2, i3);
    const __m256i packed = _mm256_permutevar8x32_epi32(
        _mm256_packs_epi16(p01, p23), unshuffle);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + b0), packed);
  }
  if (nfull != n) {
    detail::q8_encode(x + nfull, q + nfull, scales + nfull / quant::kQ8Block,
                      n - nfull);
  }
}

inline void q8_decode(const std::int8_t* q, const float* scales, float* out,
                      std::size_t n) {
  const std::size_t nfull = n - n % quant::kQ8Block;
  for (std::size_t b0 = 0; b0 < nfull; b0 += quant::kQ8Block) {
    const __m256 vs = _mm256_set1_ps(scales[b0 / quant::kQ8Block]);
    for (std::size_t i = 0; i < quant::kQ8Block; i += 8) {
      const __m128i bytes = _mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(q + b0 + i));
      const __m256 qf = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(bytes));
      _mm256_storeu_ps(out + b0 + i, _mm256_mul_ps(vs, qf));
    }
  }
  if (nfull != n) {
    detail::q8_decode(q + nfull, scales + nfull / quant::kQ8Block, out + nfull,
                      n - nfull);
  }
}

inline void q8_axpy(float* y, float s, const std::int8_t* q,
                    const float* scales, std::size_t n) {
  const std::size_t nfull = n - n % quant::kQ8Block;
  for (std::size_t b0 = 0; b0 < nfull; b0 += quant::kQ8Block) {
    const __m256 vc = _mm256_set1_ps(s * scales[b0 / quant::kQ8Block]);
    for (std::size_t i = 0; i < quant::kQ8Block; i += 8) {
      const __m128i bytes = _mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(q + b0 + i));
      const __m256 qf = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(bytes));
      // Unfused mul-then-add, matching the scalar reference bitwise.
      _mm256_storeu_ps(y + b0 + i, _mm256_add_ps(_mm256_loadu_ps(y + b0 + i),
                                                 _mm256_mul_ps(vc, qf)));
    }
  }
  if (nfull != n) {
    detail::q8_axpy(y + nfull, s, q + nfull, scales + nfull / quant::kQ8Block,
                    n - nfull);
  }
}

#define REFFIL_KERN_ISA_NAME "avx2"
#include "reffil/tensor/kernels_simd.inl"
#undef REFFIL_KERN_ISA_NAME

}  // namespace avx2

const Kernels* avx2_table() { return &avx2::kTable; }

}  // namespace reffil::tensor::kern

#else  // !(__AVX2__ && __FMA__)

namespace reffil::tensor::kern {
const Kernels* avx2_table() { return nullptr; }
}  // namespace reffil::tensor::kern

#endif
