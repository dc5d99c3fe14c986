// "neon" dispatch target: 4-lane FMA kernels for aarch64. NEON (ASIMD) is
// baseline on aarch64, so unlike the AVX2 TU this one needs no special
// compile flags — the guard below simply compiles it out on other
// architectures. armv7 NEON is intentionally excluded: the kernels rely on
// aarch64-only round/reduce instructions (vrndnq/vmaxvq/vcvtnq) and armv7
// NEON is not fully IEEE-compliant (flush-to-zero), which would break the
// per-target determinism contract.

#include "reffil/tensor/kernels_dispatch.hpp"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <vector>

#include "reffil/tensor/kernels.hpp"
#include "reffil/tensor/quant.hpp"

namespace reffil::tensor::kern {
namespace neon {

using vfloat = float32x4_t;
inline constexpr std::size_t kLanes = 4;

inline vfloat vload(const float* p) { return vld1q_f32(p); }
inline void vstore(float* p, vfloat v) { vst1q_f32(p, v); }
inline vfloat vbroadcast(float x) { return vdupq_n_f32(x); }
inline vfloat vadd(vfloat a, vfloat b) { return vaddq_f32(a, b); }
inline vfloat vsub(vfloat a, vfloat b) { return vsubq_f32(a, b); }
inline vfloat vmul(vfloat a, vfloat b) { return vmulq_f32(a, b); }
// vmaxq/vminq propagate NaN lanewise (default NaN behavior on aarch64).
inline vfloat vmax(vfloat a, vfloat b) { return vmaxq_f32(a, b); }
inline vfloat vmin(vfloat a, vfloat b) { return vminq_f32(a, b); }
inline vfloat vfma(vfloat a, vfloat b, vfloat acc) {
  return vfmaq_f32(acc, a, b);
}
inline float fma1(float a, float b, float acc) {
  return __builtin_fmaf(a, b, acc);  // single fmadd instruction on aarch64
}
inline vfloat vround_nearest(vfloat v) { return vrndnq_f32(v); }
// vcleq is all-ones where x <= 0 (false for NaN); bic clears those lanes
// of g to +0 and keeps g elsewhere.
inline vfloat vpass_unless_le0(vfloat x, vfloat g) {
  const uint32x4_t le0 = vcleq_f32(x, vdupq_n_f32(0.0f));
  return vreinterpretq_f32_u32(vbicq_u32(vreinterpretq_u32_f32(g), le0));
}
inline vfloat vpow2i(vfloat n) {
  const int32x4_t e = vaddq_s32(vcvtnq_s32_f32(n), vdupq_n_s32(127));
  return vreinterpretq_f32_s32(vshlq_n_s32(e, 23));
}

/// Fixed-order lane reductions (pairwise, same shape as the AVX2 target).
inline float vreduce_add(vfloat v) {
  const float32x2_t s = vadd_f32(vget_low_f32(v), vget_high_f32(v));
  return vget_lane_f32(vpadd_f32(s, s), 0);
}
inline float vreduce_max(vfloat v) { return vmaxvq_f32(v); }

// ---- Q8 block codec --------------------------------------------------------
// Bitwise-identical to detail::q8_* on finite inputs: vmaxvq is an exact
// max reduction, vcvtnq_s32_f32 is round-nearest-even (the same rounding
// nearbyintf performs under the default mode), int8 widening and the
// saturating narrows are exact for values the clamp bounds to [-127, 127].
// Partial tail blocks delegate to the scalar reference.

inline void q8_encode(const float* x, std::int8_t* q, float* scales,
                      std::size_t n) {
  const std::size_t nfull = n - n % quant::kQ8Block;
  const float32x4_t lo = vdupq_n_f32(-127.0f);
  const float32x4_t hi = vdupq_n_f32(127.0f);
  for (std::size_t b0 = 0; b0 < nfull; b0 += quant::kQ8Block) {
    float32x4_t vmaxabs = vabsq_f32(vld1q_f32(x + b0));
    for (std::size_t i = 4; i < quant::kQ8Block; i += 4) {
      vmaxabs = vmaxq_f32(vmaxabs, vabsq_f32(vld1q_f32(x + b0 + i)));
    }
    const float amax = vmaxvq_f32(vmaxabs);
    float* scale = scales + b0 / quant::kQ8Block;
    if (!(amax >= quant::kQ8TinyAmax)) {
      *scale = 0.0f;
      std::memset(q + b0, 0, quant::kQ8Block);
      continue;
    }
    *scale = amax / 127.0f;
    const float32x4_t vis = vdupq_n_f32(127.0f / amax);
    for (std::size_t i = 0; i < quant::kQ8Block; i += 16) {
      int16x8_t half[2];
      for (std::size_t h = 0; h < 2; ++h) {
        const float32x4_t t0 = vminq_f32(
            vmaxq_f32(vmulq_f32(vld1q_f32(x + b0 + i + 8 * h), vis), lo), hi);
        const float32x4_t t1 = vminq_f32(
            vmaxq_f32(vmulq_f32(vld1q_f32(x + b0 + i + 8 * h + 4), vis), lo),
            hi);
        half[h] = vcombine_s16(vqmovn_s32(vcvtnq_s32_f32(t0)),
                               vqmovn_s32(vcvtnq_s32_f32(t1)));
      }
      vst1q_s8(q + b0 + i, vcombine_s8(vqmovn_s16(half[0]),
                                       vqmovn_s16(half[1])));
    }
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
    const float32x4_t vs = vdupq_n_f32(scales[b0 / quant::kQ8Block]);
    for (std::size_t i = 0; i < quant::kQ8Block; i += 8) {
      const int16x8_t w = vmovl_s8(vld1_s8(q + b0 + i));
      const float32x4_t q0 = vcvtq_f32_s32(vmovl_s16(vget_low_s16(w)));
      const float32x4_t q1 = vcvtq_f32_s32(vmovl_s16(vget_high_s16(w)));
      vst1q_f32(out + b0 + i, vmulq_f32(vs, q0));
      vst1q_f32(out + b0 + i + 4, vmulq_f32(vs, q1));
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
    const float32x4_t vc = vdupq_n_f32(s * scales[b0 / quant::kQ8Block]);
    for (std::size_t i = 0; i < quant::kQ8Block; i += 8) {
      const int16x8_t w = vmovl_s8(vld1_s8(q + b0 + i));
      const float32x4_t q0 = vcvtq_f32_s32(vmovl_s16(vget_low_s16(w)));
      const float32x4_t q1 = vcvtq_f32_s32(vmovl_s16(vget_high_s16(w)));
      // Unfused mul-then-add, matching the scalar reference bitwise.
      vst1q_f32(y + b0 + i,
                vaddq_f32(vld1q_f32(y + b0 + i), vmulq_f32(vc, q0)));
      vst1q_f32(y + b0 + i + 4,
                vaddq_f32(vld1q_f32(y + b0 + i + 4), vmulq_f32(vc, q1)));
    }
  }
  if (nfull != n) {
    detail::q8_axpy(y + nfull, s, q + nfull, scales + nfull / quant::kQ8Block,
                    n - nfull);
  }
}

#define REFFIL_KERN_ISA_NAME "neon"
#include "reffil/tensor/kernels_simd.inl"
#undef REFFIL_KERN_ISA_NAME

}  // namespace neon

const Kernels* neon_table() { return &neon::kTable; }

}  // namespace reffil::tensor::kern

#else  // !aarch64

namespace reffil::tensor::kern {
const Kernels* neon_table() { return nullptr; }
}  // namespace reffil::tensor::kern

#endif
