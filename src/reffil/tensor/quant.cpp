// Scalar reference implementations of the quantized codecs — the single
// baseline-flags definitions every dispatch table points at (see quant.hpp
// for the ODR rationale) and the bitwise anchor the AVX2 q8 kernels are
// tested against.

#include "reffil/tensor/quant.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace reffil::tensor {

namespace quant {

std::uint16_t f32_to_f16(float value) {
  // Round-nearest-even f32 -> f16 via the usual exponent-rebias trick:
  // subnormal halves are produced by adding a magic constant so the float
  // rounding hardware performs the shift+round, normal halves by rebiasing
  // and adding half an ulp (+ the parity bit for ties-to-even).
  // Everything at or above 65520.0f (the 65504 | Inf rounding midpoint,
  // ties-to-even) — including Inf and NaN — clamps to the max finite half.
  constexpr std::uint32_t kF16OverflowAsF32 = 0x477FF000u;  // 65520.0f
  constexpr std::uint32_t kDenormMagic = ((127u - 15u) + (23u - 10u) + 1u)
                                         << 23;
  std::uint32_t f;
  std::memcpy(&f, &value, sizeof(f));
  const std::uint16_t sign = static_cast<std::uint16_t>((f >> 16) & 0x8000u);
  f &= 0x7FFFFFFFu;

  std::uint16_t out;
  if (f >= kF16OverflowAsF32) {
    // Finite overflow, Inf and NaN all clamp to the max finite half: the
    // wire format promises finite-in -> finite-out, and callers feed finite
    // data (Tensor invariant).
    out = 0x7BFFu;  // 65504
  } else if (f < (113u << 23)) {  // < 2^-14: subnormal half (or zero)
    float tmp;
    std::memcpy(&tmp, &f, sizeof(tmp));
    float magic;
    std::memcpy(&magic, &kDenormMagic, sizeof(magic));
    tmp += magic;  // hardware performs shift + round-nearest-even
    std::uint32_t bits;
    std::memcpy(&bits, &tmp, sizeof(bits));
    out = static_cast<std::uint16_t>(bits - kDenormMagic);
  } else {
    const std::uint32_t mant_odd = (f >> 13) & 1u;  // ties-to-even parity
    f += (static_cast<std::uint32_t>(15 - 127) << 23) + 0xFFFu;
    f += mant_odd;
    out = static_cast<std::uint16_t>(f >> 13);
  }
  return static_cast<std::uint16_t>(out | sign);
}

float f16_to_f32(std::uint16_t half) {
  constexpr std::uint32_t kShiftedExp = 0x7C00u << 13;
  constexpr std::uint32_t kMagic = 113u << 23;
  std::uint32_t bits = static_cast<std::uint32_t>(half & 0x7FFFu) << 13;
  const std::uint32_t exp = bits & kShiftedExp;
  bits += (127u - 15u) << 23;  // rebias exponent
  if (exp == kShiftedExp) {
    bits += (128u - 16u) << 23;  // Inf/NaN: extend exponent to all-ones
  } else if (exp == 0) {
    // Subnormal half: renormalize through a float subtract.
    bits += 1u << 23;
    float tmp;
    std::memcpy(&tmp, &bits, sizeof(tmp));
    float magic;
    std::memcpy(&magic, &kMagic, sizeof(magic));
    tmp -= magic;
    std::memcpy(&bits, &tmp, sizeof(bits));
  }
  bits |= static_cast<std::uint32_t>(half & 0x8000u) << 16;
  float out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

void f16_encode_span(const float* x, std::uint16_t* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = f32_to_f16(x[i]);
}

void f16_decode_span(const std::uint16_t* h, float* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = f16_to_f32(h[i]);
}

}  // namespace quant

namespace detail {

void q8_encode(const float* x, std::int8_t* q, float* scales, std::size_t n) {
  for (std::size_t b0 = 0, blk = 0; b0 < n; b0 += quant::kQ8Block, ++blk) {
    const std::size_t m = std::min(quant::kQ8Block, n - b0);
    float amax = 0.0f;
    for (std::size_t i = 0; i < m; ++i) {
      amax = std::max(amax, std::fabs(x[b0 + i]));
    }
    if (!(amax >= quant::kQ8TinyAmax)) {
      scales[blk] = 0.0f;
      std::memset(q + b0, 0, m);
      continue;
    }
    const float iscale = 127.0f / amax;
    scales[blk] = amax / 127.0f;
    for (std::size_t i = 0; i < m; ++i) {
      // amax * (127/amax) <= 127 * (1 + 2^-23), which still rounds to 127,
      // so the clamp only fires on non-finite inputs — it keeps the f->i8
      // conversion defined there (matching the SIMD targets' saturation)
      // without changing any finite result.
      float t = x[b0 + i] * iscale;
      t = t >= -127.0f ? t : -127.0f;
      t = t <= 127.0f ? t : 127.0f;
      // Round-nearest-even under the (never changed) default rounding mode —
      // identical to _mm256_cvtps_epi32.
      q[b0 + i] = static_cast<std::int8_t>(std::nearbyintf(t));
    }
  }
}

void q8_decode(const std::int8_t* q, const float* scales, float* out,
               std::size_t n) {
  for (std::size_t b0 = 0, blk = 0; b0 < n; b0 += quant::kQ8Block, ++blk) {
    const std::size_t m = std::min(quant::kQ8Block, n - b0);
    const float scale = scales[blk];
    for (std::size_t i = 0; i < m; ++i) {
      out[b0 + i] = scale * static_cast<float>(q[b0 + i]);
    }
  }
}

void q8_axpy(float* y, float s, const std::int8_t* q, const float* scales,
             std::size_t n) {
  for (std::size_t b0 = 0, blk = 0; b0 < n; b0 += quant::kQ8Block, ++blk) {
    const std::size_t m = std::min(quant::kQ8Block, n - b0);
    const float c = s * scales[blk];  // one rounding per block
    for (std::size_t i = 0; i < m; ++i) {
      // Unfused mul-then-add, like axpy_span: bitwise-identical across
      // targets.
      y[b0 + i] += c * static_cast<float>(q[b0 + i]);
    }
  }
}

}  // namespace detail

}  // namespace reffil::tensor
