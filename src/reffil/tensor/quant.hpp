// Block-quantized tensor codecs (DESIGN.md §13).
//
// Two lossy codecs back the compressed federated wire format:
//
//  * Q8: ggml-style block quantization — int8 blocks of kQ8Block values with
//    one f32 scale per block (scale = amax/127, q = round-nearest-even of
//    value * 127/amax). 1.125 bytes/value, ~3.6x smaller than f32, relative
//    error bounded by amax/254 per block.
//  * F16: IEEE half precision with round-nearest-even. 2 bytes/value. The
//    conversion clamps overflow to +-65504 (max finite half) so a decoded
//    value is always finite when the input was — Tensor::deserialize's
//    finiteness contract survives a f16 round trip.
//
// The Q8 encode/decode/axpy primitives are dispatch-table kernels (scalar
// reference below, the AVX2 target in its TU). On finite inputs they
// are BITWISE-IDENTICAL across every target — stronger than the matmul 1e-5
// contract — because every step is exact or identically rounded: the amax
// reduction is an exact max, 127/amax and amax/127 are single f32 divides,
// rounding is round-nearest-even in every target (nearbyintf under the
// default FE_TONEAREST mode == cvtps RNE), int8->f32 conversion
// is exact, and the axpy multiplies then adds unfused. Non-finite inputs
// produce target-defined (but per-target deterministic) bytes and never UB:
// the quantized product is clamped to [-127, 127] before conversion.
//
// The f16 codec is pure scalar bit manipulation shared by every target
// (one definition, bitwise everywhere by construction).
#pragma once

#include <cstddef>
#include <cstdint>

namespace reffil::tensor {

namespace quant {

/// Values per Q8 block (one f32 scale each). 32 matches ggml's Q8_0 and
/// gives a 1/32 scale overhead; the last block of a span may be partial.
inline constexpr std::size_t kQ8Block = 32;

inline constexpr std::size_t q8_num_blocks(std::size_t n) {
  return (n + kQ8Block - 1) / kQ8Block;
}

/// Encoded bytes for n values: one f32 scale per block + one int8 per value.
inline constexpr std::size_t q8_encoded_bytes(std::size_t n) {
  return q8_num_blocks(n) * sizeof(float) + n;
}

/// Blocks whose max |value| falls below this quantize to scale 0 and an
/// all-zero block: 127/amax must stay finite, and far above the threshold
/// where int8 quantization preserves any information anyway.
inline constexpr float kQ8TinyAmax = 1e-36f;

/// f32 -> IEEE half with round-nearest-even; +-Inf/NaN and finite overflow
/// clamp to +-65504 (max finite half), so finite-in implies finite-out.
std::uint16_t f32_to_f16(float value);
/// IEEE half -> f32, exact (every half is representable in f32).
float f16_to_f32(std::uint16_t half);

/// True when the half's exponent field is not all-ones (Inf/NaN). Frame
/// decoders reject non-finite halves to uphold the state finiteness
/// invariant (our encoder never emits them).
inline constexpr bool f16_is_finite(std::uint16_t half) {
  return (half & 0x7C00u) != 0x7C00u;
}

void f16_encode_span(const float* x, std::uint16_t* out, std::size_t n);
void f16_decode_span(const std::uint16_t* h, float* out, std::size_t n);

}  // namespace quant

namespace detail {

// Scalar reference Q8 kernels, defined out-of-line in exactly one
// baseline-flags TU (quant.cpp) because every dispatch table takes their
// addresses — an inline definition would let the AVX2 TU instantiate a copy
// under -mavx2 and hand the dispatcher a pointer to AVX2-encoded "scalar"
// code.

/// Quantize x[0..n) into int8 blocks of quant::kQ8Block with one f32 scale
/// per block: scales[b] = amax_b / 127, q[i] = RNE(x[i] * 127/amax_b),
/// clamped to [-127, 127]; blocks with amax < kQ8TinyAmax become scale 0,
/// q 0. `scales` must hold q8_num_blocks(n) entries.
void q8_encode(const float* x, std::int8_t* q, float* scales, std::size_t n);

/// out[i] = scales[i / kQ8Block] * q[i].
void q8_decode(const std::int8_t* q, const float* scales, float* out,
               std::size_t n);

/// y[i] += (s * scales[i / kQ8Block]) * q[i] — the dequant-free FedAvg
/// accumulate: one scalar multiply per block, then unfused mul-then-add per
/// element, so the f32 update is never materialized and the result is
/// bitwise-identical across targets and accumulation partitions.
void q8_axpy(float* y, float s, const std::int8_t* q, const float* scales,
             std::size_t n);

}  // namespace detail

}  // namespace reffil::tensor
