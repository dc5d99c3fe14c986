// "scalar" dispatch target: the portable reference kernels, compiled with
// the project's baseline flags only. This target exists on every build and
// is the bitwise-determinism anchor — the cross-ISA equivalence suite
// measures every other target against it, and REFFIL_ISA=scalar pins a run
// to it for reproducibility across heterogeneous fleets.

#include "reffil/tensor/kernels.hpp"
#include "reffil/tensor/kernels_dispatch.hpp"
#include "reffil/tensor/quant.hpp"

namespace reffil::tensor::kern {

namespace scalar {

/// Without vector registers a short j sweep costs more in loop overhead
/// than it computes: vectorize the weight gradient over taps, not output
/// channels (kernels_conv.inl).
inline constexpr bool kConvWeightGradOverChannels = false;
/// Whole SSE blocks: the rows of the wide grid stay 16-byte aligned.
inline constexpr std::size_t kConvGridAlign = 4;

/// o[j] += a * b[j]; the restrict parameters let the sweep vectorize
/// without a runtime overlap check (`o` never aliases an operand).
inline void madd_row(float* __restrict o, float a, const float* __restrict b,
                     std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) o[j] += a * b[j];
}

/// madd_row for four output rows sharing one b row: each b load feeds four
/// rows, and every element still gets exactly one multiply-add.
inline void madd_rows4(float* __restrict o0, float* __restrict o1,
                       float* __restrict o2, float* __restrict o3, float a0,
                       float a1, float a2, float a3,
                       const float* __restrict b, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    const float bj = b[j];
    o0[j] += a0 * bj;
    o1[j] += a1 * bj;
    o2[j] += a2 * bj;
    o3[j] += a3 * bj;
  }
}

/// out[di*o_is + dj] += sum_dk arow(di)[dk] * brow(dk)[dj], dk ascending,
/// unfused — per element the same chain as detail::matmul_rows_*. Kept out
/// of line: inlined into the conv kernels' larger bodies, its j sweep was
/// measured spilling loop state to the stack.
template <class ARow, class BRow>
[[gnu::noinline]] void accum_tile(ARow arow, BRow brow, float* out,
                                  std::size_t o_is, std::size_t ib,
                                  std::size_t jb, std::size_t kb) {
  std::size_t di = 0;
  for (; di + 4 <= ib; di += 4) {
    const auto a0 = arow(di), a1 = arow(di + 1), a2 = arow(di + 2),
               a3 = arow(di + 3);
    float* o = out + di * o_is;
    for (std::size_t dk = 0; dk < kb; ++dk) {
      madd_rows4(o, o + o_is, o + 2 * o_is, o + 3 * o_is, a0[dk], a1[dk],
                 a2[dk], a3[dk], brow(dk), jb);
    }
  }
  for (; di < ib; ++di) {
    const auto a = arow(di);
    for (std::size_t dk = 0; dk < kb; ++dk) {
      madd_row(out + di * o_is, a[dk], brow(dk), jb);
    }
  }
}

#include "reffil/tensor/kernels_conv.inl"

}  // namespace scalar

namespace {

constexpr Kernels kScalarTable = {
    "scalar",
    &detail::matmul_rows_nn,
    &detail::matmul_rows_nt,
    &detail::matmul_rows_tn,
    &detail::add_span,
    &detail::axpy_span,
    &detail::scale_span,
    &detail::softmax_rows,
    &detail::log_softmax_rows,
    &detail::relu_backward_span,
    &scalar::conv2d_forward,
    &scalar::conv2d_weight_grad,
    &scalar::conv2d_input_grad,
    &detail::q8_encode,
    &detail::q8_decode,
    &detail::q8_axpy,
};

}  // namespace

const Kernels* scalar_table() { return &kScalarTable; }

}  // namespace reffil::tensor::kern
