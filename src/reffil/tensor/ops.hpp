// Non-differentiable tensor operations.
//
// These are plain numeric kernels; the autograd layer composes them into
// differentiable ops. All binary ops require exactly matching shapes except
// the *_scalar variants — implicit broadcasting is deliberately absent to
// keep shape errors loud (Core Guidelines P.4: compile/run-time checkable
// interfaces).
//
// Every kernel runs serially on the calling thread; parallelism lives above
// this layer (client slots and evaluation), so numerics never depend on
// thread count.
#pragma once


#include "reffil/tensor/kernels_dispatch.hpp"
#include "reffil/tensor/tensor.hpp"
#include "reffil/util/rng.hpp"

namespace reffil::tensor {

// ---- construction -----------------------------------------------------------
Tensor zeros(Shape shape);
Tensor ones(Shape shape);
Tensor full(Shape shape, float value);
/// I.i.d. N(mean, stddev) entries.
Tensor randn(Shape shape, util::Rng& rng, float mean = 0.0f, float stddev = 1.0f);
/// I.i.d. U[lo, hi) entries.
Tensor rand_uniform(Shape shape, util::Rng& rng, float lo = 0.0f, float hi = 1.0f);

// ---- elementwise ------------------------------------------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);
Tensor neg(const Tensor& a);

// Destination forms of the elementwise family. Each overwrites a
// preallocated `out` of the input's shape and runs the exact loop of its
// allocating twin (same blocking, same per-element order), so results are
// bitwise identical — these exist so graph-replay closures and backward
// scratch can reuse arena/pool storage instead of allocating. `out` may not
// alias an input except where noted.
void add_into(const Tensor& a, const Tensor& b, Tensor& out);
void sub_into(const Tensor& a, const Tensor& b, Tensor& out);
void mul_into(const Tensor& a, const Tensor& b, Tensor& out);
void div_into(const Tensor& a, const Tensor& b, Tensor& out);
void add_scalar_into(const Tensor& a, float s, Tensor& out);
void mul_scalar_into(const Tensor& a, float s, Tensor& out);
void neg_into(const Tensor& a, Tensor& out);
void exp_into(const Tensor& a, Tensor& out);
void log_into(const Tensor& a, Tensor& out);
void tanh_into(const Tensor& a, Tensor& out);
void relu_into(const Tensor& a, Tensor& out);
/// Shape-checked elementwise copy a -> out.
void copy_into(const Tensor& a, Tensor& out);
/// ReLU backward: out = x <= 0 ? +0 : g (a NaN x passes g through).
void relu_backward_into(const Tensor& x, const Tensor& g, Tensor& out);

/// a += b (in place, same shape).
void add_inplace(Tensor& a, const Tensor& b);
/// a += blocks[n-1]; a += blocks[n-2]; ...; a += blocks[0], where `blocks`
/// holds n runs of a.numel() floats: bitwise those n add_inplace calls, in
/// one sweep (the ordered fold of per-sample gradient partials).
void fold_add_inplace(Tensor& a, const float* blocks, std::size_t n);
/// a += s * b (axpy, same shape).
void axpy_inplace(Tensor& a, float s, const Tensor& b);
/// a *= s.
void scale_inplace(Tensor& a, float s);

// ---- linear algebra ---------------------------------------------------------
// The matmul family is cache-tiled over i/j with k streamed in order, so the
// tiled kernels are bitwise identical to the plain triple loop. The _nt/_tn
// fused variants read the transposed operand in place — matmul_nt(a, b) ==
// matmul(a, transpose2d(b)) and matmul_tn(a, b) == matmul(transpose2d(a), b)
// bitwise, with no transposed temporary ever materialized. The *_into forms
// overwrite a preallocated output (for pool::Scratch reuse on the autograd
// backward path). With samples > 1 the operands of an *_into form are
// `samples` equal row blocks and block s of `out` is block s's product —
// bitwise the one-block call on that block — under one profiler span.
/// 2-D matrix product [m,k]x[k,n] -> [m,n].
Tensor matmul(const Tensor& a, const Tensor& b);
void matmul_into(const Tensor& a, const Tensor& b, Tensor& out,
                 std::size_t samples = 1);
/// Fused a·bᵀ: [m,k]x[n,k] -> [m,n].
Tensor matmul_nt(const Tensor& a, const Tensor& b);
void matmul_nt_into(const Tensor& a, const Tensor& b, Tensor& out,
                    std::size_t samples = 1);
/// Fused aᵀ·b: [k,m]x[k,n] -> [m,n].
Tensor matmul_tn(const Tensor& a, const Tensor& b);
void matmul_tn_into(const Tensor& a, const Tensor& b, Tensor& out,
                    std::size_t samples = 1);
/// 2-D transpose.
Tensor transpose2d(const Tensor& a);
void transpose2d_into(const Tensor& a, Tensor& out);
/// Matrix-vector product [m,k]x[k] -> [m].
Tensor matvec(const Tensor& a, const Tensor& x);

// ---- direct convolution -----------------------------------------------------
// Drivers for the dispatch-table conv kernels (kernels_dispatch.hpp). `g`
// describes every shape: input [n,cin,h,w], weight [cout, cin*kh*kw], bias
// [cout], output [n,cout,hout,wout]; the caller validates them. Each call
// overwrites its output.
void conv2d_into(const Tensor& input, const Tensor& weight, const Tensor& bias,
                 const kern::Conv2dGeom& g, Tensor& out);
/// Per-sample weight-gradient partials dweight[n, cout, cin*kh*kw] from the
/// input and the output gradient (not summed over samples).
void conv2d_weight_grad_into(const Tensor& input, const Tensor& grad_out,
                             const kern::Conv2dGeom& g, Tensor& dweight);
/// dinput[n, cin, h, w] from the weight and the output gradient.
void conv2d_input_grad_into(const Tensor& weight, const Tensor& grad_out,
                            const kern::Conv2dGeom& g, Tensor& dinput);

// ---- reductions -------------------------------------------------------------
float sum_all(const Tensor& a);
float mean_all(const Tensor& a);
float max_all(const Tensor& a);
/// Column sums of a 2-D tensor: [m,n] -> [n].
Tensor sum_rows(const Tensor& a);
/// Column sums into a preallocated out with numel n (shape is not changed).
void sum_rows_into(const Tensor& a, Tensor& out);
/// Mean over axis 0 of a 2-D tensor: [m,n] -> [n].
Tensor mean_rows(const Tensor& a);

// ---- vector geometry --------------------------------------------------------
float dot(const Tensor& a, const Tensor& b);
float l2_norm(const Tensor& a);
/// cos(a, b) with epsilon-guarded denominators; inputs are flattened.
float cosine_similarity(const Tensor& a, const Tensor& b);

// ---- row-wise softmax family -------------------------------------------------
/// Numerically stable row softmax of a 2-D tensor.
Tensor softmax_rows(const Tensor& logits);
void softmax_rows_into(const Tensor& logits, Tensor& out);
/// Numerically stable row log-softmax of a 2-D tensor.
Tensor log_softmax_rows(const Tensor& logits);
void log_softmax_rows_into(const Tensor& logits, Tensor& out);
/// Index of the max element in each row: [m,n] -> vector<size_t> of length m.
std::vector<std::size_t> argmax_rows(const Tensor& logits);

// ---- structure ---------------------------------------------------------------
/// Concatenate 2-D tensors along axis 1 (same row count).
Tensor concat_cols(const Tensor& a, const Tensor& b);
/// Concatenate 2-D tensors along axis 0 (same column count).
Tensor concat_rows(const Tensor& a, const Tensor& b);
/// Copy of rows [begin, end) of a 2-D tensor.
Tensor slice_rows(const Tensor& a, std::size_t begin, std::size_t end);
/// Copy of row r of a 2-D tensor as a 1-D tensor.
Tensor row(const Tensor& a, std::size_t r);

}  // namespace reffil::tensor
