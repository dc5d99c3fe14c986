#include "reffil/tensor/ops.hpp"

#include <algorithm>
#include <cmath>

#include "reffil/tensor/kernels_dispatch.hpp"
#include "reffil/util/prof.hpp"

namespace reffil::tensor {

namespace {

/// The `elementwise` profiler span over an n-float sweep.
obs::prof::Span elementwise_span(std::size_t n) {
  return obs::prof::Span("elementwise", n * sizeof(float));
}

void require_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (a.shape() != b.shape()) {
    throw ShapeError(std::string(op) + ": " + shape_to_string(a.shape()) +
                     " vs " + shape_to_string(b.shape()));
  }
}

void require_rank2(const Tensor& a, const char* op) {
  if (a.rank() != 2) {
    throw ShapeError(std::string(op) + " requires rank-2, got " +
                     shape_to_string(a.shape()));
  }
}

void require_out_numel(const Tensor& ref, const Tensor& out, const char* op) {
  REFFIL_CHECK_MSG(out.numel() == ref.numel(),
                   std::string(op) + ": output numel mismatch");
}

void zip_into(const Tensor& a, const Tensor& b, const char* op,
              float (*f)(float, float), Tensor& out) {
  require_same_shape(a, b, op);
  require_out_numel(a, out, op);
  const float* pa = a.begin();
  const float* pb = b.begin();
  float* po = out.begin();
  const std::size_t n = a.numel();
  const auto span = elementwise_span(n);
  for (std::size_t i = 0; i < n; ++i) po[i] = f(pa[i], pb[i]);
}

Tensor zip(const Tensor& a, const Tensor& b, const char* op,
           float (*f)(float, float)) {
  require_same_shape(a, b, op);
  Tensor out(a.shape());
  zip_into(a, b, op, f, out);
  return out;
}

// F is a template parameter, not a function pointer, so the loop inlines it
// (relu compiles to branch-free max instead of a call per element).
template <typename F>
void scalar_op_into(const Tensor& a, const char* op, float s, F f,
                    Tensor& out) {
  require_out_numel(a, out, op);
  const float* pa = a.begin();
  float* po = out.begin();
  const std::size_t n = a.numel();
  const auto span = elementwise_span(n);
  for (std::size_t i = 0; i < n; ++i) po[i] = f(pa[i], s);
}

}  // namespace

Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor ones(Shape shape) { return full(std::move(shape), 1.0f); }

Tensor full(Shape shape, float value) {
  Tensor t(std::move(shape));
  std::fill(t.begin(), t.end(), value);
  return t;
}

Tensor randn(Shape shape, util::Rng& rng, float mean, float stddev) {
  Tensor t(std::move(shape));
  for (float& v : t) v = static_cast<float>(rng.normal(mean, stddev));
  return t;
}

Tensor rand_uniform(Shape shape, util::Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (float& v : t) v = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

Tensor add(const Tensor& a, const Tensor& b) {
  return zip(a, b, "add", [](float x, float y) { return x + y; });
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return zip(a, b, "sub", [](float x, float y) { return x - y; });
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return zip(a, b, "mul", [](float x, float y) { return x * y; });
}

Tensor add_scalar(const Tensor& a, float s) {
  Tensor out(a.shape());
  add_scalar_into(a, s, out);
  return out;
}

Tensor mul_scalar(const Tensor& a, float s) {
  Tensor out(a.shape());
  mul_scalar_into(a, s, out);
  return out;
}

Tensor neg(const Tensor& a) { return mul_scalar(a, -1.0f); }

void add_into(const Tensor& a, const Tensor& b, Tensor& out) {
  zip_into(a, b, "add_into", [](float x, float y) { return x + y; }, out);
}
void sub_into(const Tensor& a, const Tensor& b, Tensor& out) {
  zip_into(a, b, "sub_into", [](float x, float y) { return x - y; }, out);
}
void mul_into(const Tensor& a, const Tensor& b, Tensor& out) {
  zip_into(a, b, "mul_into", [](float x, float y) { return x * y; }, out);
}
void div_into(const Tensor& a, const Tensor& b, Tensor& out) {
  zip_into(a, b, "div_into", [](float x, float y) { return x / y; }, out);
}
void add_scalar_into(const Tensor& a, float s, Tensor& out) {
  scalar_op_into(a, "add_scalar_into", s,
                 [](float x, float v) { return x + v; }, out);
}
void mul_scalar_into(const Tensor& a, float s, Tensor& out) {
  scalar_op_into(a, "mul_scalar_into", s,
                 [](float x, float v) { return x * v; }, out);
}
void neg_into(const Tensor& a, Tensor& out) { mul_scalar_into(a, -1.0f, out); }
void exp_into(const Tensor& a, Tensor& out) {
  scalar_op_into(a, "exp_into", 0.0f,
                 [](float x, float) { return std::exp(x); }, out);
}
void log_into(const Tensor& a, Tensor& out) {
  scalar_op_into(a, "log_into", 0.0f,
                 [](float x, float) { return std::log(x); }, out);
}
void tanh_into(const Tensor& a, Tensor& out) {
  scalar_op_into(a, "tanh_into", 0.0f,
                 [](float x, float) { return std::tanh(x); }, out);
}
void relu_into(const Tensor& a, Tensor& out) {
  scalar_op_into(a, "relu_into", 0.0f,
                 [](float x, float) { return x > 0.0f ? x : 0.0f; }, out);
}
void copy_into(const Tensor& a, Tensor& out) {
  require_out_numel(a, out, "copy_into");
  std::copy(a.begin(), a.end(), out.begin());
}
void relu_backward_into(const Tensor& x, const Tensor& g, Tensor& out) {
  require_same_shape(x, g, "relu_backward_into");
  require_out_numel(x, out, "relu_backward_into");
  const float* px = x.begin();
  const float* pg = g.begin();
  float* po = out.begin();
  const auto span = elementwise_span(x.numel());
  kern::active().relu_backward(po, px, pg, x.numel());
}

void add_inplace(Tensor& a, const Tensor& b) {
  require_same_shape(a, b, "add_inplace");
  float* pa = a.begin();
  const float* pb = b.begin();
  const auto span = elementwise_span(a.numel());
  kern::active().add(pa, pb, a.numel());
}

void fold_add_inplace(Tensor& a, const float* blocks, std::size_t n) {
  const std::size_t size = a.numel();
  float* pa = a.begin();
  const kern::Kernels& k = kern::active();
  // Per element the same adds, in the same order, as n add_inplace calls.
  const auto span = elementwise_span(size);
  for (std::size_t s = n; s-- > 0;) k.add(pa, blocks + s * size, size);
}

void axpy_inplace(Tensor& a, float s, const Tensor& b) {
  require_same_shape(a, b, "axpy_inplace");
  float* pa = a.begin();
  const float* pb = b.begin();
  const auto span = elementwise_span(a.numel());
  kern::active().axpy(pa, s, pb, a.numel());
}

void scale_inplace(Tensor& a, float s) {
  float* pa = a.begin();
  const auto span = elementwise_span(a.numel());
  kern::active().scale(pa, s, a.numel());
}

namespace {

// Shape validation for the matmul family; returns {m, k, n} of one sample's
// product. a and b hold `samples` equal row blocks.
struct MatmulDims {
  std::size_t m, k, n;
};

MatmulDims matmul_dims(const Tensor& a, const Tensor& b, const char* op,
                       bool transpose_a, bool transpose_b,
                       std::size_t samples = 1) {
  require_rank2(a, op);
  require_rank2(b, op);
  if (samples == 0 || a.dim(0) % samples != 0 || b.dim(0) % samples != 0) {
    throw ShapeError(std::string(op) + ": " + shape_to_string(a.shape()) +
                     " and " + shape_to_string(b.shape()) + " do not split into " +
                     std::to_string(samples) + " samples");
  }
  const std::size_t a0 = a.dim(0) / samples, b0 = b.dim(0) / samples;
  const std::size_t m = transpose_a ? a.dim(1) : a0;
  const std::size_t k = transpose_a ? a0 : a.dim(1);
  const std::size_t bk = transpose_b ? b.dim(1) : b0;
  const std::size_t n = transpose_b ? b0 : b.dim(1);
  if (bk != k) {
    throw ShapeError(std::string(op) + ": " + shape_to_string(a.shape()) +
                     " x " + shape_to_string(b.shape()));
  }
  return {m, k, n};
}

void require_out_shape(const Tensor& out, std::size_t m, std::size_t n,
                       const char* op) {
  if (out.rank() != 2 || out.dim(0) != m || out.dim(1) != n) {
    throw ShapeError(std::string(op) + ": output shape " +
                     shape_to_string(out.shape()) + " != [" +
                     std::to_string(m) + ", " + std::to_string(n) + "]");
  }
}

/// Bytes touched by an m*k x k*n product (both inputs plus the output).
std::uint64_t matmul_bytes(const MatmulDims& d) {
  return static_cast<std::uint64_t>(d.m * d.k + d.k * d.n + d.m * d.n) *
         sizeof(float);
}

enum class Layout { kNN, kNT, kTN };

// Runs one product per sample block of a, b and out (out already
// zero-filled) through the active target's row kernel. The allocating forms
// and the *_into wrappers (which zero `out` first) all land here, so a
// sample block is bitwise its one-block product.
void matmul_dispatch(const Tensor& a, const Tensor& b, Tensor& out,
                     const MatmulDims& d, Layout layout,
                     std::size_t samples = 1) {
  static constexpr const char* kNames[] = {"matmul", "matmul_nt", "matmul_tn"};
  obs::prof::Span span(kNames[static_cast<int>(layout)],
                       matmul_bytes(d) * samples);
  const kern::Kernels& kt = kern::active();
  const std::size_t a_rows = layout == Layout::kTN ? d.k : d.m;
  const std::size_t b_rows = layout == Layout::kNT ? d.n : d.k;
  for (std::size_t s = 0; s < samples; ++s) {
    const float* pa = a.begin() + s * a_rows * a.dim(1);
    const float* pb = b.begin() + s * b_rows * b.dim(1);
    float* po = out.begin() + s * d.m * d.n;
    switch (layout) {
      case Layout::kNN: kt.matmul_rows_nn(pa, pb, po, d.m, d.k, d.n); break;
      case Layout::kNT: kt.matmul_rows_nt(pa, pb, po, d.m, d.k, d.n); break;
      case Layout::kTN: kt.matmul_rows_tn(pa, pb, po, d.m, d.k, d.n); break;
    }
  }
}

Tensor matmul_alloc(const Tensor& a, const Tensor& b, const char* op,
                    Layout layout) {
  const MatmulDims d = matmul_dims(a, b, op, layout == Layout::kTN,
                                   layout == Layout::kNT);
  Tensor out({d.m, d.n});
  matmul_dispatch(a, b, out, d, layout);
  return out;
}

void matmul_blocks_into(const Tensor& a, const Tensor& b, Tensor& out,
                        std::size_t samples, const char* op, Layout layout) {
  const MatmulDims d = matmul_dims(a, b, op, layout == Layout::kTN,
                                   layout == Layout::kNT, samples);
  require_out_shape(out, samples * d.m, d.n, op);
  std::fill(out.begin(), out.end(), 0.0f);
  matmul_dispatch(a, b, out, d, layout, samples);
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  return matmul_alloc(a, b, "matmul", Layout::kNN);
}

void matmul_into(const Tensor& a, const Tensor& b, Tensor& out,
                 std::size_t samples) {
  matmul_blocks_into(a, b, out, samples, "matmul_into", Layout::kNN);
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  return matmul_alloc(a, b, "matmul_nt", Layout::kNT);
}

void matmul_nt_into(const Tensor& a, const Tensor& b, Tensor& out,
                    std::size_t samples) {
  matmul_blocks_into(a, b, out, samples, "matmul_nt_into", Layout::kNT);
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  return matmul_alloc(a, b, "matmul_tn", Layout::kTN);
}

void matmul_tn_into(const Tensor& a, const Tensor& b, Tensor& out,
                    std::size_t samples) {
  matmul_blocks_into(a, b, out, samples, "matmul_tn_into", Layout::kTN);
}

namespace {

std::uint64_t conv_bytes(const Tensor& a, const Tensor& b, const Tensor& out) {
  return (a.numel() + b.numel() + out.numel()) * sizeof(float);
}

}  // namespace

void conv2d_into(const Tensor& input, const Tensor& weight, const Tensor& bias,
                 const kern::Conv2dGeom& g, Tensor& out) {
  REFFIL_CHECK_MSG(out.numel() == g.n * g.cout * g.hout * g.wout,
                   "conv2d_into: output numel mismatch");
  obs::prof::Span span("conv2d", conv_bytes(input, weight, out));
  kern::active().conv2d_forward(input.begin(), weight.begin(), bias.begin(),
                                out.begin(), g);
}

void conv2d_weight_grad_into(const Tensor& input, const Tensor& grad_out,
                             const kern::Conv2dGeom& g, Tensor& dweight) {
  REFFIL_CHECK_MSG(dweight.numel() == g.n * g.cout * g.cin * g.kh * g.kw,
                   "conv2d_weight_grad_into: output numel mismatch");
  obs::prof::Span span("conv2d_wgrad", conv_bytes(input, grad_out, dweight));
  kern::active().conv2d_weight_grad(input.begin(), grad_out.begin(),
                                    dweight.begin(), g);
}

void conv2d_input_grad_into(const Tensor& weight, const Tensor& grad_out,
                            const kern::Conv2dGeom& g, Tensor& dinput) {
  REFFIL_CHECK_MSG(dinput.numel() == g.n * g.cin * g.h * g.w,
                   "conv2d_input_grad_into: output numel mismatch");
  obs::prof::Span span("conv2d_igrad", conv_bytes(weight, grad_out, dinput));
  kern::active().conv2d_input_grad(weight.begin(), grad_out.begin(),
                                   dinput.begin(), g);
}

Tensor transpose2d(const Tensor& a) {
  require_rank2(a, "transpose2d");
  Tensor out({a.dim(1), a.dim(0)});
  transpose2d_into(a, out);
  return out;
}

void transpose2d_into(const Tensor& a, Tensor& out) {
  require_rank2(a, "transpose2d_into");
  const std::size_t m = a.dim(0), n = a.dim(1);
  if (out.rank() != 2 || out.dim(0) != n || out.dim(1) != m) {
    throw ShapeError("transpose2d_into: output shape " +
                     shape_to_string(out.shape()) + " for input " +
                     shape_to_string(a.shape()));
  }
  obs::prof::Span span("transpose2d", 2 * m * n * sizeof(float));
  const float* pa = a.begin();
  float* po = out.begin();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) po[j * m + i] = pa[i * n + j];
  }
}

Tensor matvec(const Tensor& a, const Tensor& x) {
  require_rank2(a, "matvec");
  if (x.rank() != 1 || x.dim(0) != a.dim(1)) {
    throw ShapeError("matvec: " + shape_to_string(a.shape()) + " x " +
                     shape_to_string(x.shape()));
  }
  const std::size_t m = a.dim(0), k = a.dim(1);
  Tensor out({m});
  const float* pa = a.begin();
  const float* px = x.begin();
  float* po = out.begin();
  for (std::size_t i = 0; i < m; ++i) {
    const float* a_row = pa + i * k;
    float acc = 0.0f;
    for (std::size_t j = 0; j < k; ++j) acc += a_row[j] * px[j];
    po[i] = acc;
  }
  return out;
}

float sum_all(const Tensor& a) {
  double acc = 0.0;
  for (float v : a) acc += v;
  return static_cast<float>(acc);
}

float mean_all(const Tensor& a) {
  REFFIL_CHECK(a.numel() > 0);
  return sum_all(a) / static_cast<float>(a.numel());
}

float max_all(const Tensor& a) {
  REFFIL_CHECK(a.numel() > 0);
  return *std::max_element(a.begin(), a.end());
}

Tensor sum_rows(const Tensor& a) {
  require_rank2(a, "sum_rows");
  Tensor out({a.dim(1)});
  sum_rows_into(a, out);
  return out;
}

void sum_rows_into(const Tensor& a, Tensor& out) {
  require_rank2(a, "sum_rows_into");
  const std::size_t m = a.dim(0), n = a.dim(1);
  REFFIL_CHECK_MSG(out.numel() == n, "sum_rows_into: output numel mismatch");
  const float* pa = a.begin();
  float* po = out.begin();
  std::fill(po, po + n, 0.0f);
  for (std::size_t i = 0; i < m; ++i) {
    const float* a_row = pa + i * n;
    for (std::size_t j = 0; j < n; ++j) po[j] += a_row[j];
  }
}

Tensor mean_rows(const Tensor& a) {
  require_rank2(a, "mean_rows");
  REFFIL_CHECK(a.dim(0) > 0);
  Tensor sums = sum_rows(a);
  scale_inplace(sums, 1.0f / static_cast<float>(a.dim(0)));
  return sums;
}

float dot(const Tensor& a, const Tensor& b) {
  require_same_shape(a, b, "dot");
  double acc = 0.0;
  const float* pa = a.begin();
  const float* pb = b.begin();
  for (std::size_t i = 0; i < a.numel(); ++i) acc += double(pa[i]) * pb[i];
  return static_cast<float>(acc);
}

float l2_norm(const Tensor& a) { return std::sqrt(std::max(0.0f, dot(a, a))); }

float cosine_similarity(const Tensor& a, const Tensor& b) {
  REFFIL_CHECK_MSG(a.numel() == b.numel(), "cosine_similarity: size mismatch");
  double num = 0.0, na = 0.0, nb = 0.0;
  const float* pa = a.begin();
  const float* pb = b.begin();
  for (std::size_t i = 0; i < a.numel(); ++i) {
    num += double(pa[i]) * pb[i];
    na += double(pa[i]) * pa[i];
    nb += double(pb[i]) * pb[i];
  }
  const double denom = std::sqrt(na) * std::sqrt(nb) + 1e-12;
  return static_cast<float>(num / denom);
}

namespace {

// Shared driver for the softmax family; `out` must have the logits' numel.
// Per-row arithmetic lives in the dispatch table (degenerate-row semantics
// documented there).
void softmax_family_into(const Tensor& logits, Tensor& out, const char* op,
                         bool log_form) {
  require_rank2(logits, op);
  const std::size_t m = logits.dim(0), n = logits.dim(1);
  REFFIL_CHECK_MSG(out.numel() == m * n,
                   std::string(op) + ": output numel mismatch");
  obs::prof::Span span(op, 2 * m * n * sizeof(float));
  const kern::Kernels& k = kern::active();
  const float* src = logits.begin();
  float* dst = out.begin();
  if (log_form) {
    k.log_softmax_rows(src, dst, m, n);
  } else {
    k.softmax_rows(src, dst, m, n);
  }
}

}  // namespace

Tensor softmax_rows(const Tensor& logits) {
  require_rank2(logits, "softmax_rows");
  Tensor out({logits.dim(0), logits.dim(1)});
  softmax_family_into(logits, out, "softmax_rows", /*log_form=*/false);
  return out;
}

void softmax_rows_into(const Tensor& logits, Tensor& out) {
  softmax_family_into(logits, out, "softmax_rows", /*log_form=*/false);
}

Tensor log_softmax_rows(const Tensor& logits) {
  require_rank2(logits, "log_softmax_rows");
  Tensor out({logits.dim(0), logits.dim(1)});
  softmax_family_into(logits, out, "log_softmax_rows", /*log_form=*/true);
  return out;
}

void log_softmax_rows_into(const Tensor& logits, Tensor& out) {
  softmax_family_into(logits, out, "log_softmax_rows", /*log_form=*/true);
}

std::vector<std::size_t> argmax_rows(const Tensor& logits) {
  require_rank2(logits, "argmax_rows");
  const std::size_t m = logits.dim(0), n = logits.dim(1);
  REFFIL_CHECK(n > 0);
  std::vector<std::size_t> out(m);
  for (std::size_t i = 0; i < m; ++i) {
    const float* src = logits.begin() + i * n;
    out[i] = static_cast<std::size_t>(std::max_element(src, src + n) - src);
  }
  return out;
}

Tensor concat_cols(const Tensor& a, const Tensor& b) {
  require_rank2(a, "concat_cols(a)");
  require_rank2(b, "concat_cols(b)");
  if (a.dim(0) != b.dim(0)) {
    throw ShapeError("concat_cols: row mismatch " + shape_to_string(a.shape()) +
                     " vs " + shape_to_string(b.shape()));
  }
  const std::size_t m = a.dim(0), na = a.dim(1), nb = b.dim(1);
  Tensor out({m, na + nb});
  for (std::size_t i = 0; i < m; ++i) {
    std::copy(a.begin() + i * na, a.begin() + (i + 1) * na,
              out.begin() + i * (na + nb));
    std::copy(b.begin() + i * nb, b.begin() + (i + 1) * nb,
              out.begin() + i * (na + nb) + na);
  }
  return out;
}

Tensor concat_rows(const Tensor& a, const Tensor& b) {
  require_rank2(a, "concat_rows(a)");
  require_rank2(b, "concat_rows(b)");
  if (a.dim(1) != b.dim(1)) {
    throw ShapeError("concat_rows: column mismatch " +
                     shape_to_string(a.shape()) + " vs " +
                     shape_to_string(b.shape()));
  }
  std::vector<float> data;
  data.reserve(a.numel() + b.numel());
  data.insert(data.end(), a.begin(), a.end());
  data.insert(data.end(), b.begin(), b.end());
  return Tensor({a.dim(0) + b.dim(0), a.dim(1)}, std::move(data));
}

Tensor slice_rows(const Tensor& a, std::size_t begin, std::size_t end) {
  require_rank2(a, "slice_rows");
  REFFIL_CHECK_MSG(begin <= end && end <= a.dim(0), "slice_rows: bad range");
  const std::size_t n = a.dim(1);
  std::vector<float> data(a.begin() + begin * n, a.begin() + end * n);
  return Tensor({end - begin, n}, std::move(data));
}

Tensor row(const Tensor& a, std::size_t r) {
  require_rank2(a, "row");
  REFFIL_CHECK(r < a.dim(0));
  const std::size_t n = a.dim(1);
  std::vector<float> data(a.begin() + r * n, a.begin() + (r + 1) * n);
  return Tensor({n}, std::move(data));
}

}  // namespace reffil::tensor
