// Backward passes follow two conventions established by the kernel/memory
// PR: (1) gradients that are matrix products of a transposed operand use the
// fused matmul_nt/matmul_tn kernels, so no transposed temporary is ever
// materialized on the tape; (2) intermediate gradient tensors that die
// inside the closure are borrowed from the thread-local scratch pool
// (tensor/pool.hpp) instead of allocated, and hot loops walk raw pointers
// rather than the bounds-checked Tensor::at().
//
// Forward passes follow the graph-capture convention (autograd/graph.hpp):
// every op allocates its value placeholder, builds the node, and computes
// the value by running a closure through graph::record() that writes the
// node's storage in place with the *_into kernels. Eager mode and graph
// replay execute the same closure, so replayed values are bitwise-identical
// to eager by construction. Closures capture raw Node* (self/parents): in
// eager mode they die inside record(), and under capture the CapturedGraph
// keeps every referenced node alive. Forward intermediates that backward
// also needs (softmax probabilities, layer-norm statistics)
// live in shared aux buffers allocated once at op-build time and refreshed
// by the forward closure on every replay.
#include "reffil/autograd/ops.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>

#include "reffil/autograd/graph.hpp"
#include "reffil/tensor/kernels_dispatch.hpp"
#include "reffil/tensor/ops.hpp"
#include "reffil/tensor/pool.hpp"
#include "reffil/util/error.hpp"
#include "reffil/util/prof.hpp"

namespace reffil::autograd {

namespace T = reffil::tensor;
namespace prof = obs::prof;

namespace {

void require_rank2(const Var& v, const char* op) {
  if (v->value().rank() != 2) {
    throw ShapeError(std::string(op) + " requires rank-2, got " +
                     T::shape_to_string(v->value().shape()));
  }
}

/// Rows per sample of a rank-2 value holding `samples` equal row blocks.
std::size_t rows_per_sample(const Var& v, std::size_t samples, const char* op) {
  require_rank2(v, op);
  if (samples == 0 || v->value().dim(0) % samples != 0) {
    throw ShapeError(std::string(op) + ": " +
                     T::shape_to_string(v->value().shape()) +
                     " does not split into " + std::to_string(samples) +
                     " samples");
  }
  return v->value().dim(0) / samples;
}

}  // namespace

Var add(const Var& a, const Var& b) {
  Var out = make_node(a->value().shape(), {a, b},
                      [a, b](const T::Tensor& g) {
                        if (a->requires_grad()) a->accumulate_grad(g);
                        if (b->requires_grad()) b->accumulate_grad(g);
                      },
                      "ag.add");
  graph::record(out, [self = out.get(), pa = a.get(), pb = b.get()] {
    T::add_into(pa->value(), pb->value(), self->mutable_value());
  });
  return out;
}

Var sub(const Var& a, const Var& b) {
  Var out = make_node(a->value().shape(), {a, b},
                      [a, b](const T::Tensor& g) {
                        if (a->requires_grad()) a->accumulate_grad(g);
                        if (b->requires_grad()) {
                          T::pool::Scratch db(g.shape(), /*zero=*/false);
                          T::neg_into(g, *db);
                          b->accumulate_grad(*db);
                        }
                      },
                      "ag.sub");
  graph::record(out, [self = out.get(), pa = a.get(), pb = b.get()] {
    T::sub_into(pa->value(), pb->value(), self->mutable_value());
  });
  return out;
}

Var mul(const Var& a, const Var& b) {
  Var out = make_node(a->value().shape(), {a, b},
                      [a, b](const T::Tensor& g) {
                        if (a->requires_grad()) {
                          T::pool::Scratch da(g.shape(), /*zero=*/false);
                          T::mul_into(g, b->value(), *da);
                          a->accumulate_grad(*da);
                        }
                        if (b->requires_grad()) {
                          T::pool::Scratch db(g.shape(), /*zero=*/false);
                          T::mul_into(g, a->value(), *db);
                          b->accumulate_grad(*db);
                        }
                      },
                      "ag.mul");
  graph::record(out, [self = out.get(), pa = a.get(), pb = b.get()] {
    T::mul_into(pa->value(), pb->value(), self->mutable_value());
  });
  return out;
}

Var add_scalar(const Var& a, float s) {
  Var out = make_node(a->value().shape(), {a},
                      [a](const T::Tensor& g) { a->accumulate_grad(g); },
                      "ag.add_scalar");
  graph::record(out, [self = out.get(), pa = a.get(), s] {
    T::add_scalar_into(pa->value(), s, self->mutable_value());
  });
  return out;
}

Var mul_scalar(const Var& a, float s) {
  Var out = make_node(a->value().shape(), {a},
                      [a, s](const T::Tensor& g) {
                        T::pool::Scratch da(g.shape(), /*zero=*/false);
                        T::mul_scalar_into(g, s, *da);
                        a->accumulate_grad(*da);
                      },
                      "ag.mul_scalar");
  graph::record(out, [self = out.get(), pa = a.get(), s] {
    T::mul_scalar_into(pa->value(), s, self->mutable_value());
  });
  return out;
}

Var neg(const Var& a) { return mul_scalar(a, -1.0f); }

Var relu(const Var& a) {
  prof::Span ps("ag.relu");
  Var out = make_node(
      a->value().shape(), {a},
      [a](const T::Tensor& g) {
        T::pool::Scratch dx(g.shape(), /*zero=*/false);
        T::relu_backward_into(a->value(), g, *dx);
        a->accumulate_grad(*dx);
      },
      "ag.relu");
  graph::record(out, [self = out.get(), pa = a.get()] {
    T::relu_into(pa->value(), self->mutable_value());
  });
  return out;
}

Var tanh(const Var& a) {
  Var out = make_node(a->value().shape(), {a}, {}, "ag.tanh");
  if (out->requires_grad()) {
    // Reads y from the node's own value, which the forward closure refreshes
    // on every replay — never a stale captured copy.
    out->set_backward([a, self = out.get()](const T::Tensor& g) {
      T::pool::Scratch dx(g.shape(), /*zero=*/false);
      const float* py = self->value().begin();
      const float* pg = g.begin();
      float* d = dx->begin();
      for (std::size_t i = 0; i < g.numel(); ++i) {
        d[i] = pg[i] * (1.0f - py[i] * py[i]);
      }
      a->accumulate_grad(*dx);
    });
  }
  graph::record(out, [self = out.get(), pa = a.get()] {
    T::tanh_into(pa->value(), self->mutable_value());
  });
  return out;
}

Var exp(const Var& a) {
  Var out = make_node(a->value().shape(), {a}, {}, "ag.exp");
  if (out->requires_grad()) {
    out->set_backward([a, self = out.get()](const T::Tensor& g) {
      T::pool::Scratch dx(g.shape(), /*zero=*/false);
      T::mul_into(g, self->value(), *dx);
      a->accumulate_grad(*dx);
    });
  }
  graph::record(out, [self = out.get(), pa = a.get()] {
    T::exp_into(pa->value(), self->mutable_value());
  });
  return out;
}

Var log(const Var& a) {
  Var out = make_node(a->value().shape(), {a},
                      [a](const T::Tensor& g) {
                        T::pool::Scratch dx(g.shape(), /*zero=*/false);
                        T::div_into(g, a->value(), *dx);
                        a->accumulate_grad(*dx);
                      },
                      "ag.log");
  graph::record(out, [self = out.get(), pa = a.get()] {
    T::log_into(pa->value(), self->mutable_value());
  });
  return out;
}

Var detach(const Var& a) {
  // A constant-valued copy of `a` that blocks gradient flow. Unlike
  // autograd::constant(a->value()), the link to the producer is preserved
  // under capture, so a replayed graph re-reads the refreshed upstream value
  // instead of replaying a frozen snapshot.
  auto out = std::make_shared<Node>(T::Tensor(a->value().shape()),
                                    /*requires_grad=*/false);
  if (graph::detail::capture_active()) graph::detail::track_external(out, {a});
  graph::record(out, [self = out.get(), pa = a.get()] {
    T::copy_into(pa->value(), self->mutable_value());
  });
  return out;
}

Var matmul(const Var& a, const Var& b, std::size_t samples) {
  rows_per_sample(a, samples, "matmul(a)");
  require_rank2(b, "matmul(b)");
  if (a->value().dim(1) != b->value().dim(0)) {
    throw ShapeError("matmul: " + T::shape_to_string(a->value().shape()) +
                     " x " + T::shape_to_string(b->value().shape()));
  }
  prof::Span ps("ag.matmul");
  Var out = make_node(
      {a->value().dim(0), b->value().dim(1)}, {a, b},
      [a, b, samples](const T::Tensor& g) {
        // dA = g·Bᵀ, dB = Aᵀ·g — fused kernels read the transposed operand in
        // place; the products land in pooled scratch that dies with the
        // closure. Every sample shares b, so dB is one Aᵀ·g partial per
        // sample (its own rows), folded in the per-sample graphs' order.
        if (a->requires_grad()) {
          T::pool::Scratch da(a->value().shape(), /*zero=*/false);
          T::matmul_nt_into(g, b->value(), *da);
          a->accumulate_grad(*da);
        }
        if (b->requires_grad()) {
          const std::size_t k = b->value().dim(0), n = b->value().dim(1);
          T::pool::Scratch db({samples * k, n}, /*zero=*/false);
          T::matmul_tn_into(a->value(), g, *db, samples);
          fold_sample_grads(*b, std::move(db), samples);
        }
      },
      "ag.matmul");
  graph::record(out, [self = out.get(), pa = a.get(), pb = b.get()] {
    T::matmul_into(pa->value(), pb->value(), self->mutable_value());
  });
  return out;
}

Var matmul_nt(const Var& a, const Var& b, std::size_t samples, float scale) {
  rows_per_sample(a, samples, "matmul_nt(a)");
  rows_per_sample(b, samples, "matmul_nt(b)");
  if (a->value().dim(1) != b->value().dim(1)) {
    throw ShapeError("matmul_nt: " + T::shape_to_string(a->value().shape()) +
                     " x " + T::shape_to_string(b->value().shape()) + "ᵀ");
  }
  prof::Span ps("ag.matmul_nt");
  Var out = make_node(
      {a->value().dim(0), b->value().dim(0) / samples}, {a, b},
      [a, b, samples, scale](const T::Tensor& g) {
        // C_s = scale·A_s·B_sᵀ, so with gs = scale·g, dA_s = gs_s·B_s and
        // dB_s = gs_sᵀ·A_s — again no transposed copies. No element of dA or
        // dB mixes samples.
        std::optional<T::pool::Scratch> scaled;
        if (scale != 1.0f) {
          scaled.emplace(g.shape(), /*zero=*/false);
          T::mul_scalar_into(g, scale, **scaled);
        }
        const T::Tensor& gs = scaled ? **scaled : g;
        if (a->requires_grad()) {
          T::pool::Scratch da(a->value().shape(), /*zero=*/false);
          T::matmul_into(gs, b->value(), *da, samples);
          a->accumulate_grad(*da);
        }
        if (b->requires_grad()) {
          T::pool::Scratch db(b->value().shape(), /*zero=*/false);
          T::matmul_tn_into(gs, a->value(), *db, samples);
          b->accumulate_grad(*db);
        }
      },
      "ag.matmul_nt");
  graph::record(out, [self = out.get(), pa = a.get(), pb = b.get(), samples,
                      scale] {
    T::matmul_nt_into(pa->value(), pb->value(), self->mutable_value(), samples);
    if (scale != 1.0f) {
      T::mul_scalar_into(self->value(), scale, self->mutable_value());
    }
  });
  return out;
}

Var matmul_per_sample(const Var& a, const Var& b, std::size_t samples) {
  rows_per_sample(a, samples, "matmul_per_sample(a)");
  const std::size_t k = rows_per_sample(b, samples, "matmul_per_sample(b)");
  if (a->value().dim(1) != k) {
    throw ShapeError("matmul_per_sample: " +
                     T::shape_to_string(a->value().shape()) + " x " +
                     T::shape_to_string(b->value().shape()) + " over " +
                     std::to_string(samples) + " samples");
  }
  prof::Span ps("ag.matmul_per_sample");
  Var out = make_node(
      {a->value().dim(0), b->value().dim(1)}, {a, b},
      [a, b, samples](const T::Tensor& g) {
        // C_s = A_s·B_s: dA_s = g_s·B_sᵀ, dB_s = A_sᵀ·g_s.
        if (a->requires_grad()) {
          T::pool::Scratch da(a->value().shape(), /*zero=*/false);
          T::matmul_nt_into(g, b->value(), *da, samples);
          a->accumulate_grad(*da);
        }
        if (b->requires_grad()) {
          T::pool::Scratch db(b->value().shape(), /*zero=*/false);
          T::matmul_tn_into(a->value(), g, *db, samples);
          b->accumulate_grad(*db);
        }
      },
      "ag.matmul_per_sample");
  graph::record(out, [self = out.get(), pa = a.get(), pb = b.get(), samples] {
    T::matmul_into(pa->value(), pb->value(), self->mutable_value(), samples);
  });
  return out;
}

Var transpose(const Var& a, std::size_t samples) {
  const std::size_t m = rows_per_sample(a, samples, "transpose");
  const std::size_t n = a->value().dim(1);
  // Transposes each sample's [m, n] block of `from` into its [n, m] block
  // of `to` (or back, with m and n swapped).
  const auto blocks = [samples](const T::Tensor& from, T::Tensor& to,
                                std::size_t rows, std::size_t cols) {
    for (std::size_t s = 0; s < samples; ++s) {
      const T::Tensor in = T::Tensor::view(
          const_cast<float*>(from.begin()) + s * rows * cols, {rows, cols});
      T::Tensor out = T::Tensor::view(to.begin() + s * rows * cols, {cols, rows});
      T::transpose2d_into(in, out);
    }
  };
  Var out = make_node({samples * n, m}, {a},
                      [a, blocks, m, n](const T::Tensor& g) {
                        T::pool::Scratch da(a->value().shape(), /*zero=*/false);
                        blocks(g, *da, n, m);
                        a->accumulate_grad(*da);
                      },
                      "ag.transpose");
  graph::record(out, [self = out.get(), pa = a.get(), blocks, m, n] {
    blocks(pa->value(), self->mutable_value(), m, n);
  });
  return out;
}

Var add_rowvec(const Var& x, const Var& b, std::size_t samples) {
  const std::size_t rows = rows_per_sample(x, samples, "add_rowvec");
  if (b->value().rank() != 1 || b->value().dim(0) != x->value().dim(1)) {
    throw ShapeError("add_rowvec: bias " + T::shape_to_string(b->value().shape()) +
                     " vs matrix " + T::shape_to_string(x->value().shape()));
  }
  const std::size_t m = x->value().dim(0), n = x->value().dim(1);
  prof::Span ps("ag.add_rowvec");
  Var out = make_node(
      {m, n}, {x, b},
      [x, b, n, rows, samples](const T::Tensor& g) {
        if (x->requires_grad()) x->accumulate_grad(g);
        if (b->requires_grad()) {
          // One column-sum partial per sample, over that sample's rows.
          T::pool::Scratch db({samples, n}, /*zero=*/false);
          for (std::size_t s = 0; s < samples; ++s) {
            const T::Tensor gs = T::Tensor::view(
                const_cast<float*>(g.begin()) + s * rows * n, {rows, n});
            T::Tensor part = T::Tensor::view(db->begin() + s * n, {n});
            T::sum_rows_into(gs, part);
          }
          fold_sample_grads(*b, std::move(db), samples);
        }
      },
      "ag.add_rowvec");
  graph::record(out, [self = out.get(), px = x.get(), pb = b.get(), m, n] {
    const float* pxv = px->value().begin();
    const float* pbv = pb->value().begin();
    float* pv = self->mutable_value().begin();
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) pv[i * n + j] = pxv[i * n + j] + pbv[j];
    }
  });
  return out;
}

Var linear(const Var& x, const Var& w, const Var& b, std::size_t samples) {
  const std::size_t rows = rows_per_sample(x, samples, "linear");
  require_rank2(w, "linear(w)");
  const std::size_t k = w->value().dim(0), n = w->value().dim(1);
  if (x->value().dim(1) != k || b->value().rank() != 1 || b->value().dim(0) != n) {
    throw ShapeError("linear: " + T::shape_to_string(x->value().shape()) +
                     " x " + T::shape_to_string(w->value().shape()) + " + " +
                     T::shape_to_string(b->value().shape()));
  }
  const std::size_t m = x->value().dim(0);
  prof::Span ps("ag.linear");
  // add_rowvec(matmul(x, w), b) as one node: the same kernels and adds, in
  // the order the two nodes' closures run, without the product's own value
  // and gradient.
  Var out = make_node(
      {m, n}, {x, w, b},
      [x, w, b, samples, rows, k, n](const T::Tensor& g) {
        if (b->requires_grad()) {
          T::pool::Scratch db({samples, n}, /*zero=*/false);
          for (std::size_t s = 0; s < samples; ++s) {
            const T::Tensor gs = T::Tensor::view(
                const_cast<float*>(g.begin()) + s * rows * n, {rows, n});
            T::Tensor part = T::Tensor::view(db->begin() + s * n, {n});
            T::sum_rows_into(gs, part);
          }
          fold_sample_grads(*b, std::move(db), samples);
        }
        if (x->requires_grad()) {
          T::pool::Scratch dx(x->value().shape(), /*zero=*/false);
          T::matmul_nt_into(g, w->value(), *dx);
          x->accumulate_grad(*dx);
        }
        if (w->requires_grad()) {
          T::pool::Scratch dw({samples * k, n}, /*zero=*/false);
          T::matmul_tn_into(x->value(), g, *dw, samples);
          fold_sample_grads(*w, std::move(dw), samples);
        }
      },
      "ag.linear");
  graph::record(out, [self = out.get(), px = x.get(), pw = w.get(),
                      pb = b.get(), m, n] {
    T::matmul_into(px->value(), pw->value(), self->mutable_value());
    float* pv = self->mutable_value().begin();
    const float* pbv = pb->value().begin();
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) pv[i * n + j] = pv[i * n + j] + pbv[j];
    }
  });
  return out;
}

Var rowwise_affine(const Var& x, const Var& alpha, const Var& lambda) {
  require_rank2(x, "rowwise_affine");
  const std::size_t m = x->value().dim(0), n = x->value().dim(1);
  const auto check_vec = [&](const Var& v, const char* name) {
    if (v->value().rank() != 1 || v->value().dim(0) != m) {
      throw ShapeError(std::string("rowwise_affine: ") + name + " " +
                       T::shape_to_string(v->value().shape()) + " vs matrix " +
                       T::shape_to_string(x->value().shape()));
    }
  };
  check_vec(alpha, "alpha");
  check_vec(lambda, "lambda");

  prof::Span ps("ag.rowwise_affine");
  Var out = make_node({m, n}, {x, alpha, lambda},
                      [x, alpha, lambda, m, n](const T::Tensor& g) {
                        const float* pg = g.begin();
                        const float* pa = alpha->value().begin();
                        if (x->requires_grad()) {
                          T::pool::Scratch dx({m, n}, /*zero=*/false);
                          float* d = dx->begin();
                          for (std::size_t i = 0; i < m; ++i) {
                            const float ai = pa[i];
                            for (std::size_t j = 0; j < n; ++j) {
                              d[i * n + j] = pg[i * n + j] * ai;
                            }
                          }
                          x->accumulate_grad(*dx);
                        }
                        if (alpha->requires_grad()) {
                          T::pool::Scratch da({m}, /*zero=*/false);
                          const float* px = x->value().begin();
                          const float* pl = lambda->value().begin();
                          float* d = da->begin();
                          for (std::size_t i = 0; i < m; ++i) {
                            double acc = 0.0;
                            const float li = pl[i];
                            for (std::size_t j = 0; j < n; ++j) {
                              acc += double(pg[i * n + j]) * (px[i * n + j] + li);
                            }
                            d[i] = static_cast<float>(acc);
                          }
                          alpha->accumulate_grad(*da);
                        }
                        if (lambda->requires_grad()) {
                          T::pool::Scratch dl({m}, /*zero=*/false);
                          float* d = dl->begin();
                          for (std::size_t i = 0; i < m; ++i) {
                            double acc = 0.0;
                            const float ai = pa[i];
                            for (std::size_t j = 0; j < n; ++j) {
                              acc += double(pg[i * n + j]) * ai;
                            }
                            d[i] = static_cast<float>(acc);
                          }
                          lambda->accumulate_grad(*dl);
                        }
                      },
                      "ag.rowwise_affine");
  graph::record(out, [self = out.get(), px = x.get(), pa = alpha.get(),
                      pl = lambda.get(), m, n] {
    const float* pxv = px->value().begin();
    const float* pav = pa->value().begin();
    const float* plv = pl->value().begin();
    float* pv = self->mutable_value().begin();
    for (std::size_t i = 0; i < m; ++i) {
      const float ai = pav[i];
      const float li = plv[i];
      for (std::size_t j = 0; j < n; ++j) pv[i * n + j] = ai * (pxv[i * n + j] + li);
    }
  });
  return out;
}

Var reshape(const Var& a, tensor::Shape shape) {
  const tensor::Shape original = a->value().shape();
  REFFIL_CHECK_MSG(T::shape_numel(shape) == a->value().numel(),
                   "reshape: numel mismatch");
  Var out = make_node(std::move(shape), {a},
                      [a, original](const T::Tensor& g) {
                        T::pool::Scratch da(original, /*zero=*/false);
                        T::copy_into(g, *da);
                        a->accumulate_grad(*da);
                      },
                      "ag.reshape");
  graph::record(out, [self = out.get(), pa = a.get()] {
    T::copy_into(pa->value(), self->mutable_value());
  });
  return out;
}

Var concat_rows(const Var& a, const Var& b, std::size_t samples) {
  const std::size_t ma = rows_per_sample(a, samples, "concat_rows(a)");
  const std::size_t mb = rows_per_sample(b, samples, "concat_rows(b)");
  if (a->value().dim(1) != b->value().dim(1)) {
    throw ShapeError("concat_rows: column mismatch " +
                     T::shape_to_string(a->value().shape()) + " vs " +
                     T::shape_to_string(b->value().shape()));
  }
  const std::size_t n = a->value().dim(1);
  const std::size_t block = (ma + mb) * n;  // one sample's output
  Var out = make_node({samples * (ma + mb), n}, {a, b},
                      [a, b, samples, ma, mb, n, block](const T::Tensor& g) {
                        const float* pg = g.begin();
                        if (a->requires_grad()) {
                          T::pool::Scratch da(a->value().shape(), /*zero=*/false);
                          for (std::size_t s = 0; s < samples; ++s) {
                            const float* src = pg + s * block;
                            std::copy(src, src + ma * n, da->begin() + s * ma * n);
                          }
                          a->accumulate_grad(*da);
                        }
                        if (b->requires_grad()) {
                          T::pool::Scratch db(b->value().shape(), /*zero=*/false);
                          for (std::size_t s = 0; s < samples; ++s) {
                            const float* src = pg + s * block + ma * n;
                            std::copy(src, src + mb * n, db->begin() + s * mb * n);
                          }
                          b->accumulate_grad(*db);
                        }
                      },
                      "ag.concat_rows");
  graph::record(out, [self = out.get(), pa = a.get(), pb = b.get(), samples, ma,
                      mb, n] {
    float* pv = self->mutable_value().begin();
    const float* as = pa->value().begin();
    const float* bs = pb->value().begin();
    for (std::size_t s = 0; s < samples; ++s, as += ma * n, bs += mb * n) {
      pv = std::copy(as, as + ma * n, pv);
      pv = std::copy(bs, bs + mb * n, pv);
    }
  });
  return out;
}

Var concat_cols(const Var& a, const Var& b) {
  require_rank2(a, "concat_cols(a)");
  require_rank2(b, "concat_cols(b)");
  if (a->value().dim(0) != b->value().dim(0)) {
    throw ShapeError("concat_cols: row mismatch " +
                     T::shape_to_string(a->value().shape()) + " vs " +
                     T::shape_to_string(b->value().shape()));
  }
  const std::size_t na = a->value().dim(1);
  const std::size_t nb = b->value().dim(1);
  const std::size_t m = a->value().dim(0);
  Var out = make_node({m, na + nb}, {a, b},
                      [a, b, m, na, nb](const T::Tensor& g) {
                        const float* pg = g.begin();
                        if (a->requires_grad()) {
                          T::pool::Scratch da({m, na}, /*zero=*/false);
                          float* d = da->begin();
                          for (std::size_t i = 0; i < m; ++i) {
                            const float* src = pg + i * (na + nb);
                            std::copy(src, src + na, d + i * na);
                          }
                          a->accumulate_grad(*da);
                        }
                        if (b->requires_grad()) {
                          T::pool::Scratch db({m, nb}, /*zero=*/false);
                          float* d = db->begin();
                          for (std::size_t i = 0; i < m; ++i) {
                            const float* src = pg + i * (na + nb) + na;
                            std::copy(src, src + nb, d + i * nb);
                          }
                          b->accumulate_grad(*db);
                        }
                      },
                      "ag.concat_cols");
  graph::record(out, [self = out.get(), pa = a.get(), pb = b.get(), m, na, nb] {
    const float* pav = pa->value().begin();
    const float* pbv = pb->value().begin();
    float* pv = self->mutable_value().begin();
    for (std::size_t i = 0; i < m; ++i) {
      std::copy(pav + i * na, pav + (i + 1) * na, pv + i * (na + nb));
      std::copy(pbv + i * nb, pbv + (i + 1) * nb, pv + i * (na + nb) + na);
    }
  });
  return out;
}

Var slice_rows(const Var& a, std::size_t begin, std::size_t end) {
  require_rank2(a, "slice_rows");
  const std::size_t m = a->value().dim(0), n = a->value().dim(1);
  REFFIL_CHECK_MSG(begin <= end && end <= m, "slice_rows: bad range");
  Var out = make_node({end - begin, n}, {a},
                      [a, begin, end, m, n](const T::Tensor& g) {
                        T::pool::Scratch da({m, n});  // zeroed: only [begin, end) rows are written
                        const float* pg = g.begin();
                        float* d = da->begin();
                        for (std::size_t i = begin; i < end; ++i) {
                          std::copy(pg + (i - begin) * n, pg + (i - begin + 1) * n,
                                    d + i * n);
                        }
                        a->accumulate_grad(*da);
                      },
                      "ag.slice_rows");
  graph::record(out, [self = out.get(), pa = a.get(), begin, end, n] {
    std::copy(pa->value().begin() + begin * n, pa->value().begin() + end * n,
              self->mutable_value().begin());
  });
  return out;
}

Var slice_cols(const Var& a, std::size_t begin, std::size_t end) {
  require_rank2(a, "slice_cols");
  const std::size_t m = a->value().dim(0), n = a->value().dim(1);
  REFFIL_CHECK_MSG(begin <= end && end <= n, "slice_cols: bad range");
  const std::size_t w = end - begin;
  Var out = make_node({m, w}, {a},
                      [a, begin, m, n, w](const T::Tensor& g) {
                        T::pool::Scratch da({m, n});  // zeroed: only the sliced columns are written
                        const float* pg = g.begin();
                        float* d = da->begin();
                        for (std::size_t i = 0; i < m; ++i) {
                          std::copy(pg + i * w, pg + (i + 1) * w, d + i * n + begin);
                        }
                        a->accumulate_grad(*da);
                      },
                      "ag.slice_cols");
  graph::record(out, [self = out.get(), pa = a.get(), begin, end, m, n, w] {
    const float* pav = pa->value().begin();
    float* pv = self->mutable_value().begin();
    for (std::size_t i = 0; i < m; ++i) {
      std::copy(pav + i * n + begin, pav + i * n + end, pv + i * w);
    }
  });
  return out;
}

Var select_rows(const Var& table, const std::vector<std::size_t>& indices) {
  require_rank2(table, "select_rows");
  const std::size_t m = table->value().dim(0), n = table->value().dim(1);
  for (std::size_t index : indices) {
    REFFIL_CHECK_MSG(index < m, "select_rows: index out of range");
  }
  const std::size_t samples = indices.size();
  REFFIL_CHECK_MSG(samples > 0, "select_rows: no rows");
  Var out = make_node(
      {samples, n}, {table},
      [table, indices, m, n, samples](const T::Tensor& g) {
        // One table-sized partial per sample, zero but for its row.
        T::pool::Scratch dt({samples, m, n});  // zeroed: only the picked rows are written
        for (std::size_t s = 0; s < samples; ++s) {
          std::copy(g.begin() + s * n, g.begin() + (s + 1) * n,
                    dt->begin() + (s * m + indices[s]) * n);
        }
        fold_sample_grads(*table, std::move(dt), samples);
      },
      "ag.select_row");
  graph::record(out, [self = out.get(), pt = table.get(), indices, n] {
    float* pv = self->mutable_value().begin();
    for (std::size_t index : indices) {
      pv = std::copy(pt->value().begin() + index * n,
                     pt->value().begin() + (index + 1) * n, pv);
    }
  });
  return out;
}

Var select_row(const Var& table, std::size_t index) {
  return select_rows(table, {index});
}

Var prepend_rows(const Var& head, const Var& x, std::size_t samples) {
  require_rank2(head, "prepend_rows(head)");
  const std::size_t m = rows_per_sample(x, samples, "prepend_rows(x)");
  const std::size_t h = head->value().dim(0), n = head->value().dim(1);
  if (x->value().dim(1) != n) {
    throw ShapeError("prepend_rows: column mismatch " +
                     T::shape_to_string(head->value().shape()) + " vs " +
                     T::shape_to_string(x->value().shape()));
  }
  prof::Span ps("ag.prepend_rows");
  const std::size_t block = (h + m) * n;  // one sample's output
  Var out = make_node(
      {samples * (h + m), n}, {head, x},
      [head, x, samples, h, m, n, block](const T::Tensor& g) {
        const float* pg = g.begin();
        // Every sample shares the head: one partial per sample, folded.
        if (head->requires_grad()) {
          T::pool::Scratch dh({samples * h, n}, /*zero=*/false);
          for (std::size_t s = 0; s < samples; ++s) {
            std::copy(pg + s * block, pg + s * block + h * n,
                      dh->begin() + s * h * n);
          }
          fold_sample_grads(*head, std::move(dh), samples);
        }
        if (x->requires_grad()) {
          T::pool::Scratch dx(x->value().shape(), /*zero=*/false);
          for (std::size_t s = 0; s < samples; ++s) {
            std::copy(pg + s * block + h * n, pg + (s + 1) * block,
                      dx->begin() + s * m * n);
          }
          x->accumulate_grad(*dx);
        }
      },
      "ag.prepend_rows");
  graph::record(out, [self = out.get(), ph = head.get(), px = x.get(), samples,
                      m, n] {
    float* pv = self->mutable_value().begin();
    const float* xs = px->value().begin();
    for (std::size_t s = 0; s < samples; ++s, xs += m * n) {
      pv = std::copy(ph->value().begin(), ph->value().end(), pv);
      pv = std::copy(xs, xs + m * n, pv);
    }
  });
  return out;
}

Var sample_row(const Var& x, std::size_t row, std::size_t samples) {
  const std::size_t m = rows_per_sample(x, samples, "sample_row");
  const std::size_t n = x->value().dim(1);
  REFFIL_CHECK_MSG(row < m, "sample_row: row out of range");
  prof::Span ps("ag.sample_row");
  Var out = make_node(
      {samples, n}, {x},
      [x, row, samples, m, n](const T::Tensor& g) {
        T::pool::Scratch dx(x->value().shape());  // zeroed: only the picked rows are written
        for (std::size_t s = 0; s < samples; ++s) {
          std::copy(g.begin() + s * n, g.begin() + (s + 1) * n,
                    dx->begin() + (s * m + row) * n);
        }
        x->accumulate_grad(*dx);
      },
      "ag.sample_row");
  graph::record(out, [self = out.get(), px = x.get(), row, samples, m, n] {
    for (std::size_t s = 0; s < samples; ++s) {
      const float* src = px->value().begin() + (s * m + row) * n;
      std::copy(src, src + n, self->mutable_value().begin() + s * n);
    }
  });
  return out;
}

Var patchify(const Var& feature_map, std::size_t patch) {
  const T::Tensor& f = feature_map->value();
  if ((f.rank() != 3 && f.rank() != 4) || patch == 0 ||
      f.dim(f.rank() - 1) != f.dim(f.rank() - 2) ||
      f.dim(f.rank() - 1) % patch != 0) {
    throw ShapeError("patchify: feature map must be [C,S,S] or [N,C,S,S] with "
                     "S divisible by the patch, got " +
                     T::shape_to_string(f.shape()));
  }
  const std::size_t samples = f.rank() == 4 ? f.dim(0) : 1;
  const std::size_t c = f.dim(f.rank() - 3), side = f.dim(f.rank() - 1);
  const std::size_t per_side = side / patch;
  const std::size_t tokens = per_side * per_side;
  const std::size_t width = c * patch * patch;
  // Token (ti, tj) of sample s is row s*tokens + ti*per_side + tj; its column
  // (ci, pi, pj) holds F[s, ci, ti*patch + pi, tj*patch + pj]. Every element
  // of F lands in exactly one token, so the op is a permutation: `visit`
  // walks it in token order, handing each (token element, F element) pair.
  const auto visit = [samples, c, side, patch, per_side, width, tokens](
                         auto&& fn) {
    for (std::size_t s = 0; s < samples; ++s) {
      for (std::size_t t = 0; t < tokens; ++t) {
        const std::size_t y0 = (t / per_side) * patch, x0 = (t % per_side) * patch;
        std::size_t col = (s * tokens + t) * width;
        for (std::size_t ci = 0; ci < c; ++ci) {
          for (std::size_t pi = 0; pi < patch; ++pi) {
            const std::size_t src = ((s * c + ci) * side + y0 + pi) * side + x0;
            for (std::size_t pj = 0; pj < patch; ++pj) fn(col++, src + pj);
          }
        }
      }
    }
  };
  prof::Span ps("ag.patchify");
  Var out = make_node(
      {samples * tokens, width}, {feature_map},
      [feature_map, visit](const T::Tensor& g) {
        T::pool::Scratch df(feature_map->value().shape(), /*zero=*/false);
        const float* pg = g.begin();
        float* d = df->begin();
        // + 0.0f turns a -0 gradient into +0, as summing each element with
        // the zeros of the other patches' zero-padded gradients would; the
        // recorded reference runs keep that sign.
        visit([&](std::size_t tok, std::size_t src) { d[src] = pg[tok] + 0.0f; });
        feature_map->accumulate_grad(*df);
      },
      "ag.patchify");
  graph::record(out, [self = out.get(), pf = feature_map.get(), visit] {
    const float* src = pf->value().begin();
    float* dst = self->mutable_value().begin();
    visit([&](std::size_t tok, std::size_t at) { dst[tok] = src[at]; });
  });
  return out;
}

Var sum_all(const Var& a) {
  Var out = make_node(T::Shape{}, {a},
                      [a](const T::Tensor& g) {
                        T::pool::Scratch da(a->value().shape(), /*zero=*/false);
                        std::fill(da->begin(), da->end(), g.item());
                        a->accumulate_grad(*da);
                      },
                      "ag.sum_all");
  graph::record(out, [self = out.get(), pa = a.get()] {
    self->mutable_value().begin()[0] = T::sum_all(pa->value());
  });
  return out;
}

Var mean_all(const Var& a) {
  const float inv = 1.0f / static_cast<float>(a->value().numel());
  Var out = make_node(T::Shape{}, {a},
                      [a, inv](const T::Tensor& g) {
                        T::pool::Scratch da(a->value().shape(), /*zero=*/false);
                        std::fill(da->begin(), da->end(), g.item() * inv);
                        a->accumulate_grad(*da);
                      },
                      "ag.mean_all");
  graph::record(out, [self = out.get(), pa = a.get()] {
    self->mutable_value().begin()[0] = T::mean_all(pa->value());
  });
  return out;
}

Var mean_rows(const Var& a) {
  require_rank2(a, "mean_rows");
  const std::size_t m = a->value().dim(0), n = a->value().dim(1);
  REFFIL_CHECK(m > 0);
  Var out = make_node({1, n}, {a},
                      [a, m, n](const T::Tensor& g) {
                        const float inv = 1.0f / static_cast<float>(m);
                        T::pool::Scratch da({m, n}, /*zero=*/false);
                        const float* pg = g.begin();
                        float* d = da->begin();
                        for (std::size_t i = 0; i < m; ++i) {
                          for (std::size_t j = 0; j < n; ++j) d[i * n + j] = pg[j] * inv;
                        }
                        a->accumulate_grad(*da);
                      },
                      "ag.mean_rows");
  graph::record(out, [self = out.get(), pa = a.get(), m] {
    T::sum_rows_into(pa->value(), self->mutable_value());
    T::scale_inplace(self->mutable_value(), 1.0f / static_cast<float>(m));
  });
  return out;
}

Var sample_mean_rows(const Var& x, const std::vector<std::size_t>& picked,
                     std::size_t samples) {
  const std::size_t m = rows_per_sample(x, samples, "sample_mean_rows");
  const std::size_t n = x->value().dim(1);
  for (std::size_t s : picked) {
    REFFIL_CHECK_MSG(s < samples, "sample_mean_rows: sample out of range");
  }
  Var out = make_node({picked.size(), n}, {x},
                      [x, picked, m, n](const T::Tensor& g) {
                        // mean_rows' gradient, into the picked samples' rows.
                        const float inv = 1.0f / static_cast<float>(m);
                        T::pool::Scratch da({m, n}, /*zero=*/false);
                        float* d = da->begin();
                        for (std::size_t k = 0; k < picked.size(); ++k) {
                          const float* pg = g.begin() + k * n;
                          for (std::size_t i = 0; i < m; ++i) {
                            for (std::size_t j = 0; j < n; ++j) d[i * n + j] = pg[j] * inv;
                          }
                          x->accumulate_grad_rows(*da, picked[k] * m);
                        }
                      },
                      "ag.mean_rows");
  graph::record(out, [self = out.get(), px = x.get(), picked, m, n] {
    for (std::size_t k = 0; k < picked.size(); ++k) {
      const T::Tensor block = T::Tensor::view(
          const_cast<float*>(px->value().begin()) + picked[k] * m * n, {m, n});
      T::Tensor row = T::Tensor::view(self->mutable_value().begin() + k * n, {n});
      T::sum_rows_into(block, row);
      T::scale_inplace(row, 1.0f / static_cast<float>(m));
    }
  });
  return out;
}

Var layer_norm(const Var& x, const Var& gain, const Var& bias,
               std::size_t samples, float eps) {
  const std::size_t rows = rows_per_sample(x, samples, "layer_norm");
  const std::size_t m = x->value().dim(0), n = x->value().dim(1);
  if (gain->value().rank() != 1 || gain->value().dim(0) != n ||
      bias->value().rank() != 1 || bias->value().dim(0) != n) {
    throw ShapeError("layer_norm: gain/bias must be [n]");
  }
  prof::Span ps("ag.layer_norm");
  // Per-row mean and inv-std, needed again by backward: shared aux
  // buffers, allocated once here and refreshed by the forward closure.
  // Backward rebuilds the normalized values from x with the forward's
  // expression, so it needs no copy of them.
  auto mean_f = std::make_shared<std::vector<float>>(m);
  auto inv_std = std::make_shared<std::vector<float>>(m);
  Var out = make_node({m, n}, {x, gain, bias},
                      [x, gain, bias, mean_f, inv_std, m, n, rows,
                       samples](const T::Tensor& g) {
                        const float* pg = g.begin();
                        T::pool::Scratch xhat({m, n}, /*zero=*/false);
                        float* ph = xhat->begin();
                        const float* px = x->value().begin();
                        for (std::size_t i = 0; i < m; ++i) {
                          const float mu = (*mean_f)[i], istd = (*inv_std)[i];
                          for (std::size_t j = 0; j < n; ++j) {
                            ph[i * n + j] = (px[i * n + j] - mu) * istd;
                          }
                        }
                        // Gain and bias take one partial per sample, each
                        // summed over that sample's rows in row order.
                        if (gain->requires_grad()) {
                          T::pool::Scratch dg({samples, n});  // zeroed: accumulates over rows
                          float* d = dg->begin();
                          for (std::size_t i = 0; i < m; ++i) {
                            float* ds = d + (i / rows) * n;
                            for (std::size_t j = 0; j < n; ++j) {
                              ds[j] += pg[i * n + j] * ph[i * n + j];
                            }
                          }
                          fold_sample_grads(*gain, std::move(dg), samples);
                        }
                        if (bias->requires_grad()) {
                          T::pool::Scratch db({samples, n}, /*zero=*/false);
                          for (std::size_t s = 0; s < samples; ++s) {
                            const T::Tensor gs = T::Tensor::view(
                                const_cast<float*>(pg) + s * rows * n, {rows, n});
                            T::Tensor part = T::Tensor::view(db->begin() + s * n, {n});
                            T::sum_rows_into(gs, part);
                          }
                          fold_sample_grads(*bias, std::move(db), samples);
                        }
                        if (x->requires_grad()) {
                          T::pool::Scratch dx({m, n}, /*zero=*/false);
                          const float* pgain = gain->value().begin();
                          float* d = dx->begin();
                          for (std::size_t i = 0; i < m; ++i) {
                            // ghat = g * gain; dx = istd*(ghat - mean(ghat)
                            //        - xhat * mean(ghat*xhat))
                            double mean_gh = 0.0, mean_ghx = 0.0;
                            for (std::size_t j = 0; j < n; ++j) {
                              const double gh = double(pg[i * n + j]) * pgain[j];
                              mean_gh += gh;
                              mean_ghx += gh * ph[i * n + j];
                            }
                            mean_gh /= static_cast<double>(n);
                            mean_ghx /= static_cast<double>(n);
                            const float istd = (*inv_std)[i];
                            for (std::size_t j = 0; j < n; ++j) {
                              const double gh = double(pg[i * n + j]) * pgain[j];
                              d[i * n + j] = static_cast<float>(
                                  istd * (gh - mean_gh - ph[i * n + j] * mean_ghx));
                            }
                          }
                          x->accumulate_grad(*dx);
                        }
                      },
                      "ag.layer_norm");
  graph::record(out, [self = out.get(), px = x.get(), pgain_n = gain.get(),
                      pbias_n = bias.get(), mean_f, inv_std, m, n, eps] {
    const float* pgain = pgain_n->value().begin();
    const float* pbias = pbias_n->value().begin();
    float* pv = self->mutable_value().begin();
    for (std::size_t i = 0; i < m; ++i) {
      const float* src = px->value().begin() + i * n;
      double mean = 0.0;
      for (std::size_t j = 0; j < n; ++j) mean += src[j];
      mean /= static_cast<double>(n);
      double var = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        const double d = src[j] - mean;
        var += d * d;
      }
      var /= static_cast<double>(n);
      const float istd = static_cast<float>(1.0 / std::sqrt(var + eps));
      const float mu = static_cast<float>(mean);
      (*mean_f)[i] = mu;
      (*inv_std)[i] = istd;
      for (std::size_t j = 0; j < n; ++j) {
        const float h = (src[j] - mu) * istd;
        pv[i * n + j] = h * pgain[j] + pbias[j];
      }
    }
  });
  return out;
}

Var softmax_rows(const Var& logits) {
  require_rank2(logits, "softmax_rows");
  prof::Span op("ag.softmax_rows");
  const std::size_t m = logits->value().dim(0), n = logits->value().dim(1);
  Var out = make_node({m, n}, {logits}, {}, "ag.softmax_rows");
  if (out->requires_grad()) {
    // s is the node's own value — refreshed by the forward closure, so the
    // backward never sees a stale softmax under replay.
    out->set_backward([logits, self = out.get(), m, n](const T::Tensor& g) {
      // dx_ij = s_ij * (g_ij - sum_k g_ik * s_ik)
      T::pool::Scratch dx({m, n}, /*zero=*/false);
      const float* pg = g.begin();
      const float* ps = self->value().begin();
      float* d = dx->begin();
      for (std::size_t i = 0; i < m; ++i) {
        double row_dot = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
          row_dot += double(pg[i * n + j]) * ps[i * n + j];
        }
        for (std::size_t j = 0; j < n; ++j) {
          d[i * n + j] = static_cast<float>(
              ps[i * n + j] * (double(pg[i * n + j]) - row_dot));
        }
      }
      logits->accumulate_grad(*dx);
    });
  }
  graph::record(out, [self = out.get(), pl = logits.get()] {
    T::softmax_rows_into(pl->value(), self->mutable_value());
  });
  return out;
}

namespace {

/// Cross-entropy rows seeded either uniformly, (p - y) * (g / denom), or
/// row by row, (p - y) * (g * weights[i]) when `weights` is non-null.
Var cross_entropy_node(const Var& logits, const std::vector<std::size_t>& labels,
                       std::size_t denom,
                       std::shared_ptr<const std::vector<float>> weights) {
  require_rank2(logits, "cross_entropy_logits");
  const std::size_t m = logits->value().dim(0), k = logits->value().dim(1);
  REFFIL_CHECK_MSG(labels.size() == m, "cross_entropy_logits: label count");
  REFFIL_CHECK_MSG(weights == nullptr || weights->size() == m,
                   "cross_entropy_logits: weight count");
  for (std::size_t label : labels) REFFIL_CHECK_MSG(label < k, "label out of range");

  prof::Span ps("ag.cross_entropy");
  auto labels_copy = std::make_shared<std::vector<std::size_t>>(labels);
  graph::record_labels(labels_copy, k);
  // Softmax probabilities feed backward; the forward closure recomputes them
  // (and the log-softmax the loss reads) into this shared aux on each run.
  auto probs = std::make_shared<T::pool::Scratch>(T::Shape{m, k}, /*zero=*/false);
  Var out = make_node(
      T::Shape{}, {logits},
      [logits, probs, labels_copy, weights, m, k, denom](const T::Tensor& g) {
        T::pool::Scratch dx({m, k}, /*zero=*/false);
        const float* pp = probs->tensor().begin();
        float* d = dx->begin();
        for (std::size_t i = 0; i < m * k; ++i) d[i] = pp[i];
        for (std::size_t i = 0; i < m; ++i) {
          d[i * k + (*labels_copy)[i]] -= 1.0f;
        }
        if (weights == nullptr) {
          T::scale_inplace(*dx, g.item() / static_cast<float>(denom));
        } else {
          for (std::size_t i = 0; i < m; ++i) {
            const float scale = g.item() * (*weights)[i];
            for (std::size_t j = 0; j < k; ++j) d[i * k + j] *= scale;
          }
        }
        logits->accumulate_grad(*dx);
      },
      "ag.cross_entropy");
  graph::record(out, [self = out.get(), pl = logits.get(), probs, labels_copy,
                      weights, m, k, denom] {
    T::pool::Scratch log_probs({m, k}, /*zero=*/false);
    T::log_softmax_rows_into(pl->value(), *log_probs);
    const float* plp = log_probs->begin();
    double loss = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      const double row = -plp[i * k + (*labels_copy)[i]];
      loss += weights == nullptr ? row : row * (*weights)[i];
    }
    if (weights == nullptr) loss /= static_cast<double>(denom);
    T::softmax_rows_into(pl->value(), probs->tensor());
    self->mutable_value().begin()[0] = static_cast<float>(loss);
  });
  return out;
}

}  // namespace

Var cross_entropy_logits(const Var& logits, const std::vector<std::size_t>& labels,
                         std::size_t batch) {
  require_rank2(logits, "cross_entropy_logits");
  return cross_entropy_node(logits, labels,
                            batch == 0 ? logits->value().dim(0) : batch, nullptr);
}

Var cross_entropy_logits(const Var& logits, const std::vector<std::size_t>& labels,
                         std::vector<float> weights) {
  return cross_entropy_node(
      logits, labels, 1,
      std::make_shared<const std::vector<float>>(std::move(weights)));
}

Var distillation_loss(const Var& student_logits, const tensor::Tensor& teacher_probs,
                      float temperature) {
  require_rank2(student_logits, "distillation_loss");
  if (teacher_probs.shape() != student_logits->value().shape()) {
    throw ShapeError("distillation_loss: teacher/student shape mismatch");
  }
  REFFIL_CHECK_MSG(temperature > 0.0f, "distillation temperature must be > 0");
  const std::size_t m = student_logits->value().dim(0);
  const std::size_t k = student_logits->value().dim(1);

  prof::Span ps("ag.distill");
  // One shared copy of the teacher distribution (it is a constant) plus the
  // student softmax q, which backward reads and forward refreshes.
  auto teacher = std::make_shared<T::Tensor>(teacher_probs);
  auto q = std::make_shared<T::pool::Scratch>(T::Shape{m, k}, /*zero=*/false);
  Var out = make_node(T::Shape{}, {student_logits},
                      [student_logits, q, teacher, temperature, m](const T::Tensor& g) {
                        // d/dz = (q - p) / (m * T)
                        const float scale =
                            g.item() / (static_cast<float>(m) * temperature);
                        T::pool::Scratch dx(q->tensor().shape(), /*zero=*/false);
                        const float* pq = q->tensor().begin();
                        const float* pp = teacher->begin();
                        float* d = dx->begin();
                        for (std::size_t i = 0; i < q->tensor().numel(); ++i) {
                          d[i] = (pq[i] - pp[i]) * scale;
                        }
                        student_logits->accumulate_grad(*dx);
                      },
                      "ag.distill");
  graph::record(out, [self = out.get(), pstu = student_logits.get(), q, teacher,
                      temperature, m, k] {
    T::pool::Scratch scaled({m, k}, /*zero=*/false);
    T::mul_scalar_into(pstu->value(), 1.0f / temperature, *scaled);
    T::pool::Scratch log_q({m, k}, /*zero=*/false);
    T::log_softmax_rows_into(*scaled, *log_q);
    // loss = -(1/m) * sum_ij p_ij log q_ij (constant teacher-entropy term dropped)
    const float* pp = teacher->begin();
    const float* plq = log_q->begin();
    double loss = 0.0;
    for (std::size_t i = 0; i < m * k; ++i) loss -= double(pp[i]) * plq[i];
    loss /= static_cast<double>(m);
    T::softmax_rows_into(*scaled, q->tensor());
    self->mutable_value().begin()[0] = static_cast<float>(loss);
  });
  return out;
}

Var cosine_similarity(const Var& a, const Var& b) {
  REFFIL_CHECK_MSG(a->value().numel() == b->value().numel(),
                   "cosine_similarity: size mismatch");
  prof::Span ps("ag.cosine");
  // aux = {cos, norm_a, norm_b}: backward needs all three, and the forward
  // closure recomputes them from the live parent values on every run.
  auto aux = std::make_shared<std::array<double, 3>>();
  Var out = make_node(T::Shape{}, {a, b},
      [a, b, aux](const T::Tensor& g) {
        const double cos = (*aux)[0], norm_a = (*aux)[1], norm_b = (*aux)[2];
        const double gs = g.item();
        const std::size_t n = a->value().numel();
        const float* pa = a->value().begin();
        const float* pb = b->value().begin();
        // d cos / d a_i = b_i/(|a||b|) - cos * a_i/|a|^2  (and symmetrically).
        if (a->requires_grad()) {
          T::pool::Scratch da(a->value().shape(), /*zero=*/false);
          float* d = da->begin();
          for (std::size_t i = 0; i < n; ++i) {
            d[i] = static_cast<float>(
                gs * (pb[i] / (norm_a * norm_b) - cos * pa[i] / (norm_a * norm_a)));
          }
          a->accumulate_grad(*da);
        }
        if (b->requires_grad()) {
          T::pool::Scratch db(b->value().shape(), /*zero=*/false);
          float* d = db->begin();
          for (std::size_t i = 0; i < n; ++i) {
            d[i] = static_cast<float>(
                gs * (pa[i] / (norm_a * norm_b) - cos * pb[i] / (norm_b * norm_b)));
          }
          b->accumulate_grad(*db);
        }
      },
      "ag.cosine");
  graph::record(out, [self = out.get(), pa_n = a.get(), pb_n = b.get(), aux] {
    const float* pa = pa_n->value().begin();
    const float* pb = pb_n->value().begin();
    const std::size_t n = pa_n->value().numel();
    double num = 0.0, na2 = 0.0, nb2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      num += double(pa[i]) * pb[i];
      na2 += double(pa[i]) * pa[i];
      nb2 += double(pb[i]) * pb[i];
    }
    const double eps = 1e-12;
    const double norm_a = std::sqrt(na2) + eps;
    const double norm_b = std::sqrt(nb2) + eps;
    const double cos = num / (norm_a * norm_b);
    (*aux)[0] = cos;
    (*aux)[1] = norm_a;
    (*aux)[2] = norm_b;
    self->mutable_value().begin()[0] = static_cast<float>(cos);
  });
  return out;
}

namespace {

using ConvGeometry = T::kern::Conv2dGeom;

ConvGeometry conv_geometry(const T::Tensor& input, std::size_t kh,
                           std::size_t kw, std::size_t stride, std::size_t pad,
                           std::size_t cout) {
  if (input.rank() != 3 && input.rank() != 4) {
    throw ShapeError("conv2d input must be [Cin,H,W] or [N,Cin,H,W], got " +
                     T::shape_to_string(input.shape()));
  }
  REFFIL_CHECK_MSG(stride > 0, "conv2d: stride must be > 0");
  const std::size_t axis = input.rank() - 3;  // first non-sample axis
  ConvGeometry geom{};
  geom.n = axis == 0 ? 1 : input.dim(0);
  geom.cin = input.dim(axis);
  geom.h = input.dim(axis + 1);
  geom.w = input.dim(axis + 2);
  geom.kh = kh;
  geom.kw = kw;
  geom.stride = stride;
  geom.pad = pad;
  geom.cout = cout;
  REFFIL_CHECK_MSG(geom.h + 2 * pad >= kh && geom.w + 2 * pad >= kw,
                   "conv2d: kernel larger than padded input");
  geom.hout = (geom.h + 2 * pad - kh) / stride + 1;
  geom.wout = (geom.w + 2 * pad - kw) / stride + 1;
  return geom;
}

}  // namespace

Var conv2d(const Var& input, const Var& weight, const Var& bias, std::size_t kh,
           std::size_t kw, std::size_t stride, std::size_t pad) {
  const std::size_t cout =
      weight->value().rank() == 2 ? weight->value().dim(0) : 0;
  const ConvGeometry geom =
      conv_geometry(input->value(), kh, kw, stride, pad, cout);
  if (weight->value().rank() != 2 ||
      weight->value().dim(1) != geom.cin * kh * kw) {
    throw ShapeError("conv2d weight must be [Cout, Cin*kh*kw]");
  }
  if (bias->value().rank() != 1 || bias->value().dim(0) != cout) {
    throw ShapeError("conv2d bias must be [Cout]");
  }
  T::Shape out_shape{cout, geom.hout, geom.wout};
  if (input->value().rank() == 4) out_shape.insert(out_shape.begin(), geom.n);

  prof::Span ps("ag.conv2d");
  // The direct kernels read taps straight from the input, so the node keeps
  // nothing but its parents: backward recomputes from the input's value.
  Var out = make_node(
      std::move(out_shape), {input, weight, bias},
      [input, weight, bias, geom](const T::Tensor& g) {
        // g arrives as [N, Cout, Hout, Wout], i.e. row-major N blocks of
        // [Cout, Hout*Wout]: every kernel reads it in place. The weight and
        // bias are shared by every sample, so each takes one partial per
        // sample, folded in the per-sample graphs' order.
        if (bias->requires_grad()) {
          const std::size_t hw = geom.hout * geom.wout;
          const std::size_t rows = geom.n * geom.cout;
          T::pool::Scratch db({geom.n, geom.cout}, /*zero=*/false);
          const float* pg = g.begin();
          float* d = db->begin();
          // One double chain per (sample, channel), pixels ascending.
          for (std::size_t c = 0; c < rows; ++c) {
            double acc = 0.0;
            for (std::size_t p = 0; p < hw; ++p) acc += pg[c * hw + p];
            d[c] = static_cast<float>(acc);
          }
          fold_sample_grads(*bias, std::move(db), geom.n);
        }
        if (weight->requires_grad()) {
          const auto& ws = weight->value().shape();
          T::pool::Scratch dw({geom.n, ws[0], ws[1]}, /*zero=*/false);
          T::conv2d_weight_grad_into(input->value(), g, geom, *dw);
          fold_sample_grads(*weight, std::move(dw), geom.n);
        }
        if (input->requires_grad()) {
          T::pool::Scratch dinput(input->value().shape(), /*zero=*/false);
          T::conv2d_input_grad_into(weight->value(), g, geom, *dinput);
          input->accumulate_grad(*dinput);
        }
      },
      "ag.conv2d");
  graph::record(out, [self = out.get(), pin = input.get(), pw = weight.get(),
                      pb = bias.get(), geom] {
    T::conv2d_into(pin->value(), pw->value(), pb->value(), geom,
                   self->mutable_value());
  });
  return out;
}

}  // namespace reffil::autograd
