// Differentiable operations over autograd Vars.
//
// Each op computes its value eagerly with the tensor kernels and registers a
// backward closure that propagates exact gradients to its parents. Shapes
// are validated at op-construction time so graph bugs surface where they are
// made, not inside backward().
#pragma once

#include <cstddef>
#include <vector>

#include "reffil/autograd/variable.hpp"

namespace reffil::autograd {

// ---- arithmetic --------------------------------------------------------------
Var add(const Var& a, const Var& b);
Var sub(const Var& a, const Var& b);
Var mul(const Var& a, const Var& b);
Var add_scalar(const Var& a, float s);
Var mul_scalar(const Var& a, float s);
Var neg(const Var& a);

// ---- nonlinearities -----------------------------------------------------------
Var relu(const Var& a);
Var tanh(const Var& a);
Var exp(const Var& a);
/// Natural log; input must be strictly positive.
Var log(const Var& a);
/// Copy of `a`'s value that blocks gradient flow (requires_grad = false).
/// Prefer this over constant(a->value()) when the source is itself a graph
/// node: under graph capture the producer link is kept, so a replayed graph
/// re-reads the refreshed upstream value instead of a frozen snapshot.
Var detach(const Var& a);

// ---- linear algebra ------------------------------------------------------------
// Batched ops take `samples`: their rank-2 operands hold that many equal row
// blocks, one per sample, and sample s's rows get bitwise the values and
// gradients a one-sample call on its block gives. Where every sample shares
// an operand (a weight, a bias, a head row), its gradient is the fold of one
// partial per sample (fold_sample_grads). samples = 1 is the plain op.

/// [m,k] x [k,n] -> [m,n]; b is shared by a's `samples` row blocks.
Var matmul(const Var& a, const Var& b, std::size_t samples = 1);
/// Fused a·bᵀ per sample: a [samples·m, k] x b [samples·n, k] ->
/// [samples·m, n], block s = a_s·b_sᵀ. Neither the forward nor the backward
/// pass materializes a transposed copy (attention uses this for q·kᵀ
/// scores); samples = 1 is matmul(a, transpose(b)). A `scale` other than 1
/// is mul_scalar of that product folded into the node, bitwise.
Var matmul_nt(const Var& a, const Var& b, std::size_t samples = 1,
              float scale = 1.0f);
/// Per-sample product a [samples·m, k] x b [samples·k, n] -> [samples·m, n],
/// block s = a_s·b_s (attention's weights · values).
Var matmul_per_sample(const Var& a, const Var& b, std::size_t samples);
/// 2-D transpose of each of a's `samples` row blocks: [samples·m, n] ->
/// [samples·n, m]. samples = 1 is the plain transpose.
Var transpose(const Var& a, std::size_t samples = 1);
/// X [m,n] + broadcast row vector b [n], shared by x's `samples` blocks.
Var add_rowvec(const Var& x, const Var& b, std::size_t samples = 1);
/// add_rowvec(matmul(x, w, samples), b, samples) as one node, bitwise:
/// x [m,k] · w [k,n] + b [n] (a Linear layer).
Var linear(const Var& x, const Var& w, const Var& b, std::size_t samples = 1);
/// Row-wise FiLM affine: out[i,j] = alpha[i] * (x[i,j] + lambda[i]).
/// This is Eq. (1)'s linear-transformation layer LT.
Var rowwise_affine(const Var& x, const Var& alpha, const Var& lambda);

// ---- structure ------------------------------------------------------------------
Var reshape(const Var& a, tensor::Shape shape);
/// [a_s; b_s] for each of the `samples` row blocks of a and b (same column
/// count): [samples·ma, n], [samples·mb, n] -> [samples·(ma+mb), n].
/// samples = 1 stacks a on b.
Var concat_rows(const Var& a, const Var& b, std::size_t samples = 1);
/// Concatenate two 2-D tensors horizontally (same row count).
Var concat_cols(const Var& a, const Var& b);
/// Rows [begin, end) of a 2-D tensor.
Var slice_rows(const Var& a, std::size_t begin, std::size_t end);
/// Columns [begin, end) of a 2-D tensor.
Var slice_cols(const Var& a, std::size_t begin, std::size_t end);
/// Row indices[s] of a 2-D table for each sample s, as [samples, n]
/// (differentiable gather — embedding lookup). The table takes one
/// zero-padded partial per sample, folded (fold_sample_grads).
Var select_rows(const Var& table, const std::vector<std::size_t>& indices);
/// select_rows(table, {index}): row `index` as a [1,n] matrix.
Var select_row(const Var& table, std::size_t index);
/// [head; x_s] for each of x's `samples` row blocks: head [h, n], x
/// [samples·m, n] -> [samples·(h+m), n]. The head (the class token) is shared.
/// samples = 1 is concat_rows(head, x).
Var prepend_rows(const Var& head, const Var& x, std::size_t samples);
/// Row `row` of each of x's `samples` row blocks: [samples·m, n] ->
/// [samples, n]. samples = 1 is slice_rows(x, row, row + 1).
Var sample_row(const Var& x, std::size_t row, std::size_t samples);
/// ViT patch gather: a [C,S,S] or [N,C,S,S] feature map -> [N·(S/p)², C·p·p]
/// rows, token (ti, tj) of sample s at row s·(S/p)² + ti·(S/p) + tj, its
/// columns ordered (channel, row in patch, column in patch).
Var patchify(const Var& feature_map, std::size_t patch);

// ---- reductions -------------------------------------------------------------------
Var sum_all(const Var& a);
Var mean_all(const Var& a);
/// Mean over axis 0 of a 2-D tensor: [m,n] -> [1,n].
Var mean_rows(const Var& a);
/// mean_rows of each picked sample's row block of x ([samples·m, n] ->
/// [picked, n]), bitwise mean_rows on that block alone. Its gradient
/// reaches the picked blocks' rows only (Node::accumulate_grad_rows), so a
/// term only some samples have leaves the others' rows as their own graphs
/// do.
Var sample_mean_rows(const Var& x, const std::vector<std::size_t>& picked,
                     std::size_t samples);

// ---- normalization / attention ------------------------------------------------------
/// Row-wise layer normalization with learned gain/bias (both [n], shared by
/// x's `samples` row blocks).
Var layer_norm(const Var& x, const Var& gain, const Var& bias,
               std::size_t samples = 1, float eps = 1e-5f);
/// Numerically-stable row-wise softmax of a 2-D tensor.
Var softmax_rows(const Var& logits);

// ---- losses ----------------------------------------------------------------------------
/// Mean cross-entropy of row-logits vs integer labels (Eq. 9 / Eq. 10 use
/// this with global- and local-prompted logits respectively). A non-zero
/// `batch` divides the summed loss by that sample count instead of the row
/// count: the rows' share of a batch mean, seeding each row's gradient with
/// exactly (p - y) * (1/batch).
Var cross_entropy_logits(const Var& logits, const std::vector<std::size_t>& labels,
                         std::size_t batch = 0);
/// Weighted sum of row cross-entropies, sum_i weights[i]·CE_i: row i's
/// gradient is seeded with exactly (p - y) * (g * weights[i]), the bits a
/// one-row loss scaled by weights[i] and seeded with g gets. A batched step
/// gives each row the scale its one-sample loss chain would.
Var cross_entropy_logits(const Var& logits, const std::vector<std::size_t>& labels,
                         std::vector<float> weights);
/// Mean KL(teacher_probs || softmax(logits / T)) distillation term used by
/// FedLwF; teacher probabilities are constants.
Var distillation_loss(const Var& student_logits, const tensor::Tensor& teacher_probs,
                      float temperature);

// ---- geometry ----------------------------------------------------------------------------
/// Differentiable cosine similarity of two equally-sized tensors (flattened),
/// returning a scalar Var. Used by the DPCL loss (Eq. 6).
Var cosine_similarity(const Var& a, const Var& b);

// ---- convolution ---------------------------------------------------------------------------
/// 2-D convolution over one sample or a batch.
///   input  [Cin, H, W] or [N, Cin, H, W]
///   weight [Cout, Cin*kh*kw]   (pre-flattened filter bank)
///   bias   [Cout]
/// Returns [Cout, Hout, Wout] (or [N, Cout, Hout, Wout]) with
/// Hout = (H + 2*pad - kh)/stride + 1. Weight and bias gradients fold one
/// partial per sample.
Var conv2d(const Var& input, const Var& weight, const Var& bias, std::size_t kh,
           std::size_t kw, std::size_t stride, std::size_t pad);

}  // namespace reffil::autograd
