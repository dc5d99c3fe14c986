// Reverse-mode automatic differentiation.
//
// A Var is a shared handle to a tape Node holding a value tensor, an
// accumulated gradient, the parent edges and a backward closure. Graphs are
// built implicitly by the ops in reffil/autograd/ops.hpp; calling
// backward(root) runs a topological sweep and accumulates dL/dx into every
// node that requires gradients.
//
// The engine is deliberately scalar-loss oriented: backward() requires the
// root to be a single-element tensor (a loss), which is all the training
// stack needs and keeps the seeding rule unambiguous.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "reffil/tensor/pool.hpp"
#include "reffil/tensor/tensor.hpp"

namespace reffil::autograd {

class Node;
using Var = std::shared_ptr<Node>;

class Node {
 public:
  /// The most parent edges an op gives its node; they are held inline.
  static constexpr std::size_t kMaxParents = 3;

  Node(tensor::Tensor value, bool requires_grad)
      : value_(std::move(value)), requires_grad_(requires_grad) {}

  /// A value of `shape` with unspecified contents, for an op whose forward
  /// overwrites every element. Its storage, and later the gradient's, is
  /// borrowed from the calling thread's graph-storage free list
  /// (tensor/pool.hpp, Lifetime::kGraph) for the node's lifetime. Graph
  /// nodes are rebuilt every step, and a batched step's activations are
  /// large enough that allocating them fresh each time page-faults them in
  /// again.
  Node(tensor::Shape shape, bool requires_grad);

  const tensor::Tensor& value() const { return value_; }
  tensor::Tensor& mutable_value() { return value_; }

  bool requires_grad() const { return requires_grad_; }

  /// Flags a trainable leaf made by parameter(): the nodes whose one-gradient
  /// contributions queue in a sweep with their other uses' partials.
  void mark_parameter() { parameter_ = true; }

  /// Accumulated gradient; zero tensor of value's shape until backward runs.
  const tensor::Tensor& grad() const { return grad_; }

  /// Reset the gradient to zero (keeps shape). When the stored gradient
  /// already has the right shape the buffer is zero-filled in place — no
  /// allocation — and stays live so the next accumulate_grad adds into it.
  void zero_grad() {
    if (grad_.shape() == value_.shape()) {
      std::fill(grad_.begin(), grad_.end(), 0.0f);
      grad_initialized_ = true;
    } else {
      grad_storage_.reset();
      grad_ = tensor::Tensor(value_.shape());
      grad_initialized_ = false;
    }
  }

  /// Add g into the stored gradient (lazily shaped on first call). With
  /// samples > 1, g holds that many gradients of the value's size, added in
  /// order samples-1 ... 0, each rounded on its own: bitwise that many
  /// one-gradient calls (see fold_sample_grads). Inside backward(), a
  /// parameter's one-gradient contribution queues with its other uses' as
  /// fold_sample_grads' partials do.
  void accumulate_grad(const tensor::Tensor& g, std::size_t samples = 1);

  /// Add g, the gradient of rows [row, row + g.dim(0)) of this rank-2 value,
  /// into those rows only: one sample's share of a batched node that only
  /// some samples' ops read. Other rows neither take a zero nor change; any
  /// row no contribution reaches reads as zero when the node's own backward
  /// closure runs.
  void accumulate_grad_rows(const tensor::Tensor& g, std::size_t row);

  /// Drop the gradient and its storage. backward() calls it on interior
  /// nodes once their closure has run: nothing reads that gradient again,
  /// and its pooled buffer serves the rest of the sweep.
  void release_grad();

  /// Forget the accumulated gradient but keep its storage (arena view or
  /// owning buffer): the next accumulate_grad copies into the existing
  /// buffer instead of allocating. Used by graph replay between steps;
  /// bitwise-equivalent to starting from an uninitialized gradient.
  void reset_grad_keep_storage() { grad_initialized_ = false; }

  /// Point the gradient at caller-planned storage (an arena view). The next
  /// accumulate_grad copies into it; the shape must match the value's.
  void adopt_grad_storage(tensor::Tensor storage);

  /// True once backward() has swept from this node as its root. A second
  /// backward() on the same root would silently re-seed and re-fire every
  /// closure into already-populated gradients, so backward() throws instead.
  bool swept() const { return swept_; }
  void mark_swept() { swept_ = true; }

  // --- graph wiring (used by the op library) ---------------------------------
  /// The nodes this one's backward closure adds into (none when the node
  /// needs no gradient).
  std::span<const Var> parents() const { return {parents_.data(), num_parents_}; }

  /// backward_fn(out_grad) must add this node's contribution into each
  /// parent via parent->accumulate_grad(...).
  void set_backward(std::function<void(const tensor::Tensor&)> fn) {
    backward_fn_ = std::move(fn);
  }
  const std::function<void(const tensor::Tensor&)>& backward_fn() const {
    return backward_fn_;
  }

  /// Build order on the thread that made the node (make_node counts up):
  /// a node made later has a larger number.
  std::uint64_t seq() const { return seq_; }

  /// The run sample of each row block a batched op built under a
  /// SampleSubset covers; null when it covers samples 0..k-1.
  const std::shared_ptr<const std::vector<std::size_t>>& sample_subset() const {
    return sample_subset_;
  }

  /// Profiler name of the forward op that built this node (static storage).
  /// The backward sweep runs the closure under a bw:<name> span, which
  /// reffil_prof joins to the forward op's row by name.
  void set_op(const char* name) { op_name_ = name; }
  const char* op_name() const { return op_name_; }

 private:
  friend void backward(const Var& root);
  friend Var make_node(tensor::Shape, std::initializer_list<Var>,
                       std::function<void(const tensor::Tensor&)>, const char*);
  /// accumulate_grad past the sweep's queue.
  void add_grad(const tensor::Tensor& g, std::size_t samples);
  /// Give the gradient storage of the value's shape (pooled like the
  /// value when the value is) without initializing it.
  void shape_grad();
  /// Rows [row, row + count) of g (count rows of the value's width): added
  /// where a row already holds a gradient, copied where none does.
  void add_rows(const float* g, std::size_t row, std::size_t count);
  /// Before the node's closure reads its gradient: rows that only some
  /// samples' row contributions left unset become zero.
  void settle_grad();

  // Pool borrows behind value_ / grad_ when those are views of them; each
  // is declared before the view it backs, so the view dies first.
  std::optional<tensor::pool::Scratch> value_storage_;
  tensor::Tensor value_;
  std::optional<tensor::pool::Scratch> grad_storage_;
  tensor::Tensor grad_;  // empty-shape scalar until first accumulation
  bool grad_initialized_ = false;
  /// Per row, while only row contributions (accumulate_grad_rows) have
  /// arrived: whether that row holds a gradient yet. Empty otherwise.
  std::vector<bool> rows_set_;
  bool swept_ = false;
  bool parameter_ = false;
  bool requires_grad_;
  std::array<Var, kMaxParents> parents_;
  std::size_t num_parents_ = 0;
  std::function<void(const tensor::Tensor&)> backward_fn_;
  std::shared_ptr<const std::vector<std::size_t>> sample_subset_;
  std::uint64_t seq_ = 0;
  const char* op_name_ = nullptr;
};

/// Wrap a tensor as a graph leaf.
Var constant(tensor::Tensor value);

/// Wrap a tensor as a trainable leaf (requires_grad = true).
Var parameter(tensor::Tensor value);

/// Run reverse-mode accumulation from a scalar root. Gradients accumulate —
/// call zero_grad on parameters between steps (the optimizer does this).
/// Throws util::Error if called twice on the same root: the second sweep
/// would re-seed the root with ones and double-accumulate every gradient.
void backward(const Var& root);

/// Hand a batched op's per-sample gradient partials for a node every sample
/// shares (a weight, a bias, a class token) to the sweep. `partials` holds
/// n blocks of the node's value shape, one per sample the op covers: the
/// run's samples 0..n-1, or under a SampleSubset the samples it names.
///
/// Inside backward(), a node with one consumer edge takes them at once,
/// block n-1 first, each rounded on its own (accumulate_grad(partials, n)).
/// A node with several waits until every use has arrived, then takes them
/// interleaved as the per-sample graphs add them (DESIGN.md §16, "The
/// multi-use fold"): for sample i = last..0, the uses covering i from the
/// latest-built op to the earliest, each partial rounded on its own.
/// Outside backward() the partials are added at once.
void fold_sample_grads(Node& node, tensor::pool::Scratch partials,
                       std::size_t n);

/// While it lives, the ops built on this thread cover the named samples of
/// the batched run instead of samples 0..k-1, one entry per row block in
/// order (non-decreasing run-local indices; a sample repeats when it owns
/// several blocks): a pass only some of a run's samples take. Their
/// fold_sample_grads partials then commit as those samples' contributions.
/// Nests; the innermost subset wins.
class SampleSubset {
 public:
  explicit SampleSubset(std::vector<std::size_t> samples);
  ~SampleSubset();
  SampleSubset(const SampleSubset&) = delete;
  SampleSubset& operator=(const SampleSubset&) = delete;

 private:
  std::shared_ptr<const std::vector<std::size_t>> previous_;
};

/// Helper used by ops: create an interior node with a value of `shape`
/// that the op's forward closure overwrites in full (pooled storage with
/// unspecified contents, except under graph capture, whose planner rebinds
/// values to its arena) whose requires_grad is the OR of its parents'.
/// At most Node::kMaxParents parents. `op_name` must have static storage
/// duration (it is the profiler label for the backward span).
Var make_node(tensor::Shape shape, std::initializer_list<Var> parents,
              std::function<void(const tensor::Tensor&)> backward_fn,
              const char* op_name);

}  // namespace reffil::autograd
