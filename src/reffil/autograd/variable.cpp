#include "reffil/autograd/variable.hpp"

#include <algorithm>
#include <memory_resource>
#include <unordered_map>
#include <utility>

#include "reffil/autograd/graph.hpp"
#include "reffil/tensor/ops.hpp"
#include "reffil/util/error.hpp"
#include "reffil/util/prof.hpp"

namespace reffil::autograd {

void Node::shape_grad() {
  if (grad_.shape() == value_.shape()) return;
  // Pooled like the value when the value is; a parameter's gradient is
  // allocated once and lives across steps.
  if (value_storage_) {
    grad_storage_.emplace(value_.shape(), /*zero=*/false,
                          tensor::pool::Lifetime::kGraph);
    grad_ = std::move(grad_storage_->tensor());
  } else {
    grad_ = tensor::Tensor(value_.shape());
  }
}

void Node::add_rows(const float* g, std::size_t row, std::size_t count) {
  const std::size_t width = value_.dim(1);
  float* dst = grad_.begin() + row * width;
  for (std::size_t r = row; r < row + count; ++r, dst += width, g += width) {
    if (rows_set_[r]) {
      for (std::size_t j = 0; j < width; ++j) dst[j] += g[j];
    } else {
      std::copy(g, g + width, dst);
      rows_set_[r] = true;
    }
  }
}

void Node::settle_grad() {
  if (rows_set_.empty()) return;
  const std::size_t width = value_.dim(1);
  for (std::size_t r = 0; r < rows_set_.size(); ++r) {
    if (!rows_set_[r]) std::fill_n(grad_.begin() + r * width, width, 0.0f);
  }
  rows_set_.clear();
  grad_initialized_ = true;
}

void Node::add_grad(const tensor::Tensor& g, std::size_t samples) {
  if (samples == 1 ? g.shape() != value_.shape()
                   : g.numel() != samples * value_.numel()) {
    throw ShapeError("gradient shape " + tensor::shape_to_string(g.shape()) +
                     " does not hold " + std::to_string(samples) +
                     " gradients of value shape " +
                     tensor::shape_to_string(value_.shape()));
  }
  if (!rows_set_.empty()) {
    // Some rows already took a row contribution: add there, copy elsewhere.
    REFFIL_CHECK_MSG(samples == 1, "row contributions fold one gradient");
    add_rows(g.begin(), 0, value_.dim(0));
    rows_set_.clear();
    grad_initialized_ = true;
    return;
  }
  if (!grad_initialized_) {
    // The first gradient is copied, not added to zero. Reusing the existing
    // storage (owning buffer or arena view) is bitwise-identical to
    // assigning a fresh copy, and it keeps replayed steps allocation-free.
    shape_grad();
    const float* last = g.begin() + (samples - 1) * value_.numel();
    std::copy(last, last + value_.numel(), grad_.begin());
    grad_initialized_ = true;
    --samples;
  }
  if (samples > 0) tensor::fold_add_inplace(grad_, g.begin(), samples);
}

void Node::accumulate_grad_rows(const tensor::Tensor& g, std::size_t row) {
  REFFIL_CHECK_MSG(value_.rank() == 2 && g.rank() == 2 &&
                       g.dim(1) == value_.dim(1) &&
                       row + g.dim(0) <= value_.dim(0),
                   "accumulate_grad_rows: rows out of the value's range");
  // A parameter takes whole gradients, the unit its sweep queue folds.
  REFFIL_CHECK_MSG(!parameter_, "accumulate_grad_rows on a parameter");
  if (grad_initialized_) {
    float* dst = grad_.begin() + row * value_.dim(1);
    for (std::size_t i = 0; i < g.numel(); ++i) dst[i] += g.begin()[i];
    return;
  }
  if (rows_set_.empty()) {
    shape_grad();
    rows_set_.assign(value_.dim(0), false);
  }
  add_rows(g.begin(), row, g.dim(0));
}

void Node::release_grad() {
  grad_ = tensor::Tensor(tensor::Shape{0});  // drop the view before its storage
  grad_storage_.reset();
  grad_initialized_ = false;
  rows_set_.clear();
}

namespace {

/// One use's partials for a node with several uses in the sweep, waiting
/// for the others.
struct DeferredFold {
  Node* node;
  /// n blocks of the node's value size (boxed: Scratch does not move-assign)
  std::unique_ptr<tensor::pool::Scratch> partials;
  /// The run sample of each block, non-decreasing; null = 0..n-1.
  std::shared_ptr<const std::vector<std::size_t>> samples;
  std::size_t n;
  std::uint64_t seq;  ///< build order of the op that made the partials

  std::size_t sample(std::size_t k) const {
    return samples ? (*samples)[k] : k;
  }
};

/// Memory for a sweep's own bookkeeping: a per-thread pool, so the sweeps
/// of a training loop reuse it instead of allocating per swept node.
std::pmr::memory_resource* sweep_memory() {
  thread_local std::pmr::unsynchronized_pool_resource pool;
  return &pool;
}

/// This thread's current backward() sweep.
struct Sweep {
  /// Per swept node, how many edges of swept consumers point at it: the
  /// uses whose folds it waits for.
  std::pmr::unordered_map<const Node*, std::uint32_t> consumers{sweep_memory()};
  /// The queued folds, in the order the sweep made them.
  std::pmr::vector<DeferredFold> folds{sweep_memory()};
  const Node* running = nullptr;  ///< the node whose closure is running
};
thread_local Sweep* tls_sweep = nullptr;

/// The SampleSubset new nodes are built under.
thread_local std::shared_ptr<const std::vector<std::size_t>> tls_subset;

/// Build order of this thread's nodes (Node::seq).
thread_local std::uint64_t tls_build_seq = 0;

/// Commit every deferred fold into `node`: for sample i = last..0, the
/// uses covering i from the latest-built op to the earliest (a one-sample
/// graph's sweep reaches them in that order), and within one use i's blocks
/// last first. One use is one accumulate_grad over its blocks; several are
/// first gathered into one buffer with the first contribution in the last
/// block, since accumulate_grad(g, count) adds block count-1 first.
void commit_folds(std::pmr::vector<DeferredFold>& folds, Node* node) {
  const auto is_node = [node](const DeferredFold& f) { return f.node == node; };
  const auto first = std::find_if(folds.begin(), folds.end(), is_node);
  if (first == folds.end()) return;
  std::pmr::vector<const DeferredFold*> uses(sweep_memory());
  std::size_t count = 0;
  for (auto it = first; it != folds.end(); ++it) {
    if (it->node != node) continue;
    uses.push_back(&*it);
    count += it->n;
  }
  if (uses.size() == 1) {
    node->accumulate_grad(**uses.front()->partials, count);
  } else {
    std::stable_sort(uses.begin(), uses.end(),
                     [](const DeferredFold* a, const DeferredFold* b) {
                       return a->seq > b->seq;
                     });
    const std::size_t size = node->value().numel();
    tensor::pool::Scratch merged({count, size}, /*zero=*/false);
    // Per use, the blocks not yet placed.
    std::pmr::vector<std::size_t> left(uses.size(), sweep_memory());
    for (std::size_t u = 0; u < uses.size(); ++u) left[u] = uses[u]->n;
    for (std::size_t slot = count; slot > 0;) {
      std::size_t sample = 0;
      for (std::size_t u = 0; u < uses.size(); ++u) {
        if (left[u] > 0) sample = std::max(sample, uses[u]->sample(left[u] - 1));
      }
      for (std::size_t u = 0; u < uses.size(); ++u) {
        while (left[u] > 0 && uses[u]->sample(left[u] - 1) == sample) {
          const float* block = (*uses[u]->partials)->begin() + --left[u] * size;
          std::copy(block, block + size, merged->begin() + --slot * size);
        }
      }
    }
    node->accumulate_grad(*merged, count);
  }
  folds.erase(std::remove_if(first, folds.end(), is_node), folds.end());
}

/// True when a contribution to `node` in this sweep must wait for the
/// node's other uses: some already wait, or more than one swept edge leads
/// to it. A sole use has nothing to interleave with and adds at once.
bool must_wait(const Sweep& sweep, const Node& node) {
  return std::any_of(sweep.folds.begin(), sweep.folds.end(),
                     [&node](const DeferredFold& f) { return f.node == &node; }) ||
         sweep.consumers.at(&node) > 1;
}

/// Queue the running op's contribution to `node`; once every use has
/// arrived, commit them all. The commit's adds bypass the queue.
void defer(Sweep& sweep, Node& node, tensor::pool::Scratch&& partials,
           std::size_t n) {
  const auto& subset = sweep.running->sample_subset();
  REFFIL_CHECK_MSG(subset == nullptr || subset->size() == n,
                   "fold_sample_grads: partials do not match the op's "
                   "sample subset");
  sweep.folds.push_back(DeferredFold{
      &node, std::make_unique<tensor::pool::Scratch>(std::move(partials)),
      subset, n, sweep.running->seq()});
  const auto arrived =
      std::count_if(sweep.folds.begin(), sweep.folds.end(),
                    [&node](const DeferredFold& f) { return f.node == &node; });
  if (arrived == sweep.consumers.at(&node)) {
    const Node* running = std::exchange(sweep.running, nullptr);
    commit_folds(sweep.folds, &node);
    sweep.running = running;
  }
}

}  // namespace

void Node::accumulate_grad(const tensor::Tensor& g, std::size_t samples) {
  // A parameter's contributions queue like fold_sample_grads' partials (the
  // one-sample graphs add theirs through here).
  Sweep* sweep = tls_sweep;
  if (parameter_ && samples == 1 && sweep != nullptr &&
      sweep->running != nullptr && g.shape() == value_.shape() &&
      must_wait(*sweep, *this)) {
    tensor::pool::Scratch copy(value_.shape(), /*zero=*/false);
    std::copy(g.begin(), g.end(), copy->begin());
    defer(*sweep, *this, std::move(copy), 1);
    return;
  }
  add_grad(g, samples);
}

void fold_sample_grads(Node& node, tensor::pool::Scratch partials,
                       std::size_t n) {
  Sweep* sweep = tls_sweep;
  if (sweep != nullptr && sweep->running != nullptr && must_wait(*sweep, node)) {
    defer(*sweep, node, std::move(partials), n);
    return;
  }
  node.accumulate_grad(
      n == 1 ? tensor::Tensor::view(partials->begin(), node.value().shape())
             : *partials,
      n);
}

SampleSubset::SampleSubset(std::vector<std::size_t> samples)
    : previous_(std::move(tls_subset)) {
  REFFIL_CHECK_MSG(!samples.empty() &&
                       std::is_sorted(samples.begin(), samples.end()),
                   "SampleSubset: samples must be non-decreasing, non-empty");
  tls_subset =
      std::make_shared<const std::vector<std::size_t>>(std::move(samples));
}

SampleSubset::~SampleSubset() { tls_subset = std::move(previous_); }

void Node::adopt_grad_storage(tensor::Tensor storage) {
  REFFIL_CHECK_MSG(storage.shape() == value_.shape(),
                   "adopt_grad_storage: shape mismatch");
  grad_ = std::move(storage);
  grad_storage_.reset();
  grad_initialized_ = false;
}

Var constant(tensor::Tensor value) {
  return std::make_shared<Node>(std::move(value), /*requires_grad=*/false);
}

Var parameter(tensor::Tensor value) {
  auto node = std::make_shared<Node>(std::move(value), /*requires_grad=*/true);
  node->mark_parameter();
  node->zero_grad();
  return node;
}

Node::Node(tensor::Shape shape, bool requires_grad)
    : value_storage_(std::in_place, std::move(shape), /*zero=*/false,
                     tensor::pool::Lifetime::kGraph),
      value_(std::move(value_storage_->tensor())),
      requires_grad_(requires_grad) {}

Var make_node(tensor::Shape shape, std::initializer_list<Var> parents,
              std::function<void(const tensor::Tensor&)> backward_fn,
              const char* op_name) {
  REFFIL_CHECK_MSG(parents.size() <= Node::kMaxParents,
                   "make_node: more parents than a node holds");
  bool needs_grad = false;
  for (const auto& p : parents) needs_grad = needs_grad || p->requires_grad();
  auto node = graph::detail::capture_active()
                  ? std::make_shared<Node>(tensor::Tensor(std::move(shape)),
                                           needs_grad)
                  : std::make_shared<Node>(std::move(shape), needs_grad);
  // The capture context keeps its own copy of the parent edges: when
  // needs_grad is false they are dropped from the node below, but replay
  // still has to keep every upstream value alive for the forward closures.
  if (graph::detail::capture_active()) graph::detail::track_node(node, parents);
  node->sample_subset_ = tls_subset;
  node->seq_ = ++tls_build_seq;
  if (needs_grad) {
    std::copy(parents.begin(), parents.end(), node->parents_.begin());
    node->num_parents_ = parents.size();
    node->set_backward(std::move(backward_fn));
    node->set_op(op_name);
  }
  return node;
}

namespace {
// Iterative post-order DFS producing a topological order (parents before
// children in the returned list, so we sweep it in reverse).
// `consumers` counts, per node, the edges pointing at it.
void topo_sort(const Var& root, std::pmr::vector<Node*>& order,
               std::pmr::unordered_map<const Node*, std::uint32_t>& consumers) {
  struct Frame {
    Node* node;
    std::size_t next_parent;
  };
  std::pmr::vector<Frame> stack(sweep_memory());
  stack.push_back({root.get(), 0});
  consumers.emplace(root.get(), 0);
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent < frame.node->parents().size()) {
      Node* parent = frame.node->parents()[frame.next_parent++].get();
      if (!parent->requires_grad()) continue;
      const auto [it, fresh] = consumers.try_emplace(parent, 0);
      ++it->second;
      if (fresh) stack.push_back({parent, 0});
    } else {
      order.push_back(frame.node);
      stack.pop_back();
    }
  }
}
}  // namespace

void backward(const Var& root) {
  REFFIL_CHECK_MSG(root != nullptr, "backward on null Var");
  REFFIL_CHECK_MSG(root->value().numel() == 1,
                   "backward requires a scalar (single-element) root");
  if (!root->requires_grad()) return;
  if (root->swept()) {
    throw Error(
        "backward() called twice on the same root: the second sweep would "
        "re-seed the root with ones and double-accumulate every gradient");
  }
  root->mark_swept();

  obs::prof::Span sweep_span("ag.backward");
  Sweep sweep;
  std::pmr::vector<Node*> order(sweep_memory());
  topo_sort(root, order, sweep.consumers);
  const bool capturing = graph::detail::capture_active();
  if (capturing) graph::detail::on_backward(root, order);

  struct Arm {  // restores the outer sweep even if a closure throws
    Sweep* previous = tls_sweep;
    explicit Arm(Sweep* s) { tls_sweep = s; }
    ~Arm() { tls_sweep = previous; }
  } arm(&sweep);

  root->accumulate_grad(tensor::ones(root->value().shape()));
  // order is post-order (root last); sweep from the root backwards. Every
  // consumer of a node comes before it, so its deferred folds are complete
  // when the sweep reaches it. Each closure runs under a bw:<op> span named
  // after the op that built it; afterwards nothing reads that node's
  // gradient again, so it is released (except for the root, which callers
  // may read, and under capture, whose planner owns gradient storage).
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    sweep.running = nullptr;
    if (!sweep.folds.empty()) commit_folds(sweep.folds, node);
    if (!node->backward_fn()) continue;
    node->settle_grad();
    sweep.running = node;
    {
      obs::prof::Span span(obs::prof::Backward{node->op_name()});
      node->backward_fn()(node->grad());
    }
    if (!capturing && node != root.get()) node->release_grad();
  }
  REFFIL_CHECK_MSG(sweep.folds.empty(),
                   "backward: a fold into a node outside the sweep");
}

}  // namespace reffil::autograd
