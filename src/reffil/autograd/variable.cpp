#include "reffil/autograd/variable.hpp"

#include <algorithm>
#include <unordered_set>

#include "reffil/autograd/graph.hpp"
#include "reffil/tensor/ops.hpp"
#include "reffil/util/error.hpp"
#include "reffil/util/prof.hpp"
#include "reffil/util/thread_pool.hpp"

namespace reffil::autograd {

// One sweep's parameter contributions, in arrival order. Entries keep their
// buffers across sweeps, so a recycled tape copies instead of allocating.
class OrderedFold::Tape {
 public:
  void clear() { used_ = 0; }

  void record(Node* parameter, const tensor::Tensor& g, std::size_t samples) {
    if (used_ == entries_.size()) entries_.emplace_back();
    Entry& entry = entries_[used_++];
    entry.parameter = parameter;
    entry.samples = samples;
    if (entry.grad.shape() == g.shape()) {
      std::copy(g.begin(), g.end(), entry.grad.begin());
    } else {
      entry.grad = g;
    }
  }

  void fold() const {
    for (std::size_t i = 0; i < used_; ++i) {
      entries_[i].parameter->accumulate_grad(entries_[i].grad,
                                             entries_[i].samples);
    }
  }

 private:
  struct Entry {
    Node* parameter = nullptr;
    tensor::Tensor grad;
    std::size_t samples = 1;
  };
  std::vector<Entry> entries_;  ///< [0, used_) live; the rest keep storage
  std::size_t used_ = 0;
};

thread_local OrderedFold::Tape* OrderedFold::armed_ = nullptr;

OrderedFold::OrderedFold() = default;
OrderedFold::~OrderedFold() = default;

bool OrderedFold::divert(Node* parameter, const tensor::Tensor& g,
                         std::size_t samples) {
  if (armed_ == nullptr) return false;
  armed_->record(parameter, g, samples);
  return true;
}

void OrderedFold::begin(std::size_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  next_ = 0;
  finished_.assign(n, nullptr);
  // Reclaim every tape, including any stranded by a sweep that threw.
  free_.clear();
  for (const auto& tape : tapes_) free_.push_back(tape.get());
}

void OrderedFold::sweep(std::size_t k, const std::function<void()>& run) {
  Tape* tape = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    REFFIL_CHECK_MSG(k < finished_.size(), "OrderedFold: sweep out of range");
    // When k is next in line, every earlier sweep is folded and nobody folds
    // again until k commits, so k writes the parameters' gradients itself.
    if (k != next_) {
      if (free_.empty()) {
        tapes_.push_back(std::make_unique<Tape>());
        tape = tapes_.back().get();
      } else {
        tape = free_.back();
        free_.pop_back();
      }
      tape->clear();
    }
  }
  {
    struct Arm {  // restores the thread's previous tape even if run() throws
      Tape* previous = armed_;
      explicit Arm(Tape* t) { armed_ = t; }
      ~Arm() { armed_ = previous; }
    } arm(tape);
    run();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (tape == nullptr) {
    ++next_;  // k was next in line and wrote the gradients itself
  } else {
    finished_[k] = tape;
  }
  while (next_ < finished_.size() && finished_[next_] != nullptr) {
    Tape* ready = finished_[next_];
    ready->fold();
    free_.push_back(ready);
    finished_[next_++] = nullptr;
  }
}

void OrderedFold::sweep_runs(
    util::ThreadPool& pool, std::size_t n, std::size_t runs,
    const std::function<void(std::size_t, std::size_t)>& sweep_run,
    const char* wait_span) {
  REFFIL_CHECK_MSG(runs > 0 && runs <= n, "sweep_runs: need 1..n runs");
  begin(runs);
  // fan_out claims indices in commit order, so with no idle worker every
  // sweep is next in line and writes the gradients directly.
  pool.fan_out(
      runs,
      [&](std::size_t k) {
        const std::size_t r = runs - 1 - k;
        sweep(k, [&] { sweep_run(r * n / runs, (r + 1) * n / runs); });
      },
      wait_span);
}

void Node::accumulate_grad(const tensor::Tensor& g, std::size_t samples) {
  if (samples == 1 ? g.shape() != value_.shape()
                   : g.numel() != samples * value_.numel()) {
    throw ShapeError("gradient shape " + tensor::shape_to_string(g.shape()) +
                     " does not hold " + std::to_string(samples) +
                     " gradients of value shape " +
                     tensor::shape_to_string(value_.shape()));
  }
  if (parameter_ && OrderedFold::divert(this, g, samples)) return;
  if (!grad_initialized_) {
    // The first gradient is copied, not added to zero. Reusing the existing
    // storage (owning buffer or arena view) is bitwise-identical to
    // assigning a fresh copy, and it keeps replayed steps allocation-free.
    if (grad_.shape() != value_.shape()) {
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
    const float* last = g.begin() + (samples - 1) * value_.numel();
    std::copy(last, last + value_.numel(), grad_.begin());
    grad_initialized_ = true;
    --samples;
  }
  if (samples > 0) tensor::fold_add_inplace(grad_, g.begin(), samples);
}

namespace {
// Nodes that took an n > 1 sample fold during this thread's current
// backward() sweep; backward() clears it on entry.
thread_local std::vector<const Node*> tls_sample_folded;
}  // namespace

void fold_sample_grads(Node& node, const tensor::Tensor& partials,
                       std::size_t n) {
  if (n == 1) {
    // One sample: the partials are the gradient, whatever their stacking.
    node.accumulate_grad(tensor::Tensor::view(
        const_cast<float*>(partials.begin()), node.value().shape()));
    return;
  }
  // A second fold would commit (use 1: n-1..0) then (use 2: n-1..0), but the
  // per-sample graphs interleave the uses sample by sample.
  REFFIL_CHECK_MSG(std::find(tls_sample_folded.begin(), tls_sample_folded.end(),
                             &node) == tls_sample_folded.end(),
                   "batched step feeds one node twice per sample; its "
                   "gradient fold would not match the per-sample graphs");
  tls_sample_folded.push_back(&node);
  node.accumulate_grad(partials, n);
}

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

Var make_node(tensor::Shape shape, std::vector<Var> parents,
              std::function<void(const tensor::Tensor&)> backward_fn,
              const char* op_name) {
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
  if (needs_grad) {
    node->set_parents(std::move(parents));
    node->set_backward(std::move(backward_fn));
    node->set_op(op_name);
  }
  return node;
}

namespace {
// Iterative post-order DFS producing a topological order (parents before
// children in the returned list, so we sweep it in reverse).
void topo_sort(const Var& root, std::vector<Node*>& order) {
  std::unordered_set<const Node*> visited;
  struct Frame {
    Node* node;
    std::size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({root.get(), 0});
  visited.insert(root.get());
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent < frame.node->parents().size()) {
      Node* parent = frame.node->parents()[frame.next_parent++].get();
      if (parent->requires_grad() && visited.insert(parent).second) {
        stack.push_back({parent, 0});
      }
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
  tls_sample_folded.clear();

  obs::prof::Span sweep_span("ag.backward");
  std::vector<Node*> order;
  topo_sort(root, order);
  if (graph::detail::capture_active()) graph::detail::on_backward(root, order);

  root->accumulate_grad(tensor::ones(root->value().shape()));
  // order is post-order (root last); sweep from the root backwards. Each
  // closure runs under a bw:<op> span named after the op that built it.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    if (node->backward_fn()) {
      obs::prof::Span span(obs::prof::Backward{node->op_name()});
      node->backward_fn()(node->grad());
    }
  }
}

}  // namespace reffil::autograd
