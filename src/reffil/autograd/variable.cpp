#include "reffil/autograd/variable.hpp"

#include <algorithm>
#include <unordered_set>

#include "reffil/autograd/graph.hpp"
#include "reffil/tensor/ops.hpp"
#include "reffil/util/error.hpp"
#include "reffil/util/prof.hpp"

namespace reffil::autograd {

// One sweep's parameter contributions, in arrival order. Entries keep their
// buffers across sweeps, so a recycled tape copies instead of allocating.
class OrderedFold::Tape {
 public:
  void clear() { used_ = 0; }

  void record(Node* parameter, const tensor::Tensor& g) {
    if (used_ == entries_.size()) entries_.emplace_back();
    Entry& entry = entries_[used_++];
    entry.parameter = parameter;
    if (entry.grad.shape() == g.shape()) {
      std::copy(g.begin(), g.end(), entry.grad.begin());
    } else {
      entry.grad = g;
    }
  }

  void fold() const {
    for (std::size_t i = 0; i < used_; ++i) {
      entries_[i].parameter->accumulate_grad(entries_[i].grad);
    }
  }

 private:
  struct Entry {
    Node* parameter = nullptr;
    tensor::Tensor grad;
  };
  std::vector<Entry> entries_;  ///< [0, used_) live; the rest keep storage
  std::size_t used_ = 0;
};

thread_local OrderedFold::Tape* OrderedFold::armed_ = nullptr;

OrderedFold::OrderedFold() = default;
OrderedFold::~OrderedFold() = default;

bool OrderedFold::divert(Node* parameter, const tensor::Tensor& g) {
  if (armed_ == nullptr) return false;
  armed_->record(parameter, g);
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

void Node::accumulate_grad(const tensor::Tensor& g) {
  if (g.shape() != value_.shape()) {
    throw ShapeError("gradient shape " + tensor::shape_to_string(g.shape()) +
                     " does not match value shape " +
                     tensor::shape_to_string(value_.shape()));
  }
  if (parameter_ && OrderedFold::divert(this, g)) return;
  if (!grad_initialized_) {
    if (grad_.shape() == value_.shape()) {
      // Reuse the existing storage (owning buffer or arena view): a plain
      // element copy is bitwise-identical to assigning a fresh copy of g,
      // and it is what keeps replayed steps allocation-free.
      std::copy(g.begin(), g.end(), grad_.begin());
    } else {
      grad_ = g;
    }
    grad_initialized_ = true;
  } else {
    tensor::add_inplace(grad_, g);
  }
}

void Node::adopt_grad_storage(tensor::Tensor storage) {
  REFFIL_CHECK_MSG(storage.shape() == value_.shape(),
                   "adopt_grad_storage: shape mismatch");
  grad_ = std::move(storage);
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

Var make_node(tensor::Tensor value, std::vector<Var> parents,
              std::function<void(const tensor::Tensor&)> backward_fn,
              const char* op_name, std::uint64_t corr) {
  bool needs_grad = false;
  for (const auto& p : parents) needs_grad = needs_grad || p->requires_grad();
  auto node = std::make_shared<Node>(std::move(value), needs_grad);
  // The capture context keeps its own copy of the parent edges: when
  // needs_grad is false they are dropped from the node below, but replay
  // still has to keep every upstream value alive for the forward closures.
  if (graph::detail::capture_active()) graph::detail::track_node(node, parents);
  if (needs_grad) {
    node->set_parents(std::move(parents));
    node->set_backward(std::move(backward_fn));
    node->set_op(op_name, corr);
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

  std::vector<Node*> order;
  topo_sort(root, order);
  if (graph::detail::capture_active()) graph::detail::on_backward(root, order);

  root->accumulate_grad(tensor::ones(root->value().shape()));
  // order is post-order (root last); sweep from the root backwards. Each
  // closure runs under a bw: span carrying the forward op's correlation id,
  // so a trace viewer can pair every backward slice with its forward twin.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    if (node->backward_fn()) {
      obs::prof::Span span(node->op_name(), 0, node->corr(),
                           obs::prof::Kind::kBackward);
      node->backward_fn()(node->grad());
    }
  }
}

}  // namespace reffil::autograd
