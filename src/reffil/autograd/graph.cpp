#include "reffil/autograd/graph.hpp"

#include <algorithm>
#include <cstdint>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "reffil/tensor/ops.hpp"
#include "reffil/util/error.hpp"
#include "reffil/util/obs.hpp"
#include "reffil/util/prof.hpp"

namespace reffil::autograd::graph {

namespace {

struct PendingNode {
  Var node;
  std::vector<Var> parents;
  std::function<void()> forward;  ///< empty until attach_forward
};

struct PendingLabelSlot {
  std::shared_ptr<std::vector<std::size_t>> labels;
  std::size_t num_classes = 0;
  std::size_t inputs_seen = 0;  ///< |inputs| at registration, for sample attribution
};

/// Thread-local capture state, owned for the duration of one Capture scope.
struct Context {
  std::vector<PendingNode> nodes;               // creation order
  std::unordered_map<Node*, std::size_t> index; // node -> creation position
  std::unordered_set<Node*> unrecorded;         // tracked, closure not attached
  std::vector<Var> inputs;                      // rebindable image leaves
  std::vector<PendingLabelSlot> labels;
  std::vector<Node*> backward_order;            // topo order (root last)
  Var backward_root;
  bool valid = true;
};

thread_local std::unique_ptr<Context> g_ctx;

// ---- arena planner ---------------------------------------------------------

constexpr std::size_t kAlignFloats = 16;  // 64-byte blocks

std::size_t align_up(std::size_t n) {
  return (n + kAlignFloats - 1) & ~(kAlignFloats - 1);
}

struct PlanBlock {
  std::size_t start = 0;  ///< first step that touches the tensor
  std::size_t end = 0;    ///< last step that touches it
  std::size_t floats = 0; ///< aligned size
  std::size_t offset = 0; ///< planner output
};

/// First-fit with a coalescing free list over a step timeline. A block
/// freed at step t becomes reusable at t+1 (strict `end < start` check), so
/// two tensors alive in the same step never alias. Deterministic: blocks
/// are visited in (start, construction) order and the free list is kept
/// sorted by offset. Returns the arena high watermark in floats.
std::size_t plan_offsets(std::vector<PlanBlock>& blocks) {
  std::vector<std::size_t> order(blocks.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return blocks[a].start < blocks[b].start;
                   });

  struct Free {
    std::size_t offset, size;
  };
  std::vector<Free> free_list;  // sorted by offset, coalesced
  auto release = [&](std::size_t off, std::size_t size) {
    auto it = std::lower_bound(
        free_list.begin(), free_list.end(), off,
        [](const Free& f, std::size_t o) { return f.offset < o; });
    it = free_list.insert(it, Free{off, size});
    if (it + 1 != free_list.end() && it->offset + it->size == (it + 1)->offset) {
      it->size += (it + 1)->size;
      free_list.erase(it + 1);
    }
    if (it != free_list.begin() && (it - 1)->offset + (it - 1)->size == it->offset) {
      (it - 1)->size += it->size;
      free_list.erase(it);
    }
  };

  struct Live {
    std::size_t end, offset, size;
    bool operator>(const Live& o) const {
      return end != o.end ? end > o.end
                          : (offset != o.offset ? offset > o.offset : size > o.size);
    }
  };
  std::priority_queue<Live, std::vector<Live>, std::greater<Live>> live;

  std::size_t top = 0;
  for (std::size_t i : order) {
    PlanBlock& blk = blocks[i];
    while (!live.empty() && live.top().end < blk.start) {
      release(live.top().offset, live.top().size);
      live.pop();
    }
    std::size_t chosen = top;
    bool placed = false;
    for (auto it = free_list.begin(); it != free_list.end(); ++it) {
      if (it->size >= blk.floats) {
        chosen = it->offset;
        if (it->size == blk.floats) {
          free_list.erase(it);
        } else {
          it->offset += blk.floats;
          it->size -= blk.floats;
        }
        placed = true;
        break;
      }
    }
    if (!placed) top += blk.floats;
    blk.offset = chosen;
    live.push(Live{blk.end, chosen, blk.floats});
  }
  return top;
}

}  // namespace

// ---- capture hooks ---------------------------------------------------------

bool detail::capture_active() { return g_ctx != nullptr; }

void detail::track_node(const Var& node, std::span<const Var> parents) {
  Context* ctx = g_ctx.get();
  if (ctx == nullptr) return;
  ctx->index.emplace(node.get(), ctx->nodes.size());
  ctx->nodes.push_back(
      PendingNode{node, std::vector<Var>(parents.begin(), parents.end()), {}});
  ctx->unrecorded.insert(node.get());
}

void detail::track_external(const Var& node, std::vector<Var> parents) {
  Context* ctx = g_ctx.get();
  if (ctx == nullptr) return;
  ctx->index.emplace(node.get(), ctx->nodes.size());
  ctx->nodes.push_back(PendingNode{node, std::move(parents), {}});
  ctx->unrecorded.insert(node.get());
}

void detail::attach_forward(const Var& node, std::function<void()> forward) {
  Context* ctx = g_ctx.get();
  if (ctx == nullptr) return;
  auto it = ctx->index.find(node.get());
  if (it == ctx->index.end()) {
    // A closure for a node the context never saw — some op bypassed the
    // tracking hook. Refuse to replay rather than replay a stale value.
    ctx->valid = false;
    return;
  }
  ctx->nodes[it->second].forward = std::move(forward);
  ctx->unrecorded.erase(node.get());
}

void detail::on_backward(const Var& root, std::span<Node* const> order) {
  Context* ctx = g_ctx.get();
  if (ctx == nullptr) return;
  if (ctx->backward_root != nullptr) {
    // Two sweeps inside one capture scope: not a single-step tape.
    ctx->valid = false;
    return;
  }
  ctx->backward_root = root;
  ctx->backward_order.assign(order.begin(), order.end());
}

bool capturing() { return g_ctx != nullptr; }

Var input(tensor::Tensor value) {
  Var node = constant(std::move(value));
  if (Context* ctx = g_ctx.get()) ctx->inputs.push_back(node);
  return node;
}

void record_labels(const std::shared_ptr<std::vector<std::size_t>>& labels,
                   std::size_t num_classes) {
  Context* ctx = g_ctx.get();
  if (ctx == nullptr) return;
  ctx->labels.push_back(PendingLabelSlot{labels, num_classes, ctx->inputs.size()});
}

// ---- Capture ---------------------------------------------------------------

Capture::Capture() {
  REFFIL_CHECK_MSG(g_ctx == nullptr, "nested graph capture is not supported");
  g_ctx = std::make_unique<Context>();
}

Capture::~Capture() { g_ctx.reset(); }

std::shared_ptr<CapturedGraph> Capture::finish(const Var& root,
                                               bool tag_sensitive,
                                               std::vector<std::size_t> tags) {
  std::unique_ptr<Context> ctx = std::move(g_ctx);  // deactivate recording
  REFFIL_CHECK_MSG(ctx != nullptr, "finish() outside an active capture");
  const auto reject = [] {
    obs::count("ag.graph.capture_reject");
    return std::shared_ptr<CapturedGraph>();
  };

  const std::size_t batch = tags.size();
  if (!ctx->valid || root == nullptr || batch == 0) return reject();
  if (!ctx->unrecorded.empty()) return reject();
  if (ctx->nodes.empty()) return reject();
  if (ctx->backward_root.get() != root.get()) return reject();

  // Input slots must tile the batch evenly: slot j belongs to sample
  // j / (slots-per-sample). Methods whose per-sample structure varies are
  // kept out by the tag-pattern check at bind time, so uniform input counts
  // are the only layout this mapping must support.
  std::size_t ipp = 0;
  if (!ctx->inputs.empty()) {
    if (ctx->inputs.size() % batch != 0) return reject();
    ipp = ctx->inputs.size() / batch;
  }

  auto graph = std::make_shared<CapturedGraph>();
  for (const PendingLabelSlot& slot : ctx->labels) {
    if (slot.labels == nullptr || slot.labels->size() != 1) return reject();
    std::size_t sample = 0;
    if (ipp > 0) {
      if (slot.inputs_seen == 0) return reject();
      sample = (slot.inputs_seen - 1) / ipp;
      if (sample >= batch) return reject();
    } else if (batch != 1) {
      return reject();  // no input slots to attribute labels to samples with
    }
    graph->label_slots_.push_back(
        CapturedGraph::LabelSlot{slot.labels, slot.num_classes, sample});
  }

  // ---- liveness over the step timeline ----
  // Forward step of node i is i; the backward sweep visits the reversed
  // topological order at steps N+1, N+2, ... (N reserved for the root seed).
  const std::size_t n_nodes = ctx->nodes.size();
  std::unordered_map<Node*, std::size_t> bwd_step;
  {
    const std::size_t n_order = ctx->backward_order.size();
    for (std::size_t p = 0; p < n_order; ++p) {
      bwd_step.emplace(ctx->backward_order[p], n_nodes + 1 + (n_order - 1 - p));
    }
  }
  const auto swept = [&](Node* n) {
    return bwd_step.count(n) != 0 && static_cast<bool>(n->backward_fn());
  };

  // Value lifetimes: written at the node's forward step, last read by the
  // latest consumer (forward or backward closure) or by the node's own
  // backward closure.
  std::vector<std::size_t> value_end(n_nodes, 0);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    Node* n = ctx->nodes[i].node.get();
    value_end[i] = i;
    if (swept(n)) value_end[i] = std::max(value_end[i], bwd_step.at(n));
  }
  for (std::size_t j = 0; j < n_nodes; ++j) {
    Node* consumer = ctx->nodes[j].node.get();
    std::size_t use = j;
    if (swept(consumer)) use = std::max(use, bwd_step.at(consumer));
    for (const Var& parent : ctx->nodes[j].parents) {
      auto it = ctx->index.find(parent.get());
      if (it != ctx->index.end()) {
        value_end[it->second] = std::max(value_end[it->second], use);
      }
    }
  }

  // Gradient lifetimes: first written when the earliest swept consumer's
  // closure accumulates into it, last read by the node's own closure.
  // Children are swept before parents (reverse topo), so first-write always
  // precedes the read. Leaves (no closure) keep their owning gradients —
  // the optimizer reads them after the step.
  struct GradBlock {
    std::size_t node_index, start, end;
  };
  std::vector<GradBlock> grad_blocks;
  {
    std::unordered_map<Node*, std::size_t> grad_start;
    for (std::size_t j = 0; j < n_nodes; ++j) {
      Node* consumer = ctx->nodes[j].node.get();
      if (!swept(consumer)) continue;
      const std::size_t at = bwd_step.at(consumer);
      for (const Var& parent : ctx->nodes[j].parents) {
        auto it = grad_start.find(parent.get());
        if (it == grad_start.end() || at < it->second) {
          grad_start[parent.get()] = at;
        }
      }
    }
    for (std::size_t i = 0; i < n_nodes; ++i) {
      Node* n = ctx->nodes[i].node.get();
      if (n == root.get() || !swept(n)) continue;
      auto it = grad_start.find(n);
      if (it == grad_start.end()) continue;  // nothing feeds it; keep owning
      grad_blocks.push_back(GradBlock{i, it->second, bwd_step.at(n)});
    }
  }

  // ---- plan the arena ----
  // Interior values and gradients, in construction order (values first):
  // the root's value/grad stay owning (the caller reads the loss after the
  // step), as do all leaves and zero-sized tensors.
  std::vector<PlanBlock> blocks;
  std::vector<std::size_t> value_block(n_nodes, SIZE_MAX);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    Node* n = ctx->nodes[i].node.get();
    if (n == root.get() || n->value().numel() == 0) continue;
    value_block[i] = blocks.size();
    blocks.push_back(PlanBlock{i, value_end[i], align_up(n->value().numel()), 0});
  }
  std::vector<std::size_t> grad_block(grad_blocks.size(), 0);
  for (std::size_t k = 0; k < grad_blocks.size(); ++k) {
    Node* n = ctx->nodes[grad_blocks[k].node_index].node.get();
    grad_block[k] = blocks.size();
    blocks.push_back(PlanBlock{grad_blocks[k].start, grad_blocks[k].end,
                               align_up(n->value().numel()), 0});
  }
  const std::size_t arena_floats = plan_offsets(blocks);
  graph->arena_.assign(arena_floats, 0.0f);

  // ---- rebind interior tensors to arena views ----
  float* base = graph->arena_.data();
  for (std::size_t i = 0; i < n_nodes; ++i) {
    if (value_block[i] == SIZE_MAX) continue;
    Node* n = ctx->nodes[i].node.get();
    tensor::Shape shape = n->value().shape();
    n->mutable_value() =
        tensor::Tensor::view(base + blocks[value_block[i]].offset, std::move(shape));
  }
  for (std::size_t k = 0; k < grad_blocks.size(); ++k) {
    Node* n = ctx->nodes[grad_blocks[k].node_index].node.get();
    tensor::Shape shape = n->value().shape();
    n->adopt_grad_storage(
        tensor::Tensor::view(base + blocks[grad_block[k]].offset, std::move(shape)));
  }

  // ---- freeze ----
  graph->nodes_.reserve(n_nodes);
  for (PendingNode& p : ctx->nodes) {
    graph->nodes_.push_back(CapturedGraph::RecordedNode{
        std::move(p.node), std::move(p.parents), std::move(p.forward)});
  }
  graph->input_slots_ = std::move(ctx->inputs);
  graph->sweep_.assign(ctx->backward_order.rbegin(), ctx->backward_order.rend());
  for (const auto& rec : graph->nodes_) {
    if (swept(rec.node.get())) graph->grad_reset_.push_back(rec.node.get());
  }
  graph->root_ = root;
  graph->ones_ = tensor::ones(root->value().shape());
  graph->captured_tags_ = std::move(tags);
  graph->inputs_per_sample_ = ipp;
  graph->tag_sensitive_ = tag_sensitive;

  obs::count("ag.graph.capture");
  static obs::Gauge& arena_gauge = obs::gauge("ag.graph.arena_bytes");
  const double bytes = static_cast<double>(graph->arena_bytes());
  if (bytes > arena_gauge.value()) arena_gauge.set(bytes);
  return graph;
}

// ---- CapturedGraph ---------------------------------------------------------

bool CapturedGraph::bind(const std::vector<const tensor::Tensor*>& images,
                         const std::vector<std::size_t>& labels,
                         const std::vector<std::size_t>& tags) {
  const std::size_t batch = captured_tags_.size();
  if (images.size() != batch || labels.size() != batch || tags.size() != batch) {
    return false;
  }
  if (tag_sensitive_ && tags != captured_tags_) return false;
  for (std::size_t j = 0; j < input_slots_.size(); ++j) {
    const tensor::Tensor* img = images[j / inputs_per_sample_];
    if (img == nullptr || img->shape() != input_slots_[j]->value().shape()) {
      return false;
    }
  }
  for (const LabelSlot& slot : label_slots_) {
    if (labels[slot.sample] >= slot.num_classes) return false;
  }
  // All checks passed — commit. Nothing below can fail, so a bind is never
  // partial.
  for (std::size_t j = 0; j < input_slots_.size(); ++j) {
    tensor::copy_into(*images[j / inputs_per_sample_],
                      input_slots_[j]->mutable_value());
  }
  for (const LabelSlot& slot : label_slots_) {
    (*slot.labels)[0] = labels[slot.sample];
  }
  return true;
}

void CapturedGraph::replay() {
  obs::prof::Span span("ag.graph.replay", arena_bytes());
  // Interior gradients: forget, keep storage. Parameter gradients are the
  // optimizer's (zero_grad), and the root re-seeds below.
  for (Node* n : grad_reset_) n->reset_grad_keep_storage();
  for (const RecordedNode& rec : nodes_) rec.forward();
  root_->accumulate_grad(ones_);
  for (Node* n : sweep_) {
    if (n->backward_fn()) {
      obs::prof::Span bw(obs::prof::Backward{n->op_name()});
      n->backward_fn()(n->grad());
    }
  }
  obs::count("ag.graph.replay");
}

const std::shared_ptr<CapturedGraph>* GraphCache::find(
    const std::string& key) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  it->second.last_use = ++clock_;
  return &it->second.graph;
}

void GraphCache::insert(const std::string& key,
                        std::shared_ptr<CapturedGraph> graph) {
  entries_.erase(key);
  if (capacity_ > 0 && entries_.size() >= capacity_) {
    const auto lru = std::min_element(
        entries_.begin(), entries_.end(), [](const auto& a, const auto& b) {
          return a.second.last_use < b.second.last_use;
        });
    entries_.erase(lru);
  }
  entries_.emplace(key, Entry{std::move(graph), ++clock_});
}

}  // namespace reffil::autograd::graph
