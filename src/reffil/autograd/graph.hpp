// Graph capture and arena-planned replay (ggml-style).
//
// Every simulated client trains the same (shape, method) autograd graph
// thousands of times. Eager mode re-materializes nodes, closures, and
// scratch on every step; capture runs ONE instrumented eager step, freezes
// the tape into a CapturedGraph, and replays it with zero heap allocations:
//
//  * Capture — a thread-local RAII scope. While active, make_node tracks
//    every interior node (with its parent edges, which the node itself drops
//    when requires_grad is false), each op attaches its forward closure via
//    record(), cross_entropy registers its label vector, graph::input marks
//    rebindable image leaves, and backward() reports the topological sweep
//    order. finish(root) validates the tape and plans the arena.
//
//  * Forward closures — every autograd op computes its value by running a
//    closure that writes into the node's preallocated value tensor. The
//    eager path and the replayed path execute the *same* closure over the
//    same kernels, so replayed results are bitwise-identical to eager by
//    construction, per ISA target.
//
//  * Arena — finish() runs a liveness analysis over the step timeline
//    (forward steps 0..N-1, then the backward sweep), assigns every interior
//    value and gradient a fixed offset via first-fit with coalescing free
//    blocks, and rebinds those tensors to views over one contiguous buffer.
//    A block freed at step t is reusable from t+1, never within t, so no op
//    ever reads and writes the same bytes in one step. Excluded from the
//    arena: leaves (parameters, constants, input slots — their storage must
//    survive the step) and the root's value/grad (read by the caller).
//
//  * replay() — resets interior gradients (storage kept), runs the forward
//    closures in creation order, seeds the root with ones, and fires the
//    recorded backward sweep. Steady-state cost: zero allocator traffic and
//    zero pool misses; backward scratch comes from the thread pool's warm
//    free lists.
//
//  * bind() — points the input slots and label slots at a new batch,
//    validating shapes, label ranges, and (for methods whose graph
//    structure depends on sample task tags) the tag pattern. Any mismatch
//    returns false and the caller falls back to the eager path; nothing is
//    partially bound.
//
// Eager-fallback rules (enforced by finish() returning null): a capture is
// replayable only if exactly one backward() ran, every tracked node attached
// a forward closure, input slots divide evenly into the batch, and every
// label slot holds exactly one label. Methods with data-dependent graph
// structure (L2P/DualPrompt prompt selection, LwF teacher baking, RefFiL
// DPCL) simply never opt in — see MethodBase::replay_signature.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "reffil/autograd/variable.hpp"

namespace reffil::autograd::graph {

class CapturedGraph {
 public:
  /// Rebind the rebindable leaves to a new batch: `images[i]` / `labels[i]`
  /// / `tags[i]` describe sample i. Returns false (binding nothing) when the
  /// batch does not fit the captured structure — wrong batch size, image
  /// shape change, label out of range, or tag pattern mismatch on a
  /// tag-sensitive graph.
  bool bind(const std::vector<const tensor::Tensor*>& images,
            const std::vector<std::size_t>& labels,
            const std::vector<std::size_t>& tags);

  /// Re-execute the captured step on the currently bound batch: forward
  /// closures in creation order, root seeded with ones, backward sweep in
  /// captured order. Allocation-free in steady state.
  void replay();

  const Var& root() const { return root_; }
  std::size_t arena_bytes() const { return arena_.size() * sizeof(float); }
  std::size_t batch_size() const { return captured_tags_.size(); }
  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_input_slots() const { return input_slots_.size(); }
  std::size_t num_label_slots() const { return label_slots_.size(); }

 private:
  friend class Capture;

  struct RecordedNode {
    Var node;
    std::vector<Var> parents;       ///< keep-alive (node may have dropped them)
    std::function<void()> forward;  ///< writes node->mutable_value()
  };
  struct LabelSlot {
    std::shared_ptr<std::vector<std::size_t>> labels;  ///< single entry
    std::size_t num_classes = 0;
    std::size_t sample = 0;  ///< batch position this slot belongs to
  };

  std::vector<RecordedNode> nodes_;   ///< creation order == forward order
  std::vector<Var> input_slots_;      ///< rebindable image leaves
  std::vector<LabelSlot> label_slots_;
  std::vector<Node*> sweep_;          ///< backward sweep order (reverse topo)
  std::vector<Node*> grad_reset_;     ///< interior nodes whose grads replay owns
  Var root_;
  tensor::Tensor ones_;               ///< cached backward seed
  std::vector<float> arena_;          ///< planned storage for interior tensors
  std::vector<std::size_t> captured_tags_;
  std::size_t inputs_per_sample_ = 0;
  bool tag_sensitive_ = false;
};

/// One worker's captured graphs, keyed by step signature. At capacity the
/// least recently used entry is evicted, so a run cycling through more step
/// shapes than fit recaptures only the shapes it pushed out. A null graph is
/// a negative-cache entry: capture proved that step unreplayable. Eviction
/// never changes results — a capture runs the same step a replay would.
class GraphCache {
 public:
  explicit GraphCache(std::size_t capacity) : capacity_(capacity) {}

  /// The entry for `key`, marked most recently used; nullptr when absent.
  const std::shared_ptr<CapturedGraph>* find(const std::string& key);
  /// Add `key` (replacing any entry), first evicting the least recently
  /// used entry when the cache is full.
  void insert(const std::string& key, std::shared_ptr<CapturedGraph> graph);
  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::shared_ptr<CapturedGraph> graph;
    std::uint64_t last_use = 0;
  };
  std::map<std::string, Entry> entries_;
  std::size_t capacity_;
  std::uint64_t clock_ = 0;
};

/// RAII capture scope, thread-local: ops built on this thread between
/// construction and finish()/destruction are recorded. Not reentrant.
class Capture {
 public:
  Capture();
  ~Capture();
  Capture(const Capture&) = delete;
  Capture& operator=(const Capture&) = delete;

  /// Freeze the tape rooted at `root` (whose backward() must already have
  /// run inside this scope) and plan the arena. Returns null when the tape
  /// is not replayable (see eager-fallback rules above); either way the
  /// scope is deactivated. `tags[i]` is sample i's task tag; when
  /// `tag_sensitive`, bind() later requires an identical tag pattern.
  std::shared_ptr<CapturedGraph> finish(const Var& root, bool tag_sensitive,
                                        std::vector<std::size_t> tags);
};

/// True while a Capture scope is active on this thread.
bool capturing();

/// Like autograd::constant, but during capture the node is registered as a
/// rebindable per-sample input slot (the image leaf of a training graph).
Var input(tensor::Tensor value);

/// Register a cross-entropy label vector as a rebindable slot (no-op when
/// not capturing). The vector must stay alive in the op's closures.
void record_labels(const std::shared_ptr<std::vector<std::size_t>>& labels,
                   std::size_t num_classes);

namespace detail {
bool capture_active();
/// make_node hook: remember the node and a keep-alive copy of its parents.
void track_node(const Var& node, std::span<const Var> parents);
/// backward() hook: remember the root and its topological order.
void on_backward(const Var& root, std::span<Node* const> order);
/// Attach the forward closure to the most recently tracked node.
void attach_forward(const Var& node, std::function<void()> forward);
/// Track a node that was built outside make_node (graph::input, detach).
void track_external(const Var& node, std::vector<Var> parents);
}  // namespace detail

/// Run the op's forward closure once (this is the eager computation), and
/// hand it to the capture context when one is active. `fwd` must be safely
/// re-invocable: it reads parent values / aux buffers it owns and overwrites
/// the node's value.
template <typename F>
void record(const Var& node, F&& fwd) {
  fwd();
  if (detail::capture_active()) {
    detail::attach_forward(node, std::function<void()>(std::forward<F>(fwd)));
  }
}

}  // namespace reffil::autograd::graph
