// Thread-local tensor scratch pool.
//
// Training allocates the same handful of intermediate shapes thousands of
// times per round (backward-pass gradients, softmax probabilities, layer-norm
// statistics). Scratch borrows a raw float buffer from a per-thread
// size-bucketed free list instead of hitting the allocator, wraps it in a
// non-owning Tensor view for the duration of the scope, and returns it on
// destruction (RAII).
//
// Ownership rules:
//  * A Scratch owns its buffer exclusively for its lifetime — the pool never
//    hands the same buffer to two live borrows, on any thread.
//  * Free lists are thread_local, so acquire/release take no locks and are
//    data-race free by construction. A Scratch that is moved to (or
//    destroyed on) another thread simply returns its buffer to *that*
//    thread's list — buffers may migrate, they are never shared.
//  * Buckets are power-of-two capacity classes; a released buffer lands in
//    the bucket of its floor(log2(capacity)), so every hit hands back a
//    buffer with capacity >= the request and reuse never reallocates.
//  * The wrapped Tensor is a borrowed view: moving it out of the Scratch
//    transfers the view, never the buffer, so the buffer is still released
//    exactly once by the Scratch and a moved-out view must not outlive it.
//
// Observability: the obs registry counters `tensor.pool.hit`,
// `tensor.pool.miss` and `tensor.pool.bytes` (bytes served from reuse)
// make the reuse rate visible in traces and the PR 2 metrics snapshot.
#pragma once

#include <cstddef>
#include <cstdint>

#include "reffil/tensor/tensor.hpp"

namespace reffil::tensor::pool {

/// Which per-thread free list a borrow comes from. Scratch is closure-long
/// (backward temporaries); graph storage — autograd node values and
/// gradients — lives as long as its graph. The two are kept apart so that
/// ThreadStats' borrowed bytes show what a live graph holds beyond its node
/// values (a conv node keeping its column matrix, say).
enum class Lifetime { kScratch, kGraph };

/// RAII borrow: a Tensor of `shape` whose storage comes from the calling
/// thread's free list (or the allocator on a miss). `zero` == true gives the
/// usual zero-filled tensor; pass false when every element is about to be
/// overwritten — the contents are then unspecified (a miss returns the
/// allocation uninitialized, a hit returns whatever the previous borrow
/// left behind).
class Scratch {
 public:
  explicit Scratch(Shape shape, bool zero = true,
                   Lifetime lifetime = Lifetime::kScratch);
  ~Scratch();

  Scratch(Scratch&& other) noexcept;
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;
  Scratch& operator=(Scratch&&) = delete;

  Tensor& operator*() { return tensor_; }
  const Tensor& operator*() const { return tensor_; }
  Tensor* operator->() { return &tensor_; }
  const Tensor* operator->() const { return &tensor_; }
  Tensor& tensor() { return tensor_; }
  const Tensor& tensor() const { return tensor_; }

 private:
  float* buffer_ = nullptr;       ///< null when moved-from or numel == 0
  std::size_t capacity_ = 0;      ///< floats the allocation can hold
  Lifetime lifetime_;             ///< the free list the buffer returns to
  Tensor tensor_;                 ///< view over buffer_ (empty if n==0)
};

/// Per-thread pool statistics (this thread's scratch free list only; the obs
/// counters aggregate both lists across threads).
struct ThreadStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::size_t retained_bytes = 0;  ///< bytes currently parked in free lists
  /// Capacity bytes of buffers borrowed on this thread minus those returned
  /// on it: the bytes live Scratch borrows hold, when borrows end on the
  /// thread that made them (negative when other threads' borrows end here).
  std::int64_t borrowed_bytes = 0;
};
ThreadStats thread_stats();

/// Drop every buffer parked in the calling thread's scratch free lists
/// (tests / benchmarks that want a cold pool).
void clear_thread_cache();

}  // namespace reffil::tensor::pool
