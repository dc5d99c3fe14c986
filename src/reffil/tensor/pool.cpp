#include "reffil/tensor/pool.hpp"

#include <algorithm>
#include <new>
#include <utility>
#include <vector>

#include "reffil/util/obs.hpp"

namespace reffil::tensor::pool {

namespace {

// 64 size classes cover every representable capacity; in practice training
// shapes live in classes ~4..22. Per-thread retention is capped so a burst
// of huge temporaries cannot pin memory forever, and buffers above the cap
// are never pooled at all.
constexpr std::size_t kBucketCount = 64;
constexpr std::size_t kMaxPooledFloats = std::size_t{1} << 24;    // 64 MiB
constexpr std::size_t kMaxRetainedFloats = std::size_t{1} << 23;  // 32 MiB

/// A raw allocation: `capacity` floats at `data`. Raw (not std::vector) so a
/// miss can hand back uninitialized memory — vector cannot represent
/// "allocated but unconstructed" contents.
struct Buffer {
  float* data = nullptr;
  std::size_t capacity = 0;
};

struct ThreadCache {
  std::vector<Buffer> buckets[kBucketCount];
  std::size_t retained_floats = 0;
  std::int64_t borrowed_floats = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  ~ThreadCache() {
    for (auto& bucket : buckets) {
      for (Buffer& b : bucket) ::operator delete(b.data);
    }
  }
};

ThreadCache& cache(Lifetime lifetime = Lifetime::kScratch) {
  thread_local ThreadCache t_scratch;
  thread_local ThreadCache t_graph;
  return lifetime == Lifetime::kScratch ? t_scratch : t_graph;
}

std::size_t floor_log2(std::size_t v) {
  std::size_t b = 0;
  while (v >>= 1) ++b;
  return b;
}

/// Smallest bucket whose buffers are guaranteed to hold n floats: buffers in
/// bucket b have capacity in [2^b, 2^(b+1)), so requests look in
/// ceil(log2(n)).
std::size_t acquire_bucket(std::size_t n) {
  const std::size_t b = floor_log2(n);
  return ((std::size_t{1} << b) == n) ? b : b + 1;
}

void count_metrics(bool hit, std::size_t n) {
  // Registry references are stable for the process lifetime (obs.hpp), so
  // the mutex-guarded lookup happens once.
  static obs::Counter& hits = obs::counter("tensor.pool.hit");
  static obs::Counter& misses = obs::counter("tensor.pool.miss");
  static obs::Counter& bytes = obs::counter("tensor.pool.bytes");
  if (hit) {
    hits.add(1);
    bytes.add(n * sizeof(float));
  } else {
    misses.add(1);
  }
}

/// A buffer of >= n floats: a free-list hit, else a fresh allocation.
Buffer take_buffer(ThreadCache& c, std::size_t n, bool zero) {
  if (n <= kMaxPooledFloats) {
    auto& stack = c.buckets[acquire_bucket(n)];
    if (!stack.empty()) {
      Buffer buf = stack.back();
      stack.pop_back();
      c.retained_floats -= buf.capacity;
      ++c.hits;
      count_metrics(/*hit=*/true, n);
      // Capacity >= n by the bucket invariant; contents beyond the zeroed
      // prefix are whatever the previous borrow left.
      if (zero) std::fill(buf.data, buf.data + n, 0.0f);
      return buf;
    }
  }
  ++c.misses;
  count_metrics(/*hit=*/false, n);
  // Round the fresh allocation up to its acquire bucket's size so release()
  // parks it exactly where the next same-size request looks. Capacity `n`
  // itself would land in floor_log2(n) — one bucket below a non-power-of-two
  // request's probe — and never be found again, turning a steady-state
  // workload into a miss on every borrow.
  const std::size_t capacity =
      n <= kMaxPooledFloats ? (std::size_t{1} << acquire_bucket(n)) : n;
  Buffer buf{static_cast<float*>(::operator new(capacity * sizeof(float))),
             capacity};
  // The point of zero=false: a miss hands the allocation back untouched, so
  // callers about to overwrite every element never pay a fill pass.
  if (zero) std::fill(buf.data, buf.data + n, 0.0f);
  return buf;
}

Buffer acquire_buffer(std::size_t n, bool zero, Lifetime lifetime) {
  if (n == 0) return {};
  ThreadCache& c = cache(lifetime);
  Buffer buf = take_buffer(c, n, zero);
  c.borrowed_floats += static_cast<std::int64_t>(buf.capacity);
  return buf;
}

void release_buffer(Buffer buf, Lifetime lifetime) {
  if (buf.data == nullptr) return;
  ThreadCache& c = cache(lifetime);
  c.borrowed_floats -= static_cast<std::int64_t>(buf.capacity);
  if (buf.capacity == 0 || buf.capacity > kMaxPooledFloats) {
    ::operator delete(buf.data);
    return;
  }
  if (c.retained_floats + buf.capacity > kMaxRetainedFloats) {
    ::operator delete(buf.data);  // drop: stay bounded
    return;
  }
  c.retained_floats += buf.capacity;
  c.buckets[floor_log2(buf.capacity)].push_back(buf);
}

}  // namespace

Scratch::Scratch(Shape shape, bool zero, Lifetime lifetime)
    : lifetime_(lifetime) {
  const Buffer buf = acquire_buffer(shape_numel(shape), zero, lifetime);
  buffer_ = buf.data;
  capacity_ = buf.capacity;
  // A zero-element shape borrows no buffer, and a view over null storage is
  // an empty tensor that owns nothing either.
  tensor_ = Tensor::view(buffer_, shape);
}

Scratch::~Scratch() {
  // The buffer's lifetime is tied to the Scratch, not to tensor_: even if
  // user code moved the view out (or assigned over tensor_), the underlying
  // allocation is returned exactly once, and never as an empty husk.
  release_buffer(Buffer{buffer_, capacity_}, lifetime_);
}

Scratch::Scratch(Scratch&& other) noexcept
    : buffer_(other.buffer_),
      capacity_(other.capacity_),
      lifetime_(other.lifetime_),
      tensor_(std::move(other.tensor_)) {
  other.buffer_ = nullptr;
  other.capacity_ = 0;
}

ThreadStats thread_stats() {
  const ThreadCache& c = cache();
  return {c.hits, c.misses, c.retained_floats * sizeof(float),
          c.borrowed_floats * static_cast<std::int64_t>(sizeof(float))};
}

void clear_thread_cache() {
  ThreadCache& c = cache();
  for (auto& bucket : c.buckets) {
    for (Buffer& b : bucket) ::operator delete(b.data);
    bucket.clear();
  }
  c.retained_floats = 0;
}

}  // namespace reffil::tensor::pool
