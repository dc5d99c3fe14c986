// Reentrant, work-helping thread pool used to run federated clients in
// parallel (one client slot per thread) and to evaluate test samples in
// parallel. A client trains on its slot's thread alone, and tensor kernels
// never use the pool: they run serially on the calling thread.
//
// Semantics: the pool drains its queue of helper tasks with `threads`
// workers. parallel_for() chunks the index range into at most (workers + 1)
// contiguous chunks — one per worker plus one for the caller — and queues a
// helper per worker. The calling thread claims every chunk no helper has
// claimed yet, and only then waits — and it waits only for chunks another
// thread is already running. That makes nesting deadlock-free: a nested
// call from inside a chunk finishes its own range even when every worker is
// busy, so no thread ever blocks on work that only an occupied worker could
// run.
//
// parallel_for may be nested to any depth and called from any thread.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace reffil::util {

class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Run body(i) for i in [0, n); blocks until all complete. Rethrows the
  /// first observed exception thrown by any body invocation. The calling
  /// thread executes chunks itself (it never idles) and claims every chunk
  /// the workers have not, so a nested call completes even when all workers
  /// are busy. Its wait for chunks other threads still run is the
  /// `pool.join` profiler span.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

 private:
  /// Queue entry: the callable plus its enqueue time, so the dequeuing
  /// worker can record the enqueue→start wait.
  struct QueuedTask {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// Shared fork/join state for one parallel_for call. Held by shared_ptr so
  /// a straggler helper task that wakes after every chunk has been claimed
  /// can still touch the counters safely.
  struct ForkJoin {
    std::size_t n = 0;
    std::size_t chunks = 0;
    const std::function<void(std::size_t)>* body = nullptr;
    std::atomic<std::size_t> next_chunk{0};
    std::atomic<std::size_t> done_chunks{0};
    std::mutex m;
    std::condition_variable done_cv;
    std::exception_ptr error;  // guarded by m
  };

  void run_chunks(ForkJoin& fj);
  void worker_loop(std::size_t index);

  std::vector<std::thread> workers_;
  std::queue<QueuedTask> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Process-wide pool the federated runtime runs client slots and evaluation
/// on (lazily constructed).
ThreadPool& global_thread_pool();

}  // namespace reffil::util
