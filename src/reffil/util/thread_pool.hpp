// Reentrant, work-helping thread pool used to run federated clients in
// parallel, to evaluate samples in parallel, and to fan a client's sample
// runs out to idle workers. Tensor kernels never use it: they run serially
// on the calling thread.
//
// Semantics: the pool drains its queue of helper tasks with `threads`
// workers. parallel_for() chunks the index range into at most (workers + 1)
// contiguous chunks — one per worker plus one for the caller — and queues a
// helper per worker; fan_out() hands indices to the workers that are idle at
// the moment of the call. Either way the calling thread claims every chunk
// no helper has claimed yet, and only then waits — and it waits only for
// chunks another thread is already running. That makes nesting
// deadlock-free: a nested call from inside a chunk finishes its own range
// even when every worker is busy, so no thread ever blocks on work that only
// an occupied worker could run.
//
// parallel_for and fan_out may be nested to any depth and called from any
// thread.
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

  /// Workers parked right now and not yet spoken for by a queued task: the
  /// helpers a fan_out issued now would get. A snapshot — it may change
  /// before the caller acts on it.
  std::size_t spare_workers();

  /// Run body(i) for i in [0, n); blocks until all complete. Rethrows the
  /// first observed exception thrown by any body invocation. The calling
  /// thread executes chunks itself (it never idles) and claims every chunk
  /// the workers have not, so a nested call completes even when all workers
  /// are busy.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Run body(i) for i in [0, n) on the calling thread plus the workers that
  /// are idle right now (none are waited for), one index per claim: this is
  /// how a busy task puts the pool's spare workers to work on its own inner
  /// loop. With no idle worker the range runs inline, in index order. Which
  /// thread runs which index is unspecified; rethrows the first body
  /// exception.
  /// A non-null `wait_span` names a profiler span over the caller's wait for
  /// the helpers once it has no index left to claim.
  void fan_out(std::size_t n, const std::function<void(std::size_t)>& body,
               const char* wait_span = nullptr);

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
  /// Parked workers not spoken for by a queued task (mutex_ held).
  std::size_t spare_locked() const;
  void worker_loop(std::size_t index);
  /// Claim fj's chunks on the caller alongside its already-enqueued helper
  /// tasks, wait for the last chunk (under `wait_span` when non-null),
  /// rethrow the first body error.
  void join(ForkJoin& fj, const char* wait_span = nullptr);

  std::vector<std::thread> workers_;
  std::queue<QueuedTask> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t idle_ = 0;  ///< workers parked on cv_ (guarded by mutex_)
  bool stopping_ = false;
};

/// Process-wide pool the federated runtime runs client slots, evaluation and
/// sample runs on (lazily constructed).
ThreadPool& global_thread_pool();

}  // namespace reffil::util
