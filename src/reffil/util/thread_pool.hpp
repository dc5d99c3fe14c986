// Reentrant, work-helping thread pool used to run federated clients in
// parallel, to evaluate samples in parallel, and to fan a client's sample
// runs out to idle workers. Tensor kernels never use it: they run serially
// on the calling thread.
//
// Semantics: submit() enqueues a task and returns a std::future; the pool
// drains the queue with `threads` workers. parallel_for() chunks the index
// range into at most (workers + 1) contiguous chunks — one per worker plus
// one for the caller — and the calling thread *helps* execute chunks instead
// of blocking, so the pool's workers are never parked behind a waiting
// caller. A parallel_for issued from inside a pool task (i.e. a nested
// parallel_for) runs inline on the caller's chunk, which makes nesting
// deadlock-free by construction: no task ever blocks on work that only an
// occupied worker could run. fan_out() is the one exception to inlining: it
// hands indices to workers that are idle at the moment of the call, even from
// inside a pool task, and the caller claims the rest itself — so it, too,
// never waits on a chunk nobody is running.
//
// Rules for callers:
//  * parallel_for and fan_out may be nested to any depth and called from any
//    thread.
//  * Tasks given to submit() must not block on futures of other tasks in the
//    same pool; use parallel_for for fork/join parallelism instead.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
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

  /// True while the current thread is executing a pool task or a
  /// parallel_for chunk (of any pool). Nested parallel_for calls observe
  /// this and run inline instead of re-entering the queue.
  static bool in_pool_task();

  /// Enqueue a nullary callable; result/exception delivered via the future.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after stop");
      queue_.push(QueuedTask{[task] { (*task)(); },
                             std::chrono::steady_clock::now()});
    }
    cv_.notify_one();
    return future;
  }

  /// Run body(i) for i in [0, n); blocks until all complete. Rethrows the
  /// first observed exception thrown by any body invocation. The calling
  /// thread executes chunks itself (it never idles), and nested calls from
  /// inside a pool task execute the whole range inline on the caller.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Run body(i) for i in [0, n) on the calling thread plus the workers that
  /// are idle right now (none are waited for), one index per claim. Unlike
  /// parallel_for, a call from inside a pool task still fans out: this is how
  /// a busy task puts the pool's spare workers to work on its own inner loop.
  /// With no idle worker the range runs inline, in index order. Which thread
  /// runs which index is unspecified; rethrows the first body exception.
  /// A non-null `wait_span` names a profiler span over the caller's wait for
  /// the helpers once it has no index left to claim.
  void fan_out(std::size_t n, const std::function<void(std::size_t)>& body,
               const char* wait_span = nullptr);

 private:
  /// Queue entry: the callable plus its enqueue time, so the dequeuing
  /// worker can record the submit→start wait.
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

/// Process-wide pool shared by the federated runtime and the parallel tensor
/// kernels (lazily constructed).
ThreadPool& global_thread_pool();

}  // namespace reffil::util
