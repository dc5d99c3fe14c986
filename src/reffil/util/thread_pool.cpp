#include "reffil/util/thread_pool.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "reffil/util/obs.hpp"
#include "reffil/util/prof.hpp"

namespace reffil::util {

namespace {

// Records the enqueue→start wait and current queue depth when a worker picks
// up a task. The histogram feeds p50/p95/p99 in reports.
void note_dequeue(std::chrono::steady_clock::time_point enqueued,
                  std::size_t depth_after_pop) {
  const double wait =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    enqueued)
          .count();
  static obs::Histogram& wait_hist = obs::histogram("pool.task_wait_seconds");
  static obs::Gauge& depth_gauge = obs::gauge("pool.queue_depth");
  wait_hist.observe(wait);
  depth_gauge.set(static_cast<double>(depth_after_pop));
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop(std::size_t index) {
  const std::string worker_name = "pool-worker-" + std::to_string(index);
  obs::prof::set_thread_name(worker_name.c_str());
  obs::Gauge& busy_gauge = obs::gauge(worker_name + ".busy_s");
  double busy_seconds = 0.0;
  for (;;) {
    QueuedTask task;
    std::size_t depth_after_pop = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
      depth_after_pop = queue_.size();
    }
    note_dequeue(task.enqueued, depth_after_pop);
    const auto t0 = std::chrono::steady_clock::now();
    {
      obs::prof::Span span("pool.task");
      task.fn();
    }
    busy_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    busy_gauge.set(busy_seconds);
  }
}

void ThreadPool::run_chunks(ForkJoin& fj) {
  for (;;) {
    const std::size_t c = fj.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= fj.chunks) break;
    const std::size_t lo = c * fj.n / fj.chunks;
    const std::size_t hi = (c + 1) * fj.n / fj.chunks;
    try {
      obs::prof::Span span("pool.chunk");
      for (std::size_t i = lo; i < hi; ++i) (*fj.body)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(fj.m);
      if (!fj.error) fj.error = std::current_exception();
    }
    if (fj.done_chunks.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        fj.chunks) {
      // Empty critical section pairs with the caller's predicate check so
      // the final notify cannot be lost.
      std::lock_guard<std::mutex> lock(fj.m);
      fj.done_cv.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  // Inline when there is nothing to fan out to (n == 1, no extra workers).
  if (n == 1 || workers_.size() <= 1) {
    // Still the pool layer, just degenerate: a span here keeps profiles from
    // single-core hosts showing where fan-out collapsed.
    obs::prof::Span span("pool.inline");
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  auto fj = std::make_shared<ForkJoin>();
  fj->n = n;
  fj->chunks = std::min(n, workers_.size() + 1);  // +1: the caller helps
  fj->body = &body;

  const std::size_t helpers = fj->chunks - 1;
  const auto enqueued = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      throw std::runtime_error("ThreadPool: parallel_for after stop");
    }
    for (std::size_t i = 0; i < helpers; ++i) {
      queue_.push(QueuedTask{[this, fj] { run_chunks(*fj); }, enqueued});
    }
  }
  cv_.notify_all();
  run_chunks(*fj);  // the caller claims chunks alongside the workers

  // Named so slot-barrier and eval-tail waits are not the caller's self time.
  obs::prof::Span span("pool.join");
  std::unique_lock<std::mutex> lock(fj->m);
  fj->done_cv.wait(lock, [&] {
    return fj->done_chunks.load(std::memory_order_acquire) == fj->chunks;
  });
  if (fj->error) std::rethrow_exception(fj->error);
}

ThreadPool& global_thread_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace reffil::util
