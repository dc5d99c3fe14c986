// Concurrency regression + stress tests for the reentrant thread pool.
//
// The nested-parallel_for cases are the regression for the seed pool's
// deadlock: a task that itself called parallel_for blocked a worker on
// futures no free worker could run. A nested call's caller claims every
// chunk no worker has taken before it waits, so these tests must complete
// (they hang forever against a join that only waits). The whole file is
// also run under ThreadSanitizer / AddressSanitizer via REFFIL_SANITIZE
// builds.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "reffil/tensor/ops.hpp"
#include "reffil/util/rng.hpp"
#include "reffil/util/thread_pool.hpp"

using reffil::util::ThreadPool;
namespace T = reffil::tensor;

TEST(ThreadPoolReentrant, NestedParallelForCompletes) {
  ThreadPool pool(4);
  std::atomic<int> hits{0};
  // Outer width > worker count guarantees every worker is occupied by an
  // outer task when the inner loops start — the seed pool deadlocks here.
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(16, [&](std::size_t) { hits.fetch_add(1); });
  });
  EXPECT_EQ(hits.load(), 8 * 16);
}

TEST(ThreadPoolReentrant, DeeplyNestedParallelForCompletes) {
  ThreadPool pool(2);
  std::atomic<int> hits{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(4, [&](std::size_t) {
      pool.parallel_for(4, [&](std::size_t) { hits.fetch_add(1); });
    });
  });
  EXPECT_EQ(hits.load(), 4 * 4 * 4);
}

TEST(ThreadPoolReentrant, NestedCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> outer(16);
  std::vector<std::atomic<int>> inner(16 * 8);
  pool.parallel_for(16, [&](std::size_t i) {
    outer[i].fetch_add(1);
    pool.parallel_for(8, [&](std::size_t j) { inner[i * 8 + j].fetch_add(1); });
  });
  for (const auto& h : outer) EXPECT_EQ(h.load(), 1);
  for (const auto& h : inner) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolReentrant, NestedExceptionPropagatesToOuterCaller) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(6,
                                 [&](std::size_t i) {
                                   pool.parallel_for(6, [&](std::size_t j) {
                                     if (i == 2 && j == 3) {
                                       throw std::runtime_error("inner boom");
                                     }
                                   });
                                 }),
               std::runtime_error);
  // The pool must still be usable after an exceptional parallel_for.
  std::atomic<int> hits{0};
  pool.parallel_for(10, [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 10);
}

TEST(ThreadPoolStress, ConcurrentParallelForFromManyExternalThreads) {
  ThreadPool pool(4);
  constexpr int kCallers = 6;
  std::vector<std::atomic<int>> hits(kCallers);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int repeat = 0; repeat < 20; ++repeat) {
        pool.parallel_for(64, [&](std::size_t) { hits[c].fetch_add(1); });
      }
    });
  }
  for (auto& caller : callers) caller.join();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 20 * 64);
}

// The shape of a federated round: the runtime fans out over clients on the
// global pool and each client's training math runs tensor kernels inside its
// task; every task must get the same bits as a top-level call.
TEST(ThreadPoolReentrant, TensorKernelsInsideGlobalPoolTasks) {
  auto& pool = reffil::util::global_thread_pool();
  const std::size_t n = 128;
  reffil::util::Rng rng(7);
  const T::Tensor a = T::randn({n, n}, rng);
  const T::Tensor b = T::randn({n, n}, rng);
  const T::Tensor expected = T::matmul(a, b);
  std::atomic<int> mismatches{0};
  pool.parallel_for(4, [&](std::size_t) {
    const T::Tensor got = T::matmul(a, b);
    for (std::size_t i = 0; i < got.numel(); ++i) {
      if (got.at(i) != expected.at(i)) mismatches.fetch_add(1);
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}
