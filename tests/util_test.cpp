// Tests for the util substrate: RNG determinism and statistics, the thread
// pool, and byte-buffer encode/decode.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <set>

#include "reffil/util/byte_buffer.hpp"
#include "reffil/util/rng.hpp"
#include "reffil/util/thread_pool.hpp"

using namespace reffil::util;

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a.next_u64() != b.next_u64());
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng(4);
  std::vector<int> counts(7, 0);
  const int draws = 70000;
  for (int i = 0; i < draws; ++i) ++counts[rng.uniform_index(7)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), draws / 7.0, draws / 7.0 * 0.1);
  }
  EXPECT_THROW(rng.uniform_index(0), reffil::Error);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.uniform_int(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(Rng, UniformIntWideRangesHaveNoSignedOverflow) {
  // Regression: `hi - lo` was computed in int64, which is UB whenever the
  // span exceeds INT64_MAX (e.g. lo = INT64_MIN, hi >= 0) and wrapped the
  // +1 to a uniform_index(0) crash for the full 64-bit range. The span is
  // now computed in unsigned arithmetic; these draws must stay in bounds
  // (the UBSan CI job turns any leftover overflow into a hard failure).
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    (void)rng.uniform_int(kMin, kMax);  // full range: every value valid
    EXPECT_LE(rng.uniform_int(kMin, 0), 0);
    EXPECT_GE(rng.uniform_int(-1, kMax), -1);
    const std::int64_t edge = rng.uniform_int(kMin, kMin + 1);
    EXPECT_TRUE(edge == kMin || edge == kMin + 1);
    EXPECT_EQ(rng.uniform_int(kMax, kMax), kMax);
    EXPECT_EQ(rng.uniform_int(kMin, kMin), kMin);
  }
  // Narrow ranges keep drawing from the same stream as before the fix.
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    const std::int64_t lo = -5, hi = 9;
    const std::int64_t v = a.uniform_int(lo, hi);
    EXPECT_GE(v, lo);
    EXPECT_LE(v, hi);
    EXPECT_EQ(v, b.uniform_int(lo, hi));
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(6);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::vector<int> resorted = v;
  std::sort(resorted.begin(), resorted.end());
  EXPECT_EQ(resorted, sorted);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(10);
  const auto sample = rng.sample_without_replacement(30, 10);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  for (std::size_t v : sample) EXPECT_LT(v, 30u);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), reffil::Error);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i] += 1; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(8,
                                 [](std::size_t i) {
                                   if (i == 3) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ByteBuffer, PodRoundTrip) {
  ByteWriter writer;
  writer.write_u32(0xDEADBEEF);
  writer.write_u64(1ULL << 60);
  writer.write_f64(-2.5);
  const auto bytes = writer.bytes();
  ByteReader reader(bytes);
  EXPECT_EQ(reader.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.read_u64(), 1ULL << 60);
  EXPECT_DOUBLE_EQ(reader.read_f64(), -2.5);
  EXPECT_TRUE(reader.exhausted());
}

TEST(ByteBuffer, StringAndVectorRoundTrip) {
  ByteWriter writer;
  writer.write_string("hello federated world");
  writer.write_pod_vector(std::vector<float>{1.5f, -2.5f});
  writer.write_string("");
  const auto bytes = writer.bytes();
  ByteReader reader(bytes);
  EXPECT_EQ(reader.read_string(), "hello federated world");
  EXPECT_EQ(reader.read_pod_vector<float>(), (std::vector<float>{1.5f, -2.5f}));
  EXPECT_EQ(reader.read_string(), "");
  EXPECT_TRUE(reader.exhausted());
}

TEST(ByteBuffer, TruncationThrows) {
  ByteWriter writer;
  writer.write_u64(10);
  const auto bytes = writer.bytes();
  ByteReader reader(bytes.data(), 4);  // cut in half
  EXPECT_THROW(reader.read_u64(), reffil::SerializationError);
}

TEST(ByteBuffer, HostileLengthFieldRejected) {
  ByteWriter writer;
  writer.write_u64(~0ULL);  // absurd vector length
  const auto bytes = writer.bytes();
  ByteReader reader(bytes);
  EXPECT_THROW(reader.read_pod_vector<float>(), reffil::SerializationError);
}
