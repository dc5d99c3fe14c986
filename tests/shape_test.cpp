// tensor::Shape holds its dims inline. These tests pin it to the
// std::vector<std::size_t> it stands in for, and pin the one rank bound,
// Shape::kMaxRank, that both tensor readers enforce.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "reffil/fed/compress.hpp"
#include "reffil/tensor/ops.hpp"
#include "reffil/tensor/tensor.hpp"
#include "reffil/util/byte_buffer.hpp"
#include "reffil/util/error.hpp"
#include "reffil/util/rng.hpp"

using namespace reffil;
namespace T = reffil::tensor;

namespace {

using Reference = std::vector<std::size_t>;

void expect_same(const T::Shape& shape, const Reference& ref,
                 const std::string& step) {
  ASSERT_EQ(shape.size(), ref.size()) << step;
  ASSERT_EQ(shape.empty(), ref.empty()) << step;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(shape[i], ref[i]) << step << " dim " << i;
  }
  ASSERT_EQ(Reference(shape.begin(), shape.end()), ref) << step;
}

}  // namespace

TEST(Shape, RandomEditsMatchAVectorReference) {
  std::mt19937_64 gen(20261019);
  const auto pick = [&gen](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(gen);
  };
  constexpr std::size_t kMax = T::Shape::kMaxRank;
  for (int trial = 0; trial < 200; ++trial) {
    T::Shape a, b;
    Reference ra, rb;
    for (int op = 0; op < 60; ++op) {
      // Edit a (or, one step in four, b), then compare a and b both ways.
      const bool on_b = pick(4) == 0;
      T::Shape& s = on_b ? b : a;
      Reference& r = on_b ? rb : ra;
      const std::size_t dim = pick(4);  // small dims, so a and b often tie
      std::string step = "trial " + std::to_string(trial) + " op " +
                         std::to_string(op) + ": ";
      switch (pick(7)) {
        case 0:
          step += "push_back";
          if (r.size() == kMax) {
            EXPECT_THROW(s.push_back(dim), ShapeError) << step;
          } else {
            s.push_back(dim);
            r.push_back(dim);
          }
          break;
        case 1: {
          const std::size_t pos = pick(r.size() + 1);
          step += "insert at " + std::to_string(pos);
          if (r.size() == kMax) {
            EXPECT_THROW(s.insert(s.begin() + pos, dim), ShapeError) << step;
          } else {
            const auto it = s.insert(s.begin() + pos, dim);
            r.insert(r.begin() + static_cast<std::ptrdiff_t>(pos), dim);
            EXPECT_EQ(it, s.begin() + pos) << step;
          }
          break;
        }
        case 2: {
          if (r.empty()) break;
          const std::size_t first = pick(r.size());
          const std::size_t last = first + pick(r.size() - first + 1);
          step += "erase [" + std::to_string(first) + ", " +
                  std::to_string(last) + ")";
          const auto it = first + 1 == last
                              ? s.erase(s.begin() + first)
                              : s.erase(s.begin() + first, s.begin() + last);
          r.erase(r.begin() + static_cast<std::ptrdiff_t>(first),
                  r.begin() + static_cast<std::ptrdiff_t>(last));
          EXPECT_EQ(it, s.begin() + first) << step;
          break;
        }
        case 3: {
          const std::size_t n = pick(kMax + 3);
          step += "resize " + std::to_string(n);
          if (n > kMax) {
            EXPECT_THROW(s.resize(n, dim), ShapeError) << step;
          } else {
            s.resize(n, dim);
            r.resize(n, dim);
          }
          break;
        }
        case 4: {
          const std::size_t n = pick(kMax + 1);
          step += "assign " + std::to_string(n);
          s.assign(n, dim);
          r.assign(n, dim);
          break;
        }
        case 5:
          step += "copy from the other";
          s = on_b ? a : b;
          r = on_b ? ra : rb;
          break;
        default:
          step += "rebuild from iterators";
          s = T::Shape(r.begin(), r.end());
          break;
      }
      expect_same(a, ra, step + " (a)");
      expect_same(b, rb, step + " (b)");
      ASSERT_EQ(a == b, ra == rb) << step;
      ASSERT_EQ(a != b, ra != rb) << step;
      ASSERT_EQ(a < b, ra < rb) << step;
      ASSERT_EQ(b < a, rb < ra) << step;
    }
  }
}

TEST(Shape, BuildsLikeAVector) {
  EXPECT_TRUE(T::Shape{}.empty());
  expect_same(T::Shape{0}, Reference{0}, "one zero dim");
  expect_same(T::Shape(3), Reference(3), "rank 3 of zeros");
  expect_same(T::Shape(2, 5), Reference(2, 5), "rank 2 of fives");
  expect_same(T::Shape{4, 1, 7}, Reference{4, 1, 7}, "list");
}

TEST(RankBound, BuildingPastTheBoundThrows) {
  T::Shape full(T::Shape::kMaxRank, 1);
  EXPECT_THROW(full.push_back(1), ShapeError);
  EXPECT_THROW(full.insert(full.begin(), 1), ShapeError);
  EXPECT_EQ(full, T::Shape(T::Shape::kMaxRank, 1))
      << "a refused edit changes nothing";
  T::Shape s;
  EXPECT_THROW(s.resize(T::Shape::kMaxRank + 1), ShapeError);
  EXPECT_THROW(T::Shape(T::Shape::kMaxRank + 1), ShapeError);
  EXPECT_THROW((T::Shape{1, 1, 1, 1, 1, 1, 1, 1, 1}), ShapeError);
}

namespace {

/// `bytes` with one more unit dim on the tensor header whose rank u64 sits
/// at `rank_at`: the same tensor (same element count) at rank + 1.
std::vector<std::uint8_t> add_unit_dim(std::vector<std::uint8_t> bytes,
                                       std::size_t rank_at) {
  std::uint64_t rank = 0;
  std::memcpy(&rank, bytes.data() + rank_at, sizeof(rank));
  const std::uint64_t grown = rank + 1, unit = 1;
  std::memcpy(bytes.data() + rank_at, &grown, sizeof(grown));
  const auto dims_end = bytes.begin() + static_cast<std::ptrdiff_t>(
                                            rank_at + 8 * (1 + rank));
  const auto* u = reinterpret_cast<const std::uint8_t*>(&unit);
  bytes.insert(dims_end, u, u + sizeof(unit));
  return bytes;
}

const T::Shape kRank8{2, 1, 3, 1, 1, 2, 1, 2};

}  // namespace

TEST(RankBound, TensorFormatTakesRankEightAndRefusesNine) {
  util::Rng rng(3);
  const T::Tensor t = T::randn(kRank8, rng);
  util::ByteWriter writer;
  t.serialize(writer);
  const std::vector<std::uint8_t> bytes = writer.take();
  util::ByteReader reader(bytes);
  EXPECT_EQ(T::Tensor::deserialize(reader), t);
  EXPECT_TRUE(reader.exhausted());

  const auto rank9 = add_unit_dim(bytes, 0);
  util::ByteReader bad(rank9);
  EXPECT_THROW(T::Tensor::deserialize(bad), SerializationError);
}

TEST(RankBound, CompressedFrameTakesRankEightAndRefusesNine) {
  // Halves of small integers survive f16 exactly, so the fold reproduces
  // the tensor bit for bit.
  T::Tensor t(kRank8);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t.at(i) = 0.5f * static_cast<float>(static_cast<int>(i % 7) - 3);
  }
  fed::ModelState delta{t};
  util::ByteWriter writer;
  fed::encode_delta(delta, fed::CompressionConfig::parse("f16"), writer);
  const std::vector<std::uint8_t> bytes = writer.take();

  std::string reason;
  fed::ModelState acc{T::Tensor(kRank8)};
  util::ByteReader check(bytes);
  EXPECT_TRUE(fed::validate_delta_frame(check, acc, &reason)) << reason;
  util::ByteReader fold(bytes);
  fed::accumulate_delta(fold, 1.0f, acc);
  EXPECT_EQ(acc.front(), t);

  // The frame header: magic u64, codec u8, kind u8, tensor count u64.
  const auto rank9 = add_unit_dim(bytes, 8 + 1 + 1 + 8);
  util::ByteReader bad(rank9);
  reason.clear();
  EXPECT_FALSE(fed::validate_delta_frame(bad, acc, &reason));
  EXPECT_NE(reason.find("rank"), std::string::npos) << reason;
}
