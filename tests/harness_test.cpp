// Tests for the experiment harness: scale profiles, seeds, the result
// cache, run-result serialization, and paper reference lookups.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "reffil/harness/cache.hpp"
#include "reffil/harness/experiment.hpp"
#include "reffil/harness/tables.hpp"
#include "reffil/util/rng.hpp"

using namespace reffil;

TEST(Scale, SmokeShrinksButStaysPartitionable) {
  for (const auto& base : data::all_dataset_specs()) {
    const auto smoke = harness::apply_scale(base, harness::Scale::kSmoke);
    EXPECT_EQ(smoke.rounds_per_task, 1u);
    EXPECT_EQ(smoke.local_epochs, 1u);
    const std::size_t final_population =
        smoke.initial_clients +
        (smoke.domains.size() - 1) * smoke.client_increment;
    for (const auto& domain : smoke.domains) {
      EXPECT_GE(domain.train_samples, final_population * 4) << base.name;
    }
  }
}

TEST(Scale, FullDoublesDepth) {
  const auto base = data::pacs_spec();
  const auto full = harness::apply_scale(base, harness::Scale::kFull);
  EXPECT_EQ(full.rounds_per_task, base.rounds_per_task * 2);
  EXPECT_EQ(full.local_epochs, base.local_epochs * 2);
  EXPECT_EQ(full.domains[0].train_samples, base.domains[0].train_samples * 2);
}

TEST(Scale, ScaledIsIdentity) {
  const auto base = data::digits_five_spec();
  const auto scaled = harness::apply_scale(base, harness::Scale::kScaled);
  EXPECT_EQ(scaled.rounds_per_task, base.rounds_per_task);
  EXPECT_EQ(scaled.domains[0].train_samples, base.domains[0].train_samples);
}

TEST(Seeds, DefaultFiveDistinct) {
  unsetenv("REFFIL_BENCH_SEEDS");
  const auto seeds = harness::bench_seeds();
  EXPECT_EQ(seeds.size(), 5u);
  std::set<std::uint64_t> unique(seeds.begin(), seeds.end());
  EXPECT_EQ(unique.size(), seeds.size());
}

TEST(Seeds, EnvLimitsCount) {
  setenv("REFFIL_BENCH_SEEDS", "2", 1);
  EXPECT_EQ(harness::bench_seeds().size(), 2u);
  setenv("REFFIL_BENCH_SEEDS", "99", 1);  // out of range -> default
  EXPECT_EQ(harness::bench_seeds().size(), 5u);
  unsetenv("REFFIL_BENCH_SEEDS");
}

TEST(MethodRegistry, BuildsEveryMethod) {
  const auto spec = data::office_caltech10_spec();
  harness::ExperimentConfig config;
  config.parallelism = 1;
  for (const auto kind : harness::all_method_kinds()) {
    const auto method = harness::make_method(kind, spec, config);
    ASSERT_NE(method, nullptr);
    EXPECT_EQ(method->name(), harness::method_display_name(kind));
  }
}

namespace {
fed::RunResult sample_result() {
  fed::RunResult result;
  result.method_name = "RefFiL";
  result.dataset_name = "Digits-Five";
  for (std::size_t t = 0; t < 3; ++t) {
    fed::TaskResult task;
    task.task = t;
    task.domain_name = "D" + std::to_string(t);
    for (std::size_t d = 0; d <= t; ++d) {
      task.per_domain_accuracy.push_back(90.0 - 10.0 * static_cast<double>(d));
    }
    task.cumulative_accuracy = 80.0 + static_cast<double>(t);
    task.eval_seconds = 0.25 + static_cast<double>(t);
    result.tasks.push_back(std::move(task));
  }
  result.network.bytes_down = 1000;
  result.network.bytes_up = 900;
  result.network.messages = 42;
  result.network.dropped_updates = 5;
  result.network.quarantined = 3;
  result.network.retries = 7;
  result.network.timed_out = 2;
  result.network.bytes_retransmitted = 123;
  result.wall_seconds = 1.5;
  for (std::uint32_t r = 0; r < 3; ++r) {
    fed::RoundStats round;
    round.task = r;
    round.round = r;
    round.selected = 10 + r;
    round.dropped = r;
    round.bytes_down = 300 + r;
    round.bytes_up = 280 + r;
    round.train_seconds = 0.5 + r;
    round.aggregate_seconds = 0.01 * (r + 1);
    round.quarantined = r;
    round.retries = 2 * r + 1;
    round.timed_out = r;
    round.bytes_retransmitted = 40 + r;
    result.rounds.push_back(round);
  }
  fed::HealthEvent event;
  event.task = 1;
  event.round = 2;
  event.global_round = 5;
  event.detector = "quarantine_rate";
  event.value = 0.4;
  event.threshold = 0.25;
  event.detail = "4/10 updates quarantined in round 2";
  result.health.push_back(event);
  result.monitor.enabled = true;
  result.monitor.alerts = 1;
  result.monitor.healthy_at_end = false;
  return result;
}

// The v1 (headerless) cache encoding, reproduced byte for byte: no magic,
// no version, no eval_seconds, no dropped_updates, no per-round stats.
void legacy_v1_serialize(const fed::RunResult& result,
                         util::ByteWriter& writer) {
  writer.write_string(result.method_name);
  writer.write_string(result.dataset_name);
  writer.write_u64(result.tasks.size());
  for (const auto& task : result.tasks) {
    writer.write_u64(task.task);
    writer.write_string(task.domain_name);
    writer.write_u64(task.per_domain_accuracy.size());
    for (double a : task.per_domain_accuracy) writer.write_f64(a);
    writer.write_f64(task.cumulative_accuracy);
  }
  writer.write_u64(result.network.bytes_down);
  writer.write_u64(result.network.bytes_up);
  writer.write_u64(result.network.messages);
  writer.write_f64(result.wall_seconds);
}
}  // namespace

namespace {
// Calls f(member) for every member of aggregate `s` through a structured
// binding. This does not read the field lists, so a round trip of values
// set this way also catches a member that a list leaves out.
template <class T, class F>
void for_each_member(T& s, F&& f) {
  constexpr std::size_t n = util::aggregate_arity<T>();
  if constexpr (n == 3) {
    auto& [a, b, c] = s;
    f(a), f(b), f(c);
  } else if constexpr (n == 5) {
    auto& [a, b, c, d, e] = s;
    f(a), f(b), f(c), f(d), f(e);
  } else if constexpr (n == 6) {
    auto& [a, b, c, d, e, g] = s;
    f(a), f(b), f(c), f(d), f(e), f(g);
  } else if constexpr (n == 7) {
    auto& [a, b, c, d, e, g, h] = s;
    f(a), f(b), f(c), f(d), f(e), f(g), f(h);
  } else if constexpr (n == 9) {
    auto& [a, b, c, d, e, g, h, i, j] = s;
    f(a), f(b), f(c), f(d), f(e), f(g), f(h), f(i), f(j);
  } else if constexpr (n == 10) {
    auto& [a, b, c, d, e, g, h, i, j, k] = s;
    f(a), f(b), f(c), f(d), f(e), f(g), f(h), f(i), f(j), f(k);
  } else {
    static_assert(n == 15, "add a binding for this member count");
    auto& [a, b, c, d, e, g, h, i, j, k, l, m, o, p, q] = s;
    f(a), f(b), f(c), f(d), f(e), f(g), f(h), f(i), f(j), f(k), f(l), f(m),
        f(o), f(p), f(q);
  }
}

// Fills every member with random values: any u64 or u32 bit pattern, finite
// doubles across many magnitudes, random vector lengths (including empty),
// and strings holding quotes, backslashes, control characters and NUL bytes.
struct RandomFill {
  util::Rng& rng;

  template <class T>
  void operator()(T& v) {
    fill(v);
  }
  template <class T>
  void fill(T& v) {
    if constexpr (util::HasFields<T>) {
      for_each_member(v, *this);
    } else if constexpr (util::kIsVector<T>) {
      v.resize(rng.uniform_index(5));
      for (auto& e : v) fill(e);
    } else if constexpr (std::is_same_v<T, std::string>) {
      static constexpr char kAlphabet[] = "aZ09 \"\\\n\t\x01\x1f\x7f\xc3\xa9";
      v.assign(rng.uniform_index(12), '\0');
      for (char& c : v) c = kAlphabet[rng.uniform_index(sizeof(kAlphabet))];
    } else if constexpr (std::is_same_v<T, bool>) {
      v = rng.bernoulli(0.5);
    } else if constexpr (std::is_integral_v<T>) {
      v = static_cast<T>(rng.next_u64());
    } else {
      v = rng.normal() * std::pow(10.0, rng.uniform_int(-300, 300));
    }
  }
};

fed::RunResult random_result(std::uint64_t seed) {
  util::Rng rng(seed);
  fed::RunResult result;
  RandomFill{rng}.fill(result);
  return result;
}
}  // namespace

TEST(RunResultSerialization, RoundTripPreservesEveryField) {
  // A property over every member: one the cache drops or misorders decodes
  // to a different value and fails the equality.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const fed::RunResult original = random_result(seed);
    util::ByteWriter writer;
    harness::serialize_run_result(original, writer);
    util::ByteReader reader(writer.bytes());
    const fed::RunResult back = harness::deserialize_run_result(reader);
    EXPECT_TRUE(reader.exhausted()) << "seed " << seed;
    ASSERT_EQ(back, original) << "seed " << seed;
  }
}

TEST(RunResultSerialization, LegacyV1FormatLosesDropoutsAndIsRejected) {
  // Regression for the original bug: the v1 encoding simply has no
  // dropped_updates field, so a cache hit silently zeroed the dropout count.
  const fed::RunResult original = sample_result();
  ASSERT_EQ(original.network.dropped_updates, 5u);
  util::ByteWriter legacy;
  legacy_v1_serialize(original, legacy);
  // Nothing in the v1 byte stream encodes the value 5 — the statistic is
  // unrecoverable from a v1 entry, which is why the format had to change.
  util::ByteWriter current;
  harness::serialize_run_result(original, current);
  EXPECT_GT(current.size(), legacy.size());
  // The versioned loader refuses the headerless bytes instead of decoding
  // them field-by-field into a half-right RunResult.
  util::ByteReader reader(legacy.bytes());
  EXPECT_THROW(harness::deserialize_run_result(reader), SerializationError);
}

TEST(RunResultSerialization, WrongVersionIsRejected) {
  // The previous format (v8) and a future one are both refused by header.
  for (const std::uint32_t version :
       {harness::kCacheVersion - 1, harness::kCacheVersion + 1}) {
    util::ByteWriter writer;
    writer.write_u32(harness::kCacheMagic);
    writer.write_u32(version);
    writer.write_string("RefFiL");
    util::ByteReader reader(writer.bytes());
    EXPECT_THROW(harness::deserialize_run_result(reader), SerializationError)
        << version;
  }
}

TEST(Cache, StoreThenLoad) {
  setenv("REFFIL_CACHE_DIR", "/tmp/reffil_test_cache", 1);
  std::filesystem::remove_all("/tmp/reffil_test_cache");
  const std::string key =
      harness::cache_key("Digits-Five", "orig", "RefFiL", 7, "scaled");
  EXPECT_FALSE(harness::cache_load(key).has_value());
  harness::cache_store(key, sample_result());
  const auto loaded = harness::cache_load(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->method_name, "RefFiL");
  EXPECT_NEAR(loaded->average_accuracy(), 81.0, 1e-9);
  // The cache-hit path keeps the dropout count and the round breakdowns —
  // the original bug returned dropped_updates == 0 from every hit.
  EXPECT_EQ(loaded->network.dropped_updates, 5u);
  EXPECT_EQ(loaded->rounds.size(), 3u);
  unsetenv("REFFIL_CACHE_DIR");
}

TEST(Cache, DistinctKeysForDistinctCells) {
  std::set<std::string> keys;
  for (const char* dataset : {"Digits-Five", "PACS"}) {
    for (const char* order : {"orig", "neworder"}) {
      for (std::uint64_t seed : {1, 2}) {
        keys.insert(harness::cache_key(dataset, order, "RefFiL", seed, "scaled"));
      }
    }
  }
  EXPECT_EQ(keys.size(), 8u);
}

TEST(Cache, OffDisablesEverything) {
  setenv("REFFIL_CACHE_DIR", "off", 1);
  EXPECT_FALSE(harness::cache_enabled());
  harness::cache_store("whatever.cell", sample_result());
  EXPECT_FALSE(harness::cache_load("whatever.cell").has_value());
  unsetenv("REFFIL_CACHE_DIR");
}

TEST(Cache, CorruptEntryIsDeletedNotJustSkipped) {
  setenv("REFFIL_CACHE_DIR", "/tmp/reffil_test_cache2", 1);
  std::filesystem::create_directories("/tmp/reffil_test_cache2");
  const std::string key = "corrupt.cell";
  {
    std::ofstream out("/tmp/reffil_test_cache2/corrupt.cell", std::ios::binary);
    out << "garbage";
  }
  EXPECT_FALSE(harness::cache_load(key).has_value());
  // Deleted on first rejection, so it is not re-parsed every invocation.
  EXPECT_FALSE(std::filesystem::exists("/tmp/reffil_test_cache2/corrupt.cell"));
  unsetenv("REFFIL_CACHE_DIR");
}

TEST(Cache, LegacyFormatEntryIsRejectedAndDeleted) {
  setenv("REFFIL_CACHE_DIR", "/tmp/reffil_test_cache3", 1);
  std::filesystem::remove_all("/tmp/reffil_test_cache3");
  std::filesystem::create_directories("/tmp/reffil_test_cache3");
  util::ByteWriter writer;
  legacy_v1_serialize(sample_result(), writer);
  {
    std::ofstream out("/tmp/reffil_test_cache3/old.cell", std::ios::binary);
    out.write(reinterpret_cast<const char*>(writer.bytes().data()),
              static_cast<std::streamsize>(writer.bytes().size()));
  }
  EXPECT_FALSE(harness::cache_load("old.cell").has_value());
  EXPECT_FALSE(std::filesystem::exists("/tmp/reffil_test_cache3/old.cell"));
  unsetenv("REFFIL_CACHE_DIR");
}

TEST(Cache, TrailingBytesAreRejected) {
  // A format mismatch can deserialize "successfully" if field sizes happen
  // to align — leftover bytes are the signal that it did not consume the
  // entry cleanly, so the loader must reject (and delete) such files.
  setenv("REFFIL_CACHE_DIR", "/tmp/reffil_test_cache4", 1);
  std::filesystem::remove_all("/tmp/reffil_test_cache4");
  std::filesystem::create_directories("/tmp/reffil_test_cache4");
  util::ByteWriter writer;
  harness::serialize_run_result(sample_result(), writer);
  auto bytes = writer.take();
  bytes.insert(bytes.end(), {0xDE, 0xAD, 0xBE, 0xEF});
  {
    std::ofstream out("/tmp/reffil_test_cache4/trailing.cell",
                      std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(harness::cache_load("trailing.cell").has_value());
  EXPECT_FALSE(
      std::filesystem::exists("/tmp/reffil_test_cache4/trailing.cell"));
  unsetenv("REFFIL_CACHE_DIR");
}

TEST(PaperReference, KnownCellsPresent) {
  const auto finetune =
      harness::paper_reference("OfficeCaltech10", harness::MethodKind::kFinetune,
                               /*new_order=*/false);
  ASSERT_TRUE(finetune.has_value());
  EXPECT_NEAR(finetune->avg, 44.56, 1e-9);
  EXPECT_NEAR(finetune->last, 19.29, 1e-9);
  ASSERT_EQ(finetune->steps.size(), 4u);
  EXPECT_NEAR(finetune->steps[0], 76.56, 1e-9);

  const auto reffil = harness::paper_reference(
      "Digits-Five", harness::MethodKind::kRefFiL, /*new_order=*/true);
  ASSERT_TRUE(reffil.has_value());
  EXPECT_NEAR(reffil->avg, 69.36, 1e-9);
}

TEST(PaperReference, EveryTableCellHasAvgAndLast) {
  for (const auto& spec : data::all_dataset_specs()) {
    for (const auto kind : harness::all_method_kinds()) {
      for (bool new_order : {false, true}) {
        const auto cell = harness::paper_reference(spec.name, kind, new_order);
        ASSERT_TRUE(cell.has_value())
            << spec.name << " " << harness::method_display_name(kind);
        EXPECT_GT(cell->avg, 0.0);
        EXPECT_GT(cell->last, 0.0);
      }
    }
  }
}

TEST(PaperReference, RefFiLIsFirstInPaperTables) {
  // The paper's headline: RefFiL has the best Avg on every dataset in both
  // orders — our encoded reference values must reflect that.
  for (const auto& spec : data::all_dataset_specs()) {
    for (bool new_order : {false, true}) {
      const double reffil_avg =
          harness::paper_reference(spec.name, harness::MethodKind::kRefFiL,
                                   new_order)
              ->avg;
      for (const auto kind : harness::all_method_kinds()) {
        if (kind == harness::MethodKind::kRefFiL) continue;
        EXPECT_GT(reffil_avg,
                  harness::paper_reference(spec.name, kind, new_order)->avg)
            << spec.name;
      }
    }
  }
}

TEST(PaperAblation, RowsMatchTableFive) {
  const auto rows = harness::paper_ablation_rows();
  ASSERT_EQ(rows.size(), 6u);
  EXPECT_FALSE(rows.front().cdap);  // Finetune row
  EXPECT_TRUE(rows.back().cdap && rows.back().gpl && rows.back().dpcl);
  EXPECT_NEAR(rows.back().avg, 53.56, 1e-9);
  // Every component row in the paper improves on the baseline.
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GT(rows[i].avg, rows.front().avg);
    EXPECT_GT(rows[i].last, rows.front().last);
  }
}

TEST(MethodNames, EveryListedNameParsesBackToItsMethod) {
  // reffil_run --list prints method_cli_name; --method parses it.
  for (const auto kind : reffil::harness::all_method_kinds()) {
    const std::string name = reffil::harness::method_cli_name(kind);
    const auto parsed = reffil::harness::parse_method_name(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, kind) << name;
  }
  EXPECT_FALSE(reffil::harness::parse_method_name("FedL2P\xE2\x80\xA0"));
}
