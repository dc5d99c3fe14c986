// Observability smoke tests: metric registry semantics, concurrent counter
// exactness (the TSan job exercises this file like every other test), and
// the JSONL trace — including the invariant the CI check relies on:
// per-event byte totals reconcile exactly with RunResult::network.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "reffil/fed/runtime.hpp"
#include "reffil/harness/experiment.hpp"
#include "reffil/util/json.hpp"
#include "reffil/util/obs.hpp"
#include "reffil/util/thread_pool.hpp"

using namespace reffil;

TEST(ObsMetrics, CounterHandlesAreStableAndNamed) {
  obs::Counter& a = obs::counter("test.counter_a");
  a.reset();
  a.add();
  a.add(4);
  EXPECT_EQ(obs::counter("test.counter_a").value(), 5u);
  EXPECT_EQ(&a, &obs::counter("test.counter_a"));
  EXPECT_EQ(obs::counter("test.counter_b").value(), 0u);
}

TEST(ObsMetrics, ConcurrentCountsAreExact) {
  obs::Counter& c = obs::counter("test.concurrent");
  c.reset();
  constexpr std::size_t kThreads = 8, kPerThread = 10000;
  util::global_thread_pool().parallel_for(kThreads, [&](std::size_t) {
    for (std::size_t i = 0; i < kPerThread; ++i) c.add();
  });
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(ObsMetrics, GaugeLastWriteWins) {
  obs::Gauge& g = obs::gauge("test.gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(ObsMetrics, HistogramTracksMoments) {
  obs::Histogram& h = obs::histogram("test.hist");
  h.reset();
  EXPECT_EQ(h.stats().count, 0u);
  for (double v : {1.0, 2.0, 4.0, 0.5}) h.observe(v);
  const auto stats = h.stats();
  EXPECT_EQ(stats.count, 4u);
  EXPECT_DOUBLE_EQ(stats.sum, 7.5);
  EXPECT_DOUBLE_EQ(stats.min, 0.5);
  EXPECT_DOUBLE_EQ(stats.max, 4.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 7.5 / 4.0);
}

TEST(ObsMetrics, ConcurrentHistogramSumIsExact) {
  // Powers of two accumulate exactly in doubles, so the CAS-add loop must
  // produce the precise total regardless of interleaving.
  obs::Histogram& h = obs::histogram("test.hist_concurrent");
  h.reset();
  constexpr std::size_t kThreads = 8, kPerThread = 2000;
  util::global_thread_pool().parallel_for(kThreads, [&](std::size_t) {
    for (std::size_t i = 0; i < kPerThread; ++i) h.observe(0.25);
  });
  const auto stats = h.stats();
  EXPECT_EQ(stats.count, kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(stats.sum, 0.25 * static_cast<double>(kThreads * kPerThread));
}

TEST(ObsMetrics, SnapshotContainsRegisteredNames) {
  obs::counter("test.snap_counter").add(2);
  obs::gauge("test.snap_gauge").set(1.25);
  obs::histogram("test.snap_hist").observe(1.0);
  const auto snap = obs::Registry::instance().snapshot();
  EXPECT_GE(snap.counters.at("test.snap_counter"), 2u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("test.snap_gauge"), 1.25);
  EXPECT_GE(snap.histograms.at("test.snap_hist").stats.count, 1u);
}

TEST(ObsMetrics, SnapshotExposesBucketsAndQuantiles) {
  obs::Histogram& h = obs::histogram("test.quantiles");
  h.reset();
  // 100 samples spread across two decades: quantiles must land within the
  // log2-bucket error bound (a factor of 2), clamped to the exact extremes.
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.stats.count, 100u);
  std::uint64_t bucket_total = 0;
  for (const auto b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, 100u);

  const double p50 = snap.quantile(0.50);
  const double p95 = snap.quantile(0.95);
  const double p99 = snap.quantile(0.99);
  EXPECT_GE(p50, 25.0);   // true p50 = 50.5, bucket error <= 2x
  EXPECT_LE(p50, 101.0);
  EXPECT_GE(p95, 47.5);   // true p95 = 95.05
  EXPECT_LE(p95, 100.0);  // clamped to observed max
  EXPECT_GE(p99, p95);
  EXPECT_LE(p99, 100.0);
  EXPECT_LE(p50, p95);

  // Degenerate cases: empty histogram and single sample.
  obs::Histogram& empty = obs::histogram("test.quantiles_empty");
  empty.reset();
  EXPECT_DOUBLE_EQ(empty.snapshot().quantile(0.5), 0.0);
  obs::Histogram& one = obs::histogram("test.quantiles_one");
  one.reset();
  one.observe(3.25);
  EXPECT_DOUBLE_EQ(one.snapshot().quantile(0.0), 3.25);
  EXPECT_DOUBLE_EQ(one.snapshot().quantile(1.0), 3.25);
}

TEST(ObsTrace, EventRendersOrderedEscapedJson) {
  const std::string json = obs::TraceEvent("demo")
                               .field("n", std::uint64_t{7})
                               .field("neg", std::int64_t{-3})
                               .field("x", 1.5)
                               .field("s", "a\"b\\c\nd")
                               .json();
  EXPECT_EQ(json,
            "{\"event\":\"demo\",\"n\":7,\"neg\":-3,\"x\":1.5,"
            "\"s\":\"a\\\"b\\\\c\\nd\"}");
}

TEST(ObsTrace, EscapingSurvivesRandomByteStrings) {
  // Fuzz the escaper over arbitrary byte strings (including invalid UTF-8
  // and every control character) and insist the strict RFC 8259 parser
  // accepts each rendered event. Seeded, so failures reproduce.
  std::mt19937 rng(0xC0FFEE);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> len(0, 64);
  for (int iter = 0; iter < 1000; ++iter) {
    std::string raw;
    const int n = len(rng);
    for (int i = 0; i < n; ++i) raw.push_back(static_cast<char>(byte(rng)));
    const std::string json =
        obs::TraceEvent("fuzz").field("payload", raw).json();
    const auto v = util::json::parse(json);  // throws = test failure
    ASSERT_TRUE(v.is_object());
    EXPECT_EQ(v.string_or("event", ""), "fuzz");
    ASSERT_NE(v.find("payload"), nullptr);
  }
}

TEST(ObsTrace, EscapingPreservesUtf8AndReplacesInvalidBytes) {
  const std::string utf8 = "héllo wörld — ünïcode \xE2\x9C\x93 \xF0\x9F\x9A\x80";
  const auto round =
      util::json::parse(obs::TraceEvent("t").field("s", utf8).json());
  EXPECT_EQ(round.find("s")->as_string(), utf8);

  // \x01 must render as  (and decode back); the stray 0xFF byte and
  // the truncated 0xC3 lead must each become U+FFFD, not raw garbage.
  const std::string bad = "a\x01" "b\xFF" "se\xC3(";
  const auto v =
      util::json::parse(obs::TraceEvent("t").field("s", bad).json());
  EXPECT_EQ(v.find("s")->as_string(),
            std::string("a\x01") + "b\xEF\xBF\xBDse\xEF\xBF\xBD(");

  // Overlong encoding of '/' (C0 AF) is invalid UTF-8: both bytes replaced.
  const std::string overlong = "x\xC0\xAFy";
  const auto w =
      util::json::parse(obs::TraceEvent("t").field("s", overlong).json());
  EXPECT_EQ(w.find("s")->as_string(), "x\xEF\xBF\xBD\xEF\xBF\xBDy");
}

namespace {

data::DatasetSpec tiny_spec() {
  data::DatasetSpec spec;
  spec.name = "ObsTiny";
  spec.num_classes = 3;
  spec.seed = 70;
  for (const char* name : {"A", "B"}) {
    data::DomainSpec d;
    d.train_samples = 36;
    d.test_samples = 15;
    d.noise = 0.1f;
    d.name = name;
    spec.domains.push_back(d);
  }
  spec.initial_clients = 4;
  spec.clients_per_round = 3;
  spec.client_increment = 0;
  spec.rounds_per_task = 2;
  spec.local_epochs = 1;
  spec.learning_rate = 0.03f;
  return spec;
}

/// Minimal JSONL field scraping (the repo has no JSON parser): returns the
/// numeric value after "key": in `line`, or nullopt.
std::optional<double> json_number(const std::string& line,
                                  const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  return std::strtod(line.c_str() + pos + needle.size(), nullptr);
}

bool is_event(const std::string& line, const std::string& type) {
  return line.find("\"event\":\"" + type + "\"") != std::string::npos;
}

}  // namespace

TEST(ObsTrace, RunTraceReconcilesWithRunResult) {
  const std::string path = "/tmp/reffil_obs_trace_test.jsonl";
  std::filesystem::remove(path);
  obs::set_trace_path(path);

  const auto spec = tiny_spec();
  harness::ExperimentConfig config;
  config.parallelism = 2;
  auto method = harness::make_method(harness::MethodKind::kFinetune, spec, config);
  fed::FederatedRunner runner({.spec = spec,
                               .parallelism = 2,
                               .seed = 9,
                               .dropout_probability = 0.3});
  const fed::RunResult result = runner.run(*method);
  obs::set_trace_path("");  // close the sink so the file is complete

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  ASSERT_FALSE(lines.empty());

  // Every line is one JSON object with an event type.
  std::uint64_t bytes_down = 0, bytes_up = 0, dropped = 0;
  std::size_t evals = 0, run_ends = 0;
  for (const auto& line : lines) {
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_NE(line.find("\"event\":\""), std::string::npos) << line;
    if (is_event(line, "broadcast")) {
      const auto v = json_number(line, "bytes_down");
      ASSERT_TRUE(v.has_value()) << line;
      bytes_down += static_cast<std::uint64_t>(*v);
    } else if (is_event(line, "client_train")) {
      const auto v = json_number(line, "bytes_up");
      ASSERT_TRUE(v.has_value()) << line;
      bytes_up += static_cast<std::uint64_t>(*v);
      EXPECT_GE(*json_number(line, "wall_s"), 0.0) << line;
      EXPECT_NE(line.find("\"group\":\""), std::string::npos) << line;
    } else if (is_event(line, "dropout")) {
      ++dropped;
    } else if (is_event(line, "eval")) {
      ++evals;
      EXPECT_GE(*json_number(line, "accuracy"), 0.0) << line;
    } else if (is_event(line, "run_end")) {
      ++run_ends;
      EXPECT_EQ(static_cast<std::uint64_t>(*json_number(line, "bytes_down")),
                result.network.bytes_down);
      EXPECT_EQ(static_cast<std::uint64_t>(*json_number(line, "bytes_up")),
                result.network.bytes_up);
      EXPECT_EQ(static_cast<std::uint64_t>(
                    *json_number(line, "dropped_updates")),
                result.network.dropped_updates);
    }
  }
  // Per-event sums reconcile exactly with the aggregate network stats.
  EXPECT_EQ(bytes_down, result.network.bytes_down);
  EXPECT_EQ(bytes_up, result.network.bytes_up);
  EXPECT_EQ(dropped, result.network.dropped_updates);
  EXPECT_EQ(evals, 1u + 2u);  // task 0 evaluates 1 domain, task 1 evaluates 2
  EXPECT_EQ(run_ends, 1u);

  // The RoundStats breakdown carried by the result agrees with both.
  std::uint64_t round_down = 0, round_up = 0, round_dropped = 0;
  for (const auto& r : result.rounds) {
    round_down += r.bytes_down;
    round_up += r.bytes_up;
    round_dropped += r.dropped;
  }
  EXPECT_EQ(result.rounds.size(),
            spec.domains.size() * spec.rounds_per_task);
  EXPECT_EQ(round_down, result.network.bytes_down);
  EXPECT_EQ(round_up, result.network.bytes_up);
  EXPECT_EQ(round_dropped, result.network.dropped_updates);

  std::filesystem::remove(path);
}

namespace {

using Counters = std::map<std::string, std::uint64_t>;

/// The integral members of a field-listed struct, by name.
template <class T>
Counters counters_of(const T& s) {
  Counters out;
  util::for_each_field(s, [&](const char* name, const auto& v) {
    if constexpr (std::is_integral_v<std::remove_cvref_t<decltype(v)>>) {
      out[name] = v;
    }
  });
  return out;
}

}  // namespace

// One record per occurrence: summing a traced run's records by the rule
// each record kind states reproduces every RoundStats counter of every
// round and every NetworkStats field of the run, with dropout, every
// transport fault and a deadline armed. The sums are written out here
// independently of the runner, so a record that stops counting (or a
// counter no record feeds) fails the comparison.
TEST(ObsTrace, RecordSumsReproduceEveryRoundAndRunCounter) {
  const std::string path = "/tmp/reffil_record_sum_test.jsonl";
  const auto spec = harness::apply_scale(data::digits_five_spec(),
                                         harness::Scale::kSmoke);
  harness::ExperimentConfig config;
  config.parallelism = 2;
  auto method =
      harness::make_method(harness::MethodKind::kFinetune, spec, config);
  fed::FederatedRunner runner(
      {.spec = spec,
       .parallelism = 2,
       .seed = 7,
       .dropout_probability = 0.3,
       .faults = fed::FaultProfile::parse(
           "corrupt=0.3,poison=0.3,dup=0.2,retries=1,deadline=2")});
  obs::set_trace_path(path);
  const fed::RunResult result = runner.run(*method);
  obs::set_trace_path("");

  // Per (task, round): the RoundStats counters the round's records sum to.
  std::map<std::pair<std::uint64_t, std::uint64_t>, Counters> rounds;
  std::uint64_t duplicates = 0;
  std::ifstream trace(path);
  for (std::string line; std::getline(trace, line);) {
    const auto event = util::json::parse(line);
    const std::string kind = event.string_or("event", "");
    if (kind != "broadcast" && kind != "client_train" && kind != "dropout" &&
        kind != "fed.timeout" && kind != "fed.quarantine" &&
        kind != "fed.retry") {
      continue;
    }
    const auto field = [&](const char* key) -> std::uint64_t {
      const auto* v = event.find(key);
      if (v == nullptr || !v->is_number()) {
        ADD_FAILURE() << kind << " record has no numeric " << key;
        return 0;
      }
      return static_cast<std::uint64_t>(v->as_number());
    };
    const auto key = std::make_pair(field("task"), field("round"));
    if (!rounds.contains(key)) {
      rounds[key] = counters_of(fed::RoundStats{});
      rounds[key]["task"] = key.first;
      rounds[key]["round"] = key.second;
    }
    Counters& r = rounds[key];
    if (kind == "broadcast") {
      r["selected"] += field("participants");
      r["messages"] += field("participants");
      r["bytes_down"] += field("bytes_down");
      r["bytes_down_raw_equiv"] += field("bytes_down_raw_equiv");
    } else if (kind == "client_train") {
      ++r["messages"];
      r["bytes_up"] += field("bytes_up");
      r["bytes_up_raw_equiv"] += field("bytes_up_raw_equiv");
    } else if (kind == "dropout") {
      ++r["dropped"];
    } else if (kind == "fed.timeout") {
      ++r["timed_out"];
    } else if (kind == "fed.quarantine") {
      ++r["quarantined"];
    } else {
      // A retry record exists only when something was sent again.
      EXPECT_GT(field("retries") + field("duplicates"), 0u) << line;
      r["retries"] += field("retries");
      r["bytes_retransmitted"] += field("bytes_retransmitted");
      duplicates += field("duplicates");
    }
  }
  // The run totals are the round sums; NetworkStats names the dropout
  // count dropped_updates.
  Counters network = counters_of(fed::NetworkStats{});
  for (const auto& [key, r] : rounds) {
    for (const auto& [name, value] : r) {
      const std::string total = name == "dropped" ? "dropped_updates" : name;
      if (network.contains(total)) network[total] += value;
    }
  }

  // Every record kind occurred, so every counter is exercised.
  for (const auto& [name, value] : counters_of(result.network)) {
    EXPECT_GT(value, 0u) << name;
  }
  EXPECT_GT(duplicates, 0u);

  EXPECT_EQ(network, counters_of(result.network));
  ASSERT_EQ(rounds.size(), result.rounds.size());
  for (const fed::RoundStats& want : result.rounds) {
    const auto it = rounds.find({want.task, want.round});
    ASSERT_NE(it, rounds.end()) << want.task << "/" << want.round;
    EXPECT_EQ(it->second, counters_of(want))
        << "task " << want.task << " round " << want.round;
  }
  std::filesystem::remove(path);
}

TEST(ObsTrace, DisabledTraceWritesNothing) {
  obs::set_trace_path("");
  EXPECT_FALSE(obs::trace_enabled());
  obs::trace(obs::TraceEvent("ignored"));  // must be a no-op, not a crash
  obs::flush_trace();
}

TEST(ObsMetrics, QuantileEdgeContract) {
  // The documented interpolation contract (obs.hpp): q <= 0 is exactly min,
  // q >= 1 is exactly max — out-of-range q included — and interior
  // estimates are clamped to the observed extremes.
  obs::Histogram& h = obs::histogram("test.quantile_edges");
  h.reset();
  for (double v : {0.7, 3.0, 12.5, 40.0}) h.observe(v);
  const auto snap = h.snapshot();
  EXPECT_DOUBLE_EQ(snap.quantile(0.0), 0.7);
  EXPECT_DOUBLE_EQ(snap.quantile(-0.5), 0.7);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 40.0);
  EXPECT_DOUBLE_EQ(snap.quantile(2.0), 40.0);
  for (double q : {0.01, 0.25, 0.5, 0.75, 0.99}) {
    EXPECT_GE(snap.quantile(q), 0.7) << q;
    EXPECT_LE(snap.quantile(q), 40.0) << q;
  }
  // Monotone in q.
  EXPECT_LE(snap.quantile(0.25), snap.quantile(0.75));

  // Empty histogram: every q answers 0.0 (no samples, no estimate).
  obs::Histogram& empty = obs::histogram("test.quantile_edges_empty");
  empty.reset();
  for (double q : {-1.0, 0.0, 0.5, 1.0, 2.0}) {
    EXPECT_DOUBLE_EQ(empty.snapshot().quantile(q), 0.0) << q;
  }

  // All samples in one log2 bucket [2, 4): interior quantiles interpolate
  // inside the bucket but stay clamped to the observed [min, max].
  obs::Histogram& one_bucket = obs::histogram("test.quantile_edges_bucket");
  one_bucket.reset();
  for (double v : {2.1, 2.9, 3.5}) one_bucket.observe(v);
  const auto bs = one_bucket.snapshot();
  EXPECT_DOUBLE_EQ(bs.quantile(0.0), 2.1);
  EXPECT_DOUBLE_EQ(bs.quantile(1.0), 3.5);
  EXPECT_GE(bs.quantile(0.5), 2.1);
  EXPECT_LE(bs.quantile(0.5), 3.5);
}

TEST(ObsTrace, SigtermMidRunLeavesParseableTrace) {
  // Satellite contract: a run killed mid-flight must still leave a trace in
  // which every line parses. The child opens a sink (which installs the
  // crash handlers), records events without flushing, reports readiness
  // over a pipe, and spins until the parent delivers SIGTERM.
  const std::string path = "/tmp/reffil_obs_crashflush_test.jsonl";
  std::filesystem::remove(path);
  int ready[2];
  ASSERT_EQ(::pipe(ready), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(ready[0]);
    obs::set_trace_path(path);
    for (int i = 0; i < 50; ++i) {
      obs::trace(obs::TraceEvent("crash_test")
                     .field("i", i)
                     .field("payload", "quote\" slash\\ done"));
    }
    const char byte = 1;
    (void)::write(ready[1], &byte, 1);
    for (;;) ::pause();
  }
  ::close(ready[1]);
  // A child that never reports readiness (a fork taken while other threads
  // of this process held locks the child then needs) fails the test instead
  // of blocking it forever.
  pollfd ready_poll{ready[0], POLLIN, 0};
  if (::poll(&ready_poll, 1, 60'000) != 1) {
    ::close(ready[0]);
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    FAIL() << "forked child did not report readiness within 60 s";
  }
  char byte = 0;
  ASSERT_EQ(::read(ready[0], &byte, 1), 1);
  ::close(ready[0]);
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  // The handler flushes, then re-raises with the default disposition, so
  // the exit status still reports death by SIGTERM.
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGTERM);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::size_t events = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    EXPECT_NO_THROW(util::json::parse(line)) << line;
    EXPECT_NE(line.find("\"event\":\"crash_test\""), std::string::npos);
    ++events;
  }
  EXPECT_EQ(events, 50u);
  std::filesystem::remove(path);
}
