// Profiler tests: the written document's rows and keys, losslessness and
// exact self-time accounting across pool workers, a write racing recording
// workers (a TSan target), the disarmed path, and a profiled training run
// that must return what the unprofiled run returns.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "reffil/fed/runtime.hpp"
#include "reffil/harness/experiment.hpp"
#include "reffil/util/json.hpp"
#include "reffil/util/prof.hpp"
#include "reffil/util/thread_pool.hpp"

using namespace reffil;
namespace prof = reffil::obs::prof;
namespace json = reffil::util::json;

namespace {

std::string temp_profile_path(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("reffil_prof_test_") + tag + ".json"))
      .string();
}

/// Arms the profiler (clearing every table) for one test and guarantees
/// disarm, with a cleared sink path so the atexit flush stays a no-op, even
/// when an ASSERT bails out.
struct ProfSession {
  explicit ProfSession(const std::string& path) { prof::start(path); }
  ~ProfSession() { prof::start(""); }
};

json::Value write_and_load(const std::string& path) {
  EXPECT_TRUE(prof::write(path));
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  std::remove(path.c_str());
  return json::parse(ss.str());  // strict: throws on a malformed document
}

struct RowView {
  double calls = 0, total_ns = 0, self_ns = 0, bytes = 0;
};

/// Rows keyed by (name, task); task -1 for rows without one.
std::map<std::pair<std::string, long>, RowView> rows_of(const json::Value& doc) {
  std::map<std::pair<std::string, long>, RowView> rows;
  for (const auto& r : doc.find("rows")->as_array()) {
    rows[{r.string_or("name", ""), static_cast<long>(r.number_or("task", -1))}] =
        {r.number_or("calls", -1), r.number_or("total_ns", -1),
         r.number_or("self_ns", -1), r.number_or("bytes", -1)};
  }
  return rows;
}

double calls_of(const json::Value& doc, const std::string& name) {
  const auto rows = rows_of(doc);
  const auto it = rows.find({name, -1});
  return it == rows.end() ? 0.0 : it->second.calls;
}

/// Σ self over rows and Σ busy over threads: every finished span's duration
/// is either a top-level span's (busy) or subtracted from its parent's self,
/// so the two sums agree exactly once no span is open.
std::pair<double, double> self_and_busy(const json::Value& doc) {
  double self = 0, busy = 0;
  for (const auto& [key, row] : rows_of(doc)) self += row.self_ns;
  for (const auto& t : doc.find("threads")->as_array()) {
    busy += t.number_or("busy_ns", -1);
  }
  return {self, busy};
}

data::DatasetSpec tiny_spec() {
  data::DatasetSpec spec;
  spec.name = "ProfTiny";
  spec.num_classes = 3;
  spec.seed = 5;
  for (std::size_t d = 0; d < 2; ++d) {
    data::DomainSpec domain;
    domain.name = "D" + std::to_string(d);
    domain.train_samples = 24;
    domain.test_samples = 12;
    domain.noise = 0.1f;
    domain.stream_id = d;
    spec.domains.push_back(domain);
  }
  spec.initial_clients = 3;
  spec.clients_per_round = 2;
  spec.client_increment = 1;
  spec.rounds_per_task = 2;
  spec.local_epochs = 1;
  spec.learning_rate = 0.05f;
  return spec;
}

/// A two-slot Finetune run with its timings zeroed, plus the final global
/// state as the server broadcasts it.
std::pair<fed::RunResult, std::vector<std::uint8_t>> run_finetune() {
  const auto spec = tiny_spec();
  harness::ExperimentConfig config;
  config.parallelism = 2;
  auto method = harness::make_method(harness::MethodKind::kFinetune, spec, config);
  fed::RunConfig run;
  run.spec = spec;
  run.parallelism = 2;
  run.seed = 3;
  fed::RunResult result = fed::FederatedRunner(std::move(run)).run(*method);
  result.wall_seconds = 0.0;
  for (auto& t : result.tasks) t.eval_seconds = 0.0;
  for (auto& r : result.rounds) r.train_seconds = r.aggregate_seconds = 0.0;
  return {std::move(result), method->make_broadcast()};
}

}  // namespace

TEST(Prof, DisarmedProfilerWritesNoRows) {
  prof::start("");  // clears every table and disarms
  ASSERT_FALSE(prof::enabled());
  {
    prof::Span span("prof_test.noop", 64);
    prof::Span bw(prof::Backward{"prof_test.noop"});
    prof::Span task("prof_test.noop", prof::Task{1});
  }
  const auto doc = write_and_load(temp_profile_path("disarmed"));
  EXPECT_TRUE(doc.find("rows")->as_array().empty());
  EXPECT_TRUE(doc.find("threads")->as_array().empty());
}

TEST(Prof, RowsKeyByNameBackwardAndTask) {
  const std::string path = temp_profile_path("keys");
  ProfSession session(path);
  prof::set_thread_name("prof-test-main");
  {
    prof::Span outer("prof_test.outer", 4096);
    { prof::Span inner("prof_test.inner"); }
    { prof::Span bw(prof::Backward{"prof_test.inner"}); }
  }
  { prof::Span phase("prof_test.phase", prof::Task{2}); }
  { prof::Span phase("prof_test.phase", prof::Task{3}); }
  {
    prof::Span twice("prof_test.finish_once");
    twice.set_value(7);
    twice.finish();
    twice.finish();  // idempotent: one call
  }
  const auto doc = write_and_load(path);
  const auto rows = rows_of(doc);
  ASSERT_EQ(rows.size(), 6u);
  const RowView outer = rows.at({"prof_test.outer", -1});
  const RowView inner = rows.at({"prof_test.inner", -1});
  const RowView bw = rows.at({"bw:prof_test.inner", -1});
  EXPECT_EQ(outer.calls, 1);
  EXPECT_EQ(outer.bytes, 4096);
  EXPECT_EQ(outer.self_ns, outer.total_ns - inner.total_ns - bw.total_ns);
  EXPECT_EQ(inner.self_ns, inner.total_ns);
  EXPECT_EQ(rows.at({"prof_test.phase", 2}).calls, 1);
  EXPECT_EQ(rows.at({"prof_test.phase", 3}).calls, 1);
  EXPECT_EQ(rows.count({"prof_test.phase", -1}), 0u);
  EXPECT_EQ(rows.at({"prof_test.finish_once", -1}).calls, 1);
  EXPECT_EQ(rows.at({"prof_test.finish_once", -1}).bytes, 7);

  const auto& threads = doc.find("threads")->as_array();
  ASSERT_EQ(threads.size(), 1u);
  EXPECT_EQ(threads[0].string_or("name", ""), "prof-test-main");
  EXPECT_EQ(threads[0].number_or("spans", 0), 6);
  const auto [self, busy] = self_and_busy(doc);
  EXPECT_EQ(self, busy);
  EXPECT_LE(doc.number_or("first_ns", 1), doc.number_or("last_ns", 0));
}

TEST(Prof, NestedSpansAcrossParallelForWorkers) {
  constexpr std::size_t kOuter = 1000, kInner = 1000;
  const std::string path = temp_profile_path("lossless");
  ProfSession session(path);
  {
    util::ThreadPool pool(4);
    std::atomic<std::size_t> work{0};
    pool.parallel_for(kOuter, [&](std::size_t) {
      prof::Span outer("prof_test.outer");
      // A nested parallel_for's chunks run on this thread, nested under
      // this span, and on whichever workers claim them first.
      pool.parallel_for(kInner, [&](std::size_t) {
        prof::Span inner("prof_test.inner", 4);
        work.fetch_add(1, std::memory_order_relaxed);
      });
    });
    EXPECT_EQ(work.load(), kOuter * kInner);
  }  // joining the workers closes their last pool.task spans

  const auto doc = write_and_load(path);
  const auto rows = rows_of(doc);
  EXPECT_EQ(rows.at({"prof_test.outer", -1}).calls, kOuter);
  EXPECT_EQ(rows.at({"prof_test.inner", -1}).calls, kOuter * kInner);
  EXPECT_EQ(rows.at({"prof_test.inner", -1}).bytes, 4.0 * kOuter * kInner);
  // Every fork/join splits into workers + 1 = 5 chunks, and each chunk
  // runs exactly once: the outer call's and each of the kOuter nested ones.
  EXPECT_EQ(rows.at({"pool.chunk", -1}).calls, 5 * (kOuter + 1));
  for (const auto& [key, row] : rows) {
    EXPECT_LE(row.self_ns, row.total_ns) << key.first;
  }
  const auto [self, busy] = self_and_busy(doc);
  EXPECT_EQ(self, busy);
  EXPECT_GE(doc.find("threads")->as_array().size(), 2u);
}

TEST(Prof, WriteWhileWorkersRecord) {
  constexpr int kThreads = 4, kPerThread = 20000;
  const std::string path = temp_profile_path("racing");
  ProfSession session(path);
  std::atomic<int> running{kThreads};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        prof::Span outer("prof_test.race_outer");
        prof::Span inner("prof_test.race_inner", prof::Task{1});
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  int writes = 0;
  do {
    const auto doc = write_and_load(path);
    EXPECT_NE(doc.find("rows"), nullptr);
    ++writes;
  } while (running.load(std::memory_order_acquire) != 0);
  for (auto& th : threads) th.join();
  EXPECT_GE(writes, 1);

  const auto doc = write_and_load(path);
  EXPECT_EQ(calls_of(doc, "prof_test.race_outer"), kThreads * kPerThread);
  EXPECT_EQ(rows_of(doc).at({"prof_test.race_inner", 1}).calls,
            kThreads * kPerThread);
  const auto [self, busy] = self_and_busy(doc);
  EXPECT_EQ(self, busy);
}

TEST(Prof, ProfiledFinetuneRunMatchesUnprofiled) {
  prof::start("");
  const auto plain = run_finetune();
  const std::string path = temp_profile_path("run");
  ProfSession session(path);
  const auto profiled = run_finetune();
  EXPECT_TRUE(profiled.first == plain.first);
  EXPECT_TRUE(profiled.second == plain.second);

  const auto doc = write_and_load(path);
  const auto rows = rows_of(doc);
  bool saw_bw = false;
  std::map<std::string, int> fed_tasks;  // fed.* name -> tasks seen
  for (const auto& [key, row] : rows) {
    EXPECT_NE(key.first, "bw:ag.op");  // every backward node is named
    if (key.first.rfind("bw:ag.", 0) == 0) saw_bw = true;
    if (key.first.rfind("fed.", 0) == 0) {
      EXPECT_GE(key.second, 0) << key.first;  // fed.* spans carry a task
      ++fed_tasks[key.first];
    }
  }
  EXPECT_TRUE(saw_bw);
  EXPECT_EQ(fed_tasks["fed.client"], 2);
  EXPECT_EQ(fed_tasks["fed.eval"], 2);
  EXPECT_GT(calls_of(doc, "ag.backward"), 0);
  EXPECT_GT(calls_of(doc, "cl.run"), 0);
}
