// Client slots: the harness runs one slot per pool thread, and each slot's
// replica is built lazily — slot 0's with the method (it seeds the global
// state), every other the first time its slot trains, and any still missing
// by prepare_eval before concurrent predict calls share the slots.
//
// The round's client window: a slot starts the largest untrained client in
// a window of 4 x parallelism clients (the whole cohort when dense), updates
// fold in plan order while the other slots keep training, at most the
// window's payloads are alive at once, a failure anywhere ends the run
// without hanging it, and a DES run's result does not depend on the slot
// count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <thread>

#include "reffil/cl/method_base.hpp"
#include "reffil/fed/runtime.hpp"
#include "reffil/harness/experiment.hpp"
#include "reffil/util/error.hpp"
#include "reffil/util/json.hpp"
#include "reffil/util/obs.hpp"
#include "reffil/util/thread_pool.hpp"

using namespace reffil;

namespace {

/// The Finetune step with counters on replica construction and on the slots
/// predict() is called for.
class CountingMethod : public cl::MethodBase {
 public:
  explicit CountingMethod(std::size_t slots)
      : MethodBase("Counting", slots_config(slots)) {
    init_workers();
  }

  std::size_t predict(std::size_t slot, const tensor::Tensor& image) override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      predicted_slots_.insert(slot);
    }
    return MethodBase::predict(slot, image);
  }

  std::size_t built() const { return built_.load(); }
  std::set<std::size_t> predicted_slots() {
    std::lock_guard<std::mutex> lock(mutex_);
    return predicted_slots_;
  }

 protected:
  std::unique_ptr<cl::Replica> make_replica(util::Rng& rng) override {
    built_.fetch_add(1);
    return MethodBase::make_replica(rng);
  }

 private:
  static cl::MethodConfig slots_config(std::size_t slots) {
    cl::MethodConfig config;
    config.net.num_classes = 4;
    config.parallelism = slots;
    return config;
  }

  std::atomic<std::size_t> built_{0};
  std::mutex mutex_;
  std::set<std::size_t> predicted_slots_;
};

/// Two small domains and one client per round.
data::DatasetSpec one_client_spec() {
  data::DatasetSpec spec;
  spec.name = "OneClient";
  spec.num_classes = 4;
  spec.seed = 41;
  data::DomainSpec d;
  d.train_samples = 24;
  d.test_samples = 20;
  for (const char* name : {"A", "B"}) {
    d.name = name;
    spec.domains.push_back(d);
  }
  spec.initial_clients = 2;
  spec.clients_per_round = 1;
  spec.client_increment = 0;
  spec.rounds_per_task = 2;
  spec.local_epochs = 1;
  return spec;
}

fed::RunResult run(CountingMethod& method, std::size_t slots) {
  fed::RunConfig config;
  config.spec = one_client_spec();
  config.parallelism = slots;
  config.seed = 9;
  return fed::FederatedRunner(config).run(method);
}

}  // namespace

TEST(ClientSlots, DefaultIsOneSlotPerPoolThread) {
  EXPECT_EQ(harness::ExperimentConfig{}.parallelism,
            util::global_thread_pool().size());
}

TEST(ClientSlots, BuildingAMethodBuildsExactlyOneReplica) {
  CountingMethod method(4);
  EXPECT_EQ(method.built(), 1u);  // slot 0's, for the initial global state
  method.prepare_eval();
  EXPECT_EQ(method.built(), 4u);
  method.prepare_eval();
  EXPECT_EQ(method.built(), 4u);  // built once per slot
}

TEST(ClientSlots, EvaluationRunsOnEverySlotWhenARoundHasFewerClients) {
  // One client per round trains on slot 0 only; the other three slots get
  // their replicas from prepare_eval, and the accuracy is the one-slot run's.
  CountingMethod one(1);
  const fed::RunResult expected = run(one, 1);
  CountingMethod four(4);
  const fed::RunResult result = run(four, 4);
  EXPECT_EQ(four.built(), 4u);
  EXPECT_EQ(four.predicted_slots(), (std::set<std::size_t>{0, 1, 2, 3}));
  ASSERT_EQ(result.tasks.size(), expected.tasks.size());
  for (std::size_t t = 0; t < result.tasks.size(); ++t) {
    EXPECT_EQ(result.tasks[t].per_domain_accuracy,
              expected.tasks[t].per_domain_accuracy);
  }
}

// ---- the round's client window ---------------------------------------------

namespace {

std::size_t work_of(const fed::TrainJob& job) {
  return (job.new_data != nullptr ? job.new_data->size() : 0) +
         (job.old_data != nullptr ? job.old_data->size() : 0);
}

/// 1-based calls to fail at; 0 never fails.
struct WindowFailures {
  std::size_t train_call = 0, add_call = 0;
};

/// Forwards to a real method and its sink, and watches the window: how many
/// payloads are alive at once (from train_client's entry to the end of the
/// sink's add), and per round the order of train_client calls and of adds.
/// On request the k-th train_client call (1-based) sleeps, so the other
/// slots fill the window and wait, and then throws; the k-th add throws.
class WindowWatch : public fed::Method {
 public:
  struct Trained {
    std::size_t client, work;
  };

  explicit WindowWatch(std::unique_ptr<fed::Method> inner,
                       WindowFailures failures = {})
      : inner_(std::move(inner)), failures_(failures) {}

  std::string name() const override { return inner_->name(); }
  void on_task_start(std::size_t task) override { inner_->on_task_start(task); }
  std::vector<std::uint8_t> make_broadcast() override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      trained_.emplace_back();
      added_.emplace_back();
    }
    return inner_->make_broadcast();
  }
  fed::ClientUpdate train_client(const std::vector<std::uint8_t>& broadcast,
                                 const fed::TrainJob& job) override {
    std::size_t call = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      max_live_ = std::max(max_live_, ++live_);
      trained_.back().push_back({job.client_id, work_of(job)});
      call = ++train_calls_;
    }
    if (call == failures_.train_call) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      throw Error("train_client failed");
    }
    return inner_->train_client(broadcast, job);
  }
  fed::UpdateValidator update_validator() const override {
    return inner_->update_validator();
  }
  std::unique_ptr<fed::AggregationSink> begin_streaming_aggregate(
      std::size_t planned_samples) override {
    struct Sink : fed::AggregationSink {
      Sink(WindowWatch& w, std::unique_ptr<fed::AggregationSink> s)
          : watch(w), inner(std::move(s)) {}
      void add(const fed::ClientUpdate& update) override {
        std::size_t call = 0;
        {
          std::lock_guard<std::mutex> lock(watch.mutex_);
          watch.added_.back().push_back(update.client_id);
          call = ++watch.add_calls_;
        }
        if (call == watch.failures_.add_call) throw Error("add failed");
        inner->add(update);
        std::lock_guard<std::mutex> lock(watch.mutex_);
        --watch.live_;
      }
      std::size_t count() const override { return inner->count(); }
      void finish() override { inner->finish(); }
      WindowWatch& watch;
      std::unique_ptr<fed::AggregationSink> inner;
    };
    return std::make_unique<Sink>(
        *this, inner_->begin_streaming_aggregate(planned_samples));
  }
  void configure_compression(const fed::CompressionConfig& config) override {
    inner_->configure_compression(config);
  }
  void prepare_eval() override { inner_->prepare_eval(); }
  std::size_t predict(std::size_t slot, const tensor::Tensor& image) override {
    return inner_->predict(slot, image);
  }
  tensor::Tensor eval_feature(std::size_t slot,
                              const tensor::Tensor& image) override {
    return inner_->eval_feature(slot, image);
  }

  std::size_t max_live() const { return max_live_; }
  /// Per round: the train_client calls, in call order.
  const std::vector<std::vector<Trained>>& trained() const { return trained_; }
  /// Per round: the clients the sink received, in add order.
  const std::vector<std::vector<std::size_t>>& added() const { return added_; }

 private:
  std::unique_ptr<fed::Method> inner_;
  WindowFailures failures_;
  std::mutex mutex_;
  std::size_t live_ = 0, max_live_ = 0, train_calls_ = 0, add_calls_ = 0;
  std::vector<std::vector<Trained>> trained_;
  std::vector<std::vector<std::size_t>> added_;
};

/// Two domains over ten uneven data shards (quantity shift), so clients
/// differ in work and task 1 has old-data clients.
data::DatasetSpec window_spec() {
  data::DatasetSpec spec;
  spec.name = "Window";
  spec.num_classes = 3;
  spec.seed = 52;
  data::DomainSpec d;
  d.train_samples = 160;
  d.test_samples = 24;
  d.noise = 0.1f;
  for (const char* name : {"A", "B"}) {
    d.name = name;
    spec.domains.push_back(d);
  }
  spec.initial_clients = 10;
  spec.clients_per_round = 4;
  spec.client_increment = 0;
  spec.rounds_per_task = 2;
  spec.local_epochs = 1;
  spec.learning_rate = 0.03f;
  return spec;
}

std::unique_ptr<fed::Method> finetune(std::size_t slots) {
  harness::ExperimentConfig config;
  config.seed = 4;
  config.parallelism = slots;
  return harness::make_method(harness::MethodKind::kFinetune, window_spec(),
                              config);
}

/// DES over 1000 registered clients with `sample` drawn per round; the
/// simulated compute jitter spreads the upload starts, so plan (arrival)
/// order is not client-id order.
fed::RunConfig des_run(std::size_t slots, std::size_t sample,
                       const std::string& compress = "") {
  fed::RunConfig run;
  run.spec = window_spec();
  run.parallelism = slots;
  run.seed = 4;
  run.des = fed::DesConfig::parse(
      "registered=1000,compute=1,jitter=5,sample=" + std::to_string(sample));
  run.compress = fed::CompressionConfig::parse(compress);
  return run;
}

/// A dense run whose every round trains all `cohort` clients of the data
/// population, with enough samples for each to hold a shard.
fed::RunConfig dense_run(std::size_t slots, std::size_t cohort) {
  fed::RunConfig run;
  run.spec = window_spec();
  for (auto& domain : run.spec.domains) {
    domain.train_samples = std::max(domain.train_samples, 8 * cohort);
  }
  run.spec.initial_clients = cohort;
  run.spec.clients_per_round = cohort;
  run.parallelism = slots;
  run.seed = 4;
  return run;
}

bool same_bits(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.begin(), b.begin(), a.numel() * sizeof(float)) == 0;
}

}  // namespace

TEST(ClientWindow, LivePayloadsNeverExceedTheWindow) {
  const std::size_t threads = util::global_thread_pool().size();
  for (const std::size_t slots : {std::size_t{1}, std::size_t{2}, threads}) {
    SCOPED_TRACE(slots);
    const std::size_t window = 4 * slots;
    // Dense and DES rounds share the window; both cohorts exceed it.
    for (const fed::RunConfig& run :
         {des_run(slots, 2 * window + 1), dense_run(slots, window + 1)}) {
      SCOPED_TRACE(run.des.enabled() ? "des" : "dense");
      WindowWatch watch(finetune(slots));
      fed::FederatedRunner(run).run(watch);
      EXPECT_LE(watch.max_live(), window);
      // One slot trains the largest client in the window first, so updates
      // wait for the fold: the bound is exercised, not vacuous.
      if (slots == 1) {
        EXPECT_GT(watch.max_live(), 1u);
      }
    }
  }
}

TEST(ClientWindow, OneSlotTrainsLargestFirstAndFoldsInPlanOrder) {
  // One slot, four clients per round: the window (4 x 1) is the cohort, so
  // train_client runs in non-increasing work order, while the adds arrive in
  // plan order — the order of the client_train records, which follow the
  // simulated upload start.
  const std::string path = "/tmp/reffil_client_window_test.jsonl";
  WindowWatch watch(finetune(1));
  const fed::RunConfig run = des_run(1, 4);
  obs::set_trace_path(path);
  fed::FederatedRunner(run).run(watch);
  obs::set_trace_path("");

  // Per global round: the client_train records' clients, in trace order.
  std::vector<std::vector<std::size_t>> recorded(watch.trained().size());
  std::vector<double> last_start(recorded.size(), 0.0);
  std::ifstream trace(path);
  for (std::string line; std::getline(trace, line);) {
    const auto event = util::json::parse(line);
    if (event.string_or("event", "") != "client_train") continue;
    const auto round = static_cast<std::size_t>(
        event.number_or("task", 0) * run.spec.rounds_per_task +
        event.number_or("round", 0));
    ASSERT_LT(round, recorded.size());
    const double start = event.number_or("sim_start_s", 0.0);
    EXPECT_GE(start, last_start[round]) << line;
    last_start[round] = start;
    recorded[round].push_back(
        static_cast<std::size_t>(event.number_or("client", 0)));
  }
  std::filesystem::remove(path);

  ASSERT_EQ(watch.trained().size(),
            run.spec.domains.size() * run.spec.rounds_per_task);
  bool reordered = false;
  for (std::size_t r = 0; r < recorded.size(); ++r) {
    SCOPED_TRACE(r);
    const auto& trained = watch.trained()[r];
    ASSERT_EQ(trained.size(), 4u);
    EXPECT_EQ(watch.added()[r], recorded[r]);
    for (std::size_t i = 0; i < trained.size(); ++i) {
      if (i > 0) {
        EXPECT_GE(trained[i - 1].work, trained[i].work);
      }
      reordered |= trained[i].client != recorded[r][i];
    }
  }
  EXPECT_TRUE(reordered) << "no round trained out of plan order";
}

TEST(ClientWindow, AFailureEndsTheRunWithoutHangingIt) {
  // Four slots, a cohort well past the window of 16. The first train_client
  // sleeps while the other slots fill the window and wait for the fold
  // cursor it holds, then throws: the waiting slots must wake and the error
  // must leave run(). The same for a fold that throws without an armed
  // transport.
  for (const WindowFailures failures :
       {WindowFailures{.train_call = 1}, WindowFailures{.add_call = 3}}) {
    WindowWatch watch(finetune(4), failures);
    fed::FederatedRunner runner(des_run(4, 40));
    EXPECT_THROW(runner.run(watch), Error);
  }
}

TEST(ClientSlots, DesResultDoesNotDependOnSlotCount) {
  // The DES window is 4 x the slot count and slots take the largest client
  // in it, so the training order changes with the slot count; the fold
  // order, and so the result, must not. Uncompressed and q8 top-k (with
  // its error-feedback residuals) alike.
  const std::size_t threads = util::global_thread_pool().size();
  for (const std::string compress : {"", "q8,topk=0.1"}) {
    SCOPED_TRACE(compress);
    const auto run = [&](std::size_t slots) {
      std::unique_ptr<fed::Method> method = finetune(slots);
      const fed::RunResult result =
          fed::FederatedRunner(des_run(slots, 12, compress)).run(*method);
      return std::make_pair(
          result, dynamic_cast<cl::MethodBase&>(*method).global_state());
    };
    const auto [one, one_global] = run(1);
    for (const std::size_t slots : {std::size_t{2}, threads, threads + 2}) {
      SCOPED_TRACE(slots);
      auto [other, other_global] = run(slots);
      ASSERT_EQ(other.tasks.size(), one.tasks.size());
      for (std::size_t t = 0; t < one.tasks.size(); ++t) {
        EXPECT_EQ(other.tasks[t].per_domain_accuracy,
                  one.tasks[t].per_domain_accuracy);
        EXPECT_EQ(other.tasks[t].cumulative_accuracy,
                  one.tasks[t].cumulative_accuracy);
      }
      ASSERT_EQ(other.rounds.size(), one.rounds.size());
      for (std::size_t r = 0; r < one.rounds.size(); ++r) {
        fed::RoundStats want = one.rounds[r], got = other.rounds[r];
        want.train_seconds = want.aggregate_seconds = 0.0;
        got.train_seconds = got.aggregate_seconds = 0.0;
        EXPECT_EQ(got, want) << "round " << r;
      }
      EXPECT_EQ(other.network, one.network);
      ASSERT_EQ(other_global.size(), one_global.size());
      for (std::size_t i = 0; i < one_global.size(); ++i) {
        EXPECT_TRUE(same_bits(other_global[i], one_global[i])) << "tensor " << i;
      }
    }
  }
}
