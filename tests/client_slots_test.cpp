// Client slots: the harness runs one slot per pool thread, and each slot's
// replica is built lazily — slot 0's with the method (it seeds the global
// state), every other the first time its slot trains, and any still missing
// by prepare_eval before concurrent predict calls share the slots.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>

#include "reffil/cl/method_base.hpp"
#include "reffil/fed/runtime.hpp"
#include "reffil/harness/experiment.hpp"
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
