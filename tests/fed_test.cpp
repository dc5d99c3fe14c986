// Tests for the federated substrate: FedAvg, state serialization, the
// client-increment scheduler, and the runtime's bookkeeping.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "reffil/fed/fedavg.hpp"
#include "reffil/fed/scheduler.hpp"
#include "reffil/tensor/ops.hpp"

namespace F = reffil::fed;
namespace T = reffil::tensor;

TEST(FedAvg, UniformWeightsAverage) {
  F::ModelState a{T::Tensor::vector({1, 2}), T::Tensor::scalar(10)};
  F::ModelState b{T::Tensor::vector({3, 4}), T::Tensor::scalar(30)};
  const auto avg = F::federated_average({a, b}, {1.0, 1.0});
  EXPECT_TRUE(avg[0].all_close(T::Tensor::vector({2, 3})));
  EXPECT_NEAR(avg[1].item(), 20.0f, 1e-5f);
}

TEST(FedAvg, WeightsFollowSampleCounts) {
  // Algorithm 1 line 7: theta = sum |D_m|/|D| theta_m.
  F::ModelState a{T::Tensor::scalar(0)};
  F::ModelState b{T::Tensor::scalar(100)};
  const auto avg = F::federated_average({a, b}, {30.0, 10.0});
  EXPECT_NEAR(avg[0].item(), 25.0f, 1e-4f);
}

TEST(FedAvg, RejectsDegenerateInput) {
  F::ModelState a{T::Tensor::scalar(1)};
  EXPECT_THROW(F::federated_average({}, {}), reffil::Error);
  EXPECT_THROW(F::federated_average({a}, {0.0}), reffil::Error);
  EXPECT_THROW(F::federated_average({a}, {-1.0}), reffil::Error);
  EXPECT_THROW(F::federated_average({a, a}, {1.0}), reffil::Error);
  F::ModelState mismatched{T::Tensor::vector({1, 2})};
  EXPECT_THROW(F::federated_average({a, mismatched}, {1.0, 1.0}), reffil::Error);
}

TEST(FedAvg, StateSerializationRoundTrip) {
  reffil::util::Rng rng(5);
  F::ModelState state{T::randn({3, 4}, rng), T::randn({7}, rng),
                      T::randn({2, 2, 2}, rng)};
  reffil::util::ByteWriter writer;
  F::serialize_state(state, writer);
  reffil::util::ByteReader reader(writer.bytes());
  const auto back = F::deserialize_state(reader);
  ASSERT_EQ(back.size(), state.size());
  for (std::size_t i = 0; i < state.size(); ++i) EXPECT_EQ(back[i], state[i]);
}

TEST(FedAvg, DeserializeRejectsGarbage) {
  std::vector<std::uint8_t> garbage(16, 0xFF);
  reffil::util::ByteReader reader(garbage);
  EXPECT_THROW(F::deserialize_state(reader), reffil::SerializationError);
}

TEST(Scheduler, PopulationGrowsWithTasks) {
  F::ClientIncrementScheduler scheduler(
      {.initial_clients = 20, .clients_per_round = 10, .client_increment = 2},
      1);
  EXPECT_EQ(scheduler.data_population(0), 20u);
  EXPECT_EQ(scheduler.data_population(1), 22u);
  EXPECT_EQ(scheduler.data_population(4), 28u);
}

TEST(Scheduler, JoinTaskInverseOfGrowth) {
  F::ClientIncrementScheduler scheduler(
      {.initial_clients = 10, .clients_per_round = 5, .client_increment = 1}, 1);
  EXPECT_EQ(scheduler.join_task(0), 0u);
  EXPECT_EQ(scheduler.join_task(9), 0u);
  EXPECT_EQ(scheduler.join_task(10), 1u);
  EXPECT_EQ(scheduler.join_task(12), 3u);
}

TEST(Scheduler, FirstTaskIsAllNewClients) {
  F::ClientIncrementScheduler scheduler(
      {.initial_clients = 20, .clients_per_round = 10, .client_increment = 2},
      3);
  const auto plan = scheduler.plan_round(0, 0);
  EXPECT_EQ(plan.participants.size(), 10u);
  for (const auto& p : plan.participants) {
    EXPECT_EQ(p.group, F::ClientGroup::kNew);
  }
}

TEST(Scheduler, SelectionIsWithoutReplacementAndInRange) {
  F::ClientIncrementScheduler scheduler(
      {.initial_clients = 20, .clients_per_round = 10, .client_increment = 2},
      4);
  for (std::size_t task = 0; task < 4; ++task) {
    const auto plan = scheduler.plan_round(task, 0);
    std::set<std::size_t> ids;
    for (const auto& p : plan.participants) {
      EXPECT_LT(p.client_id, scheduler.data_population(task));
      ids.insert(p.client_id);
    }
    EXPECT_EQ(ids.size(), plan.participants.size());
  }
}

TEST(Scheduler, TransitionFractionRoughlyEighty) {
  // Over many rounds, ~80% of old clients land in U_n (transitioned), the
  // rest split between U_b and U_o.
  F::ClientIncrementScheduler scheduler(
      {.initial_clients = 20,
       .clients_per_round = 10,
       .client_increment = 2,
       .transition_fraction = 0.8},
      5);
  std::map<F::ClientGroup, std::size_t> counts;
  std::size_t old_clients = 0;
  for (std::size_t round = 0; round < 400; ++round) {
    const auto plan = scheduler.plan_round(1, round);
    for (const auto& p : plan.participants) {
      if (scheduler.join_task(p.client_id) == 1) {
        EXPECT_EQ(p.group, F::ClientGroup::kNew);
        continue;
      }
      ++old_clients;
      ++counts[p.group];
    }
  }
  const double transitioned =
      static_cast<double>(counts[F::ClientGroup::kNew]) / old_clients;
  EXPECT_NEAR(transitioned, 0.8, 0.05);
  EXPECT_GT(counts[F::ClientGroup::kInBetween], 0u);
  EXPECT_GT(counts[F::ClientGroup::kOld], 0u);
}

TEST(Scheduler, NewClientsAreAlwaysGroupNew) {
  F::ClientIncrementScheduler scheduler(
      {.initial_clients = 10, .clients_per_round = 8, .client_increment = 4}, 6);
  for (std::size_t round = 0; round < 50; ++round) {
    const auto plan = scheduler.plan_round(2, round);
    for (const auto& p : plan.participants) {
      if (scheduler.join_task(p.client_id) == 2) {
        EXPECT_EQ(p.group, F::ClientGroup::kNew);
      }
    }
  }
}

TEST(Scheduler, RejectsInvalidConfigs) {
  EXPECT_THROW(F::ClientIncrementScheduler(
                   {.initial_clients = 0, .clients_per_round = 1}, 1),
               reffil::Error);
  EXPECT_THROW(F::ClientIncrementScheduler(
                   {.initial_clients = 5, .clients_per_round = 6}, 1),
               reffil::Error);
  EXPECT_THROW(
      F::ClientIncrementScheduler({.initial_clients = 5,
                                   .clients_per_round = 2,
                                   .transition_fraction = 1.5},
                                  1),
      reffil::Error);
}

TEST(Scheduler, DeterministicGivenSeed) {
  F::SchedulerConfig config{.initial_clients = 20,
                            .clients_per_round = 10,
                            .client_increment = 2};
  F::ClientIncrementScheduler a(config, 42), b(config, 42);
  for (std::size_t round = 0; round < 5; ++round) {
    const auto pa = a.plan_round(1, round);
    const auto pb = b.plan_round(1, round);
    ASSERT_EQ(pa.participants.size(), pb.participants.size());
    for (std::size_t i = 0; i < pa.participants.size(); ++i) {
      EXPECT_EQ(pa.participants[i].client_id, pb.participants[i].client_id);
      EXPECT_EQ(pa.participants[i].group, pb.participants[i].group);
    }
  }
}

TEST(GroupNames, AreStable) {
  EXPECT_STREQ(F::to_string(F::ClientGroup::kNew), "U_n");
  EXPECT_STREQ(F::to_string(F::ClientGroup::kInBetween), "U_b");
  EXPECT_STREQ(F::to_string(F::ClientGroup::kOld), "U_o");
}
