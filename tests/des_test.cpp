// Discrete-event federation tests: DesConfig parsing and cache tags, the
// availability traces (diurnal / churn / straggler), participation sampling
// (determinism, history independence, forced rounds), the streaming fold
// (one running sum), and the end-to-end DES runner — seeded reproducibility,
// sampled-vs-dense equivalence when the sample covers the population, and
// per-round stats reconciling exactly with the run totals.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "reffil/fed/fedavg.hpp"
#include "reffil/fed/runtime.hpp"
#include "reffil/fed/scheduler.hpp"
#include "reffil/harness/experiment.hpp"
#include "reffil/tensor/ops.hpp"
#include "reffil/util/error.hpp"

using namespace reffil;

namespace {

data::DatasetSpec tiny_spec() {
  data::DatasetSpec spec;
  spec.name = "DesTest";
  spec.num_classes = 3;
  spec.seed = 70;
  data::DomainSpec d;
  d.train_samples = 36;
  d.test_samples = 30;
  d.noise = 0.1f;
  d.name = "Only";
  spec.domains.push_back(d);
  spec.initial_clients = 4;
  spec.clients_per_round = 3;
  spec.client_increment = 0;
  spec.rounds_per_task = 3;
  spec.local_epochs = 1;
  spec.learning_rate = 0.03f;
  return spec;
}

fed::RunResult run_tiny_des(const fed::DesConfig& des, std::uint64_t seed,
                            const fed::FaultProfile& faults = {},
                            double dropout = 0.0) {
  const auto spec = tiny_spec();
  harness::ExperimentConfig config;
  config.parallelism = 1;
  auto method =
      harness::make_method(harness::MethodKind::kFinetune, spec, config);
  fed::FederatedRunner runner({.spec = spec,
                               .parallelism = 1,
                               .seed = seed,
                               .dropout_probability = dropout,
                               .faults = faults,
                               .des = des});
  return runner.run(*method);
}

fed::SchedulerConfig dense_config() {
  return {.initial_clients = 20,
          .clients_per_round = 10,
          .client_increment = 2,
          .transition_fraction = 0.8};
}

}  // namespace

// ---- DesConfig parsing and tags --------------------------------------------

TEST(DesConfig, EmptySpecStaysDisabled) {
  const auto des = fed::DesConfig::parse("");
  EXPECT_FALSE(des.enabled());
  EXPECT_TRUE(des.tag().empty());
}

TEST(DesConfig, ParseFillsEveryKnob) {
  const auto des = fed::DesConfig::parse(
      "registered=1000000,sample=10000,offline=0.3,diurnal=3600,churn=1e-6,"
      "rejoin=7200,straggler=0.05,straggler_latency=20,compute=5,jitter=3,"
      "interval=120");
  EXPECT_TRUE(des.enabled());
  EXPECT_EQ(des.registered_clients, 1'000'000u);
  EXPECT_EQ(des.sample_per_round, 10'000u);
  EXPECT_DOUBLE_EQ(des.offline_fraction, 0.3);
  EXPECT_DOUBLE_EQ(des.diurnal_period_s, 3600.0);
  EXPECT_DOUBLE_EQ(des.churn_rate, 1e-6);
  EXPECT_DOUBLE_EQ(des.rejoin_s, 7200.0);
  EXPECT_DOUBLE_EQ(des.straggler_fraction, 0.05);
  EXPECT_DOUBLE_EQ(des.straggler_latency_s, 20.0);
  EXPECT_DOUBLE_EQ(des.compute_s, 5.0);
  EXPECT_DOUBLE_EQ(des.compute_jitter_s, 3.0);
  EXPECT_DOUBLE_EQ(des.round_interval_s, 120.0);
}

TEST(DesConfig, TagIsCanonicalAndDistinguishesConfigs) {
  const auto a = fed::DesConfig::parse("registered=1000,sample=100");
  const auto b = fed::DesConfig::parse("sample=100,registered=1000");
  const auto c = fed::DesConfig::parse("registered=1000,sample=200");
  EXPECT_FALSE(a.tag().empty());
  EXPECT_EQ(a.tag(), b.tag());  // key order must not matter
  EXPECT_NE(a.tag(), c.tag());  // different configs must not alias
}

TEST(DesConfig, ParseRejectsBadSpecs) {
  EXPECT_THROW(fed::DesConfig::parse("registered=1000,bogus=1"), ConfigError);
  // The fold is one running sum: `shards` is not a key and must fail loudly.
  EXPECT_THROW(fed::DesConfig::parse("registered=1000,shards=16"),
               ConfigError);
  EXPECT_THROW(fed::DesConfig::parse("registered=-5"), ConfigError);
  EXPECT_THROW(fed::DesConfig::parse("registered=1000,offline=1.0"),
               ConfigError);
  EXPECT_THROW(fed::DesConfig::parse("registered=1000,straggler=1.5"),
               ConfigError);
  EXPECT_THROW(fed::DesConfig::parse("registered=1000,compute=nan"),
               ConfigError);
  EXPECT_THROW(fed::DesConfig::parse("registered=1000,offline=0.5,diurnal=0"),
               ConfigError);
}

TEST(DesConfig, ParseRejectsCountsThatAreNotWholeOrDoNotFit) {
  EXPECT_THROW(fed::DesConfig::parse("registered=1e30,sample=10"), ConfigError);
  EXPECT_THROW(fed::DesConfig::parse("registered=1000,sample=1e30"),
               ConfigError);
  EXPECT_THROW(fed::DesConfig::parse("registered=1000.5"), ConfigError);
  EXPECT_THROW(fed::DesConfig::parse("registered=nan"), ConfigError);
  EXPECT_EQ(fed::DesConfig::parse("registered=1e6").registered_clients,
            1000000u);
}

// ---- DesScheduler: sampling ------------------------------------------------

TEST(DesScheduler, RejectsSampleLargerThanRegistered) {
  fed::DesConfig des;
  des.registered_clients = 100;
  des.sample_per_round = 101;
  EXPECT_THROW(fed::DesScheduler(dense_config(), des, 1), ConfigError);
}

TEST(DesScheduler, CohortIsUniqueInRangeAndShardedOntoData) {
  fed::DesConfig des;
  des.registered_clients = 100'000;
  des.sample_per_round = 50;
  fed::DesScheduler scheduler(dense_config(), des, 7);
  for (std::size_t task = 0; task < 3; ++task) {
    const auto plan = scheduler.plan_round(task, 0, 0.0);
    ASSERT_EQ(plan.participants.size(), 50u);
    std::set<std::size_t> ids;
    for (const auto& p : plan.participants) {
      EXPECT_LT(p.client_id, des.registered_clients);
      EXPECT_EQ(p.shard, p.client_id % scheduler.data_population(task));
      ids.insert(p.client_id);
    }
    EXPECT_EQ(ids.size(), plan.participants.size());
  }
}

TEST(DesScheduler, FirstTaskIsAllNewClients) {
  fed::DesConfig des;
  des.registered_clients = 10'000;
  des.sample_per_round = 100;
  fed::DesScheduler scheduler(dense_config(), des, 9);
  const auto plan = scheduler.plan_round(0, 0, 0.0);
  for (const auto& p : plan.participants) {
    EXPECT_EQ(p.group, fed::ClientGroup::kNew);
  }
}

TEST(DesScheduler, SameSeedSameSchedule) {
  fed::DesConfig des;
  des.registered_clients = 50'000;
  des.sample_per_round = 64;
  des.offline_fraction = 0.25;
  des.diurnal_period_s = 600.0;
  fed::DesScheduler a(dense_config(), des, 42);
  fed::DesScheduler b(dense_config(), des, 42);
  for (std::size_t round = 0; round < 5; ++round) {
    const auto pa = a.plan_round(1, round, 60.0 * round);
    const auto pb = b.plan_round(1, round, 60.0 * round);
    ASSERT_EQ(pa.participants.size(), pb.participants.size());
    for (std::size_t i = 0; i < pa.participants.size(); ++i) {
      EXPECT_EQ(pa.participants[i].client_id, pb.participants[i].client_id);
      EXPECT_EQ(pa.participants[i].group, pb.participants[i].group);
      EXPECT_EQ(pa.participants[i].shard, pb.participants[i].shard);
    }
  }
}

TEST(DesScheduler, RoundPlansAreHistoryIndependent) {
  // Round r's cohort is a pure function of (seed, task, round, sim time) —
  // a scheduler that planned rounds 0..2 first must draw the identical round
  // 3 as a fresh scheduler asked for round 3 directly.
  fed::DesConfig des;
  des.registered_clients = 10'000;
  des.sample_per_round = 32;
  fed::DesScheduler warmed(dense_config(), des, 11);
  for (std::size_t round = 0; round < 3; ++round) {
    (void)warmed.plan_round(0, round, 60.0 * round);
  }
  fed::DesScheduler fresh(dense_config(), des, 11);
  const auto pw = warmed.plan_round(0, 3, 180.0);
  const auto pf = fresh.plan_round(0, 3, 180.0);
  ASSERT_EQ(pw.participants.size(), pf.participants.size());
  for (std::size_t i = 0; i < pw.participants.size(); ++i) {
    EXPECT_EQ(pw.participants[i].client_id, pf.participants[i].client_id);
    EXPECT_EQ(pw.participants[i].group, pf.participants[i].group);
  }
}

TEST(DesScheduler, ParticipationCountersReconcile) {
  fed::DesConfig des;
  des.registered_clients = 1000;
  des.sample_per_round = 40;
  fed::DesScheduler scheduler(dense_config(), des, 3);
  for (std::size_t round = 0; round < 10; ++round) {
    (void)scheduler.plan_round(0, round, 60.0 * round);
  }
  EXPECT_EQ(scheduler.total_participations(), 400u);
  EXPECT_LE(scheduler.unique_participants(), 400u);
  EXPECT_GT(scheduler.unique_participants(), 40u);  // rounds can't all collide
}

// ---- DesScheduler: availability traces -------------------------------------

TEST(DesScheduler, NoTracesMeansAlwaysAvailable) {
  fed::DesConfig des;
  des.registered_clients = 100;
  des.sample_per_round = 10;
  fed::DesScheduler scheduler(dense_config(), des, 5);
  for (std::size_t c = 0; c < 100; ++c) {
    EXPECT_TRUE(scheduler.available(c, 0.0));
    EXPECT_TRUE(scheduler.available(c, 1e9));
  }
}

TEST(DesScheduler, DiurnalCycleTakesRoughlyTheOfflineFractionDown) {
  fed::DesConfig des;
  des.registered_clients = 10'000;
  des.sample_per_round = 10;
  des.offline_fraction = 0.5;
  des.diurnal_period_s = 1000.0;
  fed::DesScheduler scheduler(dense_config(), des, 6);
  std::size_t offline = 0;
  for (std::size_t c = 0; c < des.registered_clients; ++c) {
    if (!scheduler.available(c, 12345.0)) ++offline;
  }
  // Phases are per-client uniform, so ~half the population is dark at any
  // instant — never the whole fleet at once.
  EXPECT_NEAR(static_cast<double>(offline) / des.registered_clients, 0.5, 0.05);
}

TEST(DesScheduler, AvailabilityIsPiecewiseStableOverTheCycle) {
  fed::DesConfig des;
  des.registered_clients = 50;
  des.sample_per_round = 5;
  des.offline_fraction = 0.3;
  des.diurnal_period_s = 1000.0;
  fed::DesScheduler scheduler(dense_config(), des, 8);
  // One full period later every client is in the same phase again.
  for (std::size_t c = 0; c < 50; ++c) {
    EXPECT_EQ(scheduler.available(c, 100.0), scheduler.available(c, 1100.0));
  }
}

TEST(DesScheduler, ChurnWithoutRejoinDrainsThePopulation) {
  fed::DesConfig des;
  des.registered_clients = 2000;
  des.sample_per_round = 10;
  des.churn_rate = 0.01;  // mean lifetime 100 simulated seconds
  fed::DesScheduler scheduler(dense_config(), des, 12);
  std::size_t alive_early = 0, alive_late = 0;
  for (std::size_t c = 0; c < des.registered_clients; ++c) {
    alive_early += scheduler.available(c, 1.0) ? 1 : 0;
    alive_late += scheduler.available(c, 1e6) ? 1 : 0;
  }
  EXPECT_GT(alive_early, des.registered_clients * 9 / 10);
  EXPECT_EQ(alive_late, 0u);
}

TEST(DesScheduler, RejoinCycleBringsChurnedClientsBack) {
  fed::DesConfig des;
  des.registered_clients = 2000;
  des.sample_per_round = 10;
  des.churn_rate = 0.01;
  des.rejoin_s = 100.0;
  fed::DesScheduler scheduler(dense_config(), des, 12);
  std::size_t alive_late = 0;
  for (std::size_t c = 0; c < des.registered_clients; ++c) {
    alive_late += scheduler.available(c, 1e6) ? 1 : 0;
  }
  // With lifetime ~ Exp(mean 100) and a 100 s offline gap, a sizable share
  // of the fleet is online at any late instant instead of zero.
  EXPECT_GT(alive_late, des.registered_clients / 5);
}

TEST(DesScheduler, StragglersPayTheConfiguredPenalty) {
  fed::DesConfig des;
  des.registered_clients = 100;
  des.sample_per_round = 10;
  des.compute_s = 2.0;
  des.compute_jitter_s = 1.0;
  des.straggler_latency_s = 50.0;

  des.straggler_fraction = 0.0;
  fed::DesScheduler fast(dense_config(), des, 4);
  for (std::size_t c = 0; c < 100; ++c) {
    const double d = fast.upload_delay(c, 0, 0);
    EXPECT_GE(d, 2.0);
    EXPECT_LT(d, 3.0);
  }

  des.straggler_fraction = 1.0;
  fed::DesScheduler slow(dense_config(), des, 4);
  for (std::size_t c = 0; c < 100; ++c) {
    EXPECT_GE(slow.upload_delay(c, 0, 0), 52.0);
  }
}

TEST(DesScheduler, FullyOfflinePopulationForcesTheDraw) {
  fed::DesConfig des;
  des.registered_clients = 500;
  des.sample_per_round = 20;
  des.churn_rate = 0.01;  // everyone long dead at t = 1e6, no rejoin
  fed::DesScheduler scheduler(dense_config(), des, 13);
  const auto plan = scheduler.plan_round(0, 0, 1e6);
  EXPECT_EQ(plan.participants.size(), 20u);  // the round must not stall
  EXPECT_GT(scheduler.forced_rounds(), 0u);
}

// ---- the streaming fold ----------------------------------------------------

namespace {

std::unique_ptr<fed::Method> tiny_finetune() {
  harness::ExperimentConfig config;
  config.parallelism = 1;
  return harness::make_method(harness::MethodKind::kFinetune, tiny_spec(),
                              config);
}

/// The server model's state, as its broadcast carries it.
fed::ModelState broadcast_state(fed::Method& method) {
  const auto bytes = method.make_broadcast();
  util::ByteReader reader(bytes);
  return fed::deserialize_state(reader);
}

fed::ClientUpdate update_of(const fed::ModelState& state, std::size_t samples) {
  util::ByteWriter writer;
  fed::serialize_state(state, writer);
  return {.num_samples = samples, .payload = writer.take()};
}

fed::ModelState random_like(const fed::ModelState& model, util::Rng& rng) {
  fed::ModelState state;
  for (const auto& t : model) state.push_back(tensor::randn(t.shape(), rng));
  return state;
}

/// Total FedAvg weight of `updates`.
std::size_t weight_of(const std::vector<fed::ClientUpdate>& updates) {
  std::size_t total = 0;
  for (const auto& update : updates) total += update.num_samples;
  return total;
}

/// The broadcast after streaming `updates` into a fresh sink of `method`
/// opened with `planned` samples.
std::vector<std::uint8_t> streamed_broadcast(
    fed::Method& method, const std::vector<fed::ClientUpdate>& updates,
    std::size_t planned) {
  auto sink = method.begin_streaming_aggregate(planned);
  for (const auto& update : updates) sink->add(update);
  sink->finish();
  return method.make_broadcast();
}

fed::ModelState state_of(const std::vector<std::uint8_t>& broadcast) {
  util::ByteReader reader(broadcast);
  return fed::deserialize_state(reader);
}

bool same_bits(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.begin(), b.begin(), a.numel() * sizeof(float)) == 0;
}

}  // namespace

TEST(StreamingSink, MatchesBatchFederatedAverage) {
  // Opened with the cohort's whole weight, the sink adds federated_average's
  // own float(w/W) * x products in its order: bitwise the batch average.
  auto method = tiny_finetune();
  const fed::ModelState model = broadcast_state(*method);
  util::Rng rng(17);
  std::vector<fed::ModelState> states;
  std::vector<double> weights;
  std::vector<fed::ClientUpdate> updates;
  for (std::size_t i = 0; i < 13; ++i) {
    states.push_back(random_like(model, rng));
    weights.push_back(static_cast<double>(1 + (i * 7) % 9));
    updates.push_back(update_of(states.back(), 1 + (i * 7) % 9));
  }
  const fed::ModelState streamed =
      state_of(streamed_broadcast(*method, updates, weight_of(updates)));

  const auto batch = fed::federated_average(states, weights);
  ASSERT_EQ(streamed.size(), model.size());
  for (std::size_t t = 0; t < model.size(); ++t) {
    EXPECT_TRUE(same_bits(streamed[t], batch[t]))
        << "tensor " << t << " is not bitwise federated_average";
  }
}

TEST(StreamingSink, AMissingUpdateRescalesOnceByPlannedOverFolded) {
  // The round planned W_p samples and one update never arrives: the sink
  // folds sum_m float(w_m / W_p) x_m and finish() scales that once by
  // float(W_p / W_a), W_a being the weight that did arrive.
  auto method = tiny_finetune();
  const fed::ModelState model = broadcast_state(*method);
  util::Rng rng(22);
  constexpr std::size_t kWithheld = 3;
  std::vector<fed::ModelState> states;
  std::vector<double> weights;
  std::vector<fed::ClientUpdate> updates;
  std::size_t planned = 0;
  for (std::size_t i = 0; i < 7; ++i) {
    const std::size_t w = 1 + (i * 5) % 7;
    planned += w;
    if (i == kWithheld) continue;
    states.push_back(random_like(model, rng));
    weights.push_back(static_cast<double>(w));
    updates.push_back(update_of(states.back(), w));
  }
  const double folded = static_cast<double>(weight_of(updates));
  ASSERT_NE(folded, static_cast<double>(planned));
  const fed::ModelState streamed =
      state_of(streamed_broadcast(*method, updates, planned));

  fed::ModelState by_hand;
  for (const auto& t : model) by_hand.emplace_back(t.shape());
  for (std::size_t m = 0; m < states.size(); ++m) {
    for (std::size_t t = 0; t < model.size(); ++t) {
      tensor::axpy_inplace(
          by_hand[t],
          static_cast<float>(weights[m] / static_cast<double>(planned)),
          states[m][t]);
    }
  }
  for (auto& t : by_hand) {
    tensor::scale_inplace(
        t, static_cast<float>(static_cast<double>(planned) / folded));
  }
  const auto batch = fed::federated_average(states, weights);
  ASSERT_EQ(streamed.size(), model.size());
  for (std::size_t t = 0; t < model.size(); ++t) {
    EXPECT_TRUE(same_bits(streamed[t], by_hand[t]))
        << "tensor " << t << " is not bitwise the rescaled fold";
    EXPECT_TRUE(streamed[t].all_close(batch[t], 1e-6f)) << "tensor " << t;
  }
}

TEST(StreamingSink, RejectsDegenerateInput) {
  auto method = tiny_finetune();
  const fed::ModelState model = broadcast_state(*method);
  util::Rng rng(18);
  auto sink = method->begin_streaming_aggregate(1);
  EXPECT_THROW(sink->finish(), Error);  // nothing added
  fed::ModelState ragged = random_like(model, rng);
  ragged.pop_back();
  EXPECT_THROW(sink->add(update_of(ragged, 1)), ShapeError);
  fed::ModelState misshaped = random_like(model, rng);
  misshaped.back() = tensor::randn({misshaped.back().numel() + 1}, rng);
  EXPECT_THROW(sink->add(update_of(misshaped, 1)), ShapeError);
  EXPECT_EQ(sink->count(), 0u);
}

TEST(StreamingSink, AllZeroWeightsCannotFinish) {
  auto method = tiny_finetune();
  const fed::ModelState model = broadcast_state(*method);
  util::Rng rng(19);
  EXPECT_THROW(method->begin_streaming_aggregate(0), Error);  // nothing planned
  auto sink = method->begin_streaming_aggregate(1);
  sink->add(update_of(random_like(model, rng), 0));
  sink->add(update_of(random_like(model, rng), 0));
  EXPECT_THROW(sink->finish(), Error);
}

TEST(StreamingSink, RejectedUpdateLeavesNoTraceInTheFold) {
  // B has the model's tensor count but a wrongly shaped tensor 1: its add()
  // must throw before any of B's tensors reach the sum.
  auto method = tiny_finetune();
  auto reference = tiny_finetune();
  const fed::ModelState model = broadcast_state(*method);
  ASSERT_GE(model.size(), 2u);
  util::Rng rng(20);
  const auto a = update_of(random_like(model, rng), 5);
  fed::ModelState b = random_like(model, rng);
  b[1] = tensor::randn({b[1].numel() + 1}, rng);

  auto sink = method->begin_streaming_aggregate(5 + 7);
  sink->add(a);
  EXPECT_THROW(sink->add(update_of(b, 7)), ShapeError);
  EXPECT_EQ(sink->count(), 1u);
  sink->finish();
  EXPECT_EQ(method->make_broadcast(),
            streamed_broadcast(*reference, {a}, 5 + 7));
}

TEST(StreamingSink, TheModelNotTheFirstArrivalDefinesTheShapes) {
  // An update whose every tensor is one element too large arrives first. It
  // must be rejected, and the valid update after it accepted.
  auto method = tiny_finetune();
  auto reference = tiny_finetune();
  const fed::ModelState model = broadcast_state(*method);
  util::Rng rng(21);
  const auto valid = update_of(random_like(model, rng), 4);
  fed::ModelState oversized;
  for (const auto& t : model) oversized.push_back(tensor::randn({t.numel() + 1}, rng));

  auto sink = method->begin_streaming_aggregate(3 + 4);
  EXPECT_THROW(sink->add(update_of(oversized, 3)), ShapeError);
  EXPECT_NO_THROW(sink->add(valid));
  sink->finish();
  EXPECT_EQ(broadcast_state(*method).front().shape(), model.front().shape());
  EXPECT_EQ(method->make_broadcast(),
            streamed_broadcast(*reference, {valid}, 3 + 4));
}

// ---- end-to-end: the DES runner --------------------------------------------

TEST(DesRuntime, SameSeedReproducesTheRunExactly) {
  fed::DesConfig des;
  des.registered_clients = 200;
  des.sample_per_round = 3;
  des.offline_fraction = 0.25;
  des.diurnal_period_s = 300.0;
  des.compute_s = 5.0;
  des.compute_jitter_s = 2.0;
  const auto a = run_tiny_des(des, 90);
  const auto b = run_tiny_des(des, 90);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].selected, b.rounds[i].selected);
    EXPECT_EQ(a.rounds[i].bytes_down, b.rounds[i].bytes_down);
    EXPECT_EQ(a.rounds[i].bytes_up, b.rounds[i].bytes_up);
  }
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t t = 0; t < a.tasks.size(); ++t) {
    EXPECT_EQ(a.tasks[t].cumulative_accuracy, b.tasks[t].cumulative_accuracy);
  }
  EXPECT_EQ(a.network.bytes_down, b.network.bytes_down);
  EXPECT_EQ(a.network.bytes_up, b.network.bytes_up);
}

TEST(DesRuntime, SampleEqualToPopulationMatchesTheDenseRun) {
  // With the registered population equal to the data population, everyone
  // available, and the sample covering the whole fleet, the DES run trains
  // the same client set on the same shards as the dense run. Accuracies
  // still cannot match exactly while the dense fold keeps its bits, for two
  // reasons:
  //  * the dense run folds its cohort in Fisher-Yates draw order
  //    (Rng::sample_without_replacement), while DES sorts its cohort by
  //    client id (DesScheduler::plan_round);
  //  * federated_average scales each term by w/total before summing, while
  //    the streaming fold sums w*x and scales once at the end.
  // Float addition is not associative, so both change the low bits of the
  // global model. Matching them would change the dense fold and with it the
  // committed benchmark reference, so the bound stays at 0.1 pt.
  const auto spec = tiny_spec();
  harness::ExperimentConfig config;
  config.parallelism = 1;

  auto dense_method =
      harness::make_method(harness::MethodKind::kFinetune, spec, config);
  data::DatasetSpec dense_spec = spec;
  dense_spec.clients_per_round = dense_spec.initial_clients;
  fed::FederatedRunner dense_runner(
      {.spec = dense_spec, .parallelism = 1, .seed = 90});
  const auto dense = dense_runner.run(*dense_method);

  fed::DesConfig des;
  des.registered_clients = spec.initial_clients;
  des.sample_per_round = spec.initial_clients;
  auto des_method =
      harness::make_method(harness::MethodKind::kFinetune, spec, config);
  fed::FederatedRunner des_runner(
      {.spec = spec, .parallelism = 1, .seed = 90, .des = des});
  const auto sampled = des_runner.run(*des_method);

  ASSERT_EQ(sampled.rounds.size(), dense.rounds.size());
  for (std::size_t i = 0; i < dense.rounds.size(); ++i) {
    EXPECT_EQ(sampled.rounds[i].selected, dense.rounds[i].selected);
    EXPECT_EQ(sampled.rounds[i].bytes_down, dense.rounds[i].bytes_down);
    EXPECT_EQ(sampled.rounds[i].bytes_up, dense.rounds[i].bytes_up);
  }
  ASSERT_EQ(sampled.tasks.size(), dense.tasks.size());
  for (std::size_t t = 0; t < dense.tasks.size(); ++t) {
    EXPECT_NEAR(sampled.tasks[t].cumulative_accuracy,
                dense.tasks[t].cumulative_accuracy, 0.1);
  }
}

TEST(DesRuntime, StatsReconcileAcrossGranularities) {
  fed::DesConfig des;
  des.registered_clients = 1000;
  des.sample_per_round = 4;
  des.offline_fraction = 0.4;
  des.diurnal_period_s = 120.0;
  des.compute_s = 1.0;
  des.compute_jitter_s = 0.5;
  des.straggler_fraction = 0.25;
  des.straggler_latency_s = 3.0;
  const auto faults = fed::FaultProfile::parse("corrupt=0.2,latency=50");
  const auto result = run_tiny_des(des, 91, faults, 0.1);

  fed::NetworkStats sums;
  std::uint64_t selected = 0;
  for (const auto& r : result.rounds) {
    selected += r.selected;
    sums.bytes_down += r.bytes_down;
    sums.bytes_up += r.bytes_up;
    sums.dropped_updates += r.dropped;
    sums.quarantined += r.quarantined;
    sums.retries += r.retries;
    sums.timed_out += r.timed_out;
    sums.bytes_retransmitted += r.bytes_retransmitted;
  }
  EXPECT_GT(selected, 0u);
  EXPECT_EQ(sums.bytes_down, result.network.bytes_down);
  EXPECT_EQ(sums.bytes_up, result.network.bytes_up);
  EXPECT_EQ(sums.dropped_updates, result.network.dropped_updates);
  EXPECT_EQ(sums.quarantined, result.network.quarantined);
  EXPECT_EQ(sums.retries, result.network.retries);
  EXPECT_EQ(sums.timed_out, result.network.timed_out);
  EXPECT_EQ(sums.bytes_retransmitted, result.network.bytes_retransmitted);
}

TEST(DesRuntime, DeadlineCutsStragglersBeforeTraining) {
  // Stragglers whose simulated upload would start after the round deadline
  // are timed out up front — the run still completes and counts them.
  fed::DesConfig des;
  des.registered_clients = 100;
  des.sample_per_round = 3;
  des.compute_s = 1.0;
  des.straggler_fraction = 0.5;
  des.straggler_latency_s = 1e6;  // far past any deadline
  const auto faults = fed::FaultProfile::parse("deadline=1000");
  const auto result = run_tiny_des(des, 92, faults);
  EXPECT_GT(result.network.timed_out, 0u);
  EXPECT_FALSE(result.tasks.empty());
}
