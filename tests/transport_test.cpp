// Fault-injecting transport tests: wire framing, fault-profile parsing,
// deterministic fault sequences, delivery outcomes (retry / deadline /
// quarantine), server-side payload validation, and the end-to-end runtime
// contracts — fault counters reconcile across granularities, every round is
// counted even when lost, and the zero-fault path is bitwise-identical to a
// transport-free run.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "reffil/fed/fedavg.hpp"
#include "reffil/fed/runtime.hpp"
#include "reffil/fed/transport.hpp"
#include "reffil/harness/cache.hpp"
#include "reffil/harness/experiment.hpp"
#include "reffil/util/error.hpp"
#include "reffil/util/obs.hpp"

using namespace reffil;

namespace {

std::vector<std::uint8_t> sample_payload(std::size_t size = 64) {
  std::vector<std::uint8_t> payload(size);
  for (std::size_t i = 0; i < size; ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  return payload;
}

std::vector<std::uint8_t> serialized_state(float fill = 0.5f) {
  fed::ModelState state;
  state.push_back(tensor::Tensor({4, 4}, std::vector<float>(16, fill)));
  state.push_back(tensor::Tensor::vector({1.0f, 2.0f, 3.0f}));
  util::ByteWriter writer;
  fed::serialize_state(state, writer);
  return writer.take();
}

data::DatasetSpec tiny_spec() {
  data::DatasetSpec spec;
  spec.name = "TransportTest";
  spec.num_classes = 3;
  spec.seed = 70;
  data::DomainSpec d;
  d.train_samples = 36;
  d.test_samples = 15;
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

fed::RunResult run_tiny(const fed::FaultProfile& faults, std::uint64_t seed,
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
                               .faults = faults});
  return runner.run(*method);
}

void expect_stats_reconcile(const fed::RunResult& result) {
  fed::NetworkStats sums;
  for (const auto& r : result.rounds) {
    sums.bytes_down += r.bytes_down;
    sums.bytes_up += r.bytes_up;
    sums.dropped_updates += r.dropped;
    sums.quarantined += r.quarantined;
    sums.retries += r.retries;
    sums.timed_out += r.timed_out;
    sums.bytes_retransmitted += r.bytes_retransmitted;
  }
  EXPECT_EQ(sums.bytes_down, result.network.bytes_down);
  EXPECT_EQ(sums.bytes_up, result.network.bytes_up);
  EXPECT_EQ(sums.dropped_updates, result.network.dropped_updates);
  EXPECT_EQ(sums.quarantined, result.network.quarantined);
  EXPECT_EQ(sums.retries, result.network.retries);
  EXPECT_EQ(sums.timed_out, result.network.timed_out);
  EXPECT_EQ(sums.bytes_retransmitted, result.network.bytes_retransmitted);
}

}  // namespace

// ---- wire framing ----------------------------------------------------------

TEST(TransportFrame, RoundTripPreservesPayload) {
  const auto payload = sample_payload();
  const auto framed = fed::Transport::frame(payload);
  EXPECT_GT(framed.size(), payload.size());
  EXPECT_TRUE(fed::Transport::frame_intact(framed));
  const auto back = fed::Transport::unframe(framed);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, payload);
}

TEST(TransportFrame, EmptyPayloadFramesCleanly) {
  const auto framed = fed::Transport::frame({});
  EXPECT_TRUE(fed::Transport::frame_intact(framed));
  const auto back = fed::Transport::unframe(framed);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->empty());
}

TEST(TransportFrame, DetectsEveryKindOfDamage) {
  const auto framed = fed::Transport::frame(sample_payload());
  {
    auto bad = framed;  // payload bit flip breaks the checksum
    bad.back() ^= 0x01;
    EXPECT_FALSE(fed::Transport::frame_intact(bad));
    EXPECT_FALSE(fed::Transport::unframe(bad).has_value());
  }
  {
    auto bad = framed;  // header damage breaks the magic
    bad[0] ^= 0xFF;
    EXPECT_FALSE(fed::Transport::frame_intact(bad));
  }
  {
    auto bad = framed;  // truncation breaks the length field
    bad.resize(bad.size() - 1);
    EXPECT_FALSE(fed::Transport::frame_intact(bad));
  }
  {
    std::vector<std::uint8_t> runt = {0x01, 0x02};  // shorter than a header
    EXPECT_FALSE(fed::Transport::frame_intact(runt));
  }
}

// ---- fault profile ---------------------------------------------------------

TEST(FaultProfile, DefaultIsInertWithEmptyTag) {
  const fed::FaultProfile p;
  EXPECT_FALSE(p.enabled());
  EXPECT_EQ(p.tag(), "");
}

TEST(FaultProfile, LatencyAloneWithoutDeadlineStaysInert) {
  // Latency only matters relative to a deadline; without one there is no
  // observable fault, so the runner must keep the fast bitwise-identical path.
  fed::FaultProfile p;
  p.latency_s = 5.0;
  p.jitter_s = 1.0;
  EXPECT_FALSE(p.enabled());
  EXPECT_EQ(p.tag(), "");
}

TEST(FaultProfile, ParseRoundTripsEveryKnob) {
  const auto p = fed::FaultProfile::parse(
      "corrupt=0.2,poison=0.05,dup=0.1,latency=0.05,jitter=0.02,deadline=0.5,"
      "retries=3,backoff=0.01");
  EXPECT_DOUBLE_EQ(p.corrupt, 0.2);
  EXPECT_DOUBLE_EQ(p.poison, 0.05);
  EXPECT_DOUBLE_EQ(p.duplicate, 0.1);
  EXPECT_DOUBLE_EQ(p.latency_s, 0.05);
  EXPECT_DOUBLE_EQ(p.jitter_s, 0.02);
  EXPECT_DOUBLE_EQ(p.deadline_s, 0.5);
  EXPECT_EQ(p.max_retries, 3u);
  EXPECT_DOUBLE_EQ(p.backoff_s, 0.01);
  EXPECT_TRUE(p.enabled());
  // Tag is canonical: parsing it back through the spec grammar is not
  // supported, but two equal profiles must render the same tag and two
  // different ones must not collide.
  fed::FaultProfile q = p;
  EXPECT_EQ(p.tag(), q.tag());
  q.corrupt = 0.3;
  EXPECT_NE(p.tag(), q.tag());
}

TEST(FaultProfile, ParseRejectsBadSpecs) {
  EXPECT_THROW(fed::FaultProfile::parse("bogus=1"), ConfigError);
  EXPECT_THROW(fed::FaultProfile::parse("corrupt"), ConfigError);
  EXPECT_THROW(fed::FaultProfile::parse("corrupt=abc"), ConfigError);
  EXPECT_THROW(fed::FaultProfile::parse("corrupt=-0.5"), ConfigError);
  EXPECT_THROW(fed::FaultProfile::parse("corrupt=1.5"), ConfigError);
  EXPECT_FALSE(fed::FaultProfile::parse("").enabled());
}

TEST(FaultProfile, RetriesMustBeAWholeNumberUpToTheBackoffLimit) {
  // 2^32 - 1 retries wrapped the attempt counter (an endless delivery loop)
  // and 33 or more shifted the backoff factor past 32 bits.
  EXPECT_THROW(fed::FaultProfile::parse("corrupt=1,retries=4294967295"),
               ConfigError);
  EXPECT_THROW(fed::FaultProfile::parse("corrupt=1,retries=40"), ConfigError);
  EXPECT_THROW(fed::FaultProfile::parse("retries=33"), ConfigError);
  EXPECT_THROW(fed::FaultProfile::parse("retries=2.5"), ConfigError);
  EXPECT_THROW(fed::FaultProfile::parse("retries=1e30"), ConfigError);
  for (std::uint32_t r : {0u, 1u, 2u, 3u, 4u, 5u, 32u}) {
    EXPECT_EQ(fed::FaultProfile::parse("retries=" + std::to_string(r))
                  .max_retries,
              r);
  }
  // A profile built in code hits the same bound at the transport.
  fed::FaultProfile p;
  p.corrupt = 1.0;
  p.max_retries = fed::FaultProfile::kMaxRetries + 1;
  EXPECT_THROW(fed::Transport(p, 1), ConfigError);
  p.max_retries = fed::FaultProfile::kMaxRetries;
  fed::Transport transport(p, 1);
  const auto d = transport.send_broadcast(fed::Transport::frame(sample_payload()));
  EXPECT_NE(d.outcome, fed::Transport::Outcome::kDelivered);
  EXPECT_EQ(d.retries, fed::FaultProfile::kMaxRetries);
}

// ---- delivery outcomes -----------------------------------------------------

TEST(Transport, CleanProfileDeliversExactlyOnce) {
  fed::FaultProfile p;
  p.deadline_s = 100.0;  // armed, but no fault can fire
  fed::Transport transport(p, 42);
  const auto framed = fed::Transport::frame(sample_payload());
  const auto d = transport.send_broadcast(framed);
  EXPECT_EQ(d.outcome, fed::Transport::Outcome::kDelivered);
  EXPECT_EQ(d.retries, 0u);
  EXPECT_EQ(d.duplicates, 0u);
  EXPECT_EQ(d.bytes_transmitted, framed.size());
  EXPECT_EQ(d.bytes_retransmitted, 0u);
}

TEST(Transport, DeterministicAcrossInstances) {
  fed::FaultProfile p;
  p.corrupt = 0.4;
  p.duplicate = 0.2;
  p.latency_s = 0.01;
  p.jitter_s = 0.01;
  p.max_retries = 2;
  fed::Transport a(p, 7), b(p, 7);
  const auto framed = fed::Transport::frame(sample_payload(256));
  for (int i = 0; i < 200; ++i) {
    const auto da = a.send_broadcast(framed);
    const auto db = b.send_broadcast(framed);
    EXPECT_EQ(da.outcome, db.outcome);
    EXPECT_EQ(da.retries, db.retries);
    EXPECT_EQ(da.duplicates, db.duplicates);
    EXPECT_EQ(da.bytes_transmitted, db.bytes_transmitted);
    EXPECT_EQ(da.bytes_retransmitted, db.bytes_retransmitted);
    EXPECT_DOUBLE_EQ(da.sim_seconds, db.sim_seconds);
  }
}

TEST(Transport, EveryCorruptedMessageIsRetriedThenDeliveredOrQuarantined) {
  fed::FaultProfile p;
  p.corrupt = 0.6;
  p.max_retries = 2;
  fed::Transport transport(p, 11);
  const auto framed = fed::Transport::frame(sample_payload(512));
  std::size_t delivered = 0, quarantined = 0, retried = 0;
  for (int i = 0; i < 300; ++i) {
    const auto d = transport.send_broadcast(framed);
    // No deadline is armed, so the only possible outcomes are delivery
    // (possibly after retries) or a quarantine after the retry budget.
    ASSERT_NE(d.outcome, fed::Transport::Outcome::kTimedOut);
    // Metering invariant: every attempt and duplicate is on the wire.
    EXPECT_EQ(d.bytes_transmitted,
              framed.size() * (1 + d.retries + d.duplicates));
    EXPECT_EQ(d.bytes_retransmitted, framed.size() * (d.retries + d.duplicates));
    if (d.outcome == fed::Transport::Outcome::kDelivered) {
      ++delivered;
      if (d.retries > 0) ++retried;
    } else {
      ++quarantined;
      EXPECT_EQ(d.retries, p.max_retries);
      EXPECT_FALSE(d.reason.empty());
    }
  }
  // With P(corrupt)=0.6 and 3 attempts these are all statistically certain
  // over 300 messages (each has probability > 1 - 1e-30 of appearing).
  EXPECT_GT(delivered, 0u);
  EXPECT_GT(quarantined, 0u);
  EXPECT_GT(retried, 0u);
}

TEST(Transport, DeadlineCutsOffStragglers) {
  fed::FaultProfile p;
  p.latency_s = 1.0;
  p.deadline_s = 0.5;  // every first attempt already arrives too late
  fed::Transport transport(p, 5);
  const auto d = transport.send_broadcast(fed::Transport::frame(sample_payload()));
  EXPECT_EQ(d.outcome, fed::Transport::Outcome::kTimedOut);
  EXPECT_GT(d.sim_seconds, p.deadline_s);
  EXPECT_FALSE(d.reason.empty());
}

TEST(Transport, BackoffCountsAgainstTheDeadline) {
  fed::FaultProfile p;
  p.corrupt = 1.0;  // force retries
  p.latency_s = 0.1;
  p.backoff_s = 0.4;
  p.deadline_s = 0.5;  // first attempt fits; first retry (0.1+0.4+0.1) does not
  p.max_retries = 3;
  fed::Transport transport(p, 5);
  const auto d = transport.send_broadcast(fed::Transport::frame(sample_payload()));
  EXPECT_EQ(d.outcome, fed::Transport::Outcome::kTimedOut);
  EXPECT_EQ(d.retries, 1u);
}

TEST(Transport, PoisonedUpdateIsQuarantinedByValidationNotChecksum) {
  fed::FaultProfile p;
  p.poison = 1.0;
  fed::Transport transport(p, 13);
  const auto d =
      transport.send_update(serialized_state(), &fed::validate_state_prefix);
  // The frame checksum is valid (poisoning happened before framing), so only
  // server-side payload validation can catch it — and retries are pointless,
  // so the quarantine is immediate.
  EXPECT_EQ(d.outcome, fed::Transport::Outcome::kQuarantined);
  EXPECT_EQ(d.retries, 0u);
  EXPECT_NE(d.reason.find("payload rejected"), std::string::npos);
}

TEST(Transport, ValidUpdatePassesValidation) {
  fed::FaultProfile p;
  p.deadline_s = 100.0;
  fed::Transport transport(p, 17);
  const auto d =
      transport.send_update(serialized_state(), &fed::validate_state_prefix);
  EXPECT_EQ(d.outcome, fed::Transport::Outcome::kDelivered);
  EXPECT_TRUE(d.payload.empty());  // nothing was poisoned, nothing replaced
}

TEST(TransportOutcome, ToStringCoversEveryValue) {
  EXPECT_STREQ(fed::to_string(fed::Transport::Outcome::kDelivered), "delivered");
  EXPECT_STREQ(fed::to_string(fed::Transport::Outcome::kTimedOut), "timed_out");
  EXPECT_STREQ(fed::to_string(fed::Transport::Outcome::kQuarantined),
               "quarantined");
}

// ---- server-side validation ------------------------------------------------

// Satellite regression: validate_state_prefix used to ignore trailing
// undecoded bytes, so a duplicated/concatenated state — or any smuggled
// suffix — sailed through quarantine validation. The payload must now be
// consumed exactly; methods with legitimate extras supply their own
// validator via Method::update_validator() instead.
TEST(ValidateStatePrefix, RejectsTrailingBytesAfterTheState) {
  auto payload = serialized_state();
  EXPECT_TRUE(fed::validate_state_prefix(payload, nullptr));
  payload.push_back(0xAB);
  payload.push_back(0xCD);
  std::string reason;
  EXPECT_FALSE(fed::validate_state_prefix(payload, &reason));
  EXPECT_NE(reason.find("trailing"), std::string::npos);

  // The classic attack shape: two whole states concatenated. Only the first
  // would ever be aggregated, so accepting the pair would bless bytes nobody
  // vetted.
  auto doubled = serialized_state();
  const auto second = serialized_state(2.0f);
  doubled.insert(doubled.end(), second.begin(), second.end());
  EXPECT_FALSE(fed::validate_state_prefix(doubled, &reason));
}

// Satellite regression: deserialize_state used to reserve() the claimed
// tensor count (up to 1,000,000) before decoding a single byte, so a
// few-byte hostile frame could make the server pre-allocate tens of MB.
// The count must be bounded by what the remaining payload could encode.
TEST(DeserializeState, RejectsOversizedCountBeforeReserving) {
  util::ByteWriter writer;
  writer.write_u64(1'000'000);  // claims a million tensors...
  writer.write_u64(0);          // ...but carries 8 more bytes
  util::ByteReader reader(writer.bytes());
  EXPECT_THROW(fed::deserialize_state(reader), SerializationError);

  std::string reason;
  EXPECT_FALSE(fed::validate_state_prefix(writer.bytes(), &reason));
  EXPECT_NE(reason.find("exceeds"), std::string::npos);
}

TEST(ValidateStatePrefix, RejectsGarbageAndEmptyStates) {
  std::string reason;
  EXPECT_FALSE(fed::validate_state_prefix({0xDE, 0xAD, 0xBE, 0xEF}, &reason));
  EXPECT_FALSE(reason.empty());
  util::ByteWriter writer;
  fed::serialize_state({}, writer);  // structurally valid but empty
  EXPECT_FALSE(fed::validate_state_prefix(writer.bytes(), &reason));
  EXPECT_NE(reason.find("empty"), std::string::npos);
}

TEST(ValidateStatePrefix, RejectsNonFiniteTensorData) {
  fed::ModelState state;
  state.push_back(tensor::Tensor::vector(
      {1.0f, std::numeric_limits<float>::quiet_NaN(), 3.0f}));
  util::ByteWriter writer;
  fed::serialize_state(state, writer);
  std::string reason;
  EXPECT_FALSE(fed::validate_state_prefix(writer.bytes(), &reason));
  EXPECT_NE(reason.find("non-finite"), std::string::npos);
}

// Satellite regression: Tensor::deserialize used to accept NaN/Inf payloads,
// which then poisoned every aggregation they touched.
TEST(TensorDeserialize, RejectsNonFiniteValues) {
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    tensor::Tensor t = tensor::Tensor::vector({1.0f, bad});
    util::ByteWriter writer;
    t.serialize(writer);
    util::ByteReader reader(writer.bytes());
    EXPECT_THROW(tensor::Tensor::deserialize(reader), SerializationError);
  }
  // Finite payloads still round-trip.
  tensor::Tensor ok = tensor::Tensor::vector({1.0f, -2.5f});
  util::ByteWriter writer;
  ok.serialize(writer);
  util::ByteReader reader(writer.bytes());
  EXPECT_TRUE(tensor::Tensor::deserialize(reader).all_close(ok, 0.0f));
}

// ---- runtime integration ---------------------------------------------------

TEST(RuntimeFaults, TotalDropoutRoundsAreCounted) {
  // Satellite regression: fully-dropped rounds used to `continue` past the
  // fed.rounds counter, so the metric drifted from result.rounds.size().
  obs::Counter& rounds = obs::counter("fed.rounds");
  const std::uint64_t before = rounds.value();
  const auto result = run_tiny(fed::FaultProfile{}, 1, /*dropout=*/1.0);
  EXPECT_EQ(result.rounds.size(), tiny_spec().rounds_per_task);
  EXPECT_EQ(rounds.value() - before, result.rounds.size());
  EXPECT_EQ(result.network.bytes_up, 0u);
  ASSERT_EQ(result.tasks.size(), 1u);
  EXPECT_GE(result.tasks[0].cumulative_accuracy, 0.0);
}

TEST(RuntimeFaults, HighDropoutStatsReconcileAcrossGranularities) {
  fed::FaultProfile p;
  p.corrupt = 0.3;
  p.max_retries = 2;
  obs::Counter& rounds = obs::counter("fed.rounds");
  const std::uint64_t before = rounds.value();
  const auto result = run_tiny(p, 9, /*dropout=*/0.6);
  EXPECT_EQ(rounds.value() - before, result.rounds.size());
  EXPECT_GT(result.network.dropped_updates, 0u);
  expect_stats_reconcile(result);
}

TEST(RuntimeFaults, CorruptionArmedRunCompletesWithFiniteAccuracies) {
  fed::FaultProfile p;
  p.corrupt = 0.9;  // P(all 2 attempts corrupt) = 0.81 per message
  p.max_retries = 1;
  const auto result = run_tiny(p, 3);
  // 3 rounds x 3 clients x both directions at these odds: at least one
  // quarantine and one successful retry are statistically certain.
  EXPECT_GT(result.network.quarantined + result.network.timed_out, 0u);
  EXPECT_GT(result.network.retries, 0u);
  EXPECT_GT(result.network.bytes_retransmitted, 0u);
  expect_stats_reconcile(result);
  ASSERT_EQ(result.tasks.size(), 1u);
  for (const auto& task : result.tasks) {
    EXPECT_TRUE(std::isfinite(task.cumulative_accuracy));
    for (double a : task.per_domain_accuracy) EXPECT_TRUE(std::isfinite(a));
  }
}

TEST(RuntimeFaults, PoisonedUpdatesAreQuarantinedNotAggregated) {
  fed::FaultProfile p;
  p.poison = 1.0;  // every update NaN-poisoned at the source
  const auto result = run_tiny(p, 4);
  // All uplink traffic is quarantined; the run must neither crash nor let a
  // NaN reach the global model.
  EXPECT_GT(result.network.quarantined, 0u);
  expect_stats_reconcile(result);
  for (const auto& task : result.tasks) {
    EXPECT_TRUE(std::isfinite(task.cumulative_accuracy));
  }
}

TEST(RuntimeFaults, ArmedRunIsDeterministic) {
  fed::FaultProfile p;
  p.corrupt = 0.5;
  p.duplicate = 0.2;
  p.poison = 0.1;
  p.max_retries = 2;
  const auto a = run_tiny(p, 21);
  const auto b = run_tiny(p, 21);
  EXPECT_EQ(a.network.bytes_down, b.network.bytes_down);
  EXPECT_EQ(a.network.bytes_up, b.network.bytes_up);
  EXPECT_EQ(a.network.quarantined, b.network.quarantined);
  EXPECT_EQ(a.network.retries, b.network.retries);
  EXPECT_EQ(a.network.timed_out, b.network.timed_out);
  EXPECT_EQ(a.network.bytes_retransmitted, b.network.bytes_retransmitted);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t t = 0; t < a.tasks.size(); ++t) {
    EXPECT_EQ(a.tasks[t].cumulative_accuracy, b.tasks[t].cumulative_accuracy);
  }
}

TEST(RuntimeFaults, ZeroFaultRunIsBitwiseIdenticalToTransportFreeRun) {
  // The acceptance bar for the whole layer: a default FaultProfile must not
  // change a single bit of the result — same accuracies, same traffic, same
  // round breakdowns as a run that predates the transport's existence.
  fed::FaultProfile inert;
  inert.latency_s = 5.0;  // observable only with a deadline; still inert
  const auto with_transport_field = run_tiny(inert, 8, /*dropout=*/0.3);
  const auto baseline = run_tiny(fed::FaultProfile{}, 8, /*dropout=*/0.3);
  EXPECT_EQ(with_transport_field.network.bytes_down,
            baseline.network.bytes_down);
  EXPECT_EQ(with_transport_field.network.bytes_up, baseline.network.bytes_up);
  EXPECT_EQ(with_transport_field.network.messages, baseline.network.messages);
  EXPECT_EQ(with_transport_field.network.dropped_updates,
            baseline.network.dropped_updates);
  EXPECT_EQ(with_transport_field.network.quarantined, 0u);
  EXPECT_EQ(with_transport_field.network.retries, 0u);
  EXPECT_EQ(with_transport_field.network.timed_out, 0u);
  EXPECT_EQ(with_transport_field.network.bytes_retransmitted, 0u);
  ASSERT_EQ(with_transport_field.tasks.size(), baseline.tasks.size());
  for (std::size_t t = 0; t < baseline.tasks.size(); ++t) {
    // Exact double equality, not a tolerance: the paths must be identical.
    EXPECT_EQ(with_transport_field.tasks[t].cumulative_accuracy,
              baseline.tasks[t].cumulative_accuracy);
    EXPECT_EQ(with_transport_field.tasks[t].per_domain_accuracy,
              baseline.tasks[t].per_domain_accuracy);
  }
  ASSERT_EQ(with_transport_field.rounds.size(), baseline.rounds.size());
  for (std::size_t r = 0; r < baseline.rounds.size(); ++r) {
    EXPECT_EQ(with_transport_field.rounds[r].bytes_down,
              baseline.rounds[r].bytes_down);
    EXPECT_EQ(with_transport_field.rounds[r].bytes_up,
              baseline.rounds[r].bytes_up);
    EXPECT_EQ(with_transport_field.rounds[r].dropped,
              baseline.rounds[r].dropped);
  }
}

// ---- cache key stability ---------------------------------------------------

TEST(CacheKeyFaults, ZeroFaultTagKeepsLegacyKeysStable) {
  const std::string legacy =
      harness::cache_key("Digits-Five", "orig", "RefFiL", 7, "scaled");
  EXPECT_EQ(harness::cache_key("Digits-Five", "orig", "RefFiL", 7, "scaled",
                               fed::FaultProfile{}.tag()),
            legacy);
  fed::FaultProfile armed;
  armed.corrupt = 0.2;
  EXPECT_NE(harness::cache_key("Digits-Five", "orig", "RefFiL", 7, "scaled",
                               armed.tag()),
            legacy);
  // Two different armed profiles must not alias each other's cells either.
  fed::FaultProfile other = armed;
  other.max_retries = 5;
  EXPECT_NE(harness::cache_key("Digits-Five", "orig", "RefFiL", 7, "scaled",
                               armed.tag()),
            harness::cache_key("Digits-Five", "orig", "RefFiL", 7, "scaled",
                               other.tag()));
}

TEST(TransportNorm, UpdateStateL2NormMatchesHandComputation) {
  // 16 x 0.5^2 + (1^2 + 2^2 + 3^2) = 4 + 14 = 18.
  const auto norm = fed::update_state_l2_norm(serialized_state(0.5f));
  ASSERT_TRUE(norm.has_value());
  EXPECT_NEAR(*norm, std::sqrt(18.0), 1e-9);
}

TEST(TransportNorm, UndecodablePayloadsYieldNoNorm) {
  // Random bytes, an empty payload, and a truncated state all decline to
  // produce a statistic rather than feeding garbage to the norm detector.
  EXPECT_FALSE(fed::update_state_l2_norm(sample_payload()).has_value());
  EXPECT_FALSE(fed::update_state_l2_norm({}).has_value());
  auto truncated = serialized_state();
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(fed::update_state_l2_norm(truncated).has_value());
}

TEST(TransportNorm, NonFiniteStateYieldsNoNorm) {
  fed::ModelState state;
  state.push_back(tensor::Tensor::vector(
      {1.0f, std::numeric_limits<float>::infinity()}));
  util::ByteWriter writer;
  fed::serialize_state(state, writer);
  EXPECT_FALSE(fed::update_state_l2_norm(writer.take()).has_value());
}
