// The one checked reader of a client update (cl::MethodBase::decode_update):
// the transport's validator and the streaming fold run the same decode, so
// they accept the same payloads, and a rejected update leaves no trace in
// the server's state. Covered here: hostile RefFiL prompt groups and EWC
// Fisher uploads, every truncation and a fixed sample of one-byte mutations
// of real updates, and armed runs whose one hostile client is quarantined.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>

#include "reffil/cl/ewc.hpp"
#include "reffil/core/reffil.hpp"
#include "reffil/fed/compress.hpp"
#include "reffil/fed/runtime.hpp"
#include "reffil/harness/experiment.hpp"
#include "reffil/tensor/ops.hpp"
#include "reffil/util/error.hpp"
#include "reffil/util/rng.hpp"

using namespace reffil;
namespace T = reffil::tensor;

namespace {

constexpr std::size_t kClasses = 4;

cl::MethodConfig small_config() {
  cl::MethodConfig config;
  config.net.num_classes = kClasses;
  config.net.token_dim = 8;
  config.net.mlp_hidden = 16;
  config.parallelism = 1;
  config.max_tasks = 3;
  config.batch_size = 4;
  return config;
}

/// Builds a server method in the state every fold below starts from.
using Make = std::function<std::unique_ptr<cl::MethodBase>()>;

Make maker(bool ewc, const std::string& compress) {
  return [ewc, compress]() -> std::unique_ptr<cl::MethodBase> {
    std::unique_ptr<cl::MethodBase> method;
    if (ewc) {
      method = std::make_unique<cl::EwcMethod>(small_config());
    } else {
      method = std::make_unique<core::RefFiLMethod>(small_config());
    }
    method->configure_compression(fed::CompressionConfig::parse(compress));
    method->on_task_start(0);
    method->make_broadcast();  // a compressed fold applies deltas to it
    return method;
  };
}

data::Dataset small_shard(std::uint64_t seed) {
  util::Rng rng(seed);
  data::Dataset shard;
  for (std::size_t i = 0; i < 8; ++i) {
    shard.push_back({T::randn({1, 16, 16}, rng), i % kClasses});
  }
  return shard;
}

/// One client's update of the task's last round, trained by its own copy of
/// the method, so the methods under test only ever fold.
fed::ClientUpdate trained_update(const Make& make, std::uint64_t seed) {
  const data::Dataset shard = small_shard(seed);
  auto client = make();
  fed::TrainJob job;
  job.client_id = seed;
  job.total_rounds = 1;
  job.new_data = &shard;
  job.learning_rate = 0.05f;
  return client->train_client(client->make_broadcast(), job);
}

/// `state` serialized, then the extras `write` appends.
std::vector<std::uint8_t> payload_of(
    const fed::ModelState& state,
    const std::function<void(util::ByteWriter&)>& write) {
  util::ByteWriter writer;
  fed::serialize_state(state, writer);
  write(writer);
  return writer.take();
}

fed::ModelState zeros_like(const fed::ModelState& model) {
  fed::ModelState state;
  for (const auto& t : model) state.push_back(T::zeros(t.shape()));
  return state;
}

/// `payload` fails the validator and the fold alike.
void expect_rejected(const fed::UpdateValidator& validator,
                     fed::AggregationSink& sink,
                     const std::vector<std::uint8_t>& payload,
                     const std::string& what) {
  std::string reason;
  EXPECT_FALSE(validator(payload, &reason)) << what;
  EXPECT_FALSE(reason.empty()) << what;
  EXPECT_THROW(sink.add({.num_samples = 3, .payload = payload}), Error) << what;
}

/// Starting the next task consolidates what the folds kept (EWC's Fisher
/// uploads), so its broadcast shows every method's server-side extras.
void expect_same_server(cl::MethodBase& a, cl::MethodBase& b) {
  a.on_task_start(1);
  b.on_task_start(1);
  ASSERT_EQ(a.global_state().size(), b.global_state().size());
  for (std::size_t t = 0; t < a.global_state().size(); ++t) {
    const T::Tensor& x = a.global_state()[t];
    const T::Tensor& y = b.global_state()[t];
    ASSERT_EQ(x.shape(), y.shape()) << "tensor " << t;
    EXPECT_EQ(std::memcmp(x.begin(), y.begin(), x.numel() * sizeof(float)), 0)
        << "tensor " << t;
  }
  EXPECT_EQ(a.make_broadcast(), b.make_broadcast());
}

/// Finish `sink`, whose adds so far all threw, with `good` alone: `seen`
/// must end bitwise where a fresh method that folded only `good` ends.
void expect_no_trace(std::unique_ptr<fed::AggregationSink> sink,
                     cl::MethodBase& seen, const Make& make,
                     const fed::ClientUpdate& good) {
  EXPECT_EQ(sink->count(), 0u);
  sink->add(good);
  sink->finish();
  auto fresh = make();
  auto fresh_sink = fresh->begin_streaming_aggregate(good.num_samples);
  fresh_sink->add(good);
  fresh_sink->finish();
  expect_same_server(seen, *fresh);
}

/// Where the extras start: after the state, or the delta frame when
/// compressed.
std::size_t extras_begin(const cl::MethodBase& method,
                         const std::vector<std::uint8_t>& payload,
                         bool compressed) {
  util::ByteReader reader(payload);
  if (compressed) {
    EXPECT_TRUE(
        fed::validate_delta_frame(reader, method.global_state(), nullptr));
  } else {
    fed::deserialize_state(reader);
  }
  return payload.size() - reader.remaining();
}

/// The validator accepts a payload exactly when a sink's add() folds it,
/// over every truncation of `base` and a fixed sample of one-byte mutations
/// (half of them inside the extras). The rejected ones all go to one sink;
/// finished with `good` alone, it leaves no trace of them.
void expect_validator_and_fold_agree(const Make& make, bool compressed,
                                     const fed::ClientUpdate& base,
                                     const fed::ClientUpdate& good) {
  auto seen = make();
  auto scratch = make();  // folds the accepted mutants, never finished
  const fed::UpdateValidator validator = seen->update_validator();
  auto rejecting = seen->begin_streaming_aggregate(good.num_samples);
  auto accepting = scratch->begin_streaming_aggregate(good.num_samples);
  std::size_t accepted = 0, rejected = 0;
  const auto check = [&](std::vector<std::uint8_t> payload, const char* what,
                         std::size_t at) {
    const fed::ClientUpdate mutant{.client_id = base.client_id,
                                   .num_samples = base.num_samples,
                                   .payload = std::move(payload)};
    std::string reason;
    if (validator(mutant.payload, &reason)) {
      ++accepted;
      EXPECT_NO_THROW(accepting->add(mutant)) << what << " at " << at;
    } else {
      ++rejected;
      EXPECT_THROW(rejecting->add(mutant), Error)
          << what << " at " << at << ": " << reason;
    }
  };
  const std::vector<std::uint8_t>& bytes = base.payload;
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    check({bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut)},
          "truncation", cut);
  }
  const std::size_t extras = extras_begin(*seen, bytes, compressed);
  ASSERT_LT(extras, bytes.size());
  util::Rng rng(41);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t lo = trial % 2 == 0 ? extras : 0;
    const auto at =
        static_cast<std::size_t>(lo + rng.uniform_index(bytes.size() - lo));
    std::vector<std::uint8_t> mutant = bytes;
    mutant[at] ^= static_cast<std::uint8_t>(1 + rng.uniform_index(255));
    check(std::move(mutant), "mutation", at);
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
  expect_no_trace(std::move(rejecting), *seen, make, good);
}

}  // namespace

TEST(UpdateReader, RefFiLRejectsEveryHostilePromptGroup) {
  const Make make = maker(/*ewc=*/false, "none");
  auto seen = make();
  const fed::ModelState model = seen->global_state();
  const std::size_t d = small_config().net.token_dim;
  struct Group {
    std::uint64_t label, task;
    T::Tensor prompt;
  };
  const auto groups = [&model](std::uint64_t count,
                               const std::vector<Group>& list) {
    return payload_of(model, [&](util::ByteWriter& w) {
      w.write_u64(count);
      for (const Group& g : list) {
        w.write_u64(g.label);
        w.write_u64(g.task);
        g.prompt.serialize(w);
      }
    });
  };
  const T::Tensor p = T::full({d}, 0.5f);
  const auto validator = seen->update_validator();
  const auto good = groups(2, {{0, 0, p}, {1, 0, p}});
  std::string reason;
  ASSERT_TRUE(validator(good, &reason)) << reason;

  auto sink = seen->begin_streaming_aggregate(4);
  expect_rejected(validator, *sink, groups(3, {{0, 0, p}, {1, 0, p}}),
                  "a group count beyond the bytes left");
  expect_rejected(validator, *sink, groups(std::uint64_t{1} << 61, {}),
                  "a hostile group count");
  expect_rejected(validator, *sink, groups(2, {{1, 0, p}, {1, 0, p}}),
                  "a repeated key");
  expect_rejected(validator, *sink, groups(2, {{2, 0, p}, {1, 0, p}}),
                  "decreasing keys");
  expect_rejected(validator, *sink, groups(1, {{kClasses, 0, p}}),
                  "label == num_classes");
  expect_rejected(validator, *sink, groups(1, {{0, 1, p}}),
                  "a task after the server's current task");
  expect_rejected(validator, *sink, groups(1, {{0, 0, T::full({d + 1}, 0.5f)}}),
                  "a [d+1] prompt");
  expect_rejected(validator, *sink, groups(1, {{0, 0, T::full({1, d}, 0.5f)}}),
                  "a [1, d] prompt");
  std::vector<std::uint8_t> trailing = good;
  trailing.insert(trailing.end(), 4, 0xAB);
  expect_rejected(validator, *sink, trailing, "4 bytes after valid groups");
  expect_no_trace(std::move(sink), *seen, make,
                  {.num_samples = 4, .payload = good});
}

TEST(UpdateReader, EwcRejectsEveryHostileFisherUpload) {
  const Make make = maker(/*ewc=*/true, "none");
  auto seen = make();
  const fed::ModelState model = seen->global_state();
  const auto upload = [&model](std::uint32_t flag, const fed::ModelState& fisher,
                               double weight) {
    return payload_of(model, [&](util::ByteWriter& w) {
      w.write_u32(flag);
      if (flag == 0) return;
      fed::serialize_state(fisher, w);
      w.write_f64(weight);
    });
  };
  fed::ModelState fisher = zeros_like(model);
  fisher.front().at(0) = 0.25f;
  const auto validator = seen->update_validator();
  const auto good = upload(1, fisher, 6.0);
  std::string reason;
  ASSERT_TRUE(validator(good, &reason)) << reason;
  ASSERT_TRUE(validator(upload(0, {}, 0.0), &reason)) << reason;

  auto sink = seen->begin_streaming_aggregate(6);
  expect_rejected(validator, *sink, upload(2, fisher, 6.0), "flag 2");
  expect_rejected(validator, *sink, upload(1, {T::zeros({3})}, 6.0),
                  "a Fisher state of one [3] tensor");
  fed::ModelState misshaped = fisher;
  misshaped.back() = T::zeros({misshaped.back().numel() + 1});
  expect_rejected(validator, *sink, upload(1, misshaped, 6.0),
                  "a wrongly shaped Fisher tensor");
  fed::ModelState negative = fisher;
  negative.back().at(0) = -1e-3f;
  expect_rejected(validator, *sink, upload(1, negative, 6.0),
                  "a negative Fisher entry");
  for (const double weight : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(), -1.0}) {
    expect_rejected(validator, *sink, upload(1, fisher, weight),
                    "Fisher weight " + std::to_string(weight));
  }
  std::vector<std::uint8_t> trailing = good;
  trailing.insert(trailing.end(), 4, 0xAB);
  expect_rejected(validator, *sink, trailing, "4 bytes after the weight");
  expect_no_trace(std::move(sink), *seen, make,
                  {.num_samples = 6, .payload = good});
}

TEST(UpdateReader, RefFiLGroupsFollowedByTrailingBytesAreNotStored) {
  const Make make = maker(/*ewc=*/false, "none");
  const auto good = trained_update(make, 5);
  auto stray = trained_update(make, 6);
  stray.payload.insert(stray.payload.end(), 4, 0xAB);
  auto seen = make();
  auto sink = seen->begin_streaming_aggregate(good.num_samples);
  expect_rejected(seen->update_validator(), *sink, stray.payload,
                  "4 bytes after the prompt groups");
  expect_no_trace(std::move(sink), *seen, make, good);
}

TEST(UpdateReader, ACompressedUpdateRejectedAtItsExtrasLeavesNoTrace) {
  // The q8 delta frame is sound; only the extras after it are not. Its
  // delta must not reach the sum.
  const Make make = maker(/*ewc=*/false, "q8");
  const auto good = trained_update(make, 5);
  auto stray = trained_update(make, 6);
  stray.payload.insert(stray.payload.end(), 4, 0xAB);
  auto seen = make();
  auto sink = seen->begin_streaming_aggregate(good.num_samples);
  expect_rejected(seen->update_validator(), *sink, stray.payload,
                  "4 bytes after a q8 update's prompt groups");
  expect_no_trace(std::move(sink), *seen, make, good);
}

TEST(UpdateReader, ValidatorAndFoldAgreeOnRefFiLUpdates) {
  for (const char* compress : {"none", "q8"}) {
    SCOPED_TRACE(compress);
    const Make make = maker(/*ewc=*/false, compress);
    expect_validator_and_fold_agree(make, std::string(compress) != "none",
                                    trained_update(make, 6),
                                    trained_update(make, 5));
  }
}

TEST(UpdateReader, ValidatorAndFoldAgreeOnEwcLastRoundUpdates) {
  const Make make = maker(/*ewc=*/true, "none");
  expect_validator_and_fold_agree(make, /*compressed=*/false,
                                  trained_update(make, 6),
                                  trained_update(make, 5));
}

// ---- end to end: an armed run quarantines the hostile update -------------

namespace {

data::DatasetSpec two_domain_spec() {
  data::DatasetSpec spec;
  spec.name = "Hostile";
  spec.num_classes = 3;
  spec.seed = 71;
  for (const char* name : {"First", "Second"}) {
    data::DomainSpec d;
    d.train_samples = 36;
    d.test_samples = 15;
    d.noise = 0.1f;
    d.name = name;
    spec.domains.push_back(d);
  }
  spec.initial_clients = 4;
  spec.clients_per_round = 1;  // the hostile upload is its round's only one
  spec.client_increment = 0;
  spec.rounds_per_task = 2;
  spec.local_epochs = 1;
  spec.learning_rate = 0.03f;
  return spec;
}

/// Forwards to a real method, except that the run's first update keeps its
/// model state and has its extras replaced by `hostile`'s, which reads the
/// real extras and writes the hostile ones.
class HostileClient : public fed::Method {
 public:
  using Rewrite = std::function<void(util::ByteReader&, util::ByteWriter&)>;
  HostileClient(std::unique_ptr<fed::Method> inner, Rewrite hostile)
      : inner_(std::move(inner)), hostile_(std::move(hostile)) {}

  std::string name() const override { return inner_->name(); }
  void on_task_start(std::size_t task) override { inner_->on_task_start(task); }
  std::vector<std::uint8_t> make_broadcast() override {
    return inner_->make_broadcast();
  }
  fed::ClientUpdate train_client(const std::vector<std::uint8_t>& broadcast,
                                 const fed::TrainJob& job) override {
    fed::ClientUpdate update = inner_->train_client(broadcast, job);
    if (!rewritten_.exchange(true)) {
      util::ByteReader reader(update.payload);
      util::ByteWriter writer;
      fed::serialize_state(fed::deserialize_state(reader), writer);
      hostile_(reader, writer);
      update.payload = writer.take();
    }
    return update;
  }
  fed::UpdateValidator update_validator() const override {
    return inner_->update_validator();
  }
  std::unique_ptr<fed::AggregationSink> begin_streaming_aggregate(
      std::size_t planned_samples) override {
    return inner_->begin_streaming_aggregate(planned_samples);
  }
  void prepare_eval() override { inner_->prepare_eval(); }
  std::size_t predict(std::size_t slot, const tensor::Tensor& image) override {
    return inner_->predict(slot, image);
  }
  tensor::Tensor eval_feature(std::size_t slot,
                              const tensor::Tensor& image) override {
    return inner_->eval_feature(slot, image);
  }

 private:
  std::unique_ptr<fed::Method> inner_;
  Rewrite hostile_;
  std::atomic<bool> rewritten_{false};
};

fed::RunResult run_hostile(harness::MethodKind kind,
                           HostileClient::Rewrite hostile) {
  const auto spec = two_domain_spec();
  harness::ExperimentConfig config;
  config.parallelism = 1;
  HostileClient method(harness::make_method(kind, spec, config),
                       std::move(hostile));
  fed::RunConfig run;
  run.spec = spec;
  run.parallelism = 1;
  run.seed = 5;
  run.faults = fed::FaultProfile::parse("deadline=1e9");  // armed, no faults
  fed::FederatedRunner runner(std::move(run));
  return runner.run(method);
}

void expect_quarantined_once_and_completed(const fed::RunResult& result) {
  EXPECT_EQ(result.network.quarantined, 1u);
  ASSERT_EQ(result.tasks.size(), two_domain_spec().domains.size());
  for (const auto& task : result.tasks) {
    EXPECT_TRUE(std::isfinite(task.cumulative_accuracy));
  }
}

}  // namespace

TEST(UpdateReaderRuntime, ArmedRunQuarantinesAMisshapedPromptGroup) {
  // The client's first prompt group, one element too long.
  const auto result = run_hostile(
      harness::MethodKind::kRefFiL,
      [](util::ByteReader& extras, util::ByteWriter& w) {
        ASSERT_GE(extras.read_u64(), 1u);
        const auto label = extras.read_u64();
        const auto task = extras.read_u64();
        const std::size_t d = T::Tensor::deserialize(extras).numel();
        w.write_u64(1);
        w.write_u64(label);
        w.write_u64(task);
        T::zeros({d + 1}).serialize(w);
      });
  expect_quarantined_once_and_completed(result);
}

TEST(UpdateReaderRuntime, ArmedRunQuarantinesAMisshapedFisherState) {
  const auto result = run_hostile(
      harness::MethodKind::kEwc, [](util::ByteReader&, util::ByteWriter& w) {
        w.write_u32(1);
        fed::serialize_state({T::zeros({3})}, w);
        w.write_f64(4.0);
      });
  expect_quarantined_once_and_completed(result);
}
