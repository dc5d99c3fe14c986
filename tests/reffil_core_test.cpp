// Tests for RefFiL's core pieces: the CDAP generator (Eq. 1), the DPCL
// temperature schedule (Eq. 7), replica wiring, and method-level behaviour
// (prompt sharing, ablation switches).
#include <gtest/gtest.h>

#include "reffil/autograd/ops.hpp"
#include "reffil/core/cdap.hpp"
#include "reffil/core/reffil.hpp"
#include "reffil/tensor/ops.hpp"

namespace AG = reffil::autograd;
namespace T = reffil::tensor;
using reffil::core::CdapConfig;
using reffil::core::CdapGenerator;
using reffil::core::RefFiLConfig;
using reffil::core::dpcl_temperature;

TEST(Cdap, OutputShapeIsPromptRowsByTokenDim) {
  reffil::util::Rng rng(1);
  CdapConfig config;
  config.num_tokens = 5;
  config.token_dim = 32;
  config.prompt_rows = 4;
  CdapGenerator generator(config, rng);
  const auto tokens = AG::constant(T::randn({5, 32}, rng));
  const auto prompt = generator.generate(tokens, 0);
  EXPECT_EQ(prompt->value().shape(), (T::Shape{4, 32}));
}

TEST(Cdap, RejectsWrongTokenShapeAndTaskRange) {
  reffil::util::Rng rng(2);
  CdapConfig config;
  config.max_tasks = 3;
  CdapGenerator generator(config, rng);
  EXPECT_THROW(
      generator.generate(AG::constant(T::zeros({config.num_tokens + 1,
                                                config.token_dim})), 0),
      reffil::ShapeError);
  const auto tokens =
      AG::constant(T::zeros({config.num_tokens, config.token_dim}));
  EXPECT_THROW(generator.generate(tokens, 3), reffil::Error);
}

TEST(Cdap, TaskKeyConditionsThePrompt) {
  // Eq. (1): the FiLM parameters come from the task embedding, so different
  // task ids must produce different prompts for the same input.
  reffil::util::Rng rng(3);
  CdapConfig config;
  CdapGenerator generator(config, rng);
  const auto tokens =
      AG::constant(T::randn({config.num_tokens, config.token_dim}, rng));
  const auto p0 = generator.generate(tokens, 0);
  const auto p1 = generator.generate(tokens, 1);
  EXPECT_FALSE(p0->value().all_close(p1->value()));
}

TEST(Cdap, InstanceLevelPrompts) {
  // Different inputs produce different prompts (instance-level generation).
  reffil::util::Rng rng(4);
  CdapConfig config;
  CdapGenerator generator(config, rng);
  const auto a = AG::constant(T::randn({config.num_tokens, config.token_dim}, rng));
  const auto b = AG::constant(T::randn({config.num_tokens, config.token_dim}, rng));
  EXPECT_FALSE(generator.generate(a, 0)->value().all_close(
      generator.generate(b, 0)->value()));
}

TEST(Cdap, GradientsReachEveryComponent) {
  reffil::util::Rng rng(5);
  CdapConfig config;
  CdapGenerator generator(config, rng);
  const auto tokens =
      AG::constant(T::randn({config.num_tokens, config.token_dim}, rng));
  generator.zero_grad();
  const auto prompt = generator.generate(tokens, 1);
  AG::backward(AG::mean_all(AG::mul(prompt, prompt)));
  std::size_t touched = 0;
  for (const auto& p : generator.parameters()) {
    if (T::l2_norm(p->grad()) > 0.0f) ++touched;
  }
  // LN, MLP (2 layers), CCDA, key embedding, phi: most must receive signal.
  EXPECT_GE(touched, generator.parameters().size() / 2);
}

TEST(Cdap, DeterministicForSameSeed) {
  CdapConfig config;
  reffil::util::Rng rng_a(9), rng_b(9), rng_in(10);
  CdapGenerator a(config, rng_a), b(config, rng_b);
  const auto tokens =
      AG::constant(T::randn({config.num_tokens, config.token_dim}, rng_in));
  EXPECT_TRUE(a.generate(tokens, 2)->value().all_close(
      b.generate(tokens, 2)->value()));
}

TEST(DpclTemperature, MatchesEquationSeven) {
  RefFiLConfig config;  // tau=0.9, tau_min=0.3, gamma=0.1, beta=0.05
  // t = 1: tau' = 0.9 * (1 - 0.1) = 0.81
  EXPECT_NEAR(dpcl_temperature(config, 0), 0.81f, 1e-5f);
  // t = 2: tau' = 0.9 * (1 - 0.15) = 0.765
  EXPECT_NEAR(dpcl_temperature(config, 1), 0.765f, 1e-5f);
  // t = 5: tau' = 0.9 * (1 - 0.3) = 0.63
  EXPECT_NEAR(dpcl_temperature(config, 4), 0.63f, 1e-5f);
}

TEST(DpclTemperature, DecaysMonotonicallyToFloor) {
  RefFiLConfig config;
  float previous = 10.0f;
  for (std::size_t t = 0; t < 40; ++t) {
    const float tau = dpcl_temperature(config, t);
    EXPECT_LE(tau, previous);
    EXPECT_GE(tau, config.tau_min);
    previous = tau;
  }
  EXPECT_NEAR(dpcl_temperature(config, 39), config.tau_min, 1e-5f);
}

TEST(DpclTemperature, DecayCanBeDisabled) {
  RefFiLConfig config;
  config.temperature_decay = false;
  EXPECT_NEAR(dpcl_temperature(config, 0), config.tau, 1e-6f);
  EXPECT_NEAR(dpcl_temperature(config, 10), config.tau, 1e-6f);
}

namespace {
reffil::cl::MethodConfig small_method_config() {
  reffil::cl::MethodConfig config;
  config.net.num_classes = 4;
  config.parallelism = 1;
  config.max_tasks = 3;
  config.batch_size = 4;
  return config;
}
}  // namespace

TEST(RefFiLMethod, DpclWithoutGplIsRejected) {
  RefFiLConfig bad;
  bad.use_gpl = false;
  bad.use_dpcl = true;
  EXPECT_THROW(reffil::core::RefFiLMethod(small_method_config(), bad),
               reffil::Error);
}

TEST(RefFiLMethod, VariantNamesEncodeComponents) {
  RefFiLConfig full;
  EXPECT_EQ(reffil::core::RefFiLMethod(small_method_config(), full).name(),
            "RefFiL");
  RefFiLConfig cdap_only;
  cdap_only.use_gpl = false;
  cdap_only.use_dpcl = false;
  EXPECT_EQ(reffil::core::RefFiLMethod(small_method_config(), cdap_only).name(),
            "RefFiL[C]");
  RefFiLConfig no_dpcl;
  no_dpcl.use_dpcl = false;
  EXPECT_EQ(reffil::core::RefFiLMethod(small_method_config(), no_dpcl).name(),
            "RefFiL[CG]");
}

TEST(RefFiLMethod, BroadcastWithoutPromptsIsModelOnlyPlusFlag) {
  RefFiLConfig config;
  reffil::core::RefFiLMethod method(small_method_config(), config);
  const auto broadcast = method.make_broadcast();
  // Must be parseable by a fresh replica: train_client does exactly this.
  reffil::util::ByteReader reader(broadcast);
  const auto state = reffil::fed::deserialize_state(reader);
  EXPECT_FALSE(state.empty());
  EXPECT_EQ(reader.read_u32(), 0u);  // no prompts yet
  EXPECT_TRUE(reader.exhausted());
}

TEST(RefFiLMethod, TrainClientRoundTripUpdatesAndUploadsPrompts) {
  RefFiLConfig config;
  reffil::core::RefFiLMethod method(small_method_config(), config);
  method.on_task_start(0);

  // Tiny synthetic shard.
  reffil::util::Rng rng(11);
  reffil::data::Dataset shard;
  for (std::size_t i = 0; i < 8; ++i) {
    shard.push_back({T::randn({1, 16, 16}, rng), i % 4});
  }
  reffil::fed::TrainJob job;
  job.worker_slot = 0;
  job.client_id = 0;
  job.task = 0;
  job.total_rounds = 1;
  job.group = reffil::fed::ClientGroup::kNew;
  job.new_data = &shard;
  job.local_epochs = 1;
  job.learning_rate = 0.05f;

  const auto broadcast = method.make_broadcast();
  const auto update = method.train_client(broadcast, job);
  EXPECT_EQ(update.num_samples, shard.size());
  EXPECT_FALSE(update.payload.empty());

  method.aggregate({update});
  // After aggregation the server holds prompt representatives for the
  // classes the client uploaded.
  EXPECT_FALSE(method.representatives().empty());
  // And the next broadcast now carries them.
  const auto broadcast2 = method.make_broadcast();
  EXPECT_GT(broadcast2.size(), broadcast.size());
}

TEST(RefFiLMethod, RejectedBatchLeavesNoUploadsForTheNextAggregate) {
  // A batch whose second update is mis-shaped is rejected as a whole; the
  // prompts its valid first update uploaded before the rejection must not
  // reach the next aggregate's after_aggregate().
  RefFiLConfig config;
  reffil::core::RefFiLMethod seen(small_method_config(), config);
  reffil::core::RefFiLMethod fresh(small_method_config(), config);
  seen.on_task_start(0);
  fresh.on_task_start(0);
  const auto broadcast = seen.make_broadcast();
  reffil::util::ByteReader reader(broadcast);
  const auto model = reffil::fed::deserialize_state(reader);
  ASSERT_GE(model.size(), 2u);
  const std::size_t d = small_method_config().net.token_dim;
  // A state followed by one uploaded prompt group: (label, task 0, [d]).
  const auto update_of = [d](const reffil::fed::ModelState& state,
                             std::size_t label, float prompt) {
    reffil::util::ByteWriter writer;
    reffil::fed::serialize_state(state, writer);
    writer.write_u64(1);
    writer.write_u64(label);
    writer.write_u64(0);
    T::full({d}, prompt).serialize(writer);
    return reffil::fed::ClientUpdate{.num_samples = 4,
                                     .payload = writer.take()};
  };
  auto misshaped = model;
  misshaped[1] = T::zeros({model[1].numel() + 1});
  EXPECT_THROW(seen.aggregate({update_of(model, 1, 5.0f),
                               update_of(misshaped, 2, 9.0f)}),
               reffil::ShapeError);

  const std::vector<reffil::fed::ClientUpdate> batch = {
      update_of(model, 0, 1.0f)};
  seen.aggregate(batch);
  fresh.aggregate(batch);
  EXPECT_EQ(seen.make_broadcast(), fresh.make_broadcast());
}

TEST(RefFiLMethod, PredictReturnsValidClassAfterPrepareEval) {
  RefFiLConfig config;
  reffil::core::RefFiLMethod method(small_method_config(), config);
  method.on_task_start(0);
  method.prepare_eval();
  reffil::util::Rng rng(12);
  const auto label = method.predict(0, T::randn({1, 16, 16}, rng));
  EXPECT_LT(label, 4u);
  const auto feature = method.eval_feature(0, T::randn({1, 16, 16}, rng));
  EXPECT_EQ(feature.numel(), small_method_config().net.token_dim);
}
