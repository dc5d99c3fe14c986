// Tests for the compressed federated wire format (fed/compress.*):
// config parsing, codec frame round-trips, the hostile-frame decoder
// hardening (truncated blocks, non-finite scales, inconsistent counts,
// unbounded claimed sizes), error-feedback semantics end to end through the
// runtime, the compression=none bitwise-identity guarantee, and the
// raw-equivalent byte accounting the frontier tables report.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "reffil/cl/method_base.hpp"
#include "reffil/fed/compress.hpp"
#include "reffil/fed/fedavg.hpp"
#include "reffil/fed/runtime.hpp"
#include "reffil/harness/cache.hpp"
#include "reffil/harness/experiment.hpp"
#include "reffil/tensor/kernels_dispatch.hpp"
#include "reffil/tensor/ops.hpp"
#include "reffil/tensor/quant.hpp"
#include "reffil/util/error.hpp"
#include "reffil/util/rng.hpp"

using namespace reffil;

namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

fed::ModelState sample_state(std::uint64_t seed) {
  util::Rng rng(seed);
  fed::ModelState state;
  state.push_back(tensor::randn({3, 40}, rng));  // partial last q8 block
  state.push_back(tensor::randn({64}, rng));     // exact multiples of 32
  state.push_back(tensor::randn({5}, rng));      // sub-block straggler
  return state;
}

std::vector<std::uint8_t> encode_state_bytes(const fed::ModelState& state,
                                             fed::Codec codec) {
  util::ByteWriter writer;
  fed::encode_state(state, codec, writer);
  return writer.take();
}

data::DatasetSpec tiny_spec() {
  data::DatasetSpec spec;
  spec.name = "CompressTest";
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

fed::RunResult run_tiny(const fed::CompressionConfig& compress,
                        std::uint64_t seed,
                        std::unique_ptr<fed::Method>* method_out = nullptr) {
  const auto spec = tiny_spec();
  harness::ExperimentConfig config;
  config.parallelism = 1;
  auto method =
      harness::make_method(harness::MethodKind::kFinetune, spec, config);
  fed::FederatedRunner runner(
      {.spec = spec, .parallelism = 1, .seed = seed, .compress = compress});
  auto result = runner.run(*method);
  if (method_out != nullptr) *method_out = std::move(method);
  return result;
}

}  // namespace

// ---- config parsing --------------------------------------------------------

TEST(CompressionConfig, ParsesAndCanonicalizes) {
  EXPECT_EQ(fed::CompressionConfig::parse("none").to_string(), "none");
  EXPECT_FALSE(fed::CompressionConfig::parse("none").enabled());
  EXPECT_EQ(fed::CompressionConfig::parse("f16").to_string(), "f16");
  EXPECT_EQ(fed::CompressionConfig::parse("q8").to_string(), "q8");
  const auto topk = fed::CompressionConfig::parse("q8,topk=0.1");
  EXPECT_EQ(topk.codec, fed::Codec::kQ8);
  EXPECT_NEAR(topk.topk, 0.1, 1e-12);
  EXPECT_EQ(topk.to_string(), "q8,topk=0.1");
  // topk=1 is the dense boundary and must be accepted.
  EXPECT_EQ(fed::CompressionConfig::parse("f16,topk=1").topk, 1.0);
}

TEST(CompressionConfig, RejectsBadSpecs) {
  for (const char* bad :
       {"zstd", "q8,topk=0", "q8,topk=-0.5", "q8,topk=1.5", "q8,topk=nan",
        "q8,topk=abc", "q8,topk=0.1x", "q8,chunk=2", "none,topk=0.5"}) {
    EXPECT_THROW(fed::CompressionConfig::parse(bad), ConfigError) << bad;
  }
}

TEST(CompressionConfig, TagEmptyWhenDisabledSoCacheKeysAreStable) {
  // Uncompressed cache keys must stay byte-identical to earlier releases:
  // the tag is the only compression-dependent cache-key component.
  EXPECT_EQ(fed::CompressionConfig{}.tag(), "");
  EXPECT_EQ(fed::CompressionConfig::parse("none").tag(), "");
  EXPECT_EQ(fed::CompressionConfig::parse("q8,topk=0.1").tag(),
            "compress:q8,topk=0.1");
}

// ---- dense state frames ----------------------------------------------------

TEST(CompressFrame, Q8StateRoundTripsWithinHalfStep) {
  const auto state = sample_state(11);
  util::ByteWriter writer;
  const fed::ModelState reference =
      fed::encode_state(state, fed::Codec::kQ8, writer);
  const auto bytes = writer.take();
  EXPECT_TRUE(fed::is_compressed(bytes));
  EXPECT_EQ(bytes.size(), fed::encoded_state_size(state, fed::Codec::kQ8));

  util::ByteReader reader(bytes);
  const fed::ModelState decoded = fed::deserialize_state_any(reader);
  EXPECT_TRUE(reader.exhausted());
  ASSERT_EQ(decoded.size(), state.size());
  for (std::size_t t = 0; t < state.size(); ++t) {
    ASSERT_EQ(decoded[t].shape(), state[t].shape());
    const std::size_t n = state[t].numel();
    std::vector<std::int8_t> q(n);
    std::vector<float> scales(tensor::quant::q8_num_blocks(n));
    tensor::kern::active().q8_encode(state[t].begin(), q.data(), scales.data(),
                                     n);
    for (std::size_t i = 0; i < n; ++i) {
      // The decoded state must equal the reference encode_state returned
      // (that is the whole point of the reference), and sit within the q8
      // half-step of the original: scale_block / 2 = amax_block / 254.
      ASSERT_EQ(decoded[t].at(i), reference[t].at(i)) << t << ":" << i;
      ASSERT_NEAR(decoded[t].at(i), state[t].at(i),
                  0.5f * scales[i / tensor::quant::kQ8Block] + 1e-7f)
          << t << ":" << i;
    }
  }
}

TEST(CompressFrame, Q8FrameIsOverThreeTimesSmallerOnRealTensors) {
  // Tiny tensors pay header/length-prefix overhead; a model-sized tensor
  // hits the 1.125 bytes/value asymptote (~3.55x under the f32 format).
  util::Rng rng(41);
  fed::ModelState state;
  state.push_back(tensor::randn({256, 256}, rng));
  const auto bytes = encode_state_bytes(state, fed::Codec::kQ8);
  EXPECT_LT(bytes.size() * 3, fed::serialized_size(state));
  const auto halves = encode_state_bytes(state, fed::Codec::kF16);
  EXPECT_LT(halves.size() * 19 / 10, fed::serialized_size(state));
}

TEST(CompressFrame, F16StateRoundTripsExactlyOnHalves) {
  fed::ModelState state;
  state.push_back(tensor::Tensor::vector({1.0f, -0.5f, 0.25f, 1024.0f}));
  util::ByteWriter writer;
  const auto reference = fed::encode_state(state, fed::Codec::kF16, writer);
  const auto bytes = writer.take();
  util::ByteReader reader(bytes);
  const auto decoded = fed::deserialize_state_any(reader);
  ASSERT_EQ(decoded.size(), 1u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(decoded[0].at(i), state[0].at(i)) << i;
    EXPECT_EQ(reference[0].at(i), state[0].at(i)) << i;
  }
}

TEST(CompressFrame, UncompressedPayloadPassesThroughUnchanged) {
  const auto state = sample_state(13);
  util::ByteWriter writer;
  fed::serialize_state(state, writer);
  const auto bytes = writer.take();
  EXPECT_FALSE(fed::is_compressed(bytes));
  util::ByteReader any_reader(bytes);
  const auto via_any = fed::deserialize_state_any(any_reader);
  util::ByteReader plain_reader(bytes);
  const auto via_plain = fed::deserialize_state(plain_reader);
  ASSERT_EQ(via_any.size(), via_plain.size());
  for (std::size_t t = 0; t < via_any.size(); ++t) {
    for (std::size_t i = 0; i < via_any[t].numel(); ++i) {
      ASSERT_EQ(via_any[t].at(i), via_plain[t].at(i));
    }
  }
}

TEST(CompressFrame, BroadcastDecoderRejectsDeltaFrames) {
  fed::ModelState delta = sample_state(17);
  util::ByteWriter writer;
  fed::encode_delta(delta, fed::CompressionConfig::parse("q8"), writer);
  const auto bytes = writer.take();
  util::ByteReader reader(bytes);
  EXPECT_THROW(fed::deserialize_state_any(reader), SerializationError);
}

// ---- delta frames + error feedback -----------------------------------------

TEST(CompressDelta, DenseQ8FoldsBitwiseAndLeavesResidual) {
  const auto original = sample_state(19);
  fed::ModelState delta = original;  // encode_delta rewrites it in place
  const auto config = fed::CompressionConfig::parse("q8");
  util::ByteWriter writer;
  fed::encode_delta(delta, config, writer);
  const auto bytes = writer.take();
  EXPECT_LE(bytes.size(), fed::encoded_delta_size(original, config));

  // Expected transmitted values: the same q8 round trip the codec performs.
  fed::ModelState acc;
  for (const auto& t : original) acc.push_back(tensor::zeros(t.shape()));
  util::ByteReader reader(bytes);
  fed::accumulate_delta(reader, 1.0f, acc);
  EXPECT_TRUE(reader.exhausted());
  for (std::size_t t = 0; t < original.size(); ++t) {
    const std::size_t n = original[t].numel();
    std::vector<std::int8_t> q(n);
    std::vector<float> scales(tensor::quant::q8_num_blocks(n)), dec(n);
    tensor::kern::active().q8_encode(original[t].begin(), q.data(),
                                     scales.data(), n);
    tensor::kern::active().q8_decode(q.data(), scales.data(), dec.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      // weight 1: (1 * scale) * q == scale * q bitwise, folded into zeros.
      ASSERT_EQ(acc[t].at(i), dec[i]) << t << ":" << i;
      // Residual = original - transmitted, the same subtraction the EF
      // store performs.
      ASSERT_EQ(delta[t].at(i), original[t].at(i) - dec[i]) << t << ":" << i;
    }
  }
}

TEST(CompressDelta, TopkSelectsByMagnitudeAndKeepsDroppedEnergy) {
  fed::ModelState delta;
  delta.push_back(tensor::Tensor::vector(
      {0.1f, 5.0f, 0.2f, -7.0f, 0.3f, 9.0f, 0.01f, -0.02f}));
  const fed::ModelState original = delta;
  const auto config = fed::CompressionConfig::parse("q8,topk=0.5");
  util::ByteWriter writer;
  fed::encode_delta(delta, config, writer);
  const auto bytes = writer.take();

  fed::ModelState acc;
  acc.push_back(tensor::zeros({8}));
  util::ByteReader reader(bytes);
  fed::accumulate_delta(reader, 1.0f, acc);
  // k = ceil(0.5 * 8) = 4: indices {1, 3, 4, 5} by |value|.
  const bool transmitted[8] = {false, true, false, true,
                               true,  true, false, false};
  // The four gathered values share one q8 block whose amax is 9, so every
  // transmitted entry decodes within half a step: 0.5 * 9/127 < 0.036.
  const float half_step = 0.5f * 9.0f / 127.0f + 1e-6f;
  for (std::size_t i = 0; i < 8; ++i) {
    if (transmitted[i]) {
      EXPECT_NEAR(acc[0].at(i), original[0].at(i), half_step) << i;
      // Residual holds only the quantization error at transmitted slots.
      EXPECT_EQ(delta[0].at(i), original[0].at(i) - acc[0].at(i)) << i;
    } else {
      // Untransmitted entries contribute nothing to the accumulator and
      // keep their FULL value in the residual — that is error feedback.
      EXPECT_EQ(acc[0].at(i), 0.0f) << i;
      EXPECT_EQ(delta[0].at(i), original[0].at(i)) << i;
    }
  }
}

TEST(CompressDelta, WeightScalesTheFold) {
  fed::ModelState delta;
  delta.push_back(tensor::Tensor::vector({1.0f, -2.0f, 3.0f}));
  util::ByteWriter writer;
  fed::encode_delta(delta, fed::CompressionConfig::parse("f16"), writer);
  const auto bytes = writer.take();
  fed::ModelState acc;
  acc.push_back(tensor::zeros({3}));
  util::ByteReader reader(bytes);
  fed::accumulate_delta(reader, 0.5f, acc);
  EXPECT_FLOAT_EQ(acc[0].at(0), 0.5f);
  EXPECT_FLOAT_EQ(acc[0].at(1), -1.0f);
  EXPECT_FLOAT_EQ(acc[0].at(2), 1.5f);
}

// ---- hostile frames (satellite: decoder hardening) -------------------------

namespace {

// Hand-assemble a q8 delta frame for one {8} tensor with explicit topk
// fields, so each structural invariant can be violated independently.
std::vector<std::uint8_t> handmade_topk_frame(
    std::uint64_t k, std::vector<std::uint32_t> idx, std::vector<float> scales,
    std::vector<std::int8_t> q) {
  util::ByteWriter w;
  w.write_u64(fed::kQuantMagic);
  w.write_pod<std::uint8_t>(2);  // codec q8
  w.write_pod<std::uint8_t>(1);  // kind delta
  w.write_u64(1);                // one tensor
  w.write_u64(1);                // rank
  w.write_u64(8);                // dim
  w.write_pod<std::uint8_t>(1);  // mode top-k
  w.write_u64(k);
  w.write_pod_vector(idx);
  w.write_pod_vector(scales);
  w.write_pod_vector(q);
  return w.take();
}

void expect_rejected_and_acc_untouched(const std::vector<std::uint8_t>& bytes,
                                       const char* what) {
  fed::ModelState acc;
  acc.push_back(tensor::Tensor::vector(
      {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f, 7.0f, 8.0f}));
  const fed::ModelState before = acc;
  util::ByteReader reader(bytes);
  EXPECT_THROW(fed::accumulate_delta(reader, 1.0f, acc), Error) << what;
  // Validation-before-fold atomicity: a rejected frame must leave the
  // accumulator byte-identical (the streaming sink quarantines ONE update,
  // not the whole round).
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(acc[0].at(i), before[0].at(i)) << what << " index " << i;
  }
  util::ByteReader vreader(bytes);
  std::string reason;
  EXPECT_FALSE(fed::validate_delta_frame(vreader, before, &reason)) << what;
  EXPECT_FALSE(reason.empty()) << what;
}

}  // namespace

TEST(CompressHostile, ValidHandmadeFrameIsAccepted) {
  // Baseline: the helper produces a frame the decoder accepts, so the
  // rejection tests below fail for the violated invariant, not the scaffold.
  const auto bytes = handmade_topk_frame(3, {1, 3, 5}, {0.05f}, {10, -20, 90});
  util::ByteReader reader(bytes);
  std::string reason;
  EXPECT_TRUE(fed::validate_delta_frame(
      reader, fed::ModelState{tensor::Tensor({8})}, &reason))
      << reason;
  EXPECT_TRUE(reader.exhausted());
}

TEST(CompressHostile, InconsistentTopkCountIsRejected) {
  // k claims 3 but the index array holds 2 / the q array holds 4.
  expect_rejected_and_acc_untouched(
      handmade_topk_frame(3, {1, 3}, {0.05f}, {10, -20, 90}), "short idx");
  expect_rejected_and_acc_untouched(
      handmade_topk_frame(3, {1, 3, 5}, {0.05f}, {10, -20, 90, 7}), "long q");
  expect_rejected_and_acc_untouched(
      handmade_topk_frame(3, {1, 3, 5}, {0.05f, 0.05f}, {10, -20, 90}),
      "scale count");
}

TEST(CompressHostile, IndexOrderAndRangeAreEnforced) {
  expect_rejected_and_acc_untouched(
      handmade_topk_frame(3, {3, 1, 5}, {0.05f}, {10, -20, 90}), "unordered");
  expect_rejected_and_acc_untouched(
      handmade_topk_frame(3, {1, 3, 3}, {0.05f}, {10, -20, 90}), "duplicate");
  expect_rejected_and_acc_untouched(
      handmade_topk_frame(3, {1, 3, 8}, {0.05f}, {10, -20, 90}),
      "out of range");
  expect_rejected_and_acc_untouched(
      handmade_topk_frame(9, {0, 1, 2, 3, 4, 5, 6, 7, 7},
                          {0.05f}, {1, 2, 3, 4, 5, 6, 7, 8, 9}),
      "k beyond numel");
}

TEST(CompressHostile, NonFiniteScalesAreRejected) {
  expect_rejected_and_acc_untouched(
      handmade_topk_frame(3, {1, 3, 5}, {kNaN}, {10, -20, 90}), "NaN scale");
  expect_rejected_and_acc_untouched(
      handmade_topk_frame(3, {1, 3, 5},
                          {std::numeric_limits<float>::infinity()},
                          {10, -20, 90}),
      "Inf scale");
}

TEST(CompressHostile, NonFiniteHalvesAreRejected) {
  util::ByteWriter w;
  w.write_u64(fed::kQuantMagic);
  w.write_pod<std::uint8_t>(1);  // codec f16
  w.write_pod<std::uint8_t>(0);  // kind state
  w.write_u64(1);
  w.write_u64(1);
  w.write_u64(2);
  w.write_pod_vector(std::vector<std::uint16_t>{0x3C00, 0x7C00});  // 1.0, Inf
  const auto bytes = w.take();
  util::ByteReader reader(bytes);
  EXPECT_THROW(fed::deserialize_state_any(reader), SerializationError);
}

TEST(CompressHostile, ClaimedSizesAreBoundedBeforeAllocation) {
  // A 16-byte frame claiming 2^39 elements (or 10^12 tensors) must be a
  // typed rejection without any attempt to allocate the claimed amount.
  {
    util::ByteWriter w;
    w.write_u64(fed::kQuantMagic);
    w.write_pod<std::uint8_t>(2);
    w.write_pod<std::uint8_t>(0);
    w.write_u64(1);
    w.write_u64(1);
    w.write_u64(std::uint64_t{1} << 39);
    const auto bytes = w.take();
    util::ByteReader reader(bytes);
    EXPECT_THROW(fed::deserialize_state_any(reader), SerializationError);
  }
  {
    util::ByteWriter w;
    w.write_u64(fed::kQuantMagic);
    w.write_pod<std::uint8_t>(2);
    w.write_pod<std::uint8_t>(0);
    w.write_u64(1'000'000'000'000ULL);
    const auto bytes = w.take();
    util::ByteReader reader(bytes);
    EXPECT_THROW(fed::deserialize_state_any(reader), SerializationError);
  }
  {
    // Overflow bait: dims whose product wraps u64 back to something small.
    util::ByteWriter w;
    w.write_u64(fed::kQuantMagic);
    w.write_pod<std::uint8_t>(2);
    w.write_pod<std::uint8_t>(0);
    w.write_u64(1);
    w.write_u64(2);
    w.write_u64(std::uint64_t{1} << 33);
    w.write_u64(std::uint64_t{1} << 33);
    const auto bytes = w.take();
    util::ByteReader reader(bytes);
    EXPECT_THROW(fed::deserialize_state_any(reader), SerializationError);
  }
}

TEST(CompressHostile, BadCodecOrKindBytesAreRejected) {
  for (const std::uint8_t codec : {std::uint8_t{0}, std::uint8_t{7}}) {
    util::ByteWriter w;
    w.write_u64(fed::kQuantMagic);
    w.write_pod<std::uint8_t>(codec);
    w.write_pod<std::uint8_t>(0);
    w.write_u64(0);
    const auto bytes = w.take();
    util::ByteReader reader(bytes);
    EXPECT_THROW(fed::deserialize_state_any(reader), SerializationError)
        << int{codec};
  }
}

TEST(CompressHostile, FuzzedFramesNeverCrash) {
  // Same discipline as serialization_fuzz_test: truncations and byte
  // corruptions of valid compressed frames parse or throw a typed Error.
  // The validator and the fold also agree on every mutant: the validator,
  // given the fold's model, accepts exactly the frames the fold folds, and
  // a rejected frame leaves the accumulator bit-identical.
  const auto validator_and_fold_agree =
      [](const std::vector<std::uint8_t>& mutant) {
        fed::ModelState acc = sample_state(29);
        const fed::ModelState before = acc;
        util::ByteReader vreader(mutant);
        std::string reason;
        const bool valid = fed::validate_delta_frame(vreader, before, &reason);
        util::ByteReader areader(mutant);
        bool folded = true;
        try {
          fed::accumulate_delta(areader, 1.0f, acc);
        } catch (const Error&) {
          folded = false;
        }
        EXPECT_EQ(valid, folded) << reason;
        if (folded) return;
        for (std::size_t t = 0; t < acc.size(); ++t) {
          EXPECT_EQ(std::memcmp(acc[t].begin(), before[t].begin(),
                                acc[t].numel() * sizeof(float)),
                    0)
              << "rejected frame changed accumulator tensor " << t;
        }
      };
  util::Rng rng(23);
  for (const auto codec : {fed::Codec::kF16, fed::Codec::kQ8}) {
    const auto state_bytes = encode_state_bytes(sample_state(29), codec);
    fed::ModelState delta = sample_state(31);
    util::ByteWriter dw;
    fed::encode_delta(delta,
                      fed::CompressionConfig{.codec = codec, .topk = 0.25},
                      dw);
    const auto delta_bytes = dw.take();
    for (const auto& base : {state_bytes, delta_bytes}) {
      for (int trial = 0; trial < 60; ++trial) {
        const auto cut =
            static_cast<std::size_t>(rng.uniform_index(base.size()));
        std::vector<std::uint8_t> mutant(
            base.begin(), base.begin() + static_cast<std::ptrdiff_t>(cut));
        util::ByteReader reader(mutant);
        try {
          fed::deserialize_state_any(reader);
        } catch (const Error&) {
        }
        validator_and_fold_agree(mutant);  // the validator must not throw
      }
      for (int trial = 0; trial < 200; ++trial) {
        std::vector<std::uint8_t> mutant = base;
        const auto pos =
            static_cast<std::size_t>(rng.uniform_index(base.size()));
        mutant[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_index(255));
        util::ByteReader reader(mutant);
        try {
          fed::deserialize_state_any(reader);
        } catch (const Error&) {
        }
        validator_and_fold_agree(mutant);
      }
    }
  }
}

// ---- end-to-end through the runtime ----------------------------------------

TEST(CompressRuntime, NonePathIsBitwiseIdenticalToDefault) {
  const auto baseline = run_tiny(fed::CompressionConfig{}, 5);
  const auto explicit_none =
      run_tiny(fed::CompressionConfig::parse("none"), 5);
  ASSERT_EQ(baseline.tasks.size(), explicit_none.tasks.size());
  for (std::size_t t = 0; t < baseline.tasks.size(); ++t) {
    EXPECT_EQ(baseline.tasks[t].cumulative_accuracy,
              explicit_none.tasks[t].cumulative_accuracy);
  }
  EXPECT_EQ(baseline.network.bytes_down, explicit_none.network.bytes_down);
  EXPECT_EQ(baseline.network.bytes_up, explicit_none.network.bytes_up);
  EXPECT_EQ(explicit_none.compression, "none");
  // Uncompressed runs report raw-equivalent == wire bytes (ratio 1).
  EXPECT_EQ(explicit_none.network.bytes_down_raw_equiv,
            explicit_none.network.bytes_down);
  EXPECT_EQ(explicit_none.network.bytes_up_raw_equiv,
            explicit_none.network.bytes_up);
}

TEST(CompressRuntime, Q8TopkShrinksTrafficAndTracksAccuracy) {
  const auto none = run_tiny(fed::CompressionConfig{}, 9);
  const auto q8 = run_tiny(fed::CompressionConfig::parse("q8,topk=0.1"), 9);
  EXPECT_EQ(q8.compression, "q8,topk=0.1");
  // Downlink: dense q8 broadcast, ~3.6x under the f32 wire format.
  EXPECT_GE(none.network.bytes_down, q8.network.bytes_down * 3);
  // Uplink: top-10% + q8, well past 5x on real tensors (tiny per-tensor
  // headers keep this model's ratio above 3x at minimum).
  EXPECT_GE(none.network.bytes_up, q8.network.bytes_up * 3);
  // The raw-equivalent counters recover the uncompressed run's traffic
  // exactly: same shapes, same rounds, same participants.
  EXPECT_EQ(q8.network.bytes_down_raw_equiv, none.network.bytes_down);
  EXPECT_EQ(q8.network.bytes_up_raw_equiv, none.network.bytes_up);
  // Error feedback keeps the compressed run in the same accuracy regime on
  // the fixed seed (the acceptance smoke enforces the 1-point bound at real
  // scale; the unit bound is looser because this model is tiny).
  EXPECT_TRUE(std::isfinite(q8.average_accuracy()));
  EXPECT_NEAR(q8.average_accuracy(), none.average_accuracy(), 15.0);
}

TEST(CompressRuntime, ResidualsAccumulateThenDrainOnReconfigure) {
  std::unique_ptr<fed::Method> method;
  const auto result =
      run_tiny(fed::CompressionConfig::parse("q8,topk=0.25"), 3, &method);
  EXPECT_TRUE(std::isfinite(result.average_accuracy()));
  auto* base = dynamic_cast<cl::MethodBase*>(method.get());
  ASSERT_NE(base, nullptr);
  // Sparsification leaves per-client residual energy behind after the run.
  EXPECT_GT(base->residual_count(), 0u);
  // Turning compression off mid-experiment must drop every residual: the
  // uncompressed path transmits deltas exactly, so stale residuals would
  // double-count the held-back energy.
  base->configure_compression(fed::CompressionConfig::parse("none"));
  EXPECT_EQ(base->residual_count(), 0u);
}

TEST(CompressRuntime, F16RunStaysFiniteAndSmaller) {
  const auto none = run_tiny(fed::CompressionConfig{}, 7);
  const auto f16 = run_tiny(fed::CompressionConfig::parse("f16"), 7);
  EXPECT_TRUE(std::isfinite(f16.average_accuracy()));
  EXPECT_GT(none.network.bytes_down,
            f16.network.bytes_down * 3 / 2);  // ~2x minus headers
  EXPECT_NEAR(f16.average_accuracy(), none.average_accuracy(), 10.0);
}

// ---- raw-equivalent accounting ---------------------------------------------

TEST(CompressAccounting, RawEquivMatchesUncompressedSize) {
  const auto state = sample_state(37);
  const auto raw_size = fed::serialized_size(state);
  for (const auto codec : {fed::Codec::kF16, fed::Codec::kQ8}) {
    const auto bytes = encode_state_bytes(state, codec);
    EXPECT_EQ(fed::raw_equiv_bytes(bytes), raw_size);
  }
  // Uncompressed payloads and unparseable garbage report their own size.
  util::ByteWriter writer;
  fed::serialize_state(state, writer);
  const auto plain = writer.take();
  EXPECT_EQ(fed::raw_equiv_bytes(plain), plain.size());
  const std::vector<std::uint8_t> garbage = {0x52, 0x46, 0x46};
  EXPECT_EQ(fed::raw_equiv_bytes(garbage), garbage.size());
  // Delta frames meter as the same-shaped f32 state, and the extras that
  // follow the frame count at face value.
  const std::vector<std::uint8_t> extras = {9, 8, 7, 6, 5};
  for (const char* spec : {"f16", "q8", "f16,topk=0.25", "q8,topk=0.25"}) {
    fed::ModelState delta = state;
    util::ByteWriter dw;
    fed::encode_delta(delta, fed::CompressionConfig::parse(spec), dw);
    for (const std::uint8_t b : extras) dw.write_pod(b);
    EXPECT_EQ(fed::raw_equiv_bytes(dw.bytes()), raw_size + extras.size())
        << spec;
  }
  // An index length whose byte count wraps u64 (2^62 * 4 == 0) must not
  // shorten the walk: the frame is rejected and meters at face value.
  util::ByteWriter w;
  w.write_u64(fed::kQuantMagic);
  w.write_pod<std::uint8_t>(2);         // codec q8
  w.write_pod<std::uint8_t>(1);         // kind delta
  w.write_u64(1);                       // one tensor
  w.write_u64(1);                       // rank
  w.write_u64(8);                       // dim
  w.write_pod<std::uint8_t>(1);         // mode top-k
  w.write_u64(3);                       // k
  w.write_u64(std::uint64_t{1} << 62);  // index length
  w.write_u64(0);                       // scale length
  w.write_u64(0);                       // q length
  const auto wrapped = w.take();
  ASSERT_EQ(wrapped.size(), 67u);
  util::ByteReader vreader(wrapped);
  std::string reason;
  EXPECT_FALSE(fed::validate_delta_frame(
      vreader, fed::ModelState{tensor::Tensor({8})}, &reason));
  EXPECT_EQ(fed::raw_equiv_bytes(wrapped), wrapped.size());
}

TEST(CompressAccounting, CacheRoundTripsCompressionFields) {
  fed::RunResult result;
  result.method_name = "Finetune";
  result.dataset_name = "CompressTest";
  result.compression = "q8,topk=0.1";
  result.network.bytes_down = 100;
  result.network.bytes_up = 50;
  result.network.bytes_down_raw_equiv = 390;
  result.network.bytes_up_raw_equiv = 385;
  util::ByteWriter writer;
  harness::serialize_run_result(result, writer);
  const auto bytes = writer.take();
  util::ByteReader reader(bytes);
  const auto loaded = harness::deserialize_run_result(reader);
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(loaded, result);
}
