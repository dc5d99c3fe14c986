#include "reffil/fed/compress.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "reffil/tensor/kernels_dispatch.hpp"
#include "reffil/tensor/quant.hpp"
#include "reffil/util/error.hpp"

namespace reffil::fed {

namespace quant = reffil::tensor::quant;
namespace kern = reffil::tensor::kern;

namespace {

constexpr std::uint8_t kKindState = 0;
constexpr std::uint8_t kKindDelta = 1;
constexpr std::uint8_t kModeDense = 0;
constexpr std::uint8_t kModeTopk = 1;

/// Shortest %g rendering (same canonicalization as FaultProfile/DesConfig
/// tags, so equal configs always produce equal cache keys).
std::string format_knob(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

/// A usable quantization scale: finite, non-negative, and small enough that
/// scale * 127 (the largest decodable magnitude) stays finite — so every
/// decoded value upholds the Tensor finiteness invariant.
bool scale_ok(float s) {
  return std::isfinite(s) && s >= 0.0f && std::isfinite(s * 127.0f);
}

/// |x[i]| as ordered sign-stripped bits: unsigned comparison ranks
/// magnitudes like float comparison would, but stays a strict total order
/// even on NaN (which sorts above Inf) — nth_element must never see an
/// inconsistent comparator.
std::uint32_t magnitude_bits(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits & 0x7FFFFFFFu;
}

/// Deterministic top-k by magnitude: k largest |x[i]|, magnitude ties
/// broken by the lower index, result sorted ascending by index.
std::vector<std::uint32_t> topk_indices(const float* x, std::size_t n,
                                        std::size_t k) {
  std::vector<std::uint32_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0u);
  std::nth_element(idx.begin(),
                   idx.begin() + static_cast<std::ptrdiff_t>(k), idx.end(),
                   [x](std::uint32_t a, std::uint32_t b) {
                     const std::uint32_t ma = magnitude_bits(x[a]);
                     const std::uint32_t mb = magnitude_bits(x[b]);
                     return ma != mb ? ma > mb : a < b;
                   });
  idx.resize(k);
  std::sort(idx.begin(), idx.end());
  return idx;
}

/// Encode `n` values from `x` into the writer under `codec`, and (when
/// `decoded` is non-null) also produce what a decoder will reconstruct —
/// computed from the same encoded bytes, so the client-side residual and
/// the broadcast reference are exact by construction.
void encode_values(const float* x, std::size_t n, Codec codec,
                   util::ByteWriter& writer, float* decoded) {
  const kern::Kernels& k = kern::active();
  if (codec == Codec::kQ8) {
    std::vector<float> scales(quant::q8_num_blocks(n));
    std::vector<std::int8_t> q(n);
    k.q8_encode(x, q.data(), scales.data(), n);
    writer.write_pod_vector(scales);
    writer.write_pod_vector(q);
    if (decoded != nullptr) k.q8_decode(q.data(), scales.data(), decoded, n);
  } else {
    std::vector<std::uint16_t> h(n);
    quant::f16_encode_span(x, h.data(), n);
    writer.write_pod_vector(h);
    if (decoded != nullptr) quant::f16_decode_span(h.data(), decoded, n);
  }
}

template <typename T>
T load(const std::uint8_t* p, std::size_t i) {
  T v;
  std::memcpy(&v, p + i * sizeof(T), sizeof(T));
  return v;
}

/// One tensor of a compressed frame as the walker hands it to a visitor:
/// its shape, and pointers into the payload (byte-aligned only, valid for
/// the payload's lifetime) for the top-k indices, q8 scales and packed
/// values. Every field has passed every check of walk_frame.
struct TensorView {
  Codec codec = Codec::kNone;
  tensor::Shape shape;
  std::size_t numel = 1;
  std::size_t count = 0;                 // values carried: numel, or k
  const std::uint8_t* idx = nullptr;     // k u32 indices; null when dense
  const std::uint8_t* scales = nullptr;  // q8: q8_num_blocks(count) f32
  const std::uint8_t* values = nullptr;  // q8: count i8; f16: count u16

  std::uint32_t index(std::size_t j) const {
    return load<std::uint32_t>(idx, j);
  }
  std::uint16_t half(std::size_t j) const {
    return load<std::uint16_t>(values, j);
  }
  const std::int8_t* q8() const {
    return reinterpret_cast<const std::int8_t*>(values);
  }
  /// The q8 block scales, copied out of the payload into f32 alignment.
  void copy_scales(std::vector<float>& out) const {
    out.resize(quant::q8_num_blocks(count));
    std::memcpy(out.data(), scales, out.size() * sizeof(float));
  }
};

constexpr std::uint8_t kKindAny = 0xFF;

/// The one reader of the compressed frame format (compress.hpp). Checks the
/// magic, codec, kind (`want_kind`, or either under kKindAny) and tensor
/// count, then per tensor the rank and dims, the top-k count, index order
/// and range, every length field against the tensor header, and that every
/// scale and half is finite — all before `visit` sees the tensor, so a
/// visitor allocates only for bytes proven present. Throws
/// SerializationError on the first violation; on success the reader stands
/// after the frame (at the method extras).
template <typename Visit>
void walk_frame(util::ByteReader& reader, std::uint8_t want_kind,
                Visit&& visit) {
  constexpr std::size_t kMaxNumel = std::size_t{1} << 40;
  if (reader.remaining() < sizeof(std::uint64_t) ||
      reader.read_u64() != kQuantMagic) {
    throw SerializationError("payload is not a compressed frame");
  }
  TensorView view;
  const auto codec_id = reader.read_pod<std::uint8_t>();
  if (codec_id != static_cast<std::uint8_t>(Codec::kF16) &&
      codec_id != static_cast<std::uint8_t>(Codec::kQ8)) {
    throw SerializationError("unknown compression codec id");
  }
  view.codec = static_cast<Codec>(codec_id);
  const auto kind = reader.read_pod<std::uint8_t>();
  if (kind > kKindDelta || (want_kind != kKindAny && kind != want_kind)) {
    throw SerializationError(
        "wrong compressed frame kind: a broadcast is a dense state frame, "
        "a client update a delta frame");
  }
  const auto n = reader.read_u64();
  if (kind == kKindDelta && n == 0) {
    throw SerializationError("empty delta frame");
  }
  // rank u64 + a value length u64 is the least a tensor can occupy, so
  // this caps the walk itself before it starts.
  if (n > 1'000'000 || n > reader.remaining() / 16) {
    throw SerializationError("compressed tensor count exceeds what the "
                             "remaining bytes could encode");
  }
  for (std::uint64_t t = 0; t < n; ++t) {
    const auto rank = reader.read_u64();
    if (rank > tensor::Shape::kMaxRank) {
      throw SerializationError("implausible tensor rank in compressed frame");
    }
    view.shape.clear();
    view.numel = 1;
    for (std::size_t r = 0; r < rank; ++r) {
      const auto dim = reader.read_u64();
      if (dim == 0 || dim > kMaxNumel || view.numel > kMaxNumel / dim) {
        throw SerializationError("implausible tensor dims in compressed frame");
      }
      view.shape.push_back(dim);
      view.numel *= dim;
    }
    view.count = view.numel;
    view.idx = nullptr;
    const auto mode = kind == kKindDelta ? reader.read_pod<std::uint8_t>()
                                         : kModeDense;
    if (mode == kModeTopk) {
      const auto k = reader.read_u64();
      if (k == 0 || k >= view.numel) {
        throw SerializationError("top-k count out of range");
      }
      if (reader.read_u64() != k) {
        throw SerializationError(
            "top-k index count disagrees with the claimed k");
      }
      view.idx = reader.view(k * sizeof(std::uint32_t));
      for (std::size_t j = 0; j < k; ++j) {
        const std::uint32_t v = view.index(j);
        if (v >= view.numel) {
          throw SerializationError("top-k index out of range");
        }
        if (j != 0 && v <= view.index(j - 1)) {
          throw SerializationError("top-k indices not strictly increasing");
        }
      }
      view.count = k;
    } else if (mode != kModeDense) {
      throw SerializationError("unknown delta sparsity mode");
    }
    if (view.codec == Codec::kQ8) {
      const std::size_t blocks = quant::q8_num_blocks(view.count);
      if (reader.read_u64() != blocks) {
        throw SerializationError("scale count disagrees with value count");
      }
      view.scales = reader.view(blocks * sizeof(float));
      for (std::size_t b = 0; b < blocks; ++b) {
        if (!scale_ok(load<float>(view.scales, b))) {
          throw SerializationError("unusable quantization scale");
        }
      }
      if (reader.read_u64() != view.count) {
        throw SerializationError(
            "quantized byte count disagrees with value count");
      }
      view.values = reader.view(view.count);
    } else {
      if (reader.read_u64() != view.count) {
        throw SerializationError("half count disagrees with value count");
      }
      view.values = reader.view(view.count * sizeof(std::uint16_t));
      for (std::size_t j = 0; j < view.count; ++j) {
        if (!quant::f16_is_finite(view.half(j))) {
          throw SerializationError("non-finite f16 value in compressed frame");
        }
      }
    }
    visit(view);
  }
}

/// walk_frame over a delta frame that must have `model`'s tensor count and
/// every one of its shapes, checked before `visit` sees each tensor.
template <typename Visit>
void walk_delta_shaped(util::ByteReader& reader, const ModelState& model,
                       Visit&& visit) {
  std::size_t t = 0;
  walk_frame(reader, kKindDelta, [&](const TensorView& v) {
    if (t == model.size() || v.shape != model[t].shape()) {
      throw SerializationError(
          "delta tensor shape disagrees with the global model");
    }
    ++t;
    visit(v);
  });
  if (t != model.size()) {
    throw SerializationError(
        "delta tensor count disagrees with the global model");
  }
}

}  // namespace

CompressionConfig CompressionConfig::parse(const std::string& spec) {
  CompressionConfig config;
  if (spec.empty()) return config;
  const std::size_t codec_end = spec.find(',');
  const std::string codec_name =
      spec.substr(0, codec_end == std::string::npos ? spec.size() : codec_end);
  if (codec_name == "none") {
    config.codec = Codec::kNone;
  } else if (codec_name == "f16") {
    config.codec = Codec::kF16;
  } else if (codec_name == "q8") {
    config.codec = Codec::kQ8;
  } else {
    throw ConfigError("unknown compression codec '" + codec_name +
                      "' (known: none, f16, q8)");
  }
  std::size_t pos = codec_end == std::string::npos ? spec.size() : codec_end + 1;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      throw ConfigError("compression spec entry '" + entry +
                        "' is not key=value");
    }
    const std::string key = entry.substr(0, eq);
    const std::string value = entry.substr(eq + 1);
    char* parse_end = nullptr;
    const double v = std::strtod(value.c_str(), &parse_end);
    if (parse_end == value.c_str() || *parse_end != '\0' || !std::isfinite(v)) {
      throw ConfigError("compression value '" + value + "' for '" + key +
                        "' is not a finite number");
    }
    if (key == "topk") {
      if (v <= 0.0 || v > 1.0) {
        throw ConfigError("compression topk must be in (0, 1]");
      }
      config.topk = v;
    } else {
      throw ConfigError("unknown compression key '" + key + "' (known: topk)");
    }
  }
  if (!config.enabled() && config.topk != 1.0) {
    throw ConfigError("compression topk requires a codec (f16 or q8)");
  }
  return config;
}

std::string CompressionConfig::to_string() const {
  if (!enabled()) return "none";
  std::string s = codec == Codec::kF16 ? "f16" : "q8";
  if (topk < 1.0) s += ",topk=" + format_knob(topk);
  return s;
}

std::string CompressionConfig::tag() const {
  return enabled() ? "compress:" + to_string() : std::string();
}

bool is_compressed(const std::vector<std::uint8_t>& payload) {
  if (payload.size() < sizeof(std::uint64_t)) return false;
  std::uint64_t magic;
  std::memcpy(&magic, payload.data(), sizeof(magic));
  return magic == kQuantMagic;
}

std::size_t encoded_state_size(const ModelState& state, Codec codec) {
  // magic + codec + kind + tensor count.
  std::size_t total = 8 + 1 + 1 + 8;
  for (const auto& t : state) {
    total += sizeof(std::uint64_t) * (1 + t.rank());
    if (codec == Codec::kQ8) {
      total += 16 + quant::q8_encoded_bytes(t.numel());
    } else {
      total += 8 + 2 * t.numel();
    }
  }
  return total;
}

std::size_t encoded_delta_size(const ModelState& delta,
                               const CompressionConfig& config) {
  // Dense upper bound + the per-tensor mode byte; top-k tensors only shrink.
  std::size_t total = encoded_state_size(delta, config.codec);
  return total + delta.size();
}

ModelState encode_state(const ModelState& state, Codec codec,
                        util::ByteWriter& writer) {
  REFFIL_CHECK_MSG(codec != Codec::kNone, "encode_state: no codec");
  writer.write_u64(kQuantMagic);
  writer.write_pod(static_cast<std::uint8_t>(codec));
  writer.write_pod(kKindState);
  writer.write_u64(state.size());
  ModelState reference;
  reference.reserve(state.size());
  for (const auto& t : state) {
    writer.write_u64(t.rank());
    for (std::size_t dim : t.shape()) writer.write_u64(dim);
    tensor::Tensor decoded(t.shape());
    encode_values(t.begin(), t.numel(), codec, writer, decoded.begin());
    reference.push_back(std::move(decoded));
  }
  return reference;
}

ModelState deserialize_state_any(util::ByteReader& reader) {
  // Dispatch on the first eight bytes without consuming them: each format's
  // reader checks its own header.
  util::ByteReader peek = reader;
  if (peek.read_u64() != kQuantMagic) return deserialize_state(reader);
  ModelState state;
  walk_frame(reader, kKindState, [&state](const TensorView& v) {
    tensor::Tensor out(v.shape);
    if (v.codec == Codec::kQ8) {
      std::vector<float> scales;
      v.copy_scales(scales);
      kern::active().q8_decode(v.q8(), scales.data(), out.begin(), v.count);
    } else {
      for (std::size_t i = 0; i < v.count; ++i) {
        out.begin()[i] = quant::f16_to_f32(v.half(i));
      }
    }
    state.push_back(std::move(out));
  });
  return state;
}

void encode_delta(ModelState& delta, const CompressionConfig& config,
                  util::ByteWriter& writer) {
  REFFIL_CHECK_MSG(config.enabled(), "encode_delta: compression disabled");
  writer.write_u64(kQuantMagic);
  writer.write_pod(static_cast<std::uint8_t>(config.codec));
  writer.write_pod(kKindDelta);
  writer.write_u64(delta.size());
  for (auto& t : delta) {
    const std::size_t n = t.numel();
    writer.write_u64(t.rank());
    for (std::size_t dim : t.shape()) writer.write_u64(dim);
    std::size_t k = n;
    if (config.topk < 1.0) {
      k = static_cast<std::size_t>(
          std::ceil(config.topk * static_cast<double>(n)));
      k = std::clamp<std::size_t>(k, 1, n);
    }
    float* x = t.begin();
    if (k >= n) {
      writer.write_pod(kModeDense);
      std::vector<float> transmitted(n);
      encode_values(x, n, config.codec, writer, transmitted.data());
      // Error feedback: keep exactly what the frame does NOT deliver.
      for (std::size_t i = 0; i < n; ++i) x[i] -= transmitted[i];
    } else {
      REFFIL_CHECK_MSG(n <= UINT32_MAX,
                       "tensor too large for 32-bit top-k indices");
      writer.write_pod(kModeTopk);
      const std::vector<std::uint32_t> idx = topk_indices(x, n, k);
      writer.write_u64(k);
      writer.write_pod_vector(idx);
      std::vector<float> gathered(k);
      for (std::size_t j = 0; j < k; ++j) gathered[j] = x[idx[j]];
      std::vector<float> transmitted(k);
      encode_values(gathered.data(), k, config.codec, writer,
                    transmitted.data());
      // Untransmitted entries keep their full value in the residual.
      for (std::size_t j = 0; j < k; ++j) x[idx[j]] -= transmitted[j];
    }
  }
}

void accumulate_delta(util::ByteReader& reader, float weight,
                      ModelState& acc) {
  // Walk the whole frame, every shape checked against `acc`, before folding
  // anything: a throw mid-fold would leave a half-folded accumulator, and
  // the streaming sink quarantines single updates by catching exactly that.
  std::vector<TensorView> views;
  views.reserve(acc.size());
  walk_delta_shaped(reader, acc,
                    [&views](const TensorView& v) { views.push_back(v); });
  std::vector<float> scales;
  for (std::size_t t = 0; t < views.size(); ++t) {
    const TensorView& v = views[t];
    float* y = acc[t].begin();
    if (v.codec == Codec::kQ8) v.copy_scales(scales);
    if (v.idx == nullptr && v.codec == Codec::kQ8) {
      // Dequant-free: scale_block * int8 streams straight from the wire
      // bytes into the f32 accumulator.
      kern::active().q8_axpy(y, weight, v.q8(), scales.data(), v.count);
    } else if (v.idx == nullptr) {
      for (std::size_t i = 0; i < v.count; ++i) {
        y[i] += weight * quant::f16_to_f32(v.half(i));
      }
    } else if (v.codec == Codec::kQ8) {
      float c = 0.0f;
      for (std::size_t j = 0; j < v.count; ++j) {
        if (j % quant::kQ8Block == 0) c = weight * scales[j / quant::kQ8Block];
        y[v.index(j)] += c * static_cast<float>(v.q8()[j]);
      }
    } else {
      for (std::size_t j = 0; j < v.count; ++j) {
        y[v.index(j)] += weight * quant::f16_to_f32(v.half(j));
      }
    }
  }
}

bool validate_delta_frame(util::ByteReader& reader, const ModelState& model,
                          std::string* reason) {
  try {
    walk_delta_shaped(reader, model, [](const TensorView&) {});
    return true;
  } catch (const Error& e) {
    if (reason) *reason = e.what();
    return false;
  }
}

std::uint64_t raw_equiv_bytes(const std::vector<std::uint8_t>& payload) {
  if (!is_compressed(payload)) return payload.size();
  // The uncompressed equivalent: u64 tensor count, then per tensor the f32
  // serialization (rank + dims + length-prefixed data). Whatever follows the
  // frame (method extras) already travels uncompressed, at face value.
  std::uint64_t total = sizeof(std::uint64_t);
  util::ByteReader reader(payload);
  try {
    walk_frame(reader, kKindAny, [&total](const TensorView& v) {
      total += sizeof(std::uint64_t) * (2 + v.shape.size()) +
               sizeof(float) * v.numel;
    });
  } catch (const Error&) {
    return payload.size();
  }
  return total + reader.remaining();
}

}  // namespace reffil::fed
