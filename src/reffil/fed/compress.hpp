// Compressed federated wire format (DESIGN.md §13).
//
// Both directions of the federation can ship quantized frames instead of
// raw f32 states:
//
//  * Downlink: the server encodes the global state ONCE per round with a
//    dense codec frame (f16 halves or Q8 int8 blocks, tensor/quant.hpp) and
//    every participant decodes it — bytes_down drops ~2x (f16) / ~3.6x (q8).
//  * Uplink: clients send their delta vs. the decoded broadcast, top-k
//    sparsified per tensor and codec-packed, with per-client error-feedback
//    residuals (held server-side in MethodBase, keyed by client id) so the
//    energy dropped by sparsification + quantization re-enters the stream
//    on the client's next participating round instead of being lost.
//  * Aggregation: Q8 delta frames fold into the f32 accumulator through the
//    dequant-free q8_axpy dispatch kernel — scale_block * int8 streams
//    straight out of the wire bytes; the server never materializes a
//    dequantized update.
//
// A compressed frame opens with kQuantMagic, a u64 that no uncompressed
// state can start with (deserialize_state rejects tensor counts above one
// million), so deserialize_state_any() distinguishes the two formats from
// the first eight bytes and `compression=none` runs keep byte-identical
// payloads AND decode paths.
//
// Frame layout (little-endian, after the magic):
//   u8  codec  (1 = f16, 2 = q8)
//   u8  kind   (0 = dense state, 1 = delta)
//   u64 tensor count
//   per tensor:
//     u64 rank (<= 8), u64 dims[rank] (all nonzero)
//     kind 1 only: u8 mode (0 = dense, 1 = top-k)
//     dense values over numel / top-k: u64 k, pod_vector<u32> idx (length
//       must equal k; strictly increasing, < numel), values over the k
//       gathered entries
//     value packing (arrays are u64-length-prefixed pod_vectors whose
//       lengths must agree with the tensor header — disagreement rejects):
//       q8 = pod_vector<f32> scales[ceil(n/32)] ++ pod_vector<i8> q[n]
//       f16 = pod_vector<u16> h[n]
// Method extras (prompt groups, EWC fisher, ...) follow the frame
// uncompressed, exactly as they follow an uncompressed state.
//
// One strict walker in compress.cpp is the only reader of this format, and
// it mirrors the deserialize_state hostile-frame hardening: claimed counts
// are bounded by the bytes actually remaining BEFORE any allocation, indices
// are range- and order-checked, and scales/halves must be finite (decoded
// states uphold Tensor::deserialize's finiteness contract). The broadcast
// decode, the transport validator, the fold and the raw-byte meter are its
// visitors, so all four accept exactly the same frames.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "reffil/fed/fedavg.hpp"
#include "reffil/util/byte_buffer.hpp"

namespace reffil::fed {

enum class Codec : std::uint8_t { kNone = 0, kF16 = 1, kQ8 = 2 };

/// Wire compression knobs, parsed from a `--compress` spec string and
/// canonicalized into a cache-key tag exactly like FaultProfile/DesConfig.
struct CompressionConfig {
  Codec codec = Codec::kNone;
  /// Fraction of each delta tensor's entries uploaded per round, (0, 1].
  /// 1 keeps deltas dense; the broadcast is always dense.
  double topk = 1.0;

  bool enabled() const { return codec != Codec::kNone; }

  /// Parse "none" | "f16" | "q8" with optional ",topk=F" (F in (0, 1]).
  /// Unknown codecs/keys or out-of-range values throw ConfigError.
  static CompressionConfig parse(const std::string& spec);

  /// Canonical spec string: "none", "f16", "q8,topk=0.1", ... — what
  /// RunResult::compression and `reffil_run --json` report.
  std::string to_string() const;

  /// Cache-key component: empty when disabled (uncompressed cache keys stay
  /// byte-identical to every earlier release), else "compress:<to_string>".
  std::string tag() const;
};

/// Leading u64 of every compressed frame ("RFFILZQ1" little-endian). Far
/// above the one-million tensor-count bound, so it can never alias a valid
/// uncompressed state header.
inline constexpr std::uint64_t kQuantMagic = 0x31515A4C49464652ULL;

/// True when the payload opens with kQuantMagic.
bool is_compressed(const std::vector<std::uint8_t>& payload);

/// Exact encoded size of a dense state frame under `codec` (reserve fodder).
std::size_t encoded_state_size(const ModelState& state, Codec codec);

/// Upper bound on the encoded delta frame size (exact when every tensor
/// stays dense; top-k tensors come out smaller).
std::size_t encoded_delta_size(const ModelState& delta,
                               const CompressionConfig& config);

/// Write the dense compressed frame for `state` and return the DECODED
/// reference — the state every client will reconstruct, which the server
/// must keep as the base the aggregated deltas are applied to.
ModelState encode_state(const ModelState& state, Codec codec,
                        util::ByteWriter& writer);

/// Decode either wire format: a compressed dense-state frame when the first
/// u64 is kQuantMagic, the uncompressed format otherwise (byte-for-byte the
/// historical deserialize_state path). Throws SerializationError on delta
/// frames — a broadcast can never be a delta.
ModelState deserialize_state_any(util::ByteReader& reader);

/// Encode `delta` as a delta frame (per-tensor top-k + codec). On return
/// `delta` holds the error-feedback residual: entry-wise original minus
/// what the frame transmits (untransmitted entries keep their full value).
void encode_delta(ModelState& delta, const CompressionConfig& config,
                  util::ByteWriter& writer);

/// Fold `weight` times the delta frame at `reader` into `acc` (shapes must
/// match) without materializing the dequantized update: dense q8 tensors
/// stream through the dispatched q8_axpy, top-k entries scatter-accumulate.
/// One walk checks the whole frame (everything validate_delta_frame checks
/// with `acc` as the model) BEFORE any accumulation, so a throw
/// (SerializationError — the streaming sink's quarantine path) leaves `acc`
/// untouched. Consumes exactly the frame, leaving the reader at the method
/// extras.
void accumulate_delta(util::ByteReader& reader, float weight, ModelState& acc);

/// The update reader's check of a delta frame: the strict walk with nothing
/// done per tensor, so it allocates nothing for the frame — magic/codec/
/// kind, per-tensor bounds vs. the bytes actually remaining, finite scales/
/// halves, ordered in-range top-k indices, and `model`'s tensor count and
/// shapes. Accepts exactly the frames accumulate_delta folds into `model`.
/// Leaves the reader positioned after the frame (method extras) on success;
/// never throws.
bool validate_delta_frame(util::ByteReader& reader, const ModelState& model,
                          std::string* reason);

/// The f32-serialized byte count the payload's logical content would have
/// cost uncompressed: payload.size() for uncompressed payloads; for
/// compressed frames (state or delta), the raw state size implied by the
/// tensor headers plus the trailing extras bytes. Runs the same strict walk
/// as the decoders — allocates nothing for the frame's content, and returns
/// payload.size() for any frame that walk rejects.
std::uint64_t raw_equiv_bytes(const std::vector<std::uint8_t>& payload);

}  // namespace reffil::fed
