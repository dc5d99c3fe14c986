// Fault-injecting simulated transport for the federated runtime.
//
// The paper's federation assumes every selected client returns a well-formed
// update. Real federations do not get that luxury: payloads arrive bit-flipped,
// truncated or NaN-poisoned, frames are duplicated, stragglers miss the round
// deadline. This layer sits between FederatedRunner and Method in both
// directions (broadcast down, update up) and simulates those faults
// deterministically: every draw comes from one seeded Rng consumed on the
// server thread in participant order, so a run is exactly reproducible from
// RunConfig::seed and independent of thread scheduling. All latency is
// simulated arithmetic — no sleeping, no wall-clock dependence.
//
// Wire contract: payloads travel framed (magic, length, FNV-1a checksum).
// A frame that fails validation is retransmitted with exponential backoff up
// to a bounded per-message retry budget; a message whose every frame arrives
// corrupt — or whose payload fails server-side validation (undecodable /
// non-finite tensors) — is quarantined, never aggregated, and never aborts
// the round. A message whose (simulated) arrival time exceeds the round
// deadline is cut off as a straggler. The zero-fault default profile is
// inert: FaultProfile{}.enabled() is false and the runner bypasses this
// layer entirely, keeping the fault-free path bitwise-identical.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "reffil/util/rng.hpp"

namespace reffil::fed {

/// Knobs of the simulated fault model. All probabilities are per delivery
/// attempt (corrupt) or per message (poison, duplicate); times are simulated
/// seconds. The default-constructed profile injects nothing.
struct FaultProfile {
  /// P(a delivery attempt arrives damaged on the wire: bit flips, truncation,
  /// or a NaN scribble over the framed bytes). Wire damage always breaks the
  /// frame checksum, so it is detected and retried.
  double corrupt = 0.0;
  /// P(an update payload is corrupted *at the source*, before framing — the
  /// checksum is valid but the content carries NaN-poisoned regions). Only
  /// server-side payload validation catches this; retries cannot help, so a
  /// poisoned update is quarantined. Uplink only.
  double poison = 0.0;
  /// P(a successfully delivered frame arrives a second time). The duplicate
  /// is metered as retransmitted bytes and deduplicated by the server.
  double duplicate = 0.0;
  /// Per-attempt simulated latency: latency_s + jitter_s * U[0,1).
  double latency_s = 0.0;
  double jitter_s = 0.0;
  /// Server-side round deadline (straggler cutoff); 0 disables it. A message
  /// whose cumulative simulated time passes the deadline is timed out.
  double deadline_s = 0.0;
  /// Retransmission budget per message (attempts = 1 + max_retries), at
  /// most kMaxRetries: the last backoff factor 2^(max_retries-1) must fit
  /// in 32 bits.
  std::uint32_t max_retries = 2;
  static constexpr std::uint32_t kMaxRetries = 32;
  /// Exponential backoff before retry k: backoff_s * 2^(k-1) simulated
  /// seconds, counted against the deadline.
  double backoff_s = 0.0;

  /// True when any fault can actually fire. The runner skips the transport
  /// entirely when false, so the default profile costs nothing and changes
  /// nothing (bitwise-identical results).
  bool enabled() const {
    return corrupt > 0.0 || poison > 0.0 || duplicate > 0.0 || deadline_s > 0.0;
  }

  /// Canonical cache-key tag. Empty for a disabled profile so existing
  /// zero-fault cache keys stay stable; otherwise a stable rendering of
  /// every knob (two profiles collide only if they are identical).
  std::string tag() const;

  /// Parse a comma-separated "key=value" spec, e.g.
  ///   "corrupt=0.2,poison=0.05,dup=0.1,latency=0.05,jitter=0.02,
  ///    deadline=0.5,retries=3,backoff=0.01"
  /// Unknown keys, unparsable values and a retries value that is not a
  /// whole number in [0, kMaxRetries] throw ConfigError. An empty spec
  /// yields the default (disabled) profile.
  static FaultProfile parse(const std::string& spec);
};

class Transport {
 public:
  /// Seed should be derived from RunConfig::seed so the whole fault sequence
  /// is reproducible from the experiment seed alone. Throws ConfigError when
  /// profile.max_retries exceeds FaultProfile::kMaxRetries.
  Transport(FaultProfile profile, std::uint64_t seed);

  /// Wrap a payload in the wire frame: magic, payload length, FNV-1a-64
  /// checksum, payload bytes.
  static std::vector<std::uint8_t> frame(const std::vector<std::uint8_t>& payload);

  /// True when `framed` is an intact frame (magic, exact length, checksum).
  /// Allocation-free — the hot path of every delivery attempt.
  static bool frame_intact(const std::vector<std::uint8_t>& framed);

  /// Extract the payload from an intact frame; nullopt when damaged.
  static std::optional<std::vector<std::uint8_t>> unframe(
      const std::vector<std::uint8_t>& framed);

  /// Server-side payload validation hook: return false (with a reason) to
  /// quarantine the message. Runs only on frames that already passed the
  /// checksum, i.e. it exists to catch source-corrupted content.
  using Validator =
      std::function<bool(const std::vector<std::uint8_t>&, std::string*)>;

  enum class Outcome : std::uint8_t {
    kDelivered,    ///< frame intact and payload validated (possibly after retries)
    kTimedOut,     ///< simulated arrival time passed the round deadline
    kQuarantined,  ///< retry budget exhausted on corrupt frames, or payload
                   ///< rejected by validation (retries cannot fix the source)
  };

  /// Everything the runner needs to meter one message's delivery.
  struct Delivery {
    Outcome outcome = Outcome::kDelivered;
    std::uint32_t retries = 0;     ///< retransmissions beyond the first attempt
    std::uint32_t duplicates = 0;  ///< extra deliveries of the accepted frame
    std::uint64_t bytes_transmitted = 0;    ///< wire bytes, all attempts
    std::uint64_t bytes_retransmitted = 0;  ///< of which beyond the first
    double sim_seconds = 0.0;  ///< simulated completion (or give-up) time
    std::string reason;        ///< failure detail for trace events
    /// Set only when a source-poisoned payload was delivered anyway (the
    /// validator accepted it); the server must then aggregate these bytes,
    /// not the sender's originals. Empty in every other case.
    std::vector<std::uint8_t> payload;
  };

  /// Deliver a pre-framed broadcast to one client (wire faults only; the
  /// caller frames once and fans out, so per-client attempts reuse the same
  /// bytes). Broadcasts go out at the start of the round, so transmission
  /// starts at simulated time 0 and every attempt counts against the round
  /// deadline from there.
  Delivery send_broadcast(const std::vector<std::uint8_t>& framed);

  /// Deliver one client update to the server: optional source poisoning,
  /// framing, wire faults, then `validator` on the received payload.
  /// `start_s` is the simulated clock offset at which transmission begins,
  /// counted against the round deadline: the runner passes the client's
  /// upload delay (ClientAssignment::upload_delay_s, 0 in dense runs).
  Delivery send_update(const std::vector<std::uint8_t>& payload,
                       const Validator& validator, double start_s = 0.0);

  const FaultProfile& profile() const { return profile_; }

 private:
  Delivery deliver(const std::vector<std::uint8_t>& framed,
                   const Validator& validator, double start_s);
  /// One wire-corruption event applied to a copy of the framed bytes
  /// (bit flips / truncation / NaN scribble — all checksum-breaking).
  std::vector<std::uint8_t> corrupt_copy(const std::vector<std::uint8_t>& framed);
  /// Overwrite an aligned region of the payload with quiet-NaN floats,
  /// leaving the framing (computed afterwards) valid.
  void poison_floats(std::vector<std::uint8_t>& payload);

  FaultProfile profile_;
  util::Rng rng_;
};

const char* to_string(Transport::Outcome outcome);

/// L2 norm of the ModelState serialized in `payload`, for the health
/// monitor's update-norm drift detector (fed/health.hpp). Returns nullopt
/// when no plain uncompressed state leads the payload — undecodable bytes, a
/// compressed delta frame (whose magnitude is not comparable to a full
/// state) — or when the norm is non-finite (that feeds quarantine, not drift
/// statistics). Method payloads carrying extras after the state contribute
/// the norm of the leading state. Purely observational: never throws, never
/// mutates.
std::optional<double> update_state_l2_norm(
    const std::vector<std::uint8_t>& payload);

}  // namespace reffil::fed
