#include "reffil/fed/transport.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "reffil/fed/fedavg.hpp"
#include "reffil/util/byte_buffer.hpp"
#include "reffil/util/error.hpp"

namespace reffil::fed {

namespace {

constexpr std::uint32_t kFrameMagic = 0x50544652u;  // "RFTP"
constexpr std::size_t kFrameHeader = 4 + 8 + 8;     // magic, length, checksum

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

// %g keeps the tag short and canonical (no trailing zeros) for any knob
// value a parse() round-trip can produce.
std::string format_knob(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", v);
  return buffer;
}

}  // namespace

std::string FaultProfile::tag() const {
  if (!enabled()) return "";
  return "faults:c" + format_knob(corrupt) + ",p" + format_knob(poison) +
         ",d" + format_knob(duplicate) + ",l" + format_knob(latency_s) +
         ",j" + format_knob(jitter_s) + ",dl" + format_knob(deadline_s) +
         ",r" + std::to_string(max_retries) + ",b" + format_knob(backoff_s);
}

FaultProfile FaultProfile::parse(const std::string& spec) {
  FaultProfile profile;
  std::size_t begin = 0;
  while (begin < spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(begin, end - begin);
    begin = end + 1;
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      throw ConfigError("fault profile entry '" + entry + "' is not key=value");
    }
    const std::string key = entry.substr(0, eq);
    const std::string value = entry.substr(eq + 1);
    char* parse_end = nullptr;
    const double v = std::strtod(value.c_str(), &parse_end);
    if (parse_end == value.c_str() || *parse_end != '\0' || !std::isfinite(v) ||
        v < 0.0) {
      throw ConfigError("fault profile value '" + value + "' for '" + key +
                        "' is not a non-negative number");
    }
    if (key == "corrupt") {
      profile.corrupt = v;
    } else if (key == "poison") {
      profile.poison = v;
    } else if (key == "dup" || key == "duplicate") {
      profile.duplicate = v;
    } else if (key == "latency") {
      profile.latency_s = v;
    } else if (key == "jitter") {
      profile.jitter_s = v;
    } else if (key == "deadline") {
      profile.deadline_s = v;
    } else if (key == "retries") {
      profile.max_retries = static_cast<std::uint32_t>(
          spec_count(v, "fault profile retries", kMaxRetries));
    } else if (key == "backoff") {
      profile.backoff_s = v;
    } else {
      throw ConfigError("unknown fault profile key '" + key +
                        "' (known: corrupt, poison, dup, latency, jitter, "
                        "deadline, retries, backoff)");
    }
  }
  if (profile.corrupt > 1.0 || profile.poison > 1.0 || profile.duplicate > 1.0) {
    throw ConfigError("fault probabilities must be <= 1");
  }
  return profile;
}

Transport::Transport(FaultProfile profile, std::uint64_t seed)
    : profile_(profile), rng_(seed) {
  if (profile_.max_retries > FaultProfile::kMaxRetries) {
    throw ConfigError("fault profile retries " +
                      std::to_string(profile_.max_retries) + " exceeds " +
                      std::to_string(FaultProfile::kMaxRetries));
  }
}

std::vector<std::uint8_t> Transport::frame(
    const std::vector<std::uint8_t>& payload) {
  util::ByteWriter writer;
  writer.write_u32(kFrameMagic);
  writer.write_u64(payload.size());
  writer.write_u64(fnv1a64(payload.data(), payload.size()));
  std::vector<std::uint8_t> framed = writer.take();
  framed.insert(framed.end(), payload.begin(), payload.end());
  return framed;
}

bool Transport::frame_intact(const std::vector<std::uint8_t>& framed) {
  if (framed.size() < kFrameHeader) return false;
  std::uint32_t magic = 0;
  std::uint64_t length = 0, checksum = 0;
  std::memcpy(&magic, framed.data(), sizeof(magic));
  std::memcpy(&length, framed.data() + 4, sizeof(length));
  std::memcpy(&checksum, framed.data() + 12, sizeof(checksum));
  if (magic != kFrameMagic) return false;
  if (length != framed.size() - kFrameHeader) return false;
  return checksum == fnv1a64(framed.data() + kFrameHeader, length);
}

std::optional<std::vector<std::uint8_t>> Transport::unframe(
    const std::vector<std::uint8_t>& framed) {
  if (!frame_intact(framed)) return std::nullopt;
  return std::vector<std::uint8_t>(framed.begin() + kFrameHeader, framed.end());
}

std::vector<std::uint8_t> Transport::corrupt_copy(
    const std::vector<std::uint8_t>& framed) {
  std::vector<std::uint8_t> damaged = framed;
  switch (rng_.uniform_index(3)) {
    case 0: {  // bit flips
      const std::size_t flips = 1 + rng_.uniform_index(8);
      for (std::size_t f = 0; f < flips; ++f) {
        const std::size_t pos = rng_.uniform_index(damaged.size());
        damaged[pos] ^= static_cast<std::uint8_t>(1u << rng_.uniform_index(8));
      }
      break;
    }
    case 1: {  // truncation
      damaged.resize(rng_.uniform_index(damaged.size()));
      break;
    }
    default: {  // NaN scribble over a 4-byte-aligned span of the payload
      if (damaged.size() < kFrameHeader + sizeof(float)) {
        damaged.resize(damaged.size() / 2);
        break;
      }
      const std::size_t floats = (damaged.size() - kFrameHeader) / sizeof(float);
      const std::size_t span = 1 + rng_.uniform_index(std::min<std::size_t>(floats, 16));
      const std::size_t first = rng_.uniform_index(floats - span + 1);
      const float nan = std::numeric_limits<float>::quiet_NaN();
      for (std::size_t i = 0; i < span; ++i) {
        std::memcpy(damaged.data() + kFrameHeader + (first + i) * sizeof(float),
                    &nan, sizeof(float));
      }
      break;
    }
  }
  return damaged;
}

void Transport::poison_floats(std::vector<std::uint8_t>& payload) {
  // Skip the leading length field so the scribble lands somewhere in the
  // serialized body: tensor float data (caught by the finiteness check) or
  // structure fields (caught as undecodable). Either way the server's
  // validation quarantines the update instead of aggregating it.
  constexpr std::size_t kSkip = 8;
  if (payload.size() < kSkip + sizeof(float)) return;
  const std::size_t floats = (payload.size() - kSkip) / sizeof(float);
  const std::size_t span = 1 + rng_.uniform_index(std::min<std::size_t>(floats, 16));
  const std::size_t first = rng_.uniform_index(floats - span + 1);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (std::size_t i = 0; i < span; ++i) {
    std::memcpy(payload.data() + kSkip + (first + i) * sizeof(float), &nan,
                sizeof(float));
  }
}

Transport::Delivery Transport::send_broadcast(
    const std::vector<std::uint8_t>& framed) {
  return deliver(framed, nullptr, 0.0);
}

Transport::Delivery Transport::send_update(
    const std::vector<std::uint8_t>& payload, const Validator& validator,
    double start_s) {
  const bool poisoned = profile_.poison > 0.0 && rng_.bernoulli(profile_.poison);
  if (!poisoned) return deliver(frame(payload), validator, start_s);
  std::vector<std::uint8_t> damaged = payload;
  poison_floats(damaged);
  Delivery d = deliver(frame(damaged), validator, start_s);
  if (d.outcome == Outcome::kDelivered) d.payload = std::move(damaged);
  return d;
}

Transport::Delivery Transport::deliver(const std::vector<std::uint8_t>& framed,
                                       const Validator& validator,
                                       double start_s) {
  Delivery d;
  const std::uint64_t frame_bytes = framed.size();
  double now = start_s;
  for (std::uint32_t attempt = 0; attempt <= profile_.max_retries; ++attempt) {
    if (attempt > 0) {
      now += profile_.backoff_s * static_cast<double>(1u << (attempt - 1));
      ++d.retries;
      d.bytes_retransmitted += frame_bytes;
    }
    d.bytes_transmitted += frame_bytes;
    now += profile_.latency_s + profile_.jitter_s * rng_.uniform();

    bool intact;
    if (profile_.corrupt > 0.0 && rng_.bernoulli(profile_.corrupt)) {
      // Wire damage always breaks the frame (the checksum covers the whole
      // payload and the header fields are self-checking), but run the real
      // validator rather than assuming so.
      intact = frame_intact(corrupt_copy(framed));
    } else {
      intact = frame_intact(framed);
    }

    // The deadline dominates: a frame that lands after the cutoff is a
    // straggler whether or not it is intact, and later retries only arrive
    // later still.
    if (profile_.deadline_s > 0.0 && now > profile_.deadline_s) {
      d.outcome = Outcome::kTimedOut;
      d.reason = "arrived after the round deadline";
      d.sim_seconds = now;
      return d;
    }
    if (!intact) continue;  // detected corruption: retransmit

    if (validator) {
      std::string why;
      std::vector<std::uint8_t> received(framed.begin() + kFrameHeader,
                                         framed.end());
      if (!validator(received, &why)) {
        // Source corruption: every retransmission carries the same bytes,
        // so retrying is pointless — quarantine immediately.
        d.outcome = Outcome::kQuarantined;
        d.reason = "payload rejected: " + why;
        d.sim_seconds = now;
        return d;
      }
    }
    if (profile_.duplicate > 0.0 && rng_.bernoulli(profile_.duplicate)) {
      ++d.duplicates;
      d.bytes_transmitted += frame_bytes;
      d.bytes_retransmitted += frame_bytes;
    }
    d.outcome = Outcome::kDelivered;
    d.sim_seconds = now;
    return d;
  }
  d.outcome = Outcome::kQuarantined;
  d.reason = "retry budget exhausted: every frame arrived corrupt";
  d.sim_seconds = now;
  return d;
}

std::optional<double> update_state_l2_norm(
    const std::vector<std::uint8_t>& payload) {
  try {
    util::ByteReader reader(payload);
    const ModelState state = deserialize_state(reader);
    double sum_sq = 0.0;
    for (const auto& t : state) {
      for (const float* v = t.begin(); v != t.end(); ++v) {
        sum_sq += static_cast<double>(*v) * static_cast<double>(*v);
      }
    }
    const double norm = std::sqrt(sum_sq);
    if (!std::isfinite(norm)) return std::nullopt;
    return norm;
  } catch (const std::exception&) {
    // Undecodable / compressed-delta payloads carry no comparable state norm.
    return std::nullopt;
  }
}

const char* to_string(Transport::Outcome outcome) {
  switch (outcome) {
    case Transport::Outcome::kDelivered: return "delivered";
    case Transport::Outcome::kTimedOut: return "timed_out";
    case Transport::Outcome::kQuarantined: return "quarantined";
  }
  return "?";
}

}  // namespace reffil::fed
