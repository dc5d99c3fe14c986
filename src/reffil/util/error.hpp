// Error types shared across the RefFiL library.
//
// Following the C++ Core Guidelines (E.2, E.14) we signal errors by throwing
// exceptions derived from a single library root so callers can catch either
// a precise category or everything the library can throw.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace reffil {

/// Root of the RefFiL exception hierarchy.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Tensor shape / rank mismatch.
class ShapeError : public Error {
 public:
  explicit ShapeError(const std::string& what) : Error("shape error: " + what) {}
};

/// Malformed bytes while decoding a serialized message.
class SerializationError : public Error {
 public:
  explicit SerializationError(const std::string& what)
      : Error("serialization error: " + what) {}
};

/// Invalid experiment / model configuration detected at construction time.
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what) : Error("config error: " + what) {}
};

/// Largest count a spec value may name: every whole number up to 2^53 is
/// exact as a double, so the cast below is always defined.
inline constexpr std::uint64_t kMaxSpecCount = std::uint64_t{1} << 53;

/// A spec value that must be a count: returns `v` when it is a whole number
/// in [0, max], and throws ConfigError naming `key` for a fraction, a
/// negative, NaN or a value out of range.
inline std::uint64_t spec_count(double v, const std::string& key,
                                std::uint64_t max = kMaxSpecCount) {
  if (!(v >= 0.0 && v <= static_cast<double>(max) && v == std::trunc(v))) {
    throw ConfigError(key + " must be a whole number in [0, " +
                      std::to_string(max) + "]");
  }
  return static_cast<std::uint64_t>(v);
}

/// Federated-protocol violation (e.g. client replies to the wrong round).
class ProtocolError : public Error {
 public:
  explicit ProtocolError(const std::string& what) : Error("protocol error: " + what) {}
};

namespace detail {
[[noreturn]] inline void throw_check_failed(const char* expr, const char* file,
                                            int line, const std::string& msg) {
  throw Error(std::string("check failed: ") + expr + " at " + file + ":" +
              std::to_string(line) + (msg.empty() ? "" : " — " + msg));
}
}  // namespace detail

}  // namespace reffil

/// Precondition check that throws reffil::Error (active in all build types —
/// these guard library invariants, not debugging assertions).
#define REFFIL_CHECK(expr)                                                     \
  do {                                                                         \
    if (!(expr)) ::reffil::detail::throw_check_failed(#expr, __FILE__, __LINE__, ""); \
  } while (false)

#define REFFIL_CHECK_MSG(expr, msg)                                            \
  do {                                                                         \
    if (!(expr)) ::reffil::detail::throw_check_failed(#expr, __FILE__, __LINE__, (msg)); \
  } while (false)
