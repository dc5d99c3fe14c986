// Observability: a process-wide metrics registry and a structured trace.
//
// Two complementary views of a run feed every perf/communication claim the
// repo makes:
//
//  * Metrics — named counters / gauges / histograms with relaxed-atomic
//    updates, aggregated in place. Handles returned by the registry are
//    stable for the process lifetime, so hot paths look a metric up once and
//    then pay one atomic op per update.
//  * Trace — a JSONL event stream (one self-describing object per line)
//    written to the path in the REFFIL_TRACE environment variable (or set
//    programmatically): one line per record of fed/records.hpp plus
//    run_end. When no sink is configured, trace_enabled() is a single
//    relaxed atomic load and no event is built.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <concepts>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace reffil::obs {

// ---- metrics ---------------------------------------------------------------

/// Monotonic counter (relaxed atomic adds; exact totals on read).
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins double value (stored as bit-cast u64 so plain C++20
/// atomics suffice on every platform).
class Gauge {
 public:
  void set(double v);
  double value() const;

 private:
  std::atomic<std::uint64_t> bits_{0};
};

struct HistogramStats {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< 0 when count == 0
  double max = 0.0;
  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
};

/// Moments plus the log2 bucket counts, as one coherent copy. quantile()
/// estimates pXX from the buckets: a sample in bucket i lies in
/// [2^(i-bias-1), 2^(i-bias)), so the estimator walks buckets to the target
/// rank and interpolates linearly inside the bucket it lands in, clamped to
/// the exact observed [min, max]. Error is bounded by the bucket width
/// (a factor of 2), which is plenty for p50/p95/p99 timing tables.
///
/// Interpolation contract, including the edges:
///   * count == 0     -> 0.0 for every q (no samples, no estimate);
///   * q <= 0.0       -> stats.min exactly (no bucket interpolation);
///   * q >= 1.0       -> stats.max exactly;
///   * 0 < q < 1      -> the 0-based fractional rank q*(count-1) is located
///     in the bucket walk; within a bucket holding n samples the estimate
///     interpolates linearly by rank over the bucket's [lo, hi) span —
///     a single-sample bucket (n == 1) uses the bucket midpoint — and the
///     result is clamped to [stats.min, stats.max], which also repairs the
///     zero/non-finite catch-all bucket whose nominal span is meaningless.
struct HistogramSnapshot {
  static constexpr int kBuckets = 64;
  HistogramStats stats;
  std::array<std::uint64_t, kBuckets> buckets{};

  double quantile(double q) const;
};

/// Streaming histogram: count / sum / min / max plus log2-bucketed counts
/// (bucket i counts samples with exponent i - kBucketBias, i.e. a ~[2^-32,
/// 2^31] dynamic range — plenty for seconds or bytes).
class Histogram {
 public:
  static constexpr int kBuckets = HistogramSnapshot::kBuckets;
  static constexpr int kBucketBias = 32;

  void observe(double v);
  HistogramStats stats() const;
  /// stats() plus the bucket counts (the Registry::Snapshot payload).
  HistogramSnapshot snapshot() const;
  std::uint64_t bucket(int i) const {
    return buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  }
  void reset();

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};  ///< CAS-accumulated double
  std::atomic<std::uint64_t> min_bits_;     ///< init in ctor
  std::atomic<std::uint64_t> max_bits_;
  std::atomic<std::uint64_t> buckets_[kBuckets]{};

 public:
  Histogram();
};

/// Process-wide name -> metric map. Registration takes a mutex; returned
/// references never move or die, so callers cache them across calls.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  struct Snapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSnapshot> histograms;
  };
  Snapshot snapshot() const;

  /// Zero every registered metric (tests / bench isolation).
  void reset();

 private:
  Registry() = default;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Convenience shorthands over Registry::instance().
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name);
void count(std::string_view name, std::uint64_t n = 1);

// ---- trace -----------------------------------------------------------------

/// Streaming JSON writer: the one format every JSON document the library
/// emits shares (trace lines, `reffil_run --json`, /progress). Integers
/// print exactly; doubles as %.9g, with non-finite values written as 0 so
/// the output always parses; strings through json_escape. Commas between
/// members and elements are placed automatically.
class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }
  JsonWriter& key(std::string_view k);

  template <std::integral T>
  JsonWriter& value(T v) {
    if constexpr (std::is_same_v<T, bool>) {
      return token(v ? "true" : "false");
    } else if constexpr (std::is_signed_v<T>) {
      return token(std::to_string(static_cast<long long>(v)));
    } else {
      return token(std::to_string(static_cast<unsigned long long>(v)));
    }
  }
  JsonWriter& value(double v);
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }

  template <class T>
  JsonWriter& field(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }

  const std::string& str() const { return out_; }

 private:
  JsonWriter& token(std::string_view t) {
    if (comma_) out_ += ',';
    out_ += t;
    comma_ = true;
    return *this;
  }
  JsonWriter& open(char c) {
    token(std::string_view(&c, 1));
    comma_ = false;
    return *this;
  }
  JsonWriter& close(char c) {
    comma_ = false;
    return token(std::string_view(&c, 1));
  }

  std::string out_;
  bool comma_ = false;  ///< the next member or element needs a leading ','
};

/// One JSONL trace line under construction. Fields render in insertion
/// order through a JsonWriter. The first field is always "event": <type>.
class TraceEvent {
 public:
  explicit TraceEvent(std::string_view type) {
    writer_.begin_object().field("event", type);
  }

  template <class T>
  TraceEvent& field(std::string_view key, const T& v) {
    writer_.field(key, v);
    return *this;
  }

  /// The open object, for callers that write whole field lists into it.
  JsonWriter& writer() { return writer_; }

  /// The finished JSON object (idempotent).
  std::string json() const { return writer_.str() + "}"; }

 private:
  JsonWriter writer_;  ///< "{...fields" without the closing brace
};

/// True when a trace sink is open. First call initialises the sink from the
/// REFFIL_TRACE environment variable; afterwards this is one relaxed load.
bool trace_enabled();

/// Point the trace at `path` (append is false: truncates). An empty path
/// closes the sink and disables tracing. Overrides REFFIL_TRACE.
void set_trace_path(const std::string& path);

/// Append one event line (thread-safe; no-op when tracing is disabled).
void trace(const TraceEvent& event);

/// Flush pending trace output to disk.
void flush_trace();

/// Flush every observability sink: the JSONL trace stream and, when armed,
/// the op-level profiler's document (prof.hpp). Registered with
/// std::atexit at sink init and called from tool error paths, so traces
/// survive early exits and thrown exceptions.
void flush_all();

/// Install crash-safe flush handlers (idempotent; installed automatically
/// when a trace sink opens):
///   * std::set_terminate -> flush_all(), then the previous handler;
///   * SIGINT / SIGTERM   -> best-effort trace flush (try-lock only — the
///     profiler's locking flush is skipped because the signal may have
///     interrupted a thread holding its mutex), then the signal is re-raised
///     with the default disposition so the exit status still reports it.
/// A run killed mid-round therefore leaves a parseable JSONL trace of every
/// event recorded before the kill.
void install_crash_flush_handlers();

/// Append `s` to `out` with strict JSON string escaping: quotes/backslash,
/// control characters as \uXXXX, valid UTF-8 passed through, and invalid
/// UTF-8 bytes replaced with U+FFFD so the output always parses.
void json_escape(std::string& out, std::string_view s);

}  // namespace reffil::obs
