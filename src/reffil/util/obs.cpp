#include "reffil/util/obs.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>

#include "reffil/util/prof.hpp"

namespace reffil::obs {

// ---- Gauge -----------------------------------------------------------------

void Gauge::set(double v) {
  bits_.store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
}

double Gauge::value() const {
  return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
}

// ---- Histogram -------------------------------------------------------------

namespace {

// CAS-accumulate / CAS-min / CAS-max over doubles stored as u64 bits.
template <typename Better>
void atomic_update_double(std::atomic<std::uint64_t>& bits, double v,
                          const Better& better) {
  std::uint64_t observed = bits.load(std::memory_order_relaxed);
  for (;;) {
    const double current = std::bit_cast<double>(observed);
    const double next = better(current, v);
    if (next == current) return;
    if (bits.compare_exchange_weak(observed, std::bit_cast<std::uint64_t>(next),
                                   std::memory_order_relaxed)) {
      return;
    }
  }
}

}  // namespace

Histogram::Histogram()
    : min_bits_(std::bit_cast<std::uint64_t>(
          std::numeric_limits<double>::infinity())),
      max_bits_(std::bit_cast<std::uint64_t>(
          -std::numeric_limits<double>::infinity())) {}

void Histogram::observe(double v) {
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_update_double(sum_bits_, v,
                       [](double cur, double x) { return cur + x; });
  atomic_update_double(min_bits_, v,
                       [](double cur, double x) { return x < cur ? x : cur; });
  atomic_update_double(max_bits_, v,
                       [](double cur, double x) { return x > cur ? x : cur; });
  int exponent = 0;
  if (v > 0.0 && std::isfinite(v)) {
    (void)std::frexp(v, &exponent);
  }
  const int bucket =
      std::min(kBuckets - 1, std::max(0, exponent + kBucketBias));
  buckets_[static_cast<std::size_t>(bucket)].fetch_add(
      1, std::memory_order_relaxed);
}

HistogramStats Histogram::stats() const {
  HistogramStats s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
  if (s.count != 0) {
    s.min = std::bit_cast<double>(min_bits_.load(std::memory_order_relaxed));
    s.max = std::bit_cast<double>(max_bits_.load(std::memory_order_relaxed));
  }
  return s;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.stats = stats();
  for (int i = 0; i < kBuckets; ++i) {
    snap.buckets[static_cast<std::size_t>(i)] = bucket(i);
  }
  return snap;
}

double HistogramSnapshot::quantile(double q) const {
  if (stats.count == 0) return 0.0;
  // The extreme quantiles are exact: min and max are tracked directly, so
  // q<=0 / q>=1 need no bucket walk (and NaN thresholds fall through to the
  // interpolation path, where clamp() keeps the result in [min, max]).
  if (q <= 0.0) return stats.min;
  if (q >= 1.0) return stats.max;
  // 0-based fractional rank of the target sample in sorted order.
  const double rank = q * static_cast<double>(stats.count - 1);
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const std::uint64_t n = buckets[static_cast<std::size_t>(b)];
    if (n == 0) continue;
    if (rank < static_cast<double>(seen + n)) {
      // Samples in bucket b lie in [2^(b-bias-1), 2^(b-bias)); interpolate
      // by rank position inside the bucket, then clamp to the exact
      // observed extrema (which also repairs the b==bias zero/nonfinite
      // catch-all bucket).
      const double lo = std::ldexp(1.0, b - Histogram::kBucketBias - 1);
      const double hi = std::ldexp(1.0, b - Histogram::kBucketBias);
      const double frac =
          n == 1 ? 0.5
                 : (rank - static_cast<double>(seen)) / static_cast<double>(n - 1);
      return std::clamp(lo + (hi - lo) * frac, stats.min, stats.max);
    }
    seen += n;
  }
  return stats.max;
}

void Histogram::reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
  min_bits_.store(std::bit_cast<std::uint64_t>(
                      std::numeric_limits<double>::infinity()),
                  std::memory_order_relaxed);
  max_bits_.store(std::bit_cast<std::uint64_t>(
                      -std::numeric_limits<double>::infinity()),
                  std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

// ---- Registry --------------------------------------------------------------

Registry& Registry::instance() {
  static Registry* registry = new Registry();  // never destroyed: metric
  return *registry;                            // handles outlive static dtors
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

Registry::Snapshot Registry::snapshot() const {
  std::lock_guard lock(mutex_);
  Snapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    snap.histograms[name] = h->snapshot();
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->set(0.0);
  for (auto& [name, h] : histograms_) h->reset();
}

Counter& counter(std::string_view name) {
  return Registry::instance().counter(name);
}

Gauge& gauge(std::string_view name) { return Registry::instance().gauge(name); }

Histogram& histogram(std::string_view name) {
  return Registry::instance().histogram(name);
}

void count(std::string_view name, std::uint64_t n) {
  Registry::instance().counter(name).add(n);
}

// ---- trace -----------------------------------------------------------------

namespace {

/// Length of the (potential) UTF-8 sequence starting with lead byte `c`;
/// 0 for bytes that can never lead a sequence (continuations, 0xFE/0xFF).
std::size_t utf8_seq_len(unsigned char c) {
  if (c < 0x80) return 1;
  if (c >= 0xF0 && c <= 0xF4) return 4;
  if (c >= 0xE0 && c < 0xF0) return 3;
  if (c >= 0xC2 && c < 0xE0) return 2;  // C0/C1 are always overlong
  return 0;
}

/// Validate the multi-byte sequence at s[i..i+len): continuation bytes,
/// no overlong encodings, no surrogates, <= U+10FFFF.
bool utf8_seq_valid(std::string_view s, std::size_t i, std::size_t len) {
  if (i + len > s.size()) return false;
  std::uint32_t cp = static_cast<unsigned char>(s[i]) &
                     static_cast<unsigned char>(0xFF >> (len + 1));
  for (std::size_t j = 1; j < len; ++j) {
    const unsigned char c = static_cast<unsigned char>(s[i + j]);
    if ((c & 0xC0) != 0x80) return false;
    cp = (cp << 6) | (c & 0x3F);
  }
  if (len == 2) return cp >= 0x80;
  if (len == 3) return cp >= 0x800 && (cp < 0xD800 || cp > 0xDFFF);
  return cp >= 0x10000 && cp <= 0x10FFFF;
}

struct TraceSink {
  std::mutex mutex;
  std::ofstream stream;  // guarded by mutex
};

TraceSink& trace_sink() {
  static TraceSink* sink = new TraceSink();  // never destroyed; see Registry
  return *sink;
}

std::atomic<bool> g_trace_enabled{false};
std::once_flag g_trace_env_once;

void init_trace_from_env() {
  const char* path = std::getenv("REFFIL_TRACE");
  if (path == nullptr || path[0] == '\0') return;
  TraceSink& sink = trace_sink();
  std::lock_guard lock(sink.mutex);
  sink.stream.open(path, std::ios::trunc);
  g_trace_enabled.store(sink.stream.is_open(), std::memory_order_relaxed);
  if (sink.stream.is_open()) install_crash_flush_handlers();
}

}  // namespace

void json_escape(std::string& out, std::string_view s) {
  for (std::size_t i = 0; i < s.size();) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c == '"') {
      out += "\\\"";
    } else if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\t') {
      out += "\\t";
    } else if (c < 0x20 || c == 0x7F) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else if (c < 0x80) {
      out += static_cast<char>(c);
    } else {
      const std::size_t len = utf8_seq_len(c);
      if (len >= 2 && utf8_seq_valid(s, i, len)) {
        out.append(s.substr(i, len));
        i += len;
        continue;
      }
      out += "\\ufffd";  // invalid byte: replacement character, not raw junk
    }
    ++i;
  }
}

void flush_all() {
  flush_trace();
  prof::flush();
}

namespace {

std::atomic<bool> g_crash_handlers_installed{false};
std::terminate_handler g_previous_terminate = nullptr;

/// Best-effort flush for async-signal context: try-lock only, no allocation,
/// no profiler (its flush takes mutexes the interrupted thread may hold).
/// Flushing an ofstream here is formally outside the async-signal-safe set,
/// but the alternative is losing the tail of every killed run's trace; the
/// try_lock guarantees we at least never deadlock the dying process.
void signal_flush(int signo) {
  TraceSink& sink = trace_sink();
  if (sink.mutex.try_lock()) {
    if (sink.stream.is_open()) sink.stream.flush();
    sink.mutex.unlock();
  }
  std::signal(signo, SIG_DFL);
  std::raise(signo);
}

}  // namespace

void install_crash_flush_handlers() {
  bool expected = false;
  if (!g_crash_handlers_installed.compare_exchange_strong(expected, true)) {
    return;
  }
  g_previous_terminate = std::set_terminate([] {
    flush_all();  // terminate runs on the throwing thread: full flush is safe
    if (g_previous_terminate != nullptr) {
      g_previous_terminate();
    }
    std::abort();
  });
  // Leave externally-ignored signals ignored (nohup et al.); otherwise hook.
  for (const int signo : {SIGINT, SIGTERM}) {
    if (std::signal(signo, signal_flush) == SIG_IGN) {
      std::signal(signo, SIG_IGN);
    }
  }
}

JsonWriter& JsonWriter::key(std::string_view k) {
  value(k);
  out_ += ':';
  comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(v) ? v : 0.0);
  return token(buf);
}

JsonWriter& JsonWriter::value(std::string_view v) {
  token("\"");
  json_escape(out_, v);
  out_ += '"';
  return *this;
}

bool trace_enabled() {
  std::call_once(g_trace_env_once, init_trace_from_env);
  return g_trace_enabled.load(std::memory_order_relaxed);
}

void set_trace_path(const std::string& path) {
  std::call_once(g_trace_env_once, [] {});  // claim env init; explicit wins
  TraceSink& sink = trace_sink();
  std::lock_guard lock(sink.mutex);
  if (sink.stream.is_open()) sink.stream.close();
  if (path.empty()) {
    g_trace_enabled.store(false, std::memory_order_relaxed);
    return;
  }
  sink.stream.clear();
  sink.stream.open(path, std::ios::trunc);
  g_trace_enabled.store(sink.stream.is_open(), std::memory_order_relaxed);
  if (sink.stream.is_open()) install_crash_flush_handlers();
}

void trace(const TraceEvent& event) {
  if (!trace_enabled()) return;
  TraceSink& sink = trace_sink();
  std::lock_guard lock(sink.mutex);
  if (!sink.stream.is_open()) return;
  sink.stream << event.json() << '\n';
}

void flush_trace() {
  if (!trace_enabled()) return;
  TraceSink& sink = trace_sink();
  std::lock_guard lock(sink.mutex);
  if (sink.stream.is_open()) sink.stream.flush();
}

}  // namespace reffil::obs
