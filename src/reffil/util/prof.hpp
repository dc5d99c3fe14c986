// Op-level scoped profiler: lossless per-thread tables of span totals.
//
// `prof` answers the question the round-level metrics (obs.hpp §7) cannot:
// *which op inside client_train the time goes to, on which thread*. Every
// thread keeps a table with one row per span name — per (name, task) for
// spans built with a Task — holding calls, total ns, self ns and bytes. Self
// ns is a span's duration minus its directly nested spans, taken from the
// thread's stack of open spans, so spans must nest within a thread: each
// finishes before the span that was open when it started. A table grows by
// one row per new name, never per span, so nothing is ever dropped.
//
// Cost contract:
//  * Disarmed (no sink configured): constructing a Span is ONE relaxed
//    atomic load — no clock read, no TLS touch, no allocation. A benchmark
//    guard (BM_ProfSpanDisabled) and the BM_TrainStep <2% regression check
//    in BENCH_kernels.json hold this line.
//  * Armed: two steady_clock reads, a push and pop on the thread's open-span
//    stack, and a row update under the thread's spinlock, which only a
//    write ever contends.
//
// Activation: set REFFIL_PROFILE=<path> in the environment, or call
// start(path) (reffil_run --profile does). The rows, merged across threads
// by name, are written as one JSON document by stop_and_write(),
// obs::flush_all(), or the std::atexit guard — whichever comes first;
// writes are idempotent. tools/reffil_prof prints the document.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace reffil::obs::prof {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// True when a profile sink is armed. This is the single relaxed load every
/// disarmed span pays; the flag is latched from REFFIL_PROFILE at static
/// init, so no call_once sits on the hot path.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Marks a span as the backward half of autograd op `op`: its row is named
/// "bw:<op>", which reffil_prof joins to the forward op's row by name.
struct Backward {
  const char* op;
};

/// Marks a span with its federated task: its rows are kept per (name, task).
struct Task {
  std::uint32_t index;
};

/// Clear every thread's table and arm the profiler, remembering where
/// stop_and_write()/flush() put the document. An empty path disarms.
/// Overrides REFFIL_PROFILE.
void start(const std::string& path);

/// Disarm, then write the document to the configured path (no-op without
/// one).
void stop_and_write();

/// Write the document to the configured path while staying armed (the
/// atexit / obs::flush_all hook). No-op when no path is configured.
void flush();

/// Merge every thread's table into `path` as one JSON document. Returns
/// false if the file cannot be opened. Spans still open are not in it, and
/// a span closing during the write may land in its thread's busy total but
/// not yet in its parent's row.
bool write(const std::string& path);

/// Label the calling thread in the document's per-thread summary.
void set_thread_name(const char* name);

/// RAII span. `name` must have static storage duration (string literals):
/// the table keys rows by the pointer and reads the string at write time.
/// When the profiler is disarmed the constructor is one relaxed load and
/// the destructor a dead branch.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t bytes = 0)
      : armed_(enabled()) {
    if (armed_) open(name, bytes);
  }

  explicit Span(Backward bw) : armed_(enabled()) {
    if (!armed_) return;
    backward_ = true;
    open(bw.op, 0);
  }

  Span(const char* name, Task task) : armed_(enabled()) {
    if (!armed_) return;
    task_ = task.index;
    open(name, 0);
  }

  ~Span() { finish(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach a byte count discovered mid-scope (e.g. a payload size known
  /// only after the work ran).
  void set_value(std::uint64_t v) {
    if (armed_) bytes_ = v;
  }

  /// Record now instead of at scope exit (idempotent). Spans opened inside
  /// this one must have finished.
  void finish() {
    if (armed_) close();
  }

  /// Task index of a span built without a Task.
  static constexpr std::uint32_t kNoTask = ~std::uint32_t{0};

 private:
  void open(const char* name, std::uint64_t bytes);
  void close();

  const char* name_ = nullptr;
  std::uint64_t bytes_ = 0;
  std::uint64_t start_ns_ = 0;
  std::uint64_t child_ns_ = 0;  ///< summed durations of directly nested spans
  Span* parent_ = nullptr;      ///< enclosing open span on this thread
  std::uint32_t task_ = kNoTask;
  bool backward_ = false;
  bool armed_;
};

}  // namespace reffil::obs::prof
