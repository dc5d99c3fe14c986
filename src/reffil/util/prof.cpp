#include "reffil/util/prof.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "reffil/util/obs.hpp"

namespace reffil::obs::prof {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

struct Row {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t bytes = 0;

  void add(const Row& o) {
    calls += o.calls;
    total_ns += o.total_ns;
    self_ns += o.self_ns;
    bytes += o.bytes;
  }
};

/// A row's key within one thread. Names are string literals, so the key
/// holds the pointer; write() merges pointers that spell the same name.
struct Key {
  const char* name;
  std::uint32_t task;
  bool backward;
  bool operator==(const Key&) const = default;
};

struct KeyHash {
  std::size_t operator()(const Key& k) const {
    return std::hash<const void*>{}(k.name) ^ (std::size_t{k.task} << 1) ^
           std::size_t{k.backward};
  }
};

/// One thread's table. The owning thread updates it and a write reads it,
/// both under the spinlock, which is uncontended except during a write.
/// Held by shared_ptr from both the owning thread's TLS and the global
/// registry, so a write after thread exit still sees the rows.
struct ThreadTable {
  explicit ThreadTable(std::uint32_t tid_) : tid(tid_) { clear(); }

  void lock() {
    while (flag.test_and_set(std::memory_order_acquire)) {
    }
  }
  void unlock() { flag.clear(std::memory_order_release); }

  void clear() {
    rows.clear();
    busy_ns = 0;
    first_ns = std::numeric_limits<std::uint64_t>::max();
    last_ns = 0;
  }

  // Guarded by flag.
  std::unordered_map<Key, Row, KeyHash> rows;
  std::uint64_t busy_ns = 0;   ///< summed durations of top-level spans
  std::uint64_t first_ns = 0;  ///< earliest span start
  std::uint64_t last_ns = 0;   ///< latest span end
  std::string name;
  const std::uint32_t tid;
  std::atomic_flag flag = ATOMIC_FLAG_INIT;
};

struct TableRegistry {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadTable>> tables;  // guarded by mutex
};

TableRegistry& registry() {
  static TableRegistry* r = new TableRegistry();  // never destroyed, like
  return *r;                                      // the obs registry
}

std::vector<std::shared_ptr<ThreadTable>> all_tables() {
  TableRegistry& reg = registry();
  std::lock_guard lock(reg.mutex);
  return reg.tables;
}

struct OutputState {
  std::mutex mutex;
  std::string path;  // guarded by mutex
};

OutputState& output_state() {
  static OutputState* s = new OutputState();
  return *s;
}

ThreadTable& thread_table() {
  thread_local std::shared_ptr<ThreadTable> table = [] {
    TableRegistry& reg = registry();
    std::lock_guard lock(reg.mutex);
    auto t = std::make_shared<ThreadTable>(
        static_cast<std::uint32_t>(reg.tables.size() + 1));
    reg.tables.push_back(t);
    return t;
  }();
  return *table;
}

/// Innermost open armed span on this thread.
thread_local Span* t_top = nullptr;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void env_init();

/// Static-init hook: latch REFFIL_PROFILE before any span can run, and
/// register the atexit flush so early exits still get a profile (plus the
/// trace sink's own tail — see obs::flush_all).
struct EnvInit {
  EnvInit() { env_init(); }
} g_env_init;

void env_init() {
  std::atexit([] { flush_all(); });
  if (const char* path = std::getenv("REFFIL_PROFILE");
      path != nullptr && path[0] != '\0') {
    start(path);
  }
}

}  // namespace

void start(const std::string& path) {
  {
    OutputState& out = output_state();
    std::lock_guard lock(out.mutex);
    out.path = path;
  }
  for (const auto& table : all_tables()) {
    table->lock();
    table->clear();
    table->unlock();
  }
  detail::g_enabled.store(!path.empty(), std::memory_order_relaxed);
}

void stop_and_write() {
  detail::g_enabled.store(false, std::memory_order_relaxed);
  flush();
}

void flush() {
  std::string path;
  {
    OutputState& out = output_state();
    std::lock_guard lock(out.mutex);
    path = out.path;
  }
  if (path.empty()) return;
  write(path);
}

bool write(const std::string& path) {
  struct ThreadSummary {
    std::uint32_t tid;
    std::string name;
    std::uint64_t busy_ns;
    std::uint64_t spans;
  };
  // Rows merged across threads by spelled name ("bw:" prefix included) and
  // task; -1 stands for no task.
  std::map<std::pair<std::string, std::int64_t>, Row> rows;
  std::vector<ThreadSummary> threads;
  std::uint64_t first_ns = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t last_ns = 0;
  for (const auto& table : all_tables()) {
    table->lock();
    std::uint64_t spans = 0;
    for (const auto& [key, row] : table->rows) {
      spans += row.calls;
      std::string name = key.backward ? "bw:" : "";
      name += key.name;
      rows[{std::move(name),
            key.task == Span::kNoTask ? -1 : std::int64_t{key.task}}]
          .add(row);
    }
    if (spans != 0) {
      threads.push_back({table->tid, table->name, table->busy_ns, spans});
      first_ns = std::min(first_ns, table->first_ns);
      last_ns = std::max(last_ns, table->last_ns);
    }
    table->unlock();
  }
  if (threads.empty()) first_ns = 0;

  JsonWriter w;
  w.begin_object()
      .field("first_ns", first_ns)
      .field("last_ns", last_ns)
      .key("threads")
      .begin_array();
  for (const ThreadSummary& t : threads) {
    w.begin_object()
        .field("tid", t.tid)
        .field("name", t.name)
        .field("busy_ns", t.busy_ns)
        .field("spans", t.spans)
        .end_object();
  }
  w.end_array().key("rows").begin_array();
  for (const auto& [key, row] : rows) {
    w.begin_object().field("name", key.first);
    if (key.second >= 0) w.field("task", key.second);
    w.field("calls", row.calls)
        .field("total_ns", row.total_ns)
        .field("self_ns", row.self_ns)
        .field("bytes", row.bytes)
        .end_object();
  }
  w.end_array().end_object();

  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs(w.str().c_str(), file);
  std::fputc('\n', file);
  return std::fclose(file) == 0;
}

void set_thread_name(const char* name) {
  ThreadTable& table = thread_table();
  table.lock();
  table.name = name;
  table.unlock();
}

void Span::open(const char* name, std::uint64_t bytes) {
  name_ = name;
  bytes_ = bytes;
  parent_ = t_top;
  t_top = this;
  start_ns_ = now_ns();
}

void Span::close() {
  const std::uint64_t end_ns = now_ns();
  armed_ = false;
  assert(t_top == this && "prof::Span finished out of nesting order");
  t_top = parent_;
  const std::uint64_t dur = end_ns - start_ns_;
  if (parent_ != nullptr) parent_->child_ns_ += dur;
  ThreadTable& table = thread_table();
  table.lock();
  Row& row = table.rows[Key{name_, task_, backward_}];
  row.calls += 1;
  row.total_ns += dur;
  row.self_ns += dur - child_ns_;
  row.bytes += bytes_;
  if (parent_ == nullptr) table.busy_ns += dur;
  table.first_ns = std::min(table.first_ns, start_ns_);
  table.last_ns = std::max(table.last_ns, end_ns);
  table.unlock();
}

}  // namespace reffil::obs::prof
