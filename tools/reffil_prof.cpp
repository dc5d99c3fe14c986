// reffil_prof — prints the op-level profiler's document (reffil_run
// --profile / REFFIL_PROFILE).
//
//   reffil_prof PROFILE.json [--top N]
//
// Prints:
//   * top-N ops by self time (span duration minus directly nested spans on
//     the same thread), with total time, call count, bytes moved, and the
//     backward time of each forward op (its bw:<op> row, joined by name),
//   * per-thread utilization (busy time of top-level spans over the wall
//     window from the first span start to the last span end),
//   * a per-task breakdown of the federated phases (fed.* rows with a task).
//
// The input must be well-formed JSON — the same strict parser that
// fuzz-validates the obs writer is used here.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "reffil/util/json.hpp"

namespace {

namespace json = reffil::util::json;

struct OpStat {
  double self_us = 0.0;
  double total_us = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

int usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s PROFILE.json [--top N]\n", argv0);
  return 2;
}

double us_field(const json::Value& v, const char* key) {
  return v.number_or(key, 0.0) / 1e3;
}

std::string human_us(double us) {
  char buf[64];
  if (us >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fs", us / 1e6);
  } else if (us >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.2fms", us / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fus", us);
  }
  return buf;
}

std::string human_bytes(double b) {
  char buf[64];
  if (b >= 1024.0 * 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.2fGiB", b / (1024.0 * 1024.0 * 1024.0));
  } else if (b >= 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.2fMiB", b / (1024.0 * 1024.0));
  } else if (b >= 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1fKiB", b / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fB", b);
  }
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::size_t top_n = 15;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--top") {
      if (i + 1 >= argc) return usage(argv[0]);
      top_n = std::strtoull(argv[++i], nullptr, 10);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (path.empty()) return usage(argv[0]);

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "reffil_prof: cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream ss;
  ss << in.rdbuf();

  json::Value root;
  try {
    root = json::parse(ss.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "reffil_prof: %s is not valid JSON: %s\n",
                 path.c_str(), e.what());
    return 1;
  }
  const json::Value* rows = root.find("rows");
  const json::Value* threads = root.find("threads");
  if (rows == nullptr || !rows->is_array() || threads == nullptr ||
      !threads->is_array()) {
    std::fprintf(stderr, "reffil_prof: %s has no rows/threads arrays\n",
                 path.c_str());
    return 1;
  }
  if (rows->as_array().empty()) {
    std::fprintf(stderr, "reffil_prof: %s contains no spans\n", path.c_str());
    return 1;
  }

  // Rows are per (name, task); the op table sums a name over its tasks.
  std::map<std::string, OpStat> ops;
  std::map<long, std::map<std::string, double>> phases;
  double grand_self = 0.0;
  std::uint64_t spans = 0;
  for (const auto& row : rows->as_array()) {
    const std::string name = row.string_or("name", "?");
    OpStat& st = ops[name];
    st.self_us += us_field(row, "self_ns");
    st.total_us += us_field(row, "total_ns");
    const auto calls = static_cast<std::uint64_t>(row.number_or("calls", 0));
    st.calls += calls;
    st.bytes += static_cast<std::uint64_t>(row.number_or("bytes", 0));
    grand_self += us_field(row, "self_ns");
    spans += calls;
    const long task = static_cast<long>(row.number_or("task", -1));
    if (task >= 0 && name.rfind("fed.", 0) == 0) {
      phases[task][name] += us_field(row, "total_ns");
    }
  }

  std::vector<std::pair<std::string, OpStat>> ranked(ops.begin(), ops.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second.self_us > b.second.self_us;
  });

  std::printf("== top ops by self time (%zu of %zu; %llu spans) ==\n",
              std::min(top_n, ranked.size()), ranked.size(),
              static_cast<unsigned long long>(spans));
  std::printf("%-22s %10s %7s %10s %8s %10s %10s\n", "op", "self", "self%",
              "total", "calls", "bytes", "backward");
  for (std::size_t i = 0; i < ranked.size() && i < top_n; ++i) {
    const auto& [name, st] = ranked[i];
    const auto bw = ops.find("bw:" + name);
    std::printf("%-22s %10s %6.1f%% %10s %8llu %10s %10s\n", name.c_str(),
                human_us(st.self_us).c_str(),
                grand_self > 0.0 ? 100.0 * st.self_us / grand_self : 0.0,
                human_us(st.total_us).c_str(),
                static_cast<unsigned long long>(st.calls),
                human_bytes(static_cast<double>(st.bytes)).c_str(),
                bw != ops.end() ? human_us(bw->second.total_us).c_str() : "-");
  }

  const double wall = std::max(
      1e-9, us_field(root, "last_ns") - us_field(root, "first_ns"));
  std::printf("\n== per-thread utilization (wall %s) ==\n",
              human_us(wall).c_str());
  std::printf("%-6s %-16s %10s %8s %8s\n", "tid", "name", "busy", "util%",
              "spans");
  for (const auto& t : threads->as_array()) {
    const std::string name = t.string_or("name", "");
    const double busy = us_field(t, "busy_ns");
    std::printf("%-6u %-16s %10s %7.1f%% %8llu\n",
                static_cast<unsigned>(t.number_or("tid", 0)),
                name.empty() ? "-" : name.c_str(), human_us(busy).c_str(),
                100.0 * busy / wall,
                static_cast<unsigned long long>(t.number_or("spans", 0)));
  }

  if (!phases.empty()) {
    std::printf("\n== per-task phase breakdown ==\n");
    std::printf("%-6s %-18s %12s\n", "task", "phase", "total");
    for (const auto& [task, by_phase] : phases) {
      for (const auto& [phase, us] : by_phase) {
        std::printf("%-6ld %-18s %12s\n", task, phase.c_str(),
                    human_us(us).c_str());
      }
    }
  }
  return 0;
}
