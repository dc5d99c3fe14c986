// reffil_monitor — live single-screen view of a monitored run.
//
//   reffil_run --dataset PACS --method RefFiL --serve-metrics 9100 &
//   reffil_monitor --port 9100
//
// Polls the embedded exposition server's /progress endpoint (util/expo.hpp)
// and redraws one screen per poll: round/task progress, traffic with
// compression ratios, fault counters, round-latency quantiles, per-task
// accuracy, and the most recent health alerts. Exits when the run reports
// done (or immediately with --once).
//
// Options:
//   --port N        connect to 127.0.0.1:N (default 9100)
//   --host H        connect to H instead of 127.0.0.1
//   --interval S    poll every S seconds (default 1.0)
//   --once          print a single snapshot and exit
//   --no-clear      append screens instead of redrawing in place
#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "reffil/util/json.hpp"

namespace {

using reffil::util::json::Value;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--host H] [--interval S] [--once] "
               "[--no-clear]\n",
               argv0);
  return 2;
}

/// Minimal blocking HTTP/1.1 GET against host:port; returns the response
/// body, or an empty string on any failure (connection refused, timeout,
/// non-200). Deliberately tiny — this talks to our own loopback server.
std::string http_get(const std::string& host, int port, const char* path,
                     int timeout_ms) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* list = nullptr;
  if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &list) != 0) {
    return {};
  }
  int fd = -1;
  for (addrinfo* ai = list; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(list);
  if (fd < 0) return {};

  const std::string request = std::string("GET ") + path +
                              " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  if (::send(fd, request.data(), request.size(), 0) !=
      static_cast<ssize_t>(request.size())) {
    ::close(fd);
    return {};
  }
  std::string response;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) break;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(remaining.count())) <= 0) break;
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // 0 = server closed: response complete
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (response.compare(0, 9, "HTTP/1.1 ") != 0 ||
      response.compare(9, 3, "200") != 0) {
    return {};
  }
  const std::size_t body = response.find("\r\n\r\n");
  return body == std::string::npos ? std::string()
                                   : response.substr(body + 4);
}

std::string human_bytes(double b) {
  char buf[32];
  if (b >= 1073741824.0) {
    std::snprintf(buf, sizeof(buf), "%.2f GiB", b / 1073741824.0);
  } else if (b >= 1048576.0) {
    std::snprintf(buf, sizeof(buf), "%.1f MiB", b / 1048576.0);
  } else if (b >= 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1f KiB", b / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f B", b);
  }
  return buf;
}

void render(const Value& p, bool clear) {
  if (clear) std::printf("\x1b[H\x1b[2J");  // home + clear screen

  const std::string method = p.string_or("method", "?");
  const std::string dataset = p.string_or("dataset", "?");
  const double rounds_done = p.number_or("rounds_done", 0);
  const double rounds_total = p.number_or("rounds_total", 0);
  const double task = p.number_or("task", 0);
  const double tasks_total = p.number_or("tasks_total", 0);
  const bool done = p.find("done") != nullptr && p.find("done")->is_bool() &&
                    p.find("done")->as_bool();
  const bool healthy = !(p.find("healthy") != nullptr &&
                         p.find("healthy")->is_bool() &&
                         !p.find("healthy")->as_bool());

  std::printf("%s on %s — %s\n", method.c_str(), dataset.c_str(),
              done ? "DONE" : "running");
  const int width = 40;
  const double frac =
      rounds_total > 0 ? rounds_done / rounds_total : (done ? 1.0 : 0.0);
  const int filled = static_cast<int>(frac * width + 0.5);
  std::printf("  round %4.0f/%-4.0f task %2.0f/%-2.0f [", rounds_done,
              rounds_total, task + 1, tasks_total);
  for (int i = 0; i < width; ++i) std::printf("%s", i < filled ? "#" : "-");
  std::printf("] %3.0f%%\n", frac * 100.0);

  const double bytes_up = p.number_or("bytes_up", 0);
  const double bytes_down = p.number_or("bytes_down", 0);
  const double up_raw = p.number_or("bytes_up_raw_equiv", 0);
  const double down_raw = p.number_or("bytes_down_raw_equiv", 0);
  std::printf("  traffic  down %s (%.1fx)  up %s (%.1fx)  messages %.0f\n",
              human_bytes(bytes_down).c_str(),
              bytes_down > 0 ? down_raw / bytes_down : 1.0,
              human_bytes(bytes_up).c_str(),
              bytes_up > 0 ? up_raw / bytes_up : 1.0,
              p.number_or("messages", 0));
  std::printf("  faults   dropped %.0f  quarantined %.0f  retries %.0f  "
              "timed_out %.0f\n",
              p.number_or("dropped_updates", 0),
              p.number_or("quarantined", 0), p.number_or("retries", 0),
              p.number_or("timed_out", 0));
  std::printf("  latency  p50 %.3fs  p95 %.3fs  p99 %.3fs  participants %.0f\n",
              p.number_or("round_p50_s", 0), p.number_or("round_p95_s", 0),
              p.number_or("round_p99_s", 0), p.number_or("participants", 0));

  const Value* acc = p.find("task_accuracy");
  if (acc != nullptr && acc->is_array() && !acc->as_array().empty()) {
    std::printf("  accuracy ");
    for (const Value& a : acc->as_array()) {
      std::printf(" %5.1f%%", a.is_number() ? a.as_number() : 0.0);
    }
    std::printf("\n");
  }

  std::printf("  health   %s", healthy ? "ok" : "DEGRADED");
  const std::string reason = p.string_or("health_reason", "");
  if (!reason.empty()) std::printf(" — %s", reason.c_str());
  std::printf("\n");
  const Value* alerts = p.find("alerts");
  if (alerts != nullptr && alerts->is_array()) {
    for (const Value& a : alerts->as_array()) {
      std::printf("    [%s] r%.0f: %s\n",
                  a.string_or("detector", "?").c_str(),
                  a.number_or("global_round", 0),
                  a.string_or("detail", "").c_str());
    }
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 9100;
  double interval_s = 1.0;
  bool once = false;
  bool clear = true;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--port") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      port = static_cast<int>(std::strtol(v, nullptr, 10));
    } else if (arg == "--host") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      host = v;
    } else if (arg == "--interval") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      interval_s = std::strtod(v, nullptr);
    } else if (arg == "--once") {
      once = true;
    } else if (arg == "--no-clear") {
      clear = false;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "bad port %d\n", port);
    return 2;
  }

  int misses = 0;
  for (;;) {
    const std::string body = http_get(host, port, "/progress", 2000);
    if (body.empty()) {
      if (once) {
        std::fprintf(stderr, "no response from %s:%d\n", host.c_str(), port);
        return 1;
      }
      // A run that just finished tears the server down between polls; a few
      // consecutive misses mean it is gone, not merely busy.
      if (++misses >= 3) {
        std::fprintf(stderr, "lost contact with %s:%d\n", host.c_str(), port);
        return 1;
      }
    } else {
      misses = 0;
      try {
        const Value progress = reffil::util::json::parse(body);
        render(progress, clear);
        if (once) return 0;
        if (progress.find("done") != nullptr &&
            progress.find("done")->is_bool() &&
            progress.find("done")->as_bool()) {
          return 0;
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "bad /progress payload: %s\n", e.what());
        if (once) return 1;
      }
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(interval_s > 0.05 ? interval_s : 0.05));
  }
}
