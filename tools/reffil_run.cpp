// reffil_run — command-line driver for single experiments.
//
//   reffil_run --dataset PACS --method RefFiL --seed 7
//   reffil_run --dataset Digits-Five --method Finetune --order new --json
//   reffil_run --list
//
// Options:
//   --dataset NAME    Digits-Five | OfficeCaltech10 | PACS | FedDomainNet
//   --method NAME     Finetune | FedLwF | FedEWC | FedL2P | FedL2P+pool |
//                     FedDualPrompt | FedDualPrompt+pool | RefFiL
//   --order orig|new  domain order (default orig)
//   --seed N          experiment seed (default 7)
//   --scale S         smoke | scaled | full (default scaled)
//   --dropout P       client dropout probability (default 0)
//   --fault-profile S transport fault spec, comma-separated key=value pairs
//                     (corrupt=P,poison=P,dup=P,latency=S,jitter=S,deadline=S,
//                     retries=N,backoff=S) — see fed/transport.hpp
//   --des SPEC        discrete-event federation, comma-separated key=value
//                     pairs (registered=N,sample=N,offline=P,diurnal=S,
//                     churn=R,rejoin=S,straggler=P,straggler_latency=S,
//                     compute=S,jitter=S,interval=S) — see
//                     fed/scheduler.hpp. E.g. a million-client federation
//                     sampling 10k participants per round:
//                       --des registered=1000000,sample=10000
//   --compress SPEC   wire compression: none | f16 | q8, optionally with
//                     ,topk=F (fraction of delta entries uploaded, (0,1]) —
//                     see fed/compress.hpp. E.g. quantized broadcast plus
//                     top-10% sparsified q8 deltas:
//                       --compress q8,topk=0.1
//   --graph-replay    capture each distinct client training graph once and
//                     replay it through the arena planner on later batches
//                     (bitwise-identical results, zero steady-state
//                     allocations; see autograd/graph.hpp). The --json
//                     output gains a "graph" block with capture/replay
//                     counts and arena_bytes.
//   --profile PATH    write the op-level profile (read with reffil_prof) here
//   --serve-metrics P serve live /metrics, /healthz and /progress over HTTP
//                     on 127.0.0.1:P while the run executes (0 = ephemeral
//                     port, printed to stderr). Implies --monitor. The
//                     REFFIL_METRICS_PORT env var is the flag's equivalent;
//                     REFFIL_METRICS_LINGER=SECONDS keeps the server up that
//                     long after the run so a scraper can read the final
//                     state (GET /quitquitquit ends the linger early).
//   --monitor SPEC    arm live telemetry without the HTTP server; SPEC is a
//                     comma-separated key=value list (norm_z=Z,
//                     norm_window=N,quarantine_rate=P,latency_slo=S,
//                     slo_burn=P,slo_window=N,accuracy_drop=PTS,
//                     recovery_rounds=N) — see fed/health.hpp. Empty SPEC ("")
//                     uses the defaults.
//   --json            machine-readable output (includes a "health" block for
//                     monitored runs)
//   --list            print datasets and methods, then exit
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <thread>

#include "reffil/data/spec.hpp"
#include "reffil/fed/health.hpp"
#include "reffil/harness/experiment.hpp"
#include "reffil/tensor/kernels_dispatch.hpp"
#include "reffil/util/expo.hpp"
#include "reffil/util/obs.hpp"
#include "reffil/util/prof.hpp"

namespace {

using namespace reffil;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --dataset NAME --method NAME [--order orig|new] "
               "[--seed N] [--scale smoke|scaled|full] [--dropout P] "
               "[--fault-profile SPEC] [--des SPEC] [--compress SPEC] "
               "[--graph-replay] [--profile PATH] [--serve-metrics PORT] "
               "[--monitor SPEC] [--json]\n"
               "       %s --list\n",
               argv0, argv0);
  return 2;
}

// The --json document: the library's run document (fed::write_run_json)
// plus what only this process knows — the kernel target, phase quantiles
// from the metrics registry, and graph-replay accounting.
void print_json(const fed::RunResult& result) {
  obs::JsonWriter w;
  w.begin_object();
  fed::write_run_json(w, result);
  w.field("isa", tensor::kern::active_name());

  // Bucket-estimated quantiles for the phase histograms the runner feeds.
  const auto snap = obs::Registry::instance().snapshot();
  w.key("quantiles").begin_object();
  for (const char* name : {"fed.round_train_seconds", "fed.aggregate_seconds",
                           "fed.eval_seconds", "pool.task_wait_seconds"}) {
    const auto it = snap.histograms.find(name);
    if (it == snap.histograms.end() || it->second.stats.count == 0) continue;
    w.key(name)
        .begin_object()
        .field("p50", it->second.quantile(0.50))
        .field("p95", it->second.quantile(0.95))
        .field("p99", it->second.quantile(0.99))
        .end_object();
  }
  w.end_object();

  // Graph-replay accounting (all zero for eager runs, so the block is
  // always present). arena_bytes is the largest planned arena this process
  // captured — deterministic for a fixed (method, dataset, scale, seed).
  const auto counter_of = [&](const char* name) -> std::uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  const auto gauge_it = snap.gauges.find("ag.graph.arena_bytes");
  const auto arena_bytes = static_cast<std::uint64_t>(
      gauge_it == snap.gauges.end() ? 0.0 : gauge_it->second);
  w.key("graph")
      .begin_object()
      .field("captures", counter_of("ag.graph.capture"))
      .field("capture_rejects", counter_of("ag.graph.capture_reject"))
      .field("replays", counter_of("ag.graph.replay"))
      .field("fallbacks", counter_of("ag.graph.fallback"))
      .field("arena_bytes", arena_bytes)
      .field("pool_misses", counter_of("tensor.pool.miss"))
      .end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string dataset_name, method_name, order = "orig", scale = "scaled";
  std::string profile_path, fault_spec, des_spec, compress_spec, monitor_spec;
  std::uint64_t seed = 7;
  double dropout = 0.0;
  bool json = false;
  bool graph_replay = false;
  bool monitor_armed = false;
  bool serve_metrics = false;
  long metrics_port = 0;
  if (const char* env_port = std::getenv("REFFIL_METRICS_PORT")) {
    serve_metrics = true;
    monitor_armed = true;
    metrics_port = std::strtol(env_port, nullptr, 10);
  }

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "--list") {
      std::printf("datasets:\n");
      for (const auto& spec : data::all_dataset_specs()) {
        std::printf("  %-16s %zu classes, %zu domains\n", spec.name.c_str(),
                    spec.num_classes, spec.domains.size());
      }
      std::printf("methods:\n");
      for (const auto kind : harness::all_method_kinds()) {
        std::printf("  %s\n", harness::method_cli_name(kind).c_str());
      }
      return 0;
    } else if (arg == "--dataset") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      dataset_name = v;
    } else if (arg == "--method") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      method_name = v;
    } else if (arg == "--order") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      order = v;
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--scale") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      scale = v;
    } else if (arg == "--dropout") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      dropout = std::strtod(v, nullptr);
    } else if (arg == "--fault-profile") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      fault_spec = v;
    } else if (arg == "--des") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      des_spec = v;
    } else if (arg == "--compress") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      compress_spec = v;
    } else if (arg == "--profile") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      profile_path = v;
    } else if (arg == "--serve-metrics") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      serve_metrics = true;
      monitor_armed = true;
      metrics_port = std::strtol(v, nullptr, 10);
    } else if (arg == "--monitor") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      monitor_armed = true;
      monitor_spec = v;
    } else if (arg == "--graph-replay") {
      graph_replay = true;
    } else if (arg == "--json") {
      json = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (dataset_name.empty() || method_name.empty()) return usage(argv[0]);

  data::DatasetSpec spec;
  bool found = false;
  for (const auto& candidate : data::all_dataset_specs()) {
    if (candidate.name != dataset_name) continue;
    if (found) {
      // The lookup used to keep scanning, so a duplicated registry name
      // silently resolved to whichever spec happened to be listed last.
      std::fprintf(stderr,
                   "dataset '%s' appears more than once in the spec registry; "
                   "refusing to guess which one you meant\n",
                   dataset_name.c_str());
      return 2;
    }
    spec = candidate;
    found = true;
  }
  if (!found) {
    std::fprintf(stderr, "unknown dataset '%s' (see --list)\n",
                 dataset_name.c_str());
    return 2;
  }
  if (order == "new") {
    spec = data::with_domain_order(spec, data::new_domain_order(spec.name));
  } else if (order != "orig") {
    std::fprintf(stderr, "unknown order '%s'\n", order.c_str());
    return 2;
  }
  const auto kind = harness::parse_method_name(method_name);
  if (!kind) {
    std::fprintf(stderr, "unknown method '%s' (see --list)\n",
                 method_name.c_str());
    return 2;
  }

  harness::ExperimentConfig config;
  config.seed = seed;
  config.scale = scale == "smoke"   ? harness::Scale::kSmoke
                 : scale == "full"  ? harness::Scale::kFull
                                    : harness::Scale::kScaled;
  config.graph_replay = graph_replay;

  if (!profile_path.empty()) {
    obs::prof::set_thread_name("main");
    obs::prof::start(profile_path);
  }

  fed::FaultProfile faults;
  if (!fault_spec.empty()) {
    try {
      faults = fed::FaultProfile::parse(fault_spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad --fault-profile: %s\n", e.what());
      return 2;
    }
  }
  fed::DesConfig des;
  if (!des_spec.empty()) {
    try {
      des = fed::DesConfig::parse(des_spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad --des: %s\n", e.what());
      return 2;
    }
  }
  fed::CompressionConfig compress;
  if (!compress_spec.empty()) {
    try {
      compress = fed::CompressionConfig::parse(compress_spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad --compress: %s\n", e.what());
      return 2;
    }
  }

  std::shared_ptr<fed::RunMonitor> monitor;
  if (monitor_armed) {
    fed::MonitorConfig monitor_config;
    try {
      monitor_config = fed::MonitorConfig::parse(monitor_spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad --monitor: %s\n", e.what());
      return 2;
    }
    monitor = std::make_shared<fed::RunMonitor>(monitor_config);
  }
  std::unique_ptr<obs::expo::MetricsServer> server;
  if (serve_metrics) {
    if (metrics_port < 0 || metrics_port > 65535) {
      std::fprintf(stderr, "bad --serve-metrics port %ld\n", metrics_port);
      return 2;
    }
    obs::expo::MetricsServer::Options options;
    options.port = static_cast<std::uint16_t>(metrics_port);
    server = std::make_unique<obs::expo::MetricsServer>(
        options,
        [monitor] {
          return obs::expo::render_openmetrics(
              obs::Registry::instance().snapshot(),
              fed::run_extras(monitor->board().get()));
        },
        [monitor] { return monitor->board().get().render_json(); },
        [monitor] {
          return std::make_pair(monitor->health().healthy(),
                                monitor->health().reason());
        });
    try {
      server->start();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "reffil_run: %s\n", e.what());
      return 1;
    }
    std::fprintf(stderr,
                 "serving /metrics /healthz /progress on 127.0.0.1:%u\n",
                 server->port());
  }

  const auto scaled_spec = harness::apply_scale(spec, config.scale);
  auto method = harness::make_method(*kind, scaled_spec, config);
  fed::RunConfig run_config{.spec = scaled_spec,
                            .parallelism = config.parallelism,
                            .seed = config.seed,
                            .dropout_probability = dropout,
                            .faults = faults,
                            .des = des,
                            .compress = compress,
                            .monitor = monitor};
  fed::FederatedRunner runner(run_config);
  fed::RunResult result;
  try {
    result = runner.run(*method);
  } catch (const std::exception& e) {
    // Partial traces are still evidence — flush every sink before dying.
    obs::flush_all();
    std::fprintf(stderr, "reffil_run: %s\n", e.what());
    return 1;
  }

  if (!profile_path.empty()) {
    obs::prof::stop_and_write();
    std::fprintf(stderr, "profile written to %s (read it with reffil_prof)\n",
                 profile_path.c_str());
  }

  if (json) {
    print_json(result);
  } else {
    std::printf("%s on %s (seed %llu, %s order, scale %s, isa %s)\n",
                result.method_name.c_str(), result.dataset_name.c_str(),
                static_cast<unsigned long long>(seed), order.c_str(),
                scale.c_str(), tensor::kern::active_name());
    for (const auto& task : result.tasks) {
      std::printf("  after %-14s cumulative %5.1f%%\n", task.domain_name.c_str(),
                  task.cumulative_accuracy);
    }
    std::string dropped_note;
    if (result.network.dropped_updates != 0) {
      dropped_note = "  (" + std::to_string(result.network.dropped_updates) +
                     " dropped updates)";
    }
    if (result.network.quarantined != 0 || result.network.retries != 0 ||
        result.network.timed_out != 0) {
      dropped_note += "  [faults: " +
                      std::to_string(result.network.quarantined) +
                      " quarantined, " +
                      std::to_string(result.network.retries) + " retries, " +
                      std::to_string(result.network.timed_out) + " timed out]";
    }
    if (!des_spec.empty()) {
      std::printf("  %llu participants sampled across %zu rounds\n",
                  static_cast<unsigned long long>(result.participants()),
                  result.rounds.size());
    }
    std::string compress_note;
    if (result.compression != "none") {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "  [%s: %.1fx down, %.1fx up]",
                    result.compression.c_str(),
                    result.compression_ratio_down(),
                    result.compression_ratio_up());
      compress_note = buf;
    }
    std::printf("Avg %.2f%%  Last %.2f%%  traffic %.1f MiB down / %.1f MiB up"
                "%s%s  wall %.1fs (train %.1fs, aggregate %.1fs, eval %.1fs)\n",
                result.average_accuracy(), result.last_accuracy(),
                result.network.bytes_down / 1048576.0,
                result.network.bytes_up / 1048576.0, compress_note.c_str(),
                dropped_note.c_str(), result.wall_seconds,
                result.train_seconds(), result.aggregate_seconds(),
                result.eval_seconds());
  }

  if (server != nullptr) {
    // Keep serving the final state so a scraper can reconcile the live
    // counters against the --json output above; /quitquitquit ends the
    // linger early, and no env var means no linger at all.
    double linger_s = 0.0;
    if (const char* env = std::getenv("REFFIL_METRICS_LINGER")) {
      linger_s = std::strtod(env, nullptr);
    }
    if (linger_s > 0.0) {
      std::fflush(stdout);
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(linger_s));
      while (std::chrono::steady_clock::now() < deadline &&
             !server->shutdown_requested()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    }
    server->stop();
  }
  return 0;
}
