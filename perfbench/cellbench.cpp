// cellbench — end-to-end benchmark of whole federated domain-incremental
// cells (Digits-Five, Scale::kScaled), run through the public harness.
//
//   cellbench --workload NAME --seed N --seconds S --trace 0|1
//             --reference PATH [--details PATH] [--spans PATH]
//   cellbench --workload NAME --record
//
// Load model: a closed loop in one process. Cells run one at a time, back to
// back, each a full FederatedRunner::run with the harness default client
// slots. Every cell draws its seed from a fixed pool of four recorded cell
// seeds: the first seed always first, the others in an order shuffled by
// --seed.
//
// --trace 0 reports the end-to-end metrics. It runs whole rotations over the
// pool, so every run times the same cells, as many as fit in --seconds (at
// least one). Cells run behind a ProbeMethod that records only round
// boundaries and a train_client count.
// --trace 1 reports the per-layer metrics. After one unreported warm-up cell,
// until --seconds have passed, it alternates an unprobed cell with a fully
// traced cell of the same seed, asserts their RunResults are identical, and
// reports the tracing overhead as the difference of their median cell times.
//
// Every cell passes a correctness gate: reference accuracies and byte totals
// for (ISA, workload, cell seed), per-round bytes summing to the network
// totals, raw-equivalent bytes equal to wire bytes when uncompressed, and the
// cl.clients_trained counter delta equal to the probe's train_client count.
// A failing cell counts as failed; the last stdout line is the result JSON.
//
// --record runs each pool seed once, unprobed, and prints the reference
// entries for this ISA and workload as one JSON line.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "probe.hpp"
#include "reffil/cl/method_base.hpp"
#include "reffil/data/spec.hpp"
#include "reffil/harness/experiment.hpp"
#include "reffil/tensor/kernels_dispatch.hpp"
#include "reffil/util/json.hpp"
#include "reffil/util/obs.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace reffil;
using perfbench::Call;
using perfbench::ProbeMethod;
using perfbench::Span;

struct Workload {
  const char* name;
  harness::MethodKind kind;
  bool graph_replay;
  const char* des;       ///< DesConfig spec, "" = dense
  const char* compress;  ///< CompressionConfig spec, "" = uncompressed
};

// Why each workload exists is recorded in BENCHMARK.json and
// perfbench/layer_map.json.
constexpr Workload kWorkloads[] = {
    {"reffil-eager", harness::MethodKind::kRefFiL, false, "", ""},
    {"reffil-replay", harness::MethodKind::kRefFiL, true, "", ""},
    {"des-q8", harness::MethodKind::kFinetune, false,
     "registered=100000,sample=50", "q8,topk=0.1"},
};

// Cell seeds with recorded references. Four is the most whole des-q8 cells
// (the slowest workload) a 30 s run completes, so every run covers the pool.
constexpr std::uint64_t kCellSeeds[] = {7, 17, 27, 37};
constexpr std::size_t kPool = std::size(kCellSeeds);
// Set-up is milliseconds; repeating it gives set-up its own stable median.
constexpr int kSetupsPerCell = 5;

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(perfbench::now_ns() - start_ns) * 1e-9;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(v.size() - 1, lo + 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Total length of the union of [start, end) intervals (nanoseconds).
std::int64_t union_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0, cur_start = 0, cur_end = -1;
  for (const auto& [s, e] : iv) {
    if (s > cur_end) {
      if (cur_end > cur_start) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (cur_end > cur_start) total += cur_end - cur_start;
  return total;
}

// ---- cells -------------------------------------------------------------------

struct BuiltCell {
  std::unique_ptr<fed::Method> method;
  std::unique_ptr<fed::FederatedRunner> runner;
};

harness::ExperimentConfig experiment_config(const Workload& w,
                                            std::uint64_t seed) {
  harness::ExperimentConfig config;
  config.seed = seed;
  config.scale = harness::Scale::kScaled;
  config.graph_replay = w.graph_replay;
  if (*w.des != '\0') config.des = fed::DesConfig::parse(w.des);
  if (*w.compress != '\0') config.compress = fed::CompressionConfig::parse(w.compress);
  return config;
}

/// The set-up a researcher pays per cell: scaled spec, method, runner.
BuiltCell build_cell(const Workload& w, std::uint64_t seed) {
  const harness::ExperimentConfig config = experiment_config(w, seed);
  const data::DatasetSpec spec =
      harness::apply_scale(data::digits_five_spec(), config.scale);
  BuiltCell cell;
  cell.method = harness::make_method(w.kind, spec, config);
  fed::RunConfig run_config;
  run_config.spec = spec;
  run_config.parallelism = config.parallelism;
  run_config.seed = config.seed;
  run_config.faults = config.faults;
  run_config.des = config.des;
  run_config.compress = config.compress;
  cell.runner = std::make_unique<fed::FederatedRunner>(run_config);
  return cell;
}

std::size_t client_slots() { return harness::ExperimentConfig{}.parallelism; }

// ---- registry deltas ---------------------------------------------------------

std::uint64_t counter_of(const obs::Registry::Snapshot& s, const char* name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

/// Per-cell change of the process-global, cumulative registry.
struct RegistryDelta {
  std::map<std::string, std::uint64_t> counters;
  double arena_bytes = 0.0;  ///< gauge: largest arena planned so far
  obs::HistogramSnapshot task_wait;

  std::uint64_t operator[](const char* name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

constexpr const char* kDeltaCounters[] = {
    "tensor.pool.hit",    "tensor.pool.miss",      "tensor.pool.bytes",
    "ag.graph.capture",   "ag.graph.replay",       "ag.graph.fallback",
    "cl.clients_trained", "cl.samples_trained",    "des.participations",
    "des.unique_participants",
};

RegistryDelta registry_delta(const obs::Registry::Snapshot& before,
                             const obs::Registry::Snapshot& after) {
  RegistryDelta d;
  for (const char* name : kDeltaCounters) {
    d.counters[name] = counter_of(after, name) - counter_of(before, name);
  }
  if (const auto it = after.gauges.find("ag.graph.arena_bytes");
      it != after.gauges.end()) {
    d.arena_bytes = it->second;
  }
  const auto a = after.histograms.find("pool.task_wait_seconds");
  if (a != after.histograms.end()) {
    d.task_wait = a->second;
    const auto b = before.histograms.find("pool.task_wait_seconds");
    if (b != before.histograms.end()) {
      d.task_wait.stats.count -= b->second.stats.count;
      d.task_wait.stats.sum -= b->second.stats.sum;
      for (std::size_t i = 0; i < d.task_wait.buckets.size(); ++i) {
        d.task_wait.buckets[i] -= b->second.buckets[i];
      }
    }
    // min/max stay the cumulative extrema: quantile() only clamps to them.
  }
  return d;
}

// ---- per-cell record and gate ------------------------------------------------

struct Reference {
  double avg_acc = 0.0;
  double forgetting_pts = 0.0;
  std::uint64_t bytes_down = 0, bytes_up = 0;
  std::uint64_t bytes_down_raw_equiv = 0, bytes_up_raw_equiv = 0;
};

/// Mean over earlier domains of (best - final) per-domain accuracy.
double forgetting_pts(const fed::RunResult& r) {
  if (r.tasks.size() < 2) return 0.0;
  const auto& final_acc = r.tasks.back().per_domain_accuracy;
  double sum = 0.0;
  const std::size_t earlier = r.tasks.size() - 1;
  for (std::size_t d = 0; d < earlier; ++d) {
    double best = 0.0;
    for (std::size_t t = d; t < r.tasks.size(); ++t) {
      best = std::max(best, r.tasks[t].per_domain_accuracy.at(d));
    }
    sum += best - final_acc.at(d);
  }
  return sum / static_cast<double>(earlier);
}

Reference observed(const fed::RunResult& r) {
  return {r.average_accuracy(), forgetting_pts(r), r.network.bytes_down,
          r.network.bytes_up, r.network.bytes_down_raw_equiv,
          r.network.bytes_up_raw_equiv};
}

std::uint64_t participants(const fed::RunResult& r) {
  std::uint64_t n = 0;
  for (const auto& round : r.rounds) n += round.selected;
  return n;
}

std::uint64_t failed_updates(const fed::RunResult& r) {
  return r.network.dropped_updates + r.network.quarantined + r.network.timed_out;
}

struct CellRecord {
  std::uint64_t seed = 0;
  bool traced = false;
  bool probed = false;
  bool warmup = false;  ///< traced run only: gated, but not reported
  std::vector<double> setup_s;
  double run_s = 0.0;
  std::int64_t start_ns = 0, end_ns = 0;  ///< runner.run() interval
  fed::RunResult result;
  std::vector<perfbench::RoundWindow> rounds;
  std::vector<Span> spans;
  std::uint64_t train_calls = 0;
  RegistryDelta delta;
  std::size_t ef_residuals = 0;
  double peak_rss_mib = 0.0;  ///< process peak RSS when the cell ended
  std::vector<std::string> failures;
};

void gate(CellRecord& c, const Workload& w, const Reference* ref) {
  const fed::RunResult& r = c.result;
  auto fail = [&](std::string why) { c.failures.push_back(std::move(why)); };
  if (ref == nullptr) {
    fail("no reference recorded for this ISA, workload and cell seed");
  } else {
    const Reference got = observed(r);
    if (got.avg_acc != ref->avg_acc) fail("avg_acc differs from the reference");
    if (got.forgetting_pts != ref->forgetting_pts) {
      fail("forgetting_pts differs from the reference");
    }
    if (got.bytes_down != ref->bytes_down || got.bytes_up != ref->bytes_up ||
        got.bytes_down_raw_equiv != ref->bytes_down_raw_equiv ||
        got.bytes_up_raw_equiv != ref->bytes_up_raw_equiv) {
      fail("byte totals differ from the reference");
    }
  }
  std::uint64_t down = 0, up = 0;
  for (const auto& round : r.rounds) {
    down += round.bytes_down;
    up += round.bytes_up;
  }
  if (down != r.network.bytes_down || up != r.network.bytes_up) {
    fail("per-round bytes do not sum to the network totals");
  }
  if (*w.compress == '\0' &&
      (r.network.bytes_down_raw_equiv != r.network.bytes_down ||
       r.network.bytes_up_raw_equiv != r.network.bytes_up)) {
    fail("raw-equivalent bytes differ from wire bytes on an uncompressed cell");
  }
  if (c.probed && c.delta["cl.clients_trained"] != c.train_calls) {
    fail("cl.clients_trained delta differs from the probe's train_client count");
  }
  if (c.probed && std::any_of(c.rounds.begin(), c.rounds.end(),
                              [](const auto& round) { return !round.closed(); })) {
    fail("a round never reached aggregation");
  }
  if (failed_updates(r) != 0) fail("client updates were dropped or quarantined");
}

/// Exact equality of everything a probe could conceivably perturb.
bool same_result(const fed::RunResult& a, const fed::RunResult& b) {
  if (a.method_name != b.method_name || a.compression != b.compression ||
      a.tasks.size() != b.tasks.size() || a.rounds.size() != b.rounds.size()) {
    return false;
  }
  for (std::size_t t = 0; t < a.tasks.size(); ++t) {
    if (a.tasks[t].cumulative_accuracy != b.tasks[t].cumulative_accuracy ||
        a.tasks[t].per_domain_accuracy != b.tasks[t].per_domain_accuracy) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    const auto &x = a.rounds[i], &y = b.rounds[i];
    if (x.task != y.task || x.round != y.round || x.selected != y.selected ||
        x.dropped != y.dropped || x.bytes_down != y.bytes_down ||
        x.bytes_up != y.bytes_up || x.quarantined != y.quarantined ||
        x.retries != y.retries || x.timed_out != y.timed_out ||
        x.bytes_retransmitted != y.bytes_retransmitted) {
      return false;
    }
  }
  const auto &n = a.network, &m = b.network;
  return n.bytes_down == m.bytes_down && n.bytes_up == m.bytes_up &&
         n.messages == m.messages && n.dropped_updates == m.dropped_updates &&
         n.quarantined == m.quarantined && n.retries == m.retries &&
         n.timed_out == m.timed_out &&
         n.bytes_retransmitted == m.bytes_retransmitted &&
         n.bytes_down_raw_equiv == m.bytes_down_raw_equiv &&
         n.bytes_up_raw_equiv == m.bytes_up_raw_equiv;
}

/// Build the cell kSetupsPerCell times (timing each), run the last build,
/// and collect everything the metrics and the gate need.
CellRecord run_cell(const Workload& w, std::uint64_t seed, bool probed,
                    bool traced) {
  CellRecord c;
  c.seed = seed;
  c.probed = probed;
  c.traced = traced;
  BuiltCell cell;
  for (int i = 0; i < kSetupsPerCell; ++i) {
    cell = BuiltCell{};  // release the previous build before timing the next
    const std::int64_t start = perfbench::now_ns();
    cell = build_cell(w, seed);
    c.setup_s.push_back(seconds_since(start));
  }
  std::optional<ProbeMethod> probe;
  if (probed) probe.emplace(*cell.method, traced);
  fed::Method& method = probe ? static_cast<fed::Method&>(*probe) : *cell.method;

  const auto before = obs::Registry::instance().snapshot();
  c.start_ns = perfbench::now_ns();
  c.result = cell.runner->run(method);
  c.end_ns = perfbench::now_ns();
  c.run_s = static_cast<double>(c.end_ns - c.start_ns) * 1e-9;
  c.delta = registry_delta(before, obs::Registry::instance().snapshot());
  c.peak_rss_mib = peak_rss_mib();
  if (const auto* base = dynamic_cast<const cl::MethodBase*>(cell.method.get())) {
    c.ef_residuals = base->residual_count();
  }
  if (probe) {
    c.rounds = probe->rounds();
    c.train_calls = probe->train_client_calls();
    c.spans = probe->spans();
  }
  return c;
}

// ---- per-layer view of one traced cell -----------------------------------------

struct LayerStats {
  double train_window_s = 0.0, train_busy_s = 0.0;
  double broadcast_s = 0.0, broadcast_bytes = 0.0;
  double aggregate_s = 0.0, aggregate_updates = 0.0;
  double task_start_s = 0.0, prepare_eval_s = 0.0, eval_s = 0.0;
  double method_busy_s = 0.0;   ///< summed over threads
  double unattributed_s = 0.0;  ///< run time no Method call covers
  double train_calls = 0.0, predict_calls = 0.0;
  std::vector<double> train_s, predict_s;
};

LayerStats layer_stats(const CellRecord& c) {
  LayerStats s;
  std::map<std::uint32_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      train_by_round;
  std::map<std::uint32_t, std::pair<std::int64_t, std::int64_t>> eval_window;
  std::vector<std::pair<std::int64_t, std::int64_t>> all;
  for (const Span& span : c.spans) {
    const double sec = span.seconds();
    all.emplace_back(span.start_ns, span.end_ns);
    s.method_busy_s += sec;
    switch (span.call) {
      case Call::kTrainClient:
        train_by_round[span.group].emplace_back(span.start_ns, span.end_ns);
        s.train_busy_s += sec;
        s.train_s.push_back(sec);
        s.train_calls += 1;
        break;
      case Call::kBroadcast:
        s.broadcast_s += sec;
        s.broadcast_bytes += static_cast<double>(span.value);
        break;
      case Call::kAggregate:
      case Call::kSinkAdd:
        s.aggregate_s += sec;
        s.aggregate_updates += static_cast<double>(span.value);
        break;
      case Call::kSinkFinish:
        s.aggregate_s += sec;
        break;
      case Call::kTaskStart:
        s.task_start_s += sec;
        break;
      case Call::kPrepareEval:
      case Call::kPredict: {
        if (span.call == Call::kPredict) {
          s.predict_s.push_back(sec);
          s.predict_calls += 1;
        } else {
          s.prepare_eval_s += sec;
        }
        auto [it, fresh] = eval_window.try_emplace(
            span.group, std::make_pair(span.start_ns, span.end_ns));
        if (!fresh) {
          it->second.first = std::min(it->second.first, span.start_ns);
          it->second.second = std::max(it->second.second, span.end_ns);
        }
        break;
      }
    }
  }
  for (const auto& [round, iv] : train_by_round) {
    s.train_window_s += static_cast<double>(union_ns(iv)) * 1e-9;
  }
  for (const auto& [eval, window] : eval_window) {
    s.eval_s += static_cast<double>(window.second - window.first) * 1e-9;
  }
  s.unattributed_s = c.run_s - static_cast<double>(union_ns(all)) * 1e-9;
  return s;
}

// ---- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string fmt(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  obs::json_escape(out, s);
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += quoted(metrics[i].name) + ": {\"value\": " + fmt(metrics[i].value) +
           ", \"unit\": " + quoted(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// Mean over distinct cell seeds (first occurrence) of a per-cell quantity
/// that is deterministic per seed.
template <typename F>
double mean_over_seeds(const std::vector<CellRecord>& cells, F f) {
  std::set<std::uint64_t> seen;
  double sum = 0.0;
  for (const auto& c : cells) {
    if (!c.warmup && seen.insert(c.seed).second) sum += f(c);
  }
  return seen.empty() ? 0.0 : sum / static_cast<double>(seen.size());
}

/// Peak RSS after the process's first cell (always kCellSeeds[0]): what one
/// cell costs in a fresh process, as one reffil_run invocation pays it.
/// Later cells of the closed loop can sit on memory earlier cells left
/// behind (proc.rss_growth_mb_per_cell).
double first_cell_rss_mib(const std::vector<CellRecord>& cells) {
  return cells.empty() ? peak_rss_mib() : cells.front().peak_rss_mib;
}

std::vector<Metric> end_to_end_metrics(const std::vector<CellRecord>& cells,
                                       double loop_s, std::uint64_t attempted,
                                       std::uint64_t failed) {
  std::vector<double> setup, cell_s, round_s;
  double clients = 0.0;
  for (const auto& c : cells) {
    if (c.warmup) continue;
    setup.insert(setup.end(), c.setup_s.begin(), c.setup_s.end());
    cell_s.push_back(c.run_s);
    for (const auto& r : c.rounds) {
      if (r.closed()) round_s.push_back(r.seconds());
    }
    clients += static_cast<double>(c.train_calls);
  }
  std::fprintf(stderr, "cellbench: %zu cells, %zu round samples, %zu set-ups\n",
               cells.size(), round_s.size(), setup.size());
  return {
      {"setup_s", median(setup), "s"},
      {"cell_s", median(cell_s), "s"},
      {"round_s_p50", quantile(round_s, 0.5), "s"},
      {"round_s_p90", quantile(round_s, 0.9), "s"},
      {"clients_per_s", ratio(clients, loop_s), "1/s"},
      {"peak_rss_mb", first_cell_rss_mib(cells), "MiB"},
      {"bytes_per_client",
       mean_over_seeds(cells,
                       [](const CellRecord& c) {
                         return ratio(static_cast<double>(
                                          c.result.network.bytes_down +
                                          c.result.network.bytes_up),
                                      static_cast<double>(participants(c.result)));
                       }),
       "B"},
      {"avg_acc",
       mean_over_seeds(cells,
                       [](const CellRecord& c) {
                         return c.result.average_accuracy();
                       }),
       "%"},
      {"forgetting_pts",
       mean_over_seeds(cells,
                       [](const CellRecord& c) { return forgetting_pts(c.result); }),
       "pts"},
      {"success_share",
       1.0 - ratio(static_cast<double>(failed), static_cast<double>(attempted)),
       "ratio"},
  };
}

std::vector<Metric> per_layer_metrics(const std::vector<CellRecord>& cells) {
  // name -> (unit, one value per traced cell)
  std::map<std::string, std::pair<std::string, std::vector<double>>> per_cell;
  std::vector<double> train_s, predict_s, traced_s, untraced_s;
  obs::HistogramSnapshot task_wait;
  const double slots = static_cast<double>(client_slots());
  for (const auto& c : cells) {
    if (c.warmup) continue;
    if (!c.traced) {
      untraced_s.push_back(c.run_s);
      continue;
    }
    traced_s.push_back(c.run_s);
    const LayerStats s = layer_stats(c);
    train_s.insert(train_s.end(), s.train_s.begin(), s.train_s.end());
    predict_s.insert(predict_s.end(), s.predict_s.begin(), s.predict_s.end());
    const auto& net = c.result.network;
    const double clients = static_cast<double>(participants(c.result));
    const double updates = s.train_calls;
    const RegistryDelta& d = c.delta;
    const double hits = static_cast<double>(d["tensor.pool.hit"]);
    const double misses = static_cast<double>(d["tensor.pool.miss"]);
    const double captures = static_cast<double>(d["ag.graph.capture"]);
    const double replays = static_cast<double>(d["ag.graph.replay"]);
    const Metric values[] = {
        {"fed.train_slot_idle_share",
         1.0 - ratio(s.train_busy_s, slots * s.train_window_s), "ratio"},
        {"fed.train_window_s", s.train_window_s, "s"},
        {"fed.broadcast_s", s.broadcast_s, "s"},
        {"fed.broadcast_bytes", s.broadcast_bytes, "B"},
        {"fed.aggregate_s", s.aggregate_s, "s"},
        {"fed.aggregate_updates", s.aggregate_updates, "count"},
        {"fed.unattributed_s", s.unattributed_s, "s"},
        {"fed.bytes_up_per_client",
         ratio(static_cast<double>(net.bytes_up), updates), "B"},
        {"fed.bytes_down_per_client",
         ratio(static_cast<double>(net.bytes_down), clients), "B"},
        {"fed.compression_ratio_up",
         ratio(static_cast<double>(net.bytes_up_raw_equiv),
               static_cast<double>(net.bytes_up)), "ratio"},
        {"fed.compression_ratio_down",
         ratio(static_cast<double>(net.bytes_down_raw_equiv),
               static_cast<double>(net.bytes_down)), "ratio"},
        {"fed.ef_residuals", static_cast<double>(c.ef_residuals), "count"},
        {"des.participations", static_cast<double>(d["des.participations"]), "count"},
        {"des.unique_participants",
         static_cast<double>(d["des.unique_participants"]), "count"},
        {"cl.train_client_calls", s.train_calls, "count"},
        {"cl.train_samples_per_s",
         ratio(static_cast<double>(d["cl.samples_trained"]), s.train_busy_s), "1/s"},
        {"cl.task_start_s", s.task_start_s, "s"},
        {"cl.prepare_eval_s", s.prepare_eval_s, "s"},
        {"cl.predict_calls", s.predict_calls, "count"},
        {"cl.eval_s", s.eval_s, "s"},
        {"ag.graph.captures", captures, "count"},
        {"ag.graph.replays", replays, "count"},
        {"ag.graph.fallbacks", static_cast<double>(d["ag.graph.fallback"]), "count"},
        {"ag.graph.replays_per_capture", ratio(replays, captures), "ratio"},
        {"ag.graph.arena_bytes", d.arena_bytes, "B"},
        {"tensor.pool.hits", hits, "count"},
        {"tensor.pool.misses", misses, "count"},
        {"tensor.pool.hit_ratio", ratio(hits, hits + misses), "ratio"},
        {"tensor.pool.bytes", static_cast<double>(d["tensor.pool.bytes"]), "B"},
        {"layer.fed.busy_s", c.run_s, "s"},
        {"layer.fed.self_s", s.unattributed_s, "s"},
        {"layer.cl.busy_s", s.method_busy_s, "s"},
        // Method calls are leaves until spans exist inside the library.
        {"layer.cl.self_s", s.method_busy_s, "s"},
        {"trace.spans_per_cell", static_cast<double>(c.spans.size()), "count"},
    };
    for (const Metric& m : values) {
      per_cell.try_emplace(m.name, m.unit, std::vector<double>{})
          .first->second.second.push_back(m.value);
    }
    // Bucket counts add across cells. quantile() clamps to [min, max]; min
    // stays 0, a harmless bound for waits.
    task_wait.stats.count += d.task_wait.stats.count;
    task_wait.stats.sum += d.task_wait.stats.sum;
    task_wait.stats.max = std::max(task_wait.stats.max, d.task_wait.stats.max);
    for (std::size_t i = 0; i < task_wait.buckets.size(); ++i) {
      task_wait.buckets[i] += d.task_wait.buckets[i];
    }
  }
  std::vector<Metric> out;
  for (const auto& [name, unit_values] : per_cell) {
    out.push_back({name, median(unit_values.second), unit_values.first});
  }
  const double traced = median(traced_s), untraced = median(untraced_s);
  out.push_back({"cl.train_client_s_p50", quantile(train_s, 0.5), "s"});
  out.push_back({"cl.train_client_s_p90", quantile(train_s, 0.9), "s"});
  out.push_back({"cl.predict_s_p50", quantile(predict_s, 0.5), "s"});
  out.push_back({"pool.task_wait_s_p50", task_wait.quantile(0.5), "s"});
  out.push_back({"pool.task_wait_s_p90", task_wait.quantile(0.9), "s"});
  out.push_back({"trace.traced_cell_s", traced, "s"});
  out.push_back({"trace.untraced_cell_s", untraced, "s"});
  out.push_back({"trace.overhead_s", traced - untraced, "s"});
  out.push_back({"trace.overhead_share", ratio(traced - untraced, untraced), "ratio"});
  out.push_back({"trace.cells", static_cast<double>(traced_s.size()), "count"});
  out.push_back({"proc.rss_growth_mb_per_cell",
                 cells.size() < 2 ? 0.0
                                  : (cells.back().peak_rss_mib - first_cell_rss_mib(cells)) /
                                        static_cast<double>(cells.size() - 1),
                 "MiB"});
  std::fprintf(stderr,
               "cellbench: %zu traced cells, %zu train_client spans, %zu "
               "predict spans, %llu pool waits\n",
               traced_s.size(), train_s.size(), predict_s.size(),
               static_cast<unsigned long long>(task_wait.stats.count));
  return out;
}

// ---- reference file ------------------------------------------------------------

std::optional<Reference> find_reference(const util::json::Value& doc,
                                        const std::string& isa,
                                        const std::string& workload,
                                        std::uint64_t seed) {
  const auto* refs = doc.find("references");
  const auto* by_isa = refs ? refs->find(isa) : nullptr;
  const auto* by_workload = by_isa ? by_isa->find(workload) : nullptr;
  const auto* cell = by_workload ? by_workload->find(std::to_string(seed)) : nullptr;
  if (cell == nullptr) return std::nullopt;
  const auto u64 = [&](const char* key) {
    return static_cast<std::uint64_t>(cell->find(key)->as_number());
  };
  return Reference{cell->find("avg_acc")->as_number(),
                   cell->find("forgetting_pts")->as_number(),
                   u64("bytes_down"),
                   u64("bytes_up"),
                   u64("bytes_down_raw_equiv"),
                   u64("bytes_up_raw_equiv")};
}

std::string reference_json(const Reference& r) {
  auto u = [](std::uint64_t v) { return std::to_string(v); };
  return "{\"avg_acc\": " + fmt(r.avg_acc) +
         ", \"forgetting_pts\": " + fmt(r.forgetting_pts) +
         ", \"bytes_down\": " + u(r.bytes_down) + ", \"bytes_up\": " + u(r.bytes_up) +
         ", \"bytes_down_raw_equiv\": " + u(r.bytes_down_raw_equiv) +
         ", \"bytes_up_raw_equiv\": " + u(r.bytes_up_raw_equiv) + "}";
}

// ---- details and spans files ---------------------------------------------------

void write_details(const std::string& path, const Workload& w, std::uint64_t seed,
                   int trace, const std::vector<CellRecord>& cells,
                   const std::vector<Metric>& metrics, bool correct) {
  std::ofstream out(path);
  out << "{\"workload\": " << quoted(w.name) << ", \"seed\": " << seed
      << ", \"trace\": " << trace << ", \"correct\": " << (correct ? "true" : "false")
      << ",\n \"identity\": {\"isa\": " << quoted(tensor::kern::active_name())
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"client_slots\": " << client_slots()
      << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE) << "},\n \"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellRecord& c = cells[i];
    const Reference got = observed(c.result);
    out << (i == 0 ? "\n  " : ",\n  ") << "{\"cell_seed\": " << c.seed
        << ", \"traced\": " << (c.traced ? "true" : "false")
        << ", \"probed\": " << (c.probed ? "true" : "false")
        << ", \"warmup\": " << (c.warmup ? "true" : "false")
        << ", \"run_s\": " << fmt(c.run_s)
        << ", \"peak_rss_mib\": " << fmt(c.peak_rss_mib) << ", \"setup_s\": [";
    for (std::size_t k = 0; k < c.setup_s.size(); ++k) {
      out << (k == 0 ? "" : ", ") << fmt(c.setup_s[k]);
    }
    out << "], \"rounds\": " << c.rounds.size()
        << ", \"train_client_calls\": " << c.train_calls
        << ", \"observed\": " << reference_json(got) << ", \"failures\": [";
    for (std::size_t k = 0; k < c.failures.size(); ++k) {
      out << (k == 0 ? "" : ", ") << quoted(c.failures[k]);
    }
    out << "]}";
  }
  out << "\n ],\n \"metrics\": " << metrics_json(metrics) << "}\n";
}

void write_spans(const std::string& path, const std::vector<CellRecord>& cells) {
  std::ofstream out(path);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellRecord& c = cells[i];
    if (!c.traced) continue;
    out << "{\"cell\": " << i << ", \"name\": \"cell\", \"start_ns\": " << c.start_ns
        << ", \"end_ns\": " << c.end_ns << ", \"cell_seed\": " << c.seed << "}\n";
    for (std::size_t r = 0; r < c.rounds.size(); ++r) {
      out << "{\"cell\": " << i << ", \"name\": \"round\", \"round\": " << r
          << ", \"start_ns\": " << c.rounds[r].start_ns
          << ", \"end_ns\": " << c.rounds[r].end_ns << "}\n";
    }
    for (const Span& s : c.spans) {
      const bool in_round = s.call == Call::kBroadcast ||
                            s.call == Call::kTrainClient ||
                            s.call == Call::kAggregate ||
                            s.call == Call::kSinkAdd || s.call == Call::kSinkFinish;
      out << "{\"cell\": " << i << ", \"name\": \"" << perfbench::call_name(s.call)
          << "\", \"thread\": " << s.thread << ", \"slot\": " << s.slot << ", \""
          << (in_round ? "round" : s.call == Call::kTaskStart ? "task" : "eval")
          << "\": " << s.group << ", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << ", \"value\": " << s.value << "}\n";
    }
  }
}

// ---- main --------------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: cellbench --workload NAME --seed N --seconds S --trace 0|1 "
               "--reference PATH [--details PATH] [--spans PATH]\n"
               "       cellbench --workload NAME --record\n"
               "workloads: reffil-eager reffil-replay des-q8\n");
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0' || *s == '-') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, reference_path, details_path, spans_path;
  std::uint64_t seed = 0, seconds = 0, trace = 2;
  bool have_seed = false, have_seconds = false, record = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--record") {
      record = true;
      continue;
    }
    if (value == nullptr) return usage();
    ++i;
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      if (!parse_u64(value, seed)) return usage();
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!parse_u64(value, seconds) || seconds == 0 || seconds > 3600) return usage();
      have_seconds = true;
    } else if (arg == "--trace") {
      if (!parse_u64(value, trace) || trace > 1) return usage();
    } else if (arg == "--reference") {
      reference_path = value;
    } else if (arg == "--details") {
      details_path = value;
    } else if (arg == "--spans") {
      spans_path = value;
    } else {
      return usage();
    }
  }
  const Workload* workload = nullptr;
  for (const auto& w : kWorkloads) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr) return usage();
  const std::string isa = tensor::kern::active_name();

  if (record) {
    std::string line = "{\"isa\": " + quoted(isa) +
                       ", \"workload\": " + quoted(workload->name) + ", \"cells\": {";
    for (std::size_t i = 0; i < kPool; ++i) {
      const CellRecord c = run_cell(*workload, kCellSeeds[i], false, false);
      if (failed_updates(c.result) != 0) {
        std::fprintf(stderr, "cellbench: seed %llu lost updates; not recording\n",
                     static_cast<unsigned long long>(kCellSeeds[i]));
        return 1;
      }
      line += (i == 0 ? "\"" : ", \"") + std::to_string(kCellSeeds[i]) +
              "\": " + reference_json(observed(c.result));
    }
    std::printf("%s}}\n", line.c_str());
    return 0;
  }
  if (!have_seed || !have_seconds || trace > 1 || reference_path.empty()) {
    return usage();
  }

  util::json::Value reference_doc;
  try {
    std::ifstream in(reference_path);
    if (!in) throw std::runtime_error("cannot open " + reference_path);
    std::stringstream text;
    text << in.rdbuf();
    reference_doc = util::json::parse(text.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cellbench: bad reference file: %s\n", e.what());
    return 2;
  }

  // The cell order is the only input --seed controls: the recorded pool
  // with its first seed kept first (the process's first cell pays one-off
  // costs and sets peak_rss_mb, so it is the same cell on every run) and the
  // rest shuffled.
  std::vector<std::uint64_t> order(std::begin(kCellSeeds), std::end(kCellSeeds));
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin() + 1, order.end(), rng);

  std::vector<CellRecord> cells;
  std::uint64_t attempted = 0, failed = 0;
  const auto account = [&](CellRecord c) {
    const auto ref = find_reference(reference_doc, isa, workload->name, c.seed);
    gate(c, *workload, ref ? &*ref : nullptr);
    attempted += participants(c.result) + 1;
    failed += failed_updates(c.result) + (c.failures.empty() ? 0 : 1);
    for (const auto& f : c.failures) {
      std::fprintf(stderr, "cellbench: cell seed %llu: %s\n",
                   static_cast<unsigned long long>(c.seed), f.c_str());
    }
    cells.push_back(std::move(c));
  };
  const auto thrown = [&](std::uint64_t cell_seed, const std::exception& e) {
    std::fprintf(stderr, "cellbench: cell seed %llu threw: %s\n",
                 static_cast<unsigned long long>(cell_seed), e.what());
    attempted += 1;
    failed += 1;
  };

  const double budget = static_cast<double>(seconds);
  std::int64_t loop_start = perfbench::now_ns();
  if (trace == 0) {
    // Whole rotations over the pool, so every run times the same cells; a
    // further rotation starts only if, at the pace so far, it ends in budget.
    for (std::size_t rotations = 0;
         rotations == 0 ||
         seconds_since(loop_start) * static_cast<double>(rotations + 1) /
                 static_cast<double>(rotations) <=
             budget;
         ++rotations) {
      for (const std::uint64_t cell_seed : order) {
        try {
          account(run_cell(*workload, cell_seed, true, false));
        } catch (const std::exception& e) {
          thrown(cell_seed, e);
        }
      }
    }
  } else {
    // An unprobed first cell absorbs the one-off costs, so they do not skew
    // the traced-versus-untraced overhead; it is gated but not reported.
    try {
      CellRecord warmup = run_cell(*workload, order[0], false, false);
      warmup.warmup = true;
      account(std::move(warmup));
    } catch (const std::exception& e) {
      thrown(order[0], e);
    }
    loop_start = perfbench::now_ns();
    for (std::size_t j = 0; j == 0 || seconds_since(loop_start) < budget; ++j) {
      const std::uint64_t cell_seed = order[j % kPool];
      try {
        // The probe must be inert: the traced cell reproduces its unprobed
        // twin exactly.
        CellRecord plain = run_cell(*workload, cell_seed, false, false);
        CellRecord traced = run_cell(*workload, cell_seed, true, true);
        if (!same_result(plain.result, traced.result)) {
          traced.failures.push_back("traced RunResult differs from the unprobed one");
        }
        account(std::move(plain));
        account(std::move(traced));
      } catch (const std::exception& e) {
        thrown(cell_seed, e);
      }
    }
  }
  const double loop_s = seconds_since(loop_start);

  const std::vector<Metric> metrics =
      trace == 0 ? end_to_end_metrics(cells, loop_s, attempted, failed)
                 : per_layer_metrics(cells);
  const bool correct = failed == 0 && !cells.empty();
  if (!details_path.empty()) {
    write_details(details_path, *workload, seed, static_cast<int>(trace), cells,
                  metrics, correct);
  }
  if (trace == 1 && !spans_path.empty()) write_spans(spans_path, cells);
  for (const auto& m : metrics) {
    std::fprintf(stderr, "  %-30s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics_json(metrics).c_str());
  return 0;
}
