#include "reffil/harness/tables.hpp"

#include <cstdio>
#include <cstdlib>

#include "reffil/harness/cache.hpp"
#include "reffil/util/error.hpp"
#include "reffil/util/logging.hpp"

namespace reffil::harness {

std::vector<std::uint64_t> bench_seeds() {
  static const std::vector<std::uint64_t> kAll = {7, 1, 2, 3, 4};
  std::size_t count = kAll.size();
  if (const char* env = std::getenv("REFFIL_BENCH_SEEDS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1 && parsed <= static_cast<long>(kAll.size())) {
      count = static_cast<std::size_t>(parsed);
    }
  }
  return {kAll.begin(), kAll.begin() + static_cast<std::ptrdiff_t>(count)};
}

double CellResult::avg() const {
  REFFIL_CHECK_MSG(!runs.empty(), "empty cell");
  double total = 0.0;
  for (const auto& run : runs) total += run.average_accuracy();
  return total / static_cast<double>(runs.size());
}

double CellResult::last() const {
  REFFIL_CHECK_MSG(!runs.empty(), "empty cell");
  double total = 0.0;
  for (const auto& run : runs) total += run.last_accuracy();
  return total / static_cast<double>(runs.size());
}

std::vector<double> CellResult::steps() const {
  REFFIL_CHECK_MSG(!runs.empty(), "empty cell");
  const std::size_t num_tasks = runs.front().tasks.size();
  std::vector<double> mean(num_tasks, 0.0);
  for (const auto& run : runs) {
    REFFIL_CHECK_MSG(run.tasks.size() == num_tasks, "ragged cell runs");
    for (std::size_t t = 0; t < num_tasks; ++t) {
      mean[t] += run.tasks[t].cumulative_accuracy;
    }
  }
  for (double& v : mean) v /= static_cast<double>(runs.size());
  return mean;
}

std::vector<std::vector<double>> CellResult::accuracy_matrix() const {
  REFFIL_CHECK_MSG(!runs.empty(), "empty cell");
  const std::size_t num_tasks = runs.front().tasks.size();
  std::vector<std::vector<double>> mean(num_tasks);
  for (std::size_t t = 0; t < num_tasks; ++t) mean[t].assign(t + 1, 0.0);
  for (const auto& run : runs) {
    for (std::size_t t = 0; t < num_tasks; ++t) {
      for (std::size_t d = 0; d <= t; ++d) {
        mean[t][d] += run.tasks[t].per_domain_accuracy[d];
      }
    }
  }
  for (auto& row : mean) {
    for (double& v : row) v /= static_cast<double>(runs.size());
  }
  return mean;
}

CommsSummary CellResult::comms() const {
  REFFIL_CHECK_MSG(!runs.empty(), "empty cell");
  const auto mean = [this](auto of) {
    double sum = 0.0;
    for (const fed::RunResult& run : runs) sum += static_cast<double>(of(run));
    return sum / static_cast<double>(runs.size());
  };
  using R = const fed::RunResult&;
  CommsSummary c;
  c.compression = runs.front().compression;
  c.bytes_down = mean([](R r) { return r.network.bytes_down; });
  c.bytes_up = mean([](R r) { return r.network.bytes_up; });
  c.messages = mean([](R r) { return r.network.messages; });
  c.dropped_updates = mean([](R r) { return r.network.dropped_updates; });
  c.wall_seconds = mean([](R r) { return r.wall_seconds; });
  c.train_seconds = mean([](R r) { return r.train_seconds(); });
  c.aggregate_seconds = mean([](R r) { return r.aggregate_seconds(); });
  c.eval_seconds = mean([](R r) { return r.eval_seconds(); });
  c.bytes_down_raw = mean([](R r) { return r.network.bytes_down_raw_equiv; });
  c.bytes_up_raw = mean([](R r) { return r.network.bytes_up_raw_equiv; });
  return c;
}

CellResult run_cell(const data::DatasetSpec& spec, const std::string& order_tag,
                    MethodKind kind, const ExperimentConfig& base_config) {
  CellResult cell;
  for (std::uint64_t seed : bench_seeds()) {
    const std::string key =
        cache_key(spec.name, order_tag, method_display_name(kind), seed,
                  to_string(base_config.scale),
                  base_config.faults.tag() + base_config.des.tag() +
                      base_config.compress.tag());
    if (auto cached = cache_load(key)) {
      cell.runs.push_back(std::move(*cached));
      continue;
    }
    ExperimentConfig config = base_config;
    config.seed = seed;
    fed::RunResult result = run_experiment(spec, kind, config);
    cache_store(key, result);
    cell.runs.push_back(std::move(result));
  }
  return cell;
}

CellResult run_reffil_variant_cell(const data::DatasetSpec& spec,
                                   const std::string& order_tag,
                                   const core::RefFiLConfig& reffil,
                                   const ExperimentConfig& base_config) {
  std::string variant_name = "RefFiL[";
  if (reffil.use_cdap) variant_name += "C";
  if (reffil.use_gpl) variant_name += "G";
  if (reffil.use_dpcl) variant_name += "D";
  variant_name += "]";
  if (!reffil.temperature_decay) variant_name += "-fixedTau";
  if (reffil.eval_task_policy != core::EvalTaskPolicy::kEnsemble) {
    variant_name += reffil.eval_task_policy == core::EvalTaskPolicy::kLatest
                        ? "-latest"
                        : "-confidence";
  }

  CellResult cell;
  for (std::uint64_t seed : bench_seeds()) {
    const std::string key =
        cache_key(spec.name, order_tag, variant_name, seed,
                  to_string(base_config.scale),
                  base_config.faults.tag() + base_config.des.tag() +
                      base_config.compress.tag());
    if (auto cached = cache_load(key)) {
      cell.runs.push_back(std::move(*cached));
      continue;
    }
    ExperimentConfig config = base_config;
    config.seed = seed;
    fed::RunResult result = run_reffil_variant(spec, reffil, config);
    cache_store(key, result);
    cell.runs.push_back(std::move(result));
  }
  return cell;
}

namespace {
std::string shape_verdict(const std::vector<CellResult>& cells) {
  // "Who wins": is RefFiL (last entry by convention) first in Avg and Last?
  const auto& reffil = cells.back();
  bool wins_avg = true, wins_last = true;
  for (std::size_t m = 0; m + 1 < cells.size(); ++m) {
    if (cells[m].avg() >= reffil.avg()) wins_avg = false;
    if (cells[m].last() >= reffil.last()) wins_last = false;
  }
  if (wins_avg && wins_last) return "RefFiL first in Avg and Last (matches paper)";
  if (wins_avg) return "RefFiL first in Avg (paper: first in both)";
  if (wins_last) return "RefFiL first in Last (paper: first in both)";
  return "RefFiL not first (paper: first in both)";
}
}  // namespace

void print_summary_table(const std::string& title,
                         const std::vector<data::DatasetSpec>& specs,
                         const std::vector<std::vector<CellResult>>& cells,
                         bool new_order) {
  const auto methods = all_method_kinds();
  std::printf("%s\n", title.c_str());
  std::printf("(measured = this reproduction, mean over %zu seeds; "
              "paper = values from the publication)\n\n",
              bench_seeds().size());
  std::printf("%-18s", "Method");
  for (const auto& spec : specs) {
    std::printf(" | %-15.15s Avg   Last  (paper Avg/Last)", spec.name.c_str());
  }
  std::printf("\n");
  for (std::size_t m = 0; m < methods.size(); ++m) {
    std::printf("%-18s", method_display_name(methods[m]).c_str());
    for (std::size_t d = 0; d < specs.size(); ++d) {
      const CellResult& cell = cells[d][m];
      const auto paper = paper_reference(specs[d].name, methods[m], new_order);
      std::printf(" | %15s %5.2f %5.2f", "", cell.avg(), cell.last());
      if (paper) {
        std::printf("  (%5.2f/%5.2f)", paper->avg, paper->last);
      } else {
        std::printf("  (    -/    -)");
      }
    }
    std::printf("\n");
  }
  std::printf("\nShape check:\n");
  for (std::size_t d = 0; d < specs.size(); ++d) {
    std::printf("  %-16s %s\n", specs[d].name.c_str(),
                shape_verdict(cells[d]).c_str());
  }
  std::printf("\n");
}

void print_per_step_table(const data::DatasetSpec& spec,
                          const std::vector<CellResult>& cells, bool new_order) {
  const auto methods = all_method_kinds();
  std::printf("Task 1 -> %zu on %s (per-step cumulative accuracy over all "
              "domains seen so far; paper values in parentheses)\n",
              spec.domains.size(), spec.name.c_str());
  std::printf("%-18s", "Method");
  for (const auto& domain : spec.domains) {
    std::printf(" %20.20s", domain.name.c_str());
  }
  std::printf(" %8s\n", "Avg");
  for (std::size_t m = 0; m < methods.size(); ++m) {
    std::printf("%-18s", method_display_name(methods[m]).c_str());
    const auto steps = cells[m].steps();
    const auto paper = paper_reference(spec.name, methods[m], new_order);
    for (std::size_t t = 0; t < steps.size(); ++t) {
      char ref[16] = "    -";
      if (paper && t < paper->steps.size()) {
        std::snprintf(ref, sizeof(ref), "%5.1f", paper->steps[t]);
      }
      std::printf("      %5.1f (%s)", steps[t], ref);
    }
    if (paper) {
      std::printf("  %5.2f (%5.2f)", cells[m].avg(), paper->avg);
    } else {
      std::printf("  %5.2f (    -)", cells[m].avg());
    }
    std::printf("\n");
  }
  std::printf("\n");
}

void print_compression_frontier(const data::DatasetSpec& spec,
                                const std::string& method_name,
                                const std::vector<CellResult>& cells) {
  std::printf("Accuracy-vs-bytes frontier: %s on %s (mean over %zu seeds)\n",
              method_name.c_str(), spec.name.c_str(), bench_seeds().size());
  std::printf("%-14s %10s %10s %6s %10s %10s %6s %7s %7s\n", "Compression",
              "up MiB", "up raw", "up x", "down MiB", "down raw", "down x",
              "Avg", "Last");
  for (const auto& cell : cells) {
    const CommsSummary c = cell.comms();
    const double up_ratio = c.bytes_up > 0.0 ? c.bytes_up_raw / c.bytes_up : 1.0;
    const double down_ratio =
        c.bytes_down > 0.0 ? c.bytes_down_raw / c.bytes_down : 1.0;
    std::printf("%-14.14s %10.2f %10.2f %6.2f %10.2f %10.2f %6.2f %7.2f %7.2f\n",
                c.compression.c_str(), c.bytes_up / 1048576.0,
                c.bytes_up_raw / 1048576.0, up_ratio, c.bytes_down / 1048576.0,
                c.bytes_down_raw / 1048576.0, down_ratio, cell.avg(),
                cell.last());
  }
  std::printf("\n");
}

}  // namespace reffil::harness
