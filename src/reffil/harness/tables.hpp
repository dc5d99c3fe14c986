// Multi-seed experiment aggregation, paper reference values, and table
// printing — the machinery every bench binary shares.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "reffil/harness/experiment.hpp"

namespace reffil::harness {

/// Seeds used by the bench binaries. Default five; REFFIL_BENCH_SEEDS=n
/// selects the first n (n >= 1) for quicker runs.
std::vector<std::uint64_t> bench_seeds();

/// Mean-over-seeds communication / timing profile of one cell, derived from
/// the per-round breakdowns RunResult carries (see fed::RoundStats).
struct CommsSummary {
  double bytes_down = 0.0;
  double bytes_up = 0.0;
  double messages = 0.0;
  double dropped_updates = 0.0;
  double wall_seconds = 0.0;
  double train_seconds = 0.0;      ///< sum of round train blocks
  double aggregate_seconds = 0.0;  ///< sum of round aggregations
  double eval_seconds = 0.0;       ///< sum of task evaluation sweeps
  /// Raw f32-equivalent traffic (== bytes_down/bytes_up when uncompressed).
  double bytes_down_raw = 0.0;
  double bytes_up_raw = 0.0;
  /// Canonical compression spec of the cell's runs ("none" by default).
  std::string compression = "none";
};

/// One (dataset, order, method) cell aggregated over seeds.
struct CellResult {
  std::vector<fed::RunResult> runs;

  double avg() const;   ///< mean over seeds of the iCaRL Average
  double last() const;  ///< mean over seeds of the final-step accuracy
  /// Mean per-step cumulative accuracy (the columns of Tables 3/4).
  std::vector<double> steps() const;
  /// Mean accuracy matrix: matrix[t][d] = accuracy on domain d after task t.
  std::vector<std::vector<double>> accuracy_matrix() const;
  /// Mean communication/timing profile over the cell's runs.
  CommsSummary comms() const;
};

/// Run (through the cache) all seeds of one cell. `order_tag` distinguishes
/// original ("orig") from permuted ("neworder") curricula in the cache key.
CellResult run_cell(const data::DatasetSpec& spec, const std::string& order_tag,
                    MethodKind kind, const ExperimentConfig& config);

/// Cached multi-seed run of a RefFiL component variant (Table 5 ablation);
/// the variant's display name (e.g. "RefFiL[CG]") keys the cache.
CellResult run_reffil_variant_cell(const data::DatasetSpec& spec,
                                   const std::string& order_tag,
                                   const core::RefFiLConfig& reffil,
                                   const ExperimentConfig& config);

// ---- paper reference values -------------------------------------------------
/// Reference numbers transcribed from the paper. `steps` may be empty where
/// the paper's table rows are not fully legible; avg/last always present.
struct PaperCell {
  double avg = 0.0;
  double last = 0.0;
  std::vector<double> steps;
};

/// Tables 1/3 (original domain order) lookup; null if absent.
std::optional<PaperCell> paper_reference(const std::string& dataset,
                                         MethodKind kind, bool new_order);

struct PaperAblationRow {
  bool cdap = false, gpl = false, dpcl = false;
  double avg = 0.0, last = 0.0;
};
/// Table 5 rows (OfficeCaltech10), Finetune row first.
std::vector<PaperAblationRow> paper_ablation_rows();

// ---- printing -----------------------------------------------------------------
/// Print the Table 1/2-style summary: per dataset, per method, measured
/// Avg/Last next to the paper's values, plus a shape verdict line.
void print_summary_table(const std::string& title,
                         const std::vector<data::DatasetSpec>& specs,
                         const std::vector<std::vector<CellResult>>& cells,
                         bool new_order);

/// Print the Table 3/4-style per-step detail for one dataset.
void print_per_step_table(const data::DatasetSpec& spec,
                          const std::vector<CellResult>& cells, bool new_order);

/// Print the accuracy-vs-bytes frontier for one (dataset, method): one row
/// per compression level (cells labelled by their runs' compression spec),
/// with measured wire traffic, the raw f32-equivalent, the resulting
/// compression ratios, and the accuracy the level achieves. Renders straight
/// from cached cells — each level is just a differently-tagged cache key.
void print_compression_frontier(const data::DatasetSpec& spec,
                                const std::string& method_name,
                                const std::vector<CellResult>& cells);

}  // namespace reffil::harness
