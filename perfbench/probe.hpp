// Forwarding probe around fed::Method, used by the cell benchmark to time
// the calls the federated runner makes into a method from outside the
// library.
//
// The probe forwards every Method (and AggregationSink) call unchanged and
// records, per call, only wall-clock timestamps and sizes it can read from
// the arguments and return values. It never alters a call, so a probed cell's
// RunResult must equal the unprobed one exactly; the benchmark checks that.
//
// Two recording levels:
//  * always: one [start, end] interval per round (make_broadcast entry to the
//    return of aggregate() or the streaming sink's finish()), and a count of
//    train_client calls. Cost: two clock reads per round, one relaxed atomic
//    add per client.
//  * spans (the traced run): one Span per call the runner makes (eval_feature,
//    which it never calls, is only forwarded), kept in memory until the cell
//    ends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "reffil/fed/method.hpp"

namespace perfbench {

/// Which Method / AggregationSink entry point a span timed.
enum class Call : std::uint8_t {
  kTaskStart,
  kBroadcast,
  kTrainClient,
  kAggregate,
  kSinkAdd,
  kSinkFinish,
  kPrepareEval,
  kPredict,
};
const char* call_name(Call call);

/// Nanoseconds on the steady clock since the first call in this process.
std::int64_t now_ns();

struct Span {
  Call call = Call::kTaskStart;
  std::uint32_t thread = 0;  ///< small per-process thread index
  std::uint32_t slot = 0;    ///< worker slot (train_client / predict)
  /// Round index within the cell for round-phase calls; evaluation index
  /// (one per task) for prepare_eval / predict; task for on_task_start.
  std::uint32_t group = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Broadcast bytes, updates aggregated (aggregate: the batch size, sink
  /// add: 1), or upload payload bytes for train_client.
  std::uint64_t value = 0;
  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

struct RoundWindow {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  ///< -1 until the round's aggregation returns
  bool closed() const { return end_ns >= start_ns; }
  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class ProbeMethod final : public reffil::fed::Method {
 public:
  ProbeMethod(reffil::fed::Method& inner, bool record_spans);

  std::string name() const override;
  void on_task_start(std::size_t task) override;
  std::vector<std::uint8_t> make_broadcast() override;
  reffil::fed::ClientUpdate train_client(
      const std::vector<std::uint8_t>& broadcast,
      const reffil::fed::TrainJob& job) override;
  void aggregate(const std::vector<reffil::fed::ClientUpdate>& updates) override;
  reffil::fed::UpdateValidator update_validator() const override;
  std::unique_ptr<reffil::fed::AggregationSink> begin_streaming_aggregate(
      std::size_t num_shards) override;
  void configure_compression(const reffil::fed::CompressionConfig& config) override;
  void prepare_eval() override;
  std::size_t predict(std::size_t worker_slot,
                      const reffil::tensor::Tensor& image) override;
  reffil::tensor::Tensor eval_feature(std::size_t worker_slot,
                                      const reffil::tensor::Tensor& image) override;

  const std::vector<RoundWindow>& rounds() const { return rounds_; }
  std::uint64_t train_client_calls() const { return train_calls_.load(); }
  /// The recorded spans, in completion order (empty unless record_spans).
  const std::vector<Span>& spans() const { return spans_; }

 private:
  class ProbeSink;

  void record(Call call, std::uint32_t slot, std::uint32_t group,
              std::int64_t start_ns, std::uint64_t value);
  void close_round();

  reffil::fed::Method& inner_;
  const bool record_spans_;
  // Runner-thread state: broadcast, aggregation and on_task_start /
  // prepare_eval are only ever called from the thread that runs the cell.
  std::vector<RoundWindow> rounds_;
  std::uint32_t evals_ = 0;
  std::atomic<std::uint64_t> train_calls_{0};

  std::mutex spans_mutex_;
  std::vector<Span> spans_;  // guarded by spans_mutex_
};

}  // namespace perfbench
