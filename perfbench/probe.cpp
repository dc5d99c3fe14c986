#include "probe.hpp"

namespace perfbench {

namespace fed = reffil::fed;

const char* call_name(Call call) {
  switch (call) {
    case Call::kTaskStart: return "on_task_start";
    case Call::kBroadcast: return "make_broadcast";
    case Call::kTrainClient: return "train_client";
    case Call::kAggregate: return "aggregate";
    case Call::kSinkAdd: return "sink.add";
    case Call::kSinkFinish: return "sink.finish";
    case Call::kPrepareEval: return "prepare_eval";
    case Call::kPredict: return "predict";
  }
  return "?";
}

std::int64_t now_ns() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

namespace {
std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}
}  // namespace

/// Forwards one streaming aggregation; finish() closes the probe's round.
class ProbeMethod::ProbeSink final : public fed::AggregationSink {
 public:
  ProbeSink(ProbeMethod& owner, std::unique_ptr<fed::AggregationSink> inner)
      : owner_(owner), inner_(std::move(inner)) {}

  void add(const fed::ClientUpdate& update) override {
    const std::int64_t start = now_ns();
    inner_->add(update);
    owner_.record(Call::kSinkAdd, 0, round(), start, 1);
  }
  std::size_t count() const override { return inner_->count(); }
  void finish() override {
    const std::int64_t start = now_ns();
    inner_->finish();
    owner_.record(Call::kSinkFinish, 0, round(), start, inner_->count());
    owner_.close_round();
  }

 private:
  std::uint32_t round() const {
    return static_cast<std::uint32_t>(owner_.rounds_.size() - 1);
  }

  ProbeMethod& owner_;
  std::unique_ptr<fed::AggregationSink> inner_;
};

ProbeMethod::ProbeMethod(fed::Method& inner, bool record_spans)
    : inner_(inner), record_spans_(record_spans) {}

void ProbeMethod::record(Call call, std::uint32_t slot, std::uint32_t group,
                         std::int64_t start_ns, std::uint64_t value) {
  if (!record_spans_) return;
  const Span span{call, thread_index(), slot, group, start_ns, now_ns(), value};
  std::lock_guard<std::mutex> lock(spans_mutex_);
  spans_.push_back(span);
}

void ProbeMethod::close_round() {
  if (!rounds_.empty()) rounds_.back().end_ns = now_ns();
}

std::string ProbeMethod::name() const { return inner_.name(); }

void ProbeMethod::on_task_start(std::size_t task) {
  const std::int64_t start = now_ns();
  inner_.on_task_start(task);
  record(Call::kTaskStart, 0, static_cast<std::uint32_t>(task), start, 0);
}

std::vector<std::uint8_t> ProbeMethod::make_broadcast() {
  const std::int64_t start = now_ns();
  rounds_.push_back({start, -1});
  std::vector<std::uint8_t> broadcast = inner_.make_broadcast();
  record(Call::kBroadcast, 0, static_cast<std::uint32_t>(rounds_.size() - 1),
         start, broadcast.size());
  return broadcast;
}

fed::ClientUpdate ProbeMethod::train_client(
    const std::vector<std::uint8_t>& broadcast, const fed::TrainJob& job) {
  const std::int64_t start = now_ns();
  fed::ClientUpdate update = inner_.train_client(broadcast, job);
  train_calls_.fetch_add(1, std::memory_order_relaxed);
  // rounds_ only grows in make_broadcast, which the runner never overlaps
  // with training, so reading its size here is race-free.
  record(Call::kTrainClient, static_cast<std::uint32_t>(job.worker_slot),
         static_cast<std::uint32_t>(rounds_.size() - 1), start,
         update.payload.size());
  return update;
}

void ProbeMethod::aggregate(const std::vector<fed::ClientUpdate>& updates) {
  const std::int64_t start = now_ns();
  inner_.aggregate(updates);
  record(Call::kAggregate, 0, static_cast<std::uint32_t>(rounds_.size() - 1),
         start, updates.size());
  close_round();
}

fed::UpdateValidator ProbeMethod::update_validator() const {
  return inner_.update_validator();
}

std::unique_ptr<fed::AggregationSink> ProbeMethod::begin_streaming_aggregate(
    std::size_t num_shards) {
  std::unique_ptr<fed::AggregationSink> sink =
      inner_.begin_streaming_aggregate(num_shards);
  if (sink == nullptr) return nullptr;
  return std::make_unique<ProbeSink>(*this, std::move(sink));
}

void ProbeMethod::configure_compression(const fed::CompressionConfig& config) {
  inner_.configure_compression(config);
}

void ProbeMethod::prepare_eval() {
  const std::int64_t start = now_ns();
  inner_.prepare_eval();
  record(Call::kPrepareEval, 0, evals_++, start, 0);
}

std::size_t ProbeMethod::predict(std::size_t worker_slot,
                                 const reffil::tensor::Tensor& image) {
  const std::int64_t start = now_ns();
  const std::size_t label = inner_.predict(worker_slot, image);
  record(Call::kPredict, static_cast<std::uint32_t>(worker_slot), evals_ - 1,
         start, 0);
  return label;
}

reffil::tensor::Tensor ProbeMethod::eval_feature(
    std::size_t worker_slot, const reffil::tensor::Tensor& image) {
  return inner_.eval_feature(worker_slot, image);
}

}  // namespace perfbench
