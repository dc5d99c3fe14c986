#include "reffil/cl/method_base.hpp"

#include <algorithm>

#include "reffil/autograd/ops.hpp"
#include "reffil/tensor/ops.hpp"
#include "reffil/util/error.hpp"
#include "reffil/util/obs.hpp"
#include "reffil/util/prof.hpp"

namespace reffil::cl {

namespace AG = reffil::autograd;
namespace T = reffil::tensor;

fed::ModelState Replica::snapshot() {
  fed::ModelState state;
  for (nn::Module* m : modules()) {
    auto s = m->snapshot();
    state.insert(state.end(), std::make_move_iterator(s.begin()),
                 std::make_move_iterator(s.end()));
  }
  return state;
}

void Replica::load(const fed::ModelState& state) {
  std::size_t offset = 0;
  for (nn::Module* m : modules()) {
    const std::size_t count = m->parameters().size();
    REFFIL_CHECK_MSG(offset + count <= state.size(),
                     "replica load: state too short");
    m->load({state.begin() + static_cast<std::ptrdiff_t>(offset),
             state.begin() + static_cast<std::ptrdiff_t>(offset + count)});
    offset += count;
  }
  REFFIL_CHECK_MSG(offset == state.size(), "replica load: state too long");
}

std::vector<autograd::Var> Replica::parameters() {
  std::vector<autograd::Var> params;
  for (nn::Module* m : modules()) {
    const auto& p = m->parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  return params;
}

MethodBase::MethodBase(std::string name, MethodConfig config)
    : name_(std::move(name)), config_(config) {
  REFFIL_CHECK_MSG(config_.parallelism > 0, "method needs >= 1 worker");
  REFFIL_CHECK_MSG(config_.batch_size > 0, "batch size must be > 0");
}

std::unique_ptr<Replica> MethodBase::make_replica(util::Rng& rng) {
  return std::make_unique<Replica>(config_, rng);
}

void MethodBase::init_workers() {
  REFFIL_CHECK_MSG(workers_.empty(), "init_workers called twice");
  workers_.resize(config_.parallelism);
  const std::size_t graphs_per_slot =
      std::max<std::size_t>(1, kMaxGraphs / workers_.size());
  graph_cache_.assign(workers_.size(), AG::graph::GraphCache(graphs_per_slot));
  global_state_ = build_replica(0).snapshot();
}

Replica& MethodBase::build_replica(std::size_t slot) {
  REFFIL_CHECK_MSG(slot < workers_.size(), "worker slot out of range");
  if (!workers_[slot]) {
    // Every replica is built from the same seed so all workers (and the
    // initial global state) share one initialisation; load() overwrites
    // values before each use anyway.
    util::Rng replica_rng(config_.seed ^ 0xC0FFEEULL);
    workers_[slot] = make_replica(replica_rng);
  }
  return *workers_[slot];
}

std::string MethodBase::replay_signature(const Replica&, const fed::TrainJob&,
                                         std::size_t) const {
  return {};
}

bool MethodBase::train_step_replayed(Replica& rep,
                                     const std::vector<TaggedSample>& batch,
                                     const fed::TrainJob& job,
                                     std::size_t slot) {
  if (!config_.graph_replay) return false;
  const std::string signature = replay_signature(rep, job, slot);
  if (signature.empty()) return false;
  const std::string key = signature + "|b=" + std::to_string(batch.size());
  auto& cache = graph_cache_[slot];
  const auto* cached = cache.find(key);
  if (cached == nullptr) {
    // First sighting of this step family: capture it. The capture runs the
    // normal eager computation (instrumented), so its gradients are this
    // batch's real training step whether or not the tape freezes.
    std::vector<std::size_t> tags;
    tags.reserve(batch.size());
    for (const auto& s : batch) tags.push_back(s.task);
    AG::graph::Capture capture;
    AG::Var loss = batch_loss(rep, batch, job, slot);
    AG::backward(loss);
    // A null graph is stored too: the negative cache.
    cache.insert(key,
                 capture.finish(loss, replay_tags_matter(), std::move(tags)));
    return true;
  }
  const auto& graph = *cached;
  if (!graph) return false;  // known unreplayable: stay eager
  std::vector<const T::Tensor*> images;
  std::vector<std::size_t> labels;
  std::vector<std::size_t> tags;
  images.reserve(batch.size());
  labels.reserve(batch.size());
  tags.reserve(batch.size());
  for (const auto& s : batch) {
    images.push_back(&s.sample->image);
    labels.push_back(s.sample->label);
    tags.push_back(s.task);
  }
  if (!graph->bind(images, labels, tags)) {
    obs::count("ag.graph.fallback");
    return false;
  }
  graph->replay();
  return true;
}

Replica& MethodBase::replica(std::size_t slot) {
  REFFIL_CHECK_MSG(slot < workers_.size(), "worker slot out of range");
  REFFIL_CHECK_MSG(workers_[slot] != nullptr, "worker slot has no replica yet");
  return *workers_[slot];
}

void MethodBase::on_task_start(std::size_t task) { current_task_ = task; }

std::vector<std::uint8_t> MethodBase::make_broadcast() {
  util::ByteWriter writer;
  if (compress_.enabled()) {
    writer.reserve(fed::encoded_state_size(global_state_, compress_.codec));
    // Keep the DECODED broadcast: it is the base every client's delta is
    // relative to, so aggregation must apply the averaged delta to exactly
    // this state, not to the pre-quantization global_state_.
    broadcast_reference_ =
        fed::encode_state(global_state_, compress_.codec, writer);
  } else {
    writer.reserve(fed::serialized_size(global_state_));
    fed::serialize_state(global_state_, writer);
  }
  write_broadcast_extras(writer);
  return writer.take();
}

void MethodBase::configure_compression(const fed::CompressionConfig& config) {
  std::lock_guard<std::mutex> lock(residual_mutex_);
  compress_ = config;
  if (!config.enabled()) {
    // Residuals only mean anything relative to a compressed stream:
    // switching to `none` mid-experiment drains them so the very next round
    // is bitwise-identical to a never-compressed run.
    residuals_.clear();
    broadcast_reference_.clear();
  }
}

std::size_t MethodBase::residual_count() const {
  std::lock_guard<std::mutex> lock(residual_mutex_);
  return residuals_.size();
}

void MethodBase::fold_residual(std::size_t client_id, fed::ModelState& delta) {
  std::lock_guard<std::mutex> lock(residual_mutex_);
  const auto it = residuals_.find(client_id);
  if (it == residuals_.end()) return;
  bool compatible = it->second.size() == delta.size();
  for (std::size_t t = 0; compatible && t < delta.size(); ++t) {
    compatible = it->second[t].shape() == delta[t].shape();
  }
  if (compatible) {
    for (std::size_t t = 0; t < delta.size(); ++t) {
      T::add_inplace(delta[t], it->second[t]);
    }
  }
  // Spent either way — a structure change makes the old residual
  // meaningless, so it is dropped rather than corrupting the delta.
  residuals_.erase(it);
}

void MethodBase::store_residual(std::size_t client_id,
                                fed::ModelState residual) {
  std::lock_guard<std::mutex> lock(residual_mutex_);
  if (residuals_.size() >= kMaxResiduals &&
      residuals_.find(client_id) == residuals_.end()) {
    residuals_.erase(residuals_.begin());
  }
  residuals_[client_id] = std::move(residual);
}

void MethodBase::read_broadcast_extras(util::ByteReader& reader, std::size_t) {
  if (!reader.exhausted()) {
    throw SerializationError("unconsumed broadcast extras");
  }
}

std::vector<MethodBase::TaggedSample> MethodBase::local_view(
    const fed::TrainJob& job) {
  std::vector<TaggedSample> view;
  const bool use_new = job.group != fed::ClientGroup::kOld && job.new_data != nullptr;
  const bool use_old =
      job.group != fed::ClientGroup::kNew && job.old_data != nullptr;
  if (use_old) {
    const std::size_t old_task = job.task == 0 ? 0 : job.task - 1;
    for (const auto& s : *job.old_data) view.push_back({&s, old_task});
  }
  if (use_new) {
    for (const auto& s : *job.new_data) view.push_back({&s, job.task});
  }
  REFFIL_CHECK_MSG(!view.empty(), "client has no local data for this round");
  return view;
}

fed::ClientUpdate MethodBase::train_client(
    const std::vector<std::uint8_t>& broadcast, const fed::TrainJob& job) {
  Replica& rep = build_replica(job.worker_slot);

  // Named spans split the client's own time (decode + load, optimizer
  // steps, upload encoding) from the op spans of its training steps.
  util::ByteReader reader(broadcast);
  fed::ModelState global;
  {
    obs::prof::Span span("cl.load", broadcast.size());
    global = fed::deserialize_state_any(reader);
    rep.load(global);
    read_broadcast_extras(reader, job.worker_slot);
  }

  std::vector<TaggedSample> view = local_view(job);
  obs::count("cl.clients_trained");
  obs::count("cl.samples_trained", view.size() * job.local_epochs);
  // Deterministic per-(client, task, round) stream, independent of thread
  // scheduling.
  util::Rng rng(config_.seed ^ (job.client_id * 0x9E3779B9ULL) ^
                (job.task * 0x85EBCA6BULL) ^ (job.round * 0xC2B2AE35ULL));

  on_client_begin(rep, job, job.worker_slot);

  nn::SgdOptimizer optimizer(rep.parameters(),
                             {.learning_rate = job.learning_rate,
                              .momentum = config_.momentum,
                              .clip_norm = config_.clip_norm});
  for (std::size_t epoch = 0; epoch < job.local_epochs; ++epoch) {
    rng.shuffle(view);
    for (std::size_t begin = 0; begin < view.size();
         begin += config_.batch_size) {
      const std::size_t end = std::min(view.size(), begin + config_.batch_size);
      std::vector<TaggedSample> batch;
      {
        obs::prof::Span span("cl.batch");
        batch.assign(view.begin() + static_cast<std::ptrdiff_t>(begin),
                     view.begin() + static_cast<std::ptrdiff_t>(end));
      }
      {
        obs::prof::Span span("cl.zero_grad");
        optimizer.zero_grad();
      }
      if (!train_step_replayed(rep, batch, job, job.worker_slot)) {
        train_step_eager(rep, batch, job, job.worker_slot);
      }
      post_backward(rep, job, job.worker_slot);
      obs::prof::Span step_span("cl.step");
      optimizer.step();
    }
  }

  on_client_end(rep, job, job.worker_slot);

  obs::prof::Span upload_span("cl.upload");
  fed::ClientUpdate update;
  update.client_id = job.client_id;
  update.num_samples = view.size();
  util::ByteWriter writer;
  if (compress_.enabled()) {
    // Upload delta = (trained - received) + carried residual, top-k
    // sparsified and quantized; encode_delta leaves the untransmitted
    // energy in `delta`, which becomes this client's next residual.
    fed::ModelState delta = rep.snapshot();
    REFFIL_CHECK_MSG(delta.size() == global.size(),
                     "train_client: snapshot/broadcast structure mismatch");
    for (std::size_t t = 0; t < delta.size(); ++t) {
      T::axpy_inplace(delta[t], -1.0f, global[t]);
    }
    fold_residual(job.client_id, delta);
    writer.reserve(fed::encoded_delta_size(delta, compress_));
    fed::encode_delta(delta, compress_, writer);
    store_residual(job.client_id, std::move(delta));
  } else {
    const fed::ModelState snapshot = rep.snapshot();
    writer.reserve(fed::serialized_size(snapshot));
    fed::serialize_state(snapshot, writer);
  }
  write_update_extras(writer, rep, job);
  update.payload = writer.take();
  upload_span.set_value(update.payload.size());
  return update;
}

fed::ModelState MethodBase::decode_model_shaped(util::ByteReader& reader) const {
  fed::ModelState state = fed::deserialize_state(reader);
  if (state.size() != global_state_.size()) {
    throw ShapeError("update has " + std::to_string(state.size()) +
                     " tensors, the model " +
                     std::to_string(global_state_.size()));
  }
  for (std::size_t t = 0; t < state.size(); ++t) {
    if (state[t].shape() != global_state_[t].shape()) {
      throw ShapeError("update tensor " + std::to_string(t) +
                       " does not have the model's shape");
    }
  }
  return state;
}

MethodBase::DecodedUpdate MethodBase::decode_update(
    const std::vector<std::uint8_t>& payload) const {
  util::ByteReader reader(payload);
  DecodedUpdate decoded;
  if (compress_.enabled()) {
    // The strict frame walk (no per-tensor allocation); the fold reads the
    // frame again from the payload once the whole update has passed.
    std::string reason;
    if (!fed::validate_delta_frame(reader, global_state_, &reason)) {
      throw SerializationError(reason);
    }
  } else {
    decoded.state = decode_model_shaped(reader);
  }
  decoded.extras = decode_update_extras(reader);
  if (!reader.exhausted()) {
    throw SerializationError(std::to_string(reader.remaining()) +
                             " trailing bytes after the update extras");
  }
  return decoded;
}

fed::UpdateValidator MethodBase::update_validator() const {
  return [this](const std::vector<std::uint8_t>& payload, std::string* reason) {
    try {
      decode_update(payload);
      return true;
    } catch (const Error& e) {
      if (reason) *reason = e.what();
      return false;
    }
  };
}

// Folds each arriving update into one running sum shaped like the server's
// model, so server memory during aggregation is O(model) rather than
// O(cohort x model). Uncompressed states fold as float(w/W)*x, with W the
// planned weight: federated_average's own products in its own order, so a
// round that folds every planned update is bitwise the batch average. If
// fewer arrive (an armed transport lost some after training), finish()
// rescales once by W/(folded weight). Compressed frames fold as w*delta and
// finish() applies the averaged delta to the decoded broadcast. add() runs
// decode_update over the whole update before it folds any of it, so a
// rejected update leaves no trace; the sink keeps each folded update's
// decoded extras, and finish() commits the state and hands them to
// after_aggregate().
class MethodBase::StreamingSink : public fed::AggregationSink {
 public:
  StreamingSink(MethodBase& method, std::size_t planned_samples)
      : method_(method),
        compressed_(method.compress_.enabled()),
        planned_(static_cast<double>(planned_samples)) {
    REFFIL_CHECK_MSG(!compressed_ || !method.broadcast_reference_.empty(),
                     "streaming aggregate: no broadcast reference");
    REFFIL_CHECK_MSG(compressed_ || planned_ > 0.0,
                     "streaming aggregate: no planned samples");
    sum_.reserve(method.global_state_.size());
    for (const auto& t : method.global_state_) sum_.emplace_back(t.shape());
  }

  void add(const fed::ClientUpdate& update) override {
    DecodedUpdate decoded = method_.decode_update(update.payload);
    const double weight = static_cast<double>(update.num_samples);
    if (compressed_) {
      // Dequant-free: the frame folds straight into the f32 sum.
      util::ByteReader reader(update.payload);
      fed::accumulate_delta(reader, static_cast<float>(weight), sum_);
    } else {
      const float coefficient = static_cast<float>(weight / planned_);
      for (std::size_t t = 0; t < sum_.size(); ++t) {
        T::axpy_inplace(sum_[t], coefficient, decoded.state[t]);
      }
    }
    extras_.push_back(std::move(decoded.extras));
    total_weight_ += weight;
  }

  std::size_t count() const override { return extras_.size(); }

  void finish() override {
    obs::count("cl.aggregations");
    obs::count("cl.updates_aggregated", extras_.size());
    REFFIL_CHECK_MSG(!extras_.empty(), "streaming aggregate: no updates");
    REFFIL_CHECK_MSG(total_weight_ > 0.0,
                     "streaming aggregate: all-zero weights");
    if (compressed_) {
      // theta^{r+1} = Q(theta^r) + sum_m w_m delta_m / sum_m w_m: the decoded
      // broadcast is the base every delta was computed against, so it — not
      // the pre-quantization global state — anchors the new round.
      const float inv = static_cast<float>(1.0 / total_weight_);
      fed::ModelState next = method_.broadcast_reference_;
      for (std::size_t t = 0; t < next.size(); ++t) {
        T::axpy_inplace(next[t], inv, sum_[t]);
      }
      method_.global_state_ = std::move(next);
    } else {
      if (total_weight_ != planned_) {
        const float rescale = static_cast<float>(planned_ / total_weight_);
        for (auto& t : sum_) T::scale_inplace(t, rescale);
      }
      method_.global_state_ = std::move(sum_);
    }
    method_.after_aggregate(std::move(extras_));
  }

 private:
  MethodBase& method_;
  bool compressed_ = false;
  double planned_ = 0.0;  ///< W: the weight the round planned to fold
  fed::ModelState sum_;   ///< sum of w/W-scaled states or w-scaled deltas
  double total_weight_ = 0.0;
  std::vector<std::any> extras_;  ///< per folded update, in fold order
};

std::unique_ptr<fed::AggregationSink> MethodBase::begin_streaming_aggregate(
    std::size_t planned_samples) {
  return std::make_unique<StreamingSink>(*this, planned_samples);
}

void MethodBase::prepare_eval() {
  // Slots that never trained get their replica here, before predict()
  // calls share the slots across threads.
  for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
    build_replica(slot).load(global_state_);
  }
}

std::size_t MethodBase::predict(std::size_t worker_slot,
                                const tensor::Tensor& image) {
  obs::prof::Span span("cl.predict");
  AG::Var logits = eval_logits(replica(worker_slot), image, worker_slot);
  return T::argmax_rows(logits->value()).front();
}

tensor::Tensor MethodBase::eval_feature(std::size_t worker_slot,
                                        const tensor::Tensor& image) {
  // The post-attention class token under the plain (prompt-free) forward —
  // a method-agnostic embedding, so Figure 5/6 comparisons are apples to
  // apples across methods.
  const auto out = replica(worker_slot).net.forward(image);
  return out.cls->value().reshaped({out.cls->value().numel()});
}

autograd::Var MethodBase::sample_loss(Replica& rep, const TaggedSample& sample,
                                      const fed::TrainJob&, std::size_t) {
  const auto out = rep.net.forward(sample.sample->image);
  return AG::cross_entropy_logits(out.logits, {sample.sample->label});
}

autograd::Var MethodBase::batch_loss(Replica& rep,
                                     const std::vector<TaggedSample>& batch,
                                     const fed::TrainJob& job, std::size_t slot) {
  AG::Var total;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const AG::Var loss = sample_loss(rep, batch[i], job, slot);
    total = (i == 0) ? loss : AG::add(total, loss);
  }
  return AG::mul_scalar(total, 1.0f / static_cast<float>(batch.size()));
}

std::size_t MethodBase::batched_runs(std::size_t n) {
  return (n + kMaxRunSamples - 1) / kMaxRunSamples;
}

void MethodBase::sweep_runs(
    std::size_t n, std::size_t runs,
    const std::function<void(std::size_t, std::size_t)>& sweep_run) {
  REFFIL_CHECK_MSG(runs > 0 && runs <= n, "sweep_runs: need 1..n runs");
  for (std::size_t r = runs; r-- > 0;) {
    sweep_run(r * n / runs, (r + 1) * n / runs);
  }
}

T::Tensor MethodBase::run_images(const std::vector<TaggedSample>& batch,
                                std::size_t lo, std::size_t hi) {
  T::Shape shape = batch[lo].sample->image.shape();
  shape.insert(shape.begin(), hi - lo);
  T::Tensor images(std::move(shape));
  float* dst = images.begin();
  for (std::size_t i = lo; i < hi; ++i) {
    const T::Tensor& image = batch[i].sample->image;
    dst = std::copy(image.begin(), image.end(), dst);
  }
  return images;
}

AG::Var MethodBase::run_loss(Replica& rep, const std::vector<TaggedSample>& batch,
                             std::size_t lo, std::size_t hi,
                             const fed::TrainJob&, std::size_t) {
  T::Tensor images;
  std::vector<std::size_t> labels;
  {
    obs::prof::Span span("cl.batch");
    images = run_images(batch, lo, hi);
    labels.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) labels.push_back(batch[i].sample->label);
  }
  // Dividing by the batch size seeds each sample's logit row with
  // (p - y) * (1/N): the bits batch_loss's mul_scalar(sum, 1/N) seeds it with.
  return AG::cross_entropy_logits(rep.net.forward(images).logits, labels,
                                  batch.size());
}

void MethodBase::train_step_eager(Replica& rep,
                                  const std::vector<TaggedSample>& batch,
                                  const fed::TrainJob& job, std::size_t slot) {
  const std::size_t n = batch.size();
  if (!config_.parallel_samples || n == 1) {
    AG::backward(batch_loss(rep, batch, job, slot));
    return;
  }
  if (batched_step()) {
    // Batched graphs over contiguous runs of the batch. A run's graph folds
    // shared-parameter gradients last sample first, each sample's uses in
    // its own graph's sweep order, and the runs are swept last run first,
    // so every parameter gets sample n-1's contributions first and sample
    // 0's last, as batch_loss's sweep adds them (DESIGN.md §16, "Batched
    // steps").
    sweep_runs(n, batched_runs(n), [&](std::size_t lo, std::size_t hi) {
      obs::prof::Span span("cl.run");
      AG::backward(run_loss(rep, batch, lo, hi, job, slot));
    });
    return;
  }
  // batch_loss's left-to-right add chain makes its backward sweep reach the
  // LAST sample first: each parameter's gradient is the sum of sample n-1's
  // contributions, then n-2's, ..., then sample 0's. Every sample gets its
  // own graph scaled by the same 1/n (so its interior gradients are bitwise
  // the batch graph's), swept as a one-sample run, last sample first:
  // exactly that addition order.
  const float scale = 1.0f / static_cast<float>(n);
  sweep_runs(n, n, [&](std::size_t lo, std::size_t) {
    obs::prof::Span span("cl.run");
    AG::backward(AG::mul_scalar(sample_loss(rep, batch[lo], job, slot), scale));
  });
}

void MethodBase::post_backward(Replica&, const fed::TrainJob&, std::size_t) {}

autograd::Var MethodBase::eval_logits(Replica& rep, const tensor::Tensor& image,
                                      std::size_t) {
  return rep.net.forward(image).logits;
}

}  // namespace reffil::cl
