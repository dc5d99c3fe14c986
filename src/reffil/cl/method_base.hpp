// Shared implementation skeleton for every continual-learning method.
//
// MethodBase owns the global model state and a pool of per-worker replicas.
// It implements the federated mechanics once — broadcast serialization,
// local SGD epochs, FedAvg aggregation, evaluation — and exposes small
// virtual hooks where each strategy differs: the per-batch loss, extra
// broadcast/update payload fields, gradient post-processing, and the
// evaluation forward pass.
#pragma once

#include <any>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "reffil/autograd/graph.hpp"
#include "reffil/fed/compress.hpp"
#include "reffil/fed/fedavg.hpp"
#include "reffil/fed/method.hpp"
#include "reffil/nn/backbone.hpp"
#include "reffil/nn/optimizer.hpp"

namespace reffil::cl {

struct MethodConfig {
  nn::PromptNetConfig net;
  std::size_t parallelism = 4;   ///< number of worker slots (replicas)
  std::size_t batch_size = 16;
  float momentum = 0.9f;
  float clip_norm = 5.0f;  ///< global gradient clip (stability at few rounds)
  std::uint64_t seed = 7;
  std::size_t max_tasks = 8;     ///< upper bound on task count (key tables)
  /// Capture each distinct train-step graph once and replay it via the arena
  /// planner on later batches (methods opt in per step through
  /// replay_signature). Replayed steps are bitwise-identical to eager.
  bool graph_replay = false;
  /// Train an eager batch as several graphs swept one after another on the
  /// client's thread — multi-sample graphs over runs of at most
  /// kMaxRunSamples samples (batched_step methods) or one graph per sample
  /// (the rest) — each parameter taking its contributions in the order the
  /// one-graph batch sweep adds them: bitwise-identical to
  /// parallel_samples = false, which is that one graph.
  bool parallel_samples = true;
};

/// Everything trainable one worker owns. Subclass replicas add modules; all
/// modules returned by modules() participate in snapshot/load/FedAvg, in a
/// fixed order identical across workers and the server.
class Replica {
 public:
  Replica(const MethodConfig& config, util::Rng& rng) : net(config.net, rng) {}
  virtual ~Replica() = default;
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  nn::PromptNet net;

  virtual std::vector<nn::Module*> modules() { return {&net}; }

  fed::ModelState snapshot();
  void load(const fed::ModelState& state);
  std::vector<autograd::Var> parameters();
};

class MethodBase : public fed::Method {
 public:
  MethodBase(std::string name, MethodConfig config);

  std::string name() const override { return name_; }
  void on_task_start(std::size_t task) override;
  std::vector<std::uint8_t> make_broadcast() override;
  fed::ClientUpdate train_client(const std::vector<std::uint8_t>& broadcast,
                                 const fed::TrainJob& job) override;
  fed::UpdateValidator update_validator() const override;
  std::unique_ptr<fed::AggregationSink> begin_streaming_aggregate(
      std::size_t planned_samples) override;
  void configure_compression(const fed::CompressionConfig& config) override;
  void prepare_eval() override;
  std::size_t predict(std::size_t worker_slot,
                      const tensor::Tensor& image) override;
  tensor::Tensor eval_feature(std::size_t worker_slot,
                              const tensor::Tensor& image) override;

  const fed::ModelState& global_state() const { return global_state_; }
  const MethodConfig& config() const { return config_; }

  /// Number of clients currently holding a non-discarded error-feedback
  /// residual (tests assert these drain to zero when compression turns off).
  std::size_t residual_count() const;

  /// How many runs a batched step of n samples is split into: as few as
  /// hold at most kMaxRunSamples samples each, ceil(n / kMaxRunSamples).
  static std::size_t batched_runs(std::size_t n);

  /// Sweep samples [0, n), split into `runs` contiguous runs, one run after
  /// another on the calling thread: step k runs run runs-1-k.
  /// `sweep_run(lo, hi)` performs one backward() over samples [lo, hi) that
  /// adds each parameter's contributions sample hi-1 first (a one-sample
  /// run, or batched ops' fold_sample_grads), so every parameter gets sample
  /// n-1's contributions first and sample 0's last, whatever `runs` is.
  static void sweep_runs(
      std::size_t n, std::size_t runs,
      const std::function<void(std::size_t, std::size_t)>& sweep_run);

 protected:
  /// Subclasses with extended replicas override this factory. Called for
  /// slot 0 from init_workers(), which subclass constructors must invoke,
  /// and for every other slot the first time it trains or evaluates.
  virtual std::unique_ptr<Replica> make_replica(util::Rng& rng);

  /// Size the worker slots, build slot 0's replica and the initial global
  /// state from it; must be called at the end of every (most-derived)
  /// constructor.
  void init_workers();

  // ---- extension hooks -------------------------------------------------------
  /// Append method extras to the server broadcast.
  virtual void write_broadcast_extras(util::ByteWriter&) {}
  /// Parse those extras on the client (per worker slot).
  virtual void read_broadcast_extras(util::ByteReader&, std::size_t slot);
  /// Append client extras (e.g. local prompt groups) to the update payload.
  virtual void write_update_extras(util::ByteWriter&, Replica&,
                                   const fed::TrainJob&) {}
  /// The one reader of those extras on the server: decode them and check
  /// them against the server's configuration, changing nothing, and throw
  /// Error on anything malformed. The transport's validator and the fold
  /// both run it (decode_update), and the payload must end where it stops
  /// reading. Returns what after_aggregate receives for this update; the
  /// default reads nothing (no extras).
  virtual std::any decode_update_extras(util::ByteReader&) const { return {}; }
  /// Called after FedAvg each round with decode_update_extras' result for
  /// every folded update, in fold order (e.g. prompt clustering).
  virtual void after_aggregate(std::vector<std::any>) {}
  /// Decode one model state and require the server model's tensor count
  /// and every shape (ShapeError otherwise).
  fed::ModelState decode_model_shaped(util::ByteReader& reader) const;

  /// A training sample together with the task its domain belongs to (old
  /// shards carry task-1) — prompt methods key task-conditional state off it.
  struct TaggedSample {
    const data::Sample* sample = nullptr;
    std::size_t task = 0;
  };

  /// One sample's training loss; a batch trains on the mean over its
  /// samples. Default: plain cross-entropy with no prompts (the Finetune
  /// baseline). Builds a graph over the replica and per-slot state; the
  /// backward sweep, not the loss, writes gradients.
  virtual autograd::Var sample_loss(Replica& replica, const TaggedSample& sample,
                                    const fed::TrainJob& job, std::size_t slot);

  /// True when the method's eager steps build one multi-sample graph per
  /// run of each batch through run_loss (DESIGN.md §16, "Batched steps");
  /// false keeps one graph per sample. A method that overrides sample_loss
  /// and returns true must override run_loss to match it.
  virtual bool batched_step() const { return false; }

  /// The loss over batch[lo, hi) as one graph: the run's share of the batch
  /// mean, whose sweep must add every parameter gradient bitwise as
  /// batch_loss's one graph adds samples [lo, hi)' contributions (sample
  /// hi-1's first). Default: the default sample_loss's cross-entropy over
  /// the run's multi-sample forward, divided by the whole batch's size.
  virtual autograd::Var run_loss(Replica& replica,
                                 const std::vector<TaggedSample>& batch,
                                 std::size_t lo, std::size_t hi,
                                 const fed::TrainJob& job, std::size_t slot);

  /// The images of batch[lo, hi) stacked as one [hi-lo, C, H, W] tensor.
  static tensor::Tensor run_images(const std::vector<TaggedSample>& batch,
                                   std::size_t lo, std::size_t hi);

  /// Most samples in one batched run (batched_runs): a run's graph holds
  /// all its samples' activations at once, which sets the step's peak
  /// memory. Forward-only batches (RefFiL's local prompt groups) use it too.
  static constexpr std::size_t kMaxRunSamples = 3;

  /// Called after backward() and before the optimizer step (e.g. to add the
  /// EWC penalty gradient). Runs eagerly even on replayed steps.
  virtual void post_backward(Replica& replica, const fed::TrainJob& job,
                             std::size_t slot);

  /// Graph-replay opt-in. A non-empty string names the captured-graph family
  /// this (replica, job) pair trains: full-size batches whose signature
  /// matches replay one frozen tape instead of rebuilding the autograd
  /// graph. The signature must encode EVERYTHING the graph *structure* (or
  /// any value baked into it as a constant) depends on other than batch size
  /// and per-sample tags — task index, round-frozen broadcast state,
  /// loss-term toggles. Methods with data-dependent structure (prompt
  /// selection, teacher baking) return "" for the affected steps and stay
  /// eager. Default: "" — never replay.
  virtual std::string replay_signature(const Replica& replica,
                                       const fed::TrainJob& job,
                                       std::size_t slot) const;

  /// True when the captured graph's structure depends on each sample's task
  /// tag; bind() then refuses batches whose tag pattern differs from the
  /// captured one (falling back to eager) instead of replaying a wrong graph.
  virtual bool replay_tags_matter() const { return false; }

  /// Called once before the local epochs start / after they finish.
  virtual void on_client_begin(Replica&, const fed::TrainJob&, std::size_t) {}
  virtual void on_client_end(Replica&, const fed::TrainJob&, std::size_t) {}

  /// Evaluation logits for one image. Default: prompt-free forward.
  virtual autograd::Var eval_logits(Replica& replica,
                                    const tensor::Tensor& image,
                                    std::size_t slot);

  /// Assemble the local training view for a job (U_n: new, U_o: old,
  /// U_b: old ++ new per Algorithm 1 line 13), tagging each sample with the
  /// task its domain was introduced in.
  static std::vector<TaggedSample> local_view(const fed::TrainJob& job);

  /// The slot's replica; throws when it has not been built yet.
  Replica& replica(std::size_t slot);

  std::string name_;
  MethodConfig config_;
  fed::ModelState global_state_;
  /// One replica per slot, null until the slot first trains (slot 0: built
  /// by init_workers) or prepare_eval builds it.
  std::vector<std::unique_ptr<Replica>> workers_;
  std::size_t current_task_ = 0;

  /// Wire compression installed by the runner (none by default). When
  /// enabled, make_broadcast() emits a quantized state frame and keeps the
  /// DECODED state here — the base every client computes its delta against,
  /// and the base aggregation applies the averaged delta to. Set before the
  /// first round and read-only afterwards.
  fed::CompressionConfig compress_;
  fed::ModelState broadcast_reference_;

 private:
  /// The batch loss as one graph: the per-sample losses summed left to
  /// right, times 1/|batch|.
  autograd::Var batch_loss(Replica& replica,
                           const std::vector<TaggedSample>& batch,
                           const fed::TrainJob& job, std::size_t slot);

  /// Accumulate one batch's gradients eagerly: through batch_loss, or under
  /// parallel_samples through run_loss or one graph per sample.
  void train_step_eager(Replica& replica, const std::vector<TaggedSample>& batch,
                        const fed::TrainJob& job, std::size_t slot);

  /// Train one batch through the captured-graph path. Returns true when this
  /// batch's gradients are already accumulated — either a replay, or the
  /// instrumented eager step a fresh capture runs (captures are real steps).
  /// Returns false (having trained nothing) when the method opted out, the
  /// batch does not bind, or a prior capture proved the step unreplayable —
  /// the caller then runs the plain eager step.
  bool train_step_replayed(Replica& replica,
                           const std::vector<TaggedSample>& batch,
                           const fed::TrainJob& job, std::size_t slot);

  /// The slot's replica, built on first use. Only the thread that owns the
  /// slot (its train_client, or prepare_eval before any predict) calls it.
  Replica& build_replica(std::size_t slot);

  /// Per-worker captured graphs keyed "<signature>|b=<batch_size>", least
  /// recently used evicted beyond the slot's share of kMaxGraphs (at least
  /// one). A null entry is a negative cache: capture proved this step
  /// unreplayable, so the step stays eager without re-capturing every batch.
  std::vector<autograd::graph::GraphCache> graph_cache_;
  /// Captured graphs held across all slots: each pins its arena and scratch,
  /// so the budget, not the slot count, bounds replay's memory.
  static constexpr std::size_t kMaxGraphs = 16;

  /// Fold the stored residual for `client_id` into `delta` (and spend it);
  /// a residual whose structure no longer matches is dropped instead.
  void fold_residual(std::size_t client_id, fed::ModelState& delta);
  /// Store `residual` as the client's carry into its next participating
  /// round. Bounded at kMaxResiduals clients (oldest id evicted) so a
  /// million-client federation cannot hold a model copy per client.
  void store_residual(std::size_t client_id, fed::ModelState residual);

  mutable std::mutex residual_mutex_;
  std::map<std::size_t, fed::ModelState> residuals_;
  static constexpr std::size_t kMaxResiduals = 65536;

  /// One update payload as decode_update reads it: the model state (empty
  /// for a delta frame, which the fold reads from the payload itself) and
  /// the method's decoded extras.
  struct DecodedUpdate {
    fed::ModelState state;
    std::any extras;
  };
  /// The one checked reader of an update payload, run by update_validator()
  /// and by the fold: the model state with the server model's tensor count
  /// and shapes (a delta frame through validate_delta_frame when
  /// compressed), then decode_update_extras, then the end of the payload.
  /// Changes nothing; throws Error on the first violation.
  DecodedUpdate decode_update(const std::vector<std::uint8_t>& payload) const;

  // The streaming fold (defined in the .cpp); a nested class so it can call
  // decode_update / after_aggregate and commit the global state without
  // widening the protected surface.
  class StreamingSink;
};

}  // namespace reffil::cl
