// The Method interface every continual-learning strategy implements.
//
// The federated runner is method-agnostic: it plans rounds, moves serialized
// bytes between the (simulated) server and clients, meters traffic, and asks
// the method for predictions at evaluation time. Everything algorithmic —
// local losses, aggregation beyond FedAvg, prompt machinery — lives behind
// this interface.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "reffil/data/generator.hpp"
#include "reffil/fed/scheduler.hpp"
#include "reffil/tensor/tensor.hpp"

namespace reffil::fed {

struct CompressionConfig;

/// One client's local-training assignment for a round.
struct TrainJob {
  std::size_t worker_slot = 0;  ///< replica index, [0, parallelism)
  std::size_t client_id = 0;
  std::size_t task = 0;         ///< current incremental task (0-based)
  std::size_t round = 0;        ///< communication round within the task
  std::size_t total_rounds = 1; ///< rounds per task (R)
  ClientGroup group = ClientGroup::kNew;
  const data::Dataset* new_data = nullptr;  ///< shard of the current domain
  const data::Dataset* old_data = nullptr;  ///< shard of the previous domain
  std::size_t local_epochs = 1;
  float learning_rate = 0.03f;
};

/// What a client sends back to the server.
struct ClientUpdate {
  std::size_t client_id = 0;
  std::size_t num_samples = 0;  ///< FedAvg weight |D_m|
  std::vector<std::uint8_t> payload;
};

/// Server-side structural check of one inbound update payload, armed on the
/// transport before delivery. Returns false (optionally with a reason) for
/// payloads that must be quarantined; never throws.
using UpdateValidator =
    std::function<bool(const std::vector<std::uint8_t>&, std::string*)>;

/// The server's fold of one round: updates are added one at a time as they
/// arrive and finish() commits the round, so server memory stays O(model)
/// however large the cohort. add() checks the whole update before it folds
/// or keeps any of it, and throws on a malformed one: that single update is
/// quarantined and leaves no trace, not the whole round.
class AggregationSink {
 public:
  virtual ~AggregationSink() = default;
  virtual void add(const ClientUpdate& update) = 0;
  virtual std::size_t count() const = 0;
  virtual void finish() = 0;
};

class Method {
 public:
  virtual ~Method() = default;

  virtual std::string name() const = 0;

  /// Notification that incremental task `task` (0-based) is starting. For
  /// task > 0 this is where regularization methods snapshot teachers etc.
  virtual void on_task_start(std::size_t task) = 0;

  /// Serialize the server's current state (global model + method extras)
  /// for broadcast to this round's participants.
  virtual std::vector<std::uint8_t> make_broadcast() = 0;

  /// Run one client's local training. Called concurrently, one call per
  /// worker slot at a time — implementations keep per-slot replicas.
  virtual ClientUpdate train_client(const std::vector<std::uint8_t>& broadcast,
                                    const TrainJob& job) = 0;

  /// Fold a whole batch of updates: streams it, in order, through the
  /// method's own sink opened with the batch's total weight. Virtual only so
  /// forwarding wrappers (perfbench's probe) can time it.
  virtual void aggregate(const std::vector<ClientUpdate>& updates);

  /// Validator the runner arms inbound updates with. It should accept
  /// exactly the payloads the method's sink folds. The default accepts one
  /// decodable, non-empty model state and nothing else
  /// (validate_state_prefix); cl::MethodBase arms the checked reader its
  /// fold runs: the state against the model's shapes, then the method's
  /// extras decoder, then the end of the payload.
  virtual UpdateValidator update_validator() const;

  /// Begin the round's fold. `planned_samples` is the total FedAvg weight of
  /// the updates the round plans to fold; the sink corrects once in finish()
  /// if fewer arrive. Never returns nullptr.
  virtual std::unique_ptr<AggregationSink> begin_streaming_aggregate(
      std::size_t planned_samples) = 0;

  /// Install the runner's wire-compression config (fed/compress.hpp) before
  /// the first round. The default ignores it — methods that do not opt in
  /// keep speaking the uncompressed format on both directions.
  virtual void configure_compression(const CompressionConfig&) {}

  /// Load the current global state into every worker replica for evaluation.
  virtual void prepare_eval() = 0;

  /// Predict the label of one image with the global model. Called
  /// concurrently after prepare_eval(), including several calls for the same
  /// worker slot at once: read the slot's replica, never write it.
  virtual std::size_t predict(std::size_t worker_slot,
                              const tensor::Tensor& image) = 0;

  /// Feature embedding of one image under the global model (the post-
  /// attention class token) — used by the t-SNE analyses of Figures 5-6.
  /// Same calling contract as predict().
  virtual tensor::Tensor eval_feature(std::size_t worker_slot,
                                      const tensor::Tensor& image) = 0;
};

}  // namespace reffil::fed
