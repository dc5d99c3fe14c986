// FedEWC: Elastic Weight Consolidation (Kirkpatrick et al. 2017) in FDIL.
//
// Clients estimate the diagonal Fisher information of the trained model on
// their local data during the *last round* of each task and upload it with
// the update; the server averages the Fisher diagonals and anchors the next
// task's training with the quadratic penalty
//     L_EWC = (lambda / 2) * sum_i F_i (theta_i - theta*_i)^2
// whose gradient lambda * F * (theta - theta*) is added after backward().
// lambda defaults to the paper's 300; Fisher diagonals are normalized to a
// unit maximum so lambda has a consistent meaning across architectures.
#pragma once

#include "reffil/cl/method_base.hpp"

namespace reffil::cl {

struct EwcConfig {
  float lambda = 120.0f;          ///< paper uses 300 at its scale
  std::size_t fisher_samples = 32;  ///< per-client sample budget for Fisher
};

class EwcMethod : public MethodBase {
 public:
  EwcMethod(MethodConfig config, EwcConfig ewc = {});

  void on_task_start(std::size_t task) override;

 protected:
  void write_broadcast_extras(util::ByteWriter& writer) override;
  void read_broadcast_extras(util::ByteReader& reader, std::size_t slot) override;
  void write_update_extras(util::ByteWriter& writer, Replica& replica,
                           const fed::TrainJob& job) override;
  /// The flag (0 or 1), then with 1 a Fisher diagonal shaped like the model
  /// with every entry >= 0 and its finite, non-negative sample weight.
  std::any decode_update_extras(util::ByteReader& reader) const override;
  /// Keeps the round's Fisher uploads for the next task's penalty.
  void after_aggregate(std::vector<std::any> extras) override;
  void post_backward(Replica& replica, const fed::TrainJob& job,
                     std::size_t slot) override;
  /// The data term is plain cross-entropy: the default run_loss batches it.
  bool batched_step() const override { return true; }
  /// The EWC batch graph is plain cross-entropy — the quadratic penalty is
  /// added eagerly in post_backward — so one tape per batch size suffices.
  std::string replay_signature(const Replica&, const fed::TrainJob&,
                               std::size_t) const override {
    return "ce";
  }

 private:
  EwcConfig ewc_;
  // Server-side consolidated penalty (from the previous task).
  bool have_penalty_ = false;
  fed::ModelState fisher_;
  fed::ModelState anchor_;
  /// One client's uploaded Fisher diagonal and its FedAvg weight.
  struct FisherUpload {
    fed::ModelState fisher;
    double weight = 0.0;
  };
  // Fisher diagonals folded since the task started, averaged at the next.
  std::vector<fed::ModelState> pending_fishers_;
  std::vector<double> pending_fisher_weights_;
  // Worker-local copy of the active penalty (parsed from broadcast).
  struct WorkerPenalty {
    bool active = false;
    fed::ModelState fisher;
    fed::ModelState anchor;
  };
  std::vector<WorkerPenalty> worker_penalty_;
};

}  // namespace reffil::cl
