// FedLwF: Learning-without-Forgetting (Li & Hoiem 2017) adapted to FDIL.
//
// At every task boundary the server snapshots the global model as a teacher.
// Clients receive the teacher with the broadcast and add a distillation term
// KL(teacher || student) at temperature T (paper default 2) to the local CE
// loss, anchoring predictions on inputs from the new domain to the old
// model's behaviour.
#pragma once

#include <memory>

#include "reffil/cl/method_base.hpp"

namespace reffil::cl {

struct LwfConfig {
  float distill_weight = 0.4f;
  float temperature = 2.0f;  ///< paper Section 4.1
};

class LwfMethod : public MethodBase {
 public:
  LwfMethod(MethodConfig config, LwfConfig lwf = {});

  void on_task_start(std::size_t task) override;

 protected:
  void write_broadcast_extras(util::ByteWriter& writer) override;
  void read_broadcast_extras(util::ByteReader& reader, std::size_t slot) override;
  autograd::Var sample_loss(Replica& replica, const TaggedSample& sample,
                            const fed::TrainJob& job, std::size_t slot) override;

 private:
  LwfConfig lwf_;
  bool have_teacher_ = false;
  fed::ModelState teacher_state_;
  /// Per-worker frozen teacher replicas (loaded from broadcast extras),
  /// null until the slot first receives a teacher.
  std::vector<std::unique_ptr<nn::PromptNet>> teachers_;
  /// One flag per slot, written by that slot's concurrent train_client —
  /// not std::vector<bool>, whose flags share words.
  std::vector<char> teacher_loaded_;
};

}  // namespace reffil::cl
