#include "reffil/fed/fedavg.hpp"

#include "reffil/tensor/ops.hpp"
#include "reffil/util/error.hpp"

namespace reffil::fed {

ModelState federated_average(const std::vector<ModelState>& states,
                             const std::vector<double>& weights) {
  REFFIL_CHECK_MSG(!states.empty(), "federated_average: no states");
  REFFIL_CHECK_MSG(states.size() == weights.size(),
                   "federated_average: weight count mismatch");
  double total = 0.0;
  for (double w : weights) {
    REFFIL_CHECK_MSG(w >= 0.0, "federated_average: negative weight");
    total += w;
  }
  REFFIL_CHECK_MSG(total > 0.0, "federated_average: all-zero weights");

  const std::size_t num_tensors = states.front().size();
  for (const auto& state : states) {
    REFFIL_CHECK_MSG(state.size() == num_tensors,
                     "federated_average: ragged states");
  }

  ModelState result;
  result.reserve(num_tensors);
  for (std::size_t t = 0; t < num_tensors; ++t) {
    tensor::Tensor acc(states.front()[t].shape());
    for (std::size_t m = 0; m < states.size(); ++m) {
      if (states[m][t].shape() != acc.shape()) {
        throw ShapeError("federated_average: tensor " + std::to_string(t) +
                         " shape mismatch across clients");
      }
      tensor::axpy_inplace(acc, static_cast<float>(weights[m] / total),
                           states[m][t]);
    }
    result.push_back(std::move(acc));
  }
  return result;
}

void serialize_state(const ModelState& state, util::ByteWriter& writer) {
  writer.write_u64(state.size());
  for (const auto& t : state) t.serialize(writer);
}

std::size_t serialized_size(const ModelState& state) {
  // u64 tensor count, then per tensor: u64 rank + rank u64 dims + the
  // pod_vector (u64 length + f32 data) — must mirror Tensor::serialize.
  std::size_t total = sizeof(std::uint64_t);
  for (const auto& t : state) {
    total += sizeof(std::uint64_t) * (2 + t.rank()) + sizeof(float) * t.numel();
  }
  return total;
}

ModelState deserialize_state(util::ByteReader& reader) {
  const std::uint64_t n = reader.read_u64();
  if (n > 1'000'000) throw SerializationError("implausible state tensor count");
  // The smallest serialized tensor is rank u64 + data-length u64, so any
  // count a valid payload can carry is bounded by remaining/16. Checking
  // before reserve() means a few-byte hostile frame claiming a million
  // tensors is rejected for the cost of one division instead of making the
  // server pre-allocate tens of MB it will never fill.
  constexpr std::uint64_t kMinSerializedTensorBytes = 16;
  if (n > reader.remaining() / kMinSerializedTensorBytes) {
    throw SerializationError("state tensor count " + std::to_string(n) +
                             " exceeds what the remaining " +
                             std::to_string(reader.remaining()) +
                             " payload bytes could encode");
  }
  ModelState state;
  state.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    state.push_back(tensor::Tensor::deserialize(reader));
  }
  return state;
}

bool validate_state_prefix(const std::vector<std::uint8_t>& payload,
                           std::string* reason) {
  try {
    util::ByteReader reader(payload);
    // Tensor::deserialize rejects non-finite data, so a successful decode
    // certifies the state is structurally sound AND numerically usable.
    const ModelState state = deserialize_state(reader);
    if (state.empty()) {
      if (reason) *reason = "empty model state";
      return false;
    }
    // The decode must consume the payload exactly: trailing bytes mean a
    // duplicated/concatenated state (or extras this validator was not told
    // about), and aggregating only the decoded prefix of such a payload
    // would silently accept bytes nobody vetted.
    if (!reader.exhausted()) {
      if (reason) {
        *reason = std::to_string(reader.remaining()) +
                  " trailing bytes after the model state";
      }
      return false;
    }
    return true;
  } catch (const Error& e) {
    if (reason) *reason = e.what();
    return false;
  }
}

}  // namespace reffil::fed
