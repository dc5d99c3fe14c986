// FedAvg aggregation (McMahan et al. 2017), used by Algorithm 1 line 7:
//   theta^{r+1} = sum_m (|D_m| / |D|) * theta_m^r
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "reffil/tensor/tensor.hpp"

namespace reffil::fed {

/// A model's parameter tensors in registration order (Module::snapshot()).
using ModelState = std::vector<tensor::Tensor>;

/// Weighted average of client states. Weights are normalized internally;
/// they are typically client sample counts. All states must have identical
/// structure (same tensor count and shapes).
ModelState federated_average(const std::vector<ModelState>& states,
                             const std::vector<double>& weights);

/// Serialize / deserialize a full model state (used for broadcast payloads).
/// deserialize_state bounds the claimed tensor count by the bytes actually
/// remaining in the reader before reserving anything, so a few-byte hostile
/// frame cannot make the server pre-allocate for a million tensors.
void serialize_state(const ModelState& state, util::ByteWriter& writer);
ModelState deserialize_state(util::ByteReader& reader);

/// Exact byte size serialize_state will produce — ByteWriter::reserve() fodder
/// so broadcast/update frames are written into one allocation.
std::size_t serialized_size(const ModelState& state);

/// Server-side sanity check of one inbound update payload before it reaches
/// aggregation: the payload must be EXACTLY one decodable, non-empty,
/// all-finite ModelState — trailing undecoded bytes fail validation, so a
/// duplicated/concatenated state can no longer slip past quarantine. This is
/// Method::update_validator()'s default; cl::MethodBase's methods arm the
/// reader their fold runs instead, which also checks the state against the
/// model's shapes and decodes the method's extras before requiring the same
/// exact consumption. On failure writes a human-readable cause into `reason`
/// (when non-null) and returns false — never throws.
bool validate_state_prefix(const std::vector<std::uint8_t>& payload,
                           std::string* reason);

}  // namespace reffil::fed
