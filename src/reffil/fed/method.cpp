#include "reffil/fed/method.hpp"

#include "reffil/fed/fedavg.hpp"

namespace reffil::fed {

UpdateValidator Method::update_validator() const {
  return [](const std::vector<std::uint8_t>& payload, std::string* reason) {
    return validate_state_prefix(payload, reason);
  };
}

void Method::aggregate(const std::vector<ClientUpdate>& updates) {
  std::size_t planned = 0;
  for (const ClientUpdate& update : updates) planned += update.num_samples;
  const std::unique_ptr<AggregationSink> sink =
      begin_streaming_aggregate(planned);
  for (const ClientUpdate& update : updates) sink->add(update);
  sink->finish();
}

}  // namespace reffil::fed
