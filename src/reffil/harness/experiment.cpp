#include "reffil/harness/experiment.hpp"

#include <cstdlib>
#include <cstring>
#include <utility>

#include "reffil/cl/dualprompt.hpp"
#include "reffil/cl/ewc.hpp"
#include "reffil/cl/finetune.hpp"
#include "reffil/cl/l2p.hpp"
#include "reffil/cl/lwf.hpp"
#include "reffil/util/error.hpp"

namespace reffil::harness {

std::vector<MethodKind> all_method_kinds() {
  return {MethodKind::kFinetune,   MethodKind::kLwf,
          MethodKind::kEwc,        MethodKind::kL2p,
          MethodKind::kL2pPool,    MethodKind::kDualPrompt,
          MethodKind::kDualPromptPool, MethodKind::kRefFiL};
}

std::string method_display_name(MethodKind kind) {
  switch (kind) {
    case MethodKind::kFinetune: return "Finetune";
    case MethodKind::kLwf: return "FedLwF";
    case MethodKind::kEwc: return "FedEWC";
    case MethodKind::kL2p: return "FedL2P";
    case MethodKind::kL2pPool: return "FedL2P\xE2\x80\xA0";
    case MethodKind::kDualPrompt: return "FedDualPrompt";
    case MethodKind::kDualPromptPool: return "FedDualPrompt\xE2\x80\xA0";
    case MethodKind::kRefFiL: return "RefFiL";
  }
  throw ConfigError("unknown method kind");
}

namespace {
/// The one table behind method_cli_name and parse_method_name.
constexpr std::pair<MethodKind, const char*> kCliNames[] = {
    {MethodKind::kFinetune, "Finetune"},
    {MethodKind::kLwf, "FedLwF"},
    {MethodKind::kEwc, "FedEWC"},
    {MethodKind::kL2p, "FedL2P"},
    {MethodKind::kL2pPool, "FedL2P+pool"},
    {MethodKind::kDualPrompt, "FedDualPrompt"},
    {MethodKind::kDualPromptPool, "FedDualPrompt+pool"},
    {MethodKind::kRefFiL, "RefFiL"},
};
}  // namespace

std::string method_cli_name(MethodKind kind) {
  for (const auto& [k, name] : kCliNames) {
    if (k == kind) return name;
  }
  throw ConfigError("unknown method kind");
}

std::optional<MethodKind> parse_method_name(const std::string& name) {
  for (const auto& [kind, cli] : kCliNames) {
    if (name == cli) return kind;
  }
  return std::nullopt;
}

Scale scale_from_env() {
  const char* env = std::getenv("REFFIL_BENCH_SCALE");
  if (env == nullptr) return Scale::kScaled;
  if (std::strcmp(env, "smoke") == 0) return Scale::kSmoke;
  if (std::strcmp(env, "full") == 0) return Scale::kFull;
  return Scale::kScaled;
}

std::string to_string(Scale scale) {
  switch (scale) {
    case Scale::kSmoke: return "smoke";
    case Scale::kScaled: return "scaled";
    case Scale::kFull: return "full";
  }
  return "?";
}

data::DatasetSpec apply_scale(data::DatasetSpec spec, Scale scale) {
  switch (scale) {
    case Scale::kSmoke: {
      spec.rounds_per_task = 1;
      spec.local_epochs = 1;
      // Pools must still be partitionable across the final-task population.
      const std::size_t final_population =
          spec.initial_clients +
          (spec.domains.size() - 1) * spec.client_increment;
      const std::size_t floor_samples = final_population * 4 + 8;
      for (auto& d : spec.domains) {
        d.train_samples = std::max(floor_samples, d.train_samples / 3);
        d.test_samples = std::max<std::size_t>(30, d.test_samples / 3);
      }
      break;
    }
    case Scale::kScaled:
      break;  // the spec defaults are the scaled profile
    case Scale::kFull:
      spec.rounds_per_task *= 2;
      spec.local_epochs *= 2;
      for (auto& d : spec.domains) {
        d.train_samples *= 2;
        d.test_samples *= 2;
      }
      break;
  }
  return spec;
}

namespace {
cl::MethodConfig base_method_config(const data::DatasetSpec& spec,
                                    const ExperimentConfig& config) {
  cl::MethodConfig method;
  method.net.num_classes = spec.num_classes;
  method.parallelism = config.parallelism;
  method.seed = config.seed ^ 0xBEEFULL;
  method.max_tasks = spec.domains.size();
  method.graph_replay = config.graph_replay;
  method.parallel_samples = config.parallel_samples;
  return method;
}
}  // namespace

std::unique_ptr<fed::Method> make_method(MethodKind kind,
                                         const data::DatasetSpec& spec,
                                         const ExperimentConfig& config) {
  const cl::MethodConfig method = base_method_config(spec, config);
  switch (kind) {
    case MethodKind::kFinetune:
      return std::make_unique<cl::FinetuneMethod>(method);
    case MethodKind::kLwf:
      return std::make_unique<cl::LwfMethod>(method);
    case MethodKind::kEwc:
      return std::make_unique<cl::EwcMethod>(method);
    case MethodKind::kL2p:
      return std::make_unique<cl::L2pMethod>(method, cl::L2pConfig{.use_pool = false});
    case MethodKind::kL2pPool:
      return std::make_unique<cl::L2pMethod>(method, cl::L2pConfig{.use_pool = true});
    case MethodKind::kDualPrompt:
      return std::make_unique<cl::DualPromptMethod>(
          method, cl::DualPromptConfig{.use_pool = false});
    case MethodKind::kDualPromptPool:
      return std::make_unique<cl::DualPromptMethod>(
          method, cl::DualPromptConfig{.use_pool = true});
    case MethodKind::kRefFiL:
      return std::make_unique<core::RefFiLMethod>(method, config.reffil);
  }
  throw ConfigError("unknown method kind");
}

fed::RunResult run_experiment(const data::DatasetSpec& spec, MethodKind kind,
                              const ExperimentConfig& config) {
  const data::DatasetSpec scaled = apply_scale(spec, config.scale);
  auto method = make_method(kind, scaled, config);
  fed::FederatedRunner runner({.spec = scaled,
                               .parallelism = config.parallelism,
                               .seed = config.seed,
                               .faults = config.faults,
                               .des = config.des,
                               .compress = config.compress});
  return runner.run(*method);
}

fed::RunResult run_reffil_variant(const data::DatasetSpec& spec,
                                  const core::RefFiLConfig& reffil,
                                  const ExperimentConfig& config) {
  const data::DatasetSpec scaled = apply_scale(spec, config.scale);
  auto method = std::make_unique<core::RefFiLMethod>(
      base_method_config(scaled, config), reffil);
  fed::FederatedRunner runner({.spec = scaled,
                               .parallelism = config.parallelism,
                               .seed = config.seed,
                               .faults = config.faults,
                               .des = config.des,
                               .compress = config.compress});
  return runner.run(*method);
}

}  // namespace reffil::harness
