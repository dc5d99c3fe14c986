// Dispatch-table resolution (see kernels_dispatch.hpp for the contract).
//
// Resolution runs exactly once, on the first active() call, and the chosen
// table never changes afterwards — mid-run retargeting would silently break
// per-target determinism (two halves of a run computed under different
// rounding). Tests that want a specific target fetch it with by_name() and
// call through its pointers directly instead of mutating the process-wide
// choice.

#include "reffil/tensor/kernels_dispatch.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace reffil::tensor::kern {

// Defined one per target TU; a target the toolchain could not compile for
// this architecture returns nullptr and simply doesn't exist in compiled().
const Kernels* scalar_table();
const Kernels* avx2_table();

bool host_supports(const Kernels& k) {
  const std::string_view name = k.name;
  if (name == "scalar") return true;
#if defined(__x86_64__) || defined(_M_X64)
  if (name == "avx2") {
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  }
#endif
  return false;
}

std::vector<const Kernels*> compiled() {
  std::vector<const Kernels*> out;
  for (const Kernels* k : {scalar_table(), avx2_table()}) {
    if (k != nullptr) out.push_back(k);
  }
  return out;
}

std::vector<const Kernels*> runnable() {
  std::vector<const Kernels*> out;
  for (const Kernels* k : compiled()) {
    if (host_supports(*k)) out.push_back(k);
  }
  return out;
}

const Kernels* by_name(std::string_view name) {
  for (const Kernels* k : compiled()) {
    if (name == k->name) return k;
  }
  return nullptr;
}

namespace {

const Kernels* resolve() {
  const Kernels* scalar = scalar_table();
  if (const char* env = std::getenv("REFFIL_ISA"); env != nullptr && *env) {
    const Kernels* forced = by_name(env);
    if (forced == nullptr) {
      // Unknown/uncompiled names are a configuration error, not a
      // degradation: throwing (rather than silently running something
      // else) keeps benchmark and reproducibility claims honest.
      std::string names;
      for (const Kernels* k : compiled()) {
        names += names.empty() ? "" : ", ";
        names += k->name;
      }
      throw std::runtime_error("REFFIL_ISA=" + std::string(env) +
                               " is not compiled into this binary (have: " +
                               names + ")");
    }
    if (!host_supports(*forced)) {
      // Compiled but not executable here (e.g. REFFIL_ISA=avx2 on a
      // baseline VM): the fat binary must still start, so degrade loudly.
      std::fprintf(stderr,
                   "reffil: REFFIL_ISA=%s is not supported by this CPU; "
                   "falling back to scalar\n",
                   forced->name);
      return scalar;
    }
    return forced;
  }
  // Auto: best supported target. compiled() lists scalar first, so take
  // the last runnable entry.
  const Kernels* best = scalar;
  for (const Kernels* k : runnable()) best = k;
  return best;
}

}  // namespace

const Kernels& active() {
  static const Kernels* chosen = resolve();
  return *chosen;
}

const char* active_name() { return active().name; }

}  // namespace reffil::tensor::kern
