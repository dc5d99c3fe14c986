// Synthetic domain-incremental image generator.
//
// This is the substitute for the paper's four image corpora (see DESIGN.md
// §1). The generative model reproduces the structure that makes
// domain-incremental learning hard: a fixed label space whose appearance
// P(x | y) shifts per domain.
//
//   latent class code   z_k ∈ R^L               (shared across domains)
//   domain style map    u   = M_d z_k + s_d      (rotation + offset; strength
//                                                 = DomainSpec::style_shift)
//   blended rendering   img = ((1-mix) W + mix V_d) u
//                                                 (W shared by all domains, so
//                                                 domain-invariant structure
//                                                 exists; V_d domain-private,
//                                                 so naive fine-tuning drifts)
//   domain clutter      img += clutter_d · C_d s (structured per-domain
//                                                 nuisance, s ~ N(0, I))
//   pixel noise         img += noise_d · ε
//   photometric shift   img  = a_d · img + c_d   (per-domain contrast/bias)
//
// Because W is shared, a model can in principle become robust across
// domains (what RefFiL's global prompts promote); because M_d rotates the
// class manifold, naive fine-tuning on a new domain drifts the features and
// forgets old domains — the paper's central failure mode.
#pragma once

#include <cstdint>
#include <vector>

#include "reffil/data/spec.hpp"
#include "reffil/tensor/tensor.hpp"
#include "reffil/util/rng.hpp"

namespace reffil::data {

struct Sample {
  tensor::Tensor image;  ///< [1, 16, 16]
  std::size_t label = 0;
};

using Dataset = std::vector<Sample>;

/// Deterministic source of train/test splits for every domain of a spec.
/// Two sources built from equal specs produce identical datasets.
class SyntheticDomainSource {
 public:
  static constexpr std::size_t kLatentDim = 24;
  static constexpr std::size_t kClutterDim = 8;
  static constexpr std::size_t kImageSide = 16;

  explicit SyntheticDomainSource(const DatasetSpec& spec);

  /// Training pool for a domain (size = DomainSpec::train_samples),
  /// class-balanced round robin. Deterministic per (spec, domain).
  Dataset train_split(std::size_t domain_index) const;

  /// Held-out evaluation set for a domain (size = DomainSpec::test_samples).
  Dataset test_split(std::size_t domain_index) const;

  const DatasetSpec& spec() const { return spec_; }

 private:
  struct DomainModel {
    tensor::Tensor style_map;     ///< [L, L] M_d
    tensor::Tensor style_offset;  ///< [L]    s_d
    tensor::Tensor render;        ///< [256, L] blended (1-mix) W + mix V_d
    tensor::Tensor clutter_map;   ///< [256, J] C_d
    float contrast = 1.0f;        ///< a_d
    float brightness = 0.0f;      ///< c_d
    float noise = 0.0f;
    float clutter = 0.0f;
  };

  Dataset make_split(std::size_t domain_index, std::size_t count,
                     std::uint64_t stream_tag) const;
  Sample make_sample(const DomainModel& dm, std::size_t label,
                     util::Rng& rng) const;

  DatasetSpec spec_;
  tensor::Tensor class_codes_;  ///< [K, L]
  tensor::Tensor render_;       ///< [256, L] shared W
  std::vector<DomainModel> domains_;
};

/// Count of samples per label.
std::vector<std::size_t> label_histogram(const Dataset& dataset,
                                         std::size_t num_classes);

}  // namespace reffil::data
