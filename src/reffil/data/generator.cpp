#include "reffil/data/generator.hpp"

#include <cmath>

#include "reffil/tensor/ops.hpp"
#include "reffil/util/error.hpp"

namespace reffil::data {

namespace T = reffil::tensor;

SyntheticDomainSource::SyntheticDomainSource(const DatasetSpec& spec)
    : spec_(spec) {
  REFFIL_CHECK_MSG(!spec.domains.empty(), "dataset spec has no domains");
  REFFIL_CHECK_MSG(spec.num_classes >= 2, "dataset needs >= 2 classes");
  util::Rng rng(spec.seed);

  // Class codes are well-separated in latent space (scaled standard normal).
  class_codes_ = T::randn({spec.num_classes, kLatentDim}, rng, 0.0f, 1.2f);

  // Shared rendering matrix: columns scaled to keep pixel magnitudes ~O(1).
  const float render_scale = 1.0f / std::sqrt(static_cast<float>(kLatentDim));
  render_ = T::randn({kImageSide * kImageSide, kLatentDim}, rng, 0.0f, render_scale);

  // Domain models are drawn in canonical stream order so a permuted task
  // order (Tables 2/4) reuses exactly the same per-domain parameters. When
  // the spec's stream ids are not a valid permutation (hand-built specs that
  // never set them), positions are the canonical order.
  std::vector<bool> seen(spec.domains.size(), false);
  bool valid_permutation = true;
  for (const auto& d : spec.domains) {
    if (d.stream_id >= spec.domains.size() || seen[d.stream_id]) {
      valid_permutation = false;
      break;
    }
    seen[d.stream_id] = true;
  }
  if (!valid_permutation) {
    for (std::size_t i = 0; i < spec_.domains.size(); ++i) {
      spec_.domains[i].stream_id = i;
    }
  }
  const auto& domain_specs = spec_.domains;  // possibly re-stamped
  std::vector<std::size_t> canonical(domain_specs.size());
  for (std::size_t i = 0; i < domain_specs.size(); ++i) {
    canonical[domain_specs[i].stream_id] = i;
  }
  std::vector<DomainModel> by_stream(domain_specs.size());
  for (std::size_t stream = 0; stream < domain_specs.size(); ++stream) {
    const auto& dspec = domain_specs[canonical[stream]];
    DomainModel dm;
    // M_d = I + style_shift * A with A ~ N(0, 1/sqrt(L)): a progressively
    // stronger rotation/shear of the class manifold.
    dm.style_map = T::randn({kLatentDim, kLatentDim}, rng, 0.0f,
                            dspec.style_shift /
                                std::sqrt(static_cast<float>(kLatentDim)));
    for (std::size_t i = 0; i < kLatentDim; ++i) {
      dm.style_map.at2(i, i) += 1.0f;
    }
    dm.style_offset = T::randn({kLatentDim}, rng, 0.0f, 0.5f * dspec.style_shift);
    // Blended rendering: (1-mix) * shared W + mix * domain-private V_d.
    T::Tensor domain_render =
        T::randn({kImageSide * kImageSide, kLatentDim}, rng, 0.0f, render_scale);
    dm.render = T::add(T::mul_scalar(render_, 1.0f - dspec.render_mix),
                       T::mul_scalar(domain_render, dspec.render_mix));
    dm.clutter_map = T::randn({kImageSide * kImageSide, kClutterDim}, rng, 0.0f,
                              1.0f / std::sqrt(static_cast<float>(kClutterDim)));
    dm.contrast = static_cast<float>(rng.uniform(0.8, 1.25));
    dm.brightness = static_cast<float>(rng.uniform(-0.3, 0.3));
    dm.noise = dspec.noise;
    dm.clutter = dspec.clutter;
    by_stream[stream] = std::move(dm);
  }
  domains_.reserve(domain_specs.size());
  for (const auto& dspec : domain_specs) {
    domains_.push_back(std::move(by_stream[dspec.stream_id]));
  }
}

Sample SyntheticDomainSource::make_sample(const DomainModel& dm, std::size_t label,
                                          util::Rng& rng) const {
  // latent: u = M_d z_k + s_d + within-class jitter
  T::Tensor z = T::row(class_codes_, label);
  T::Tensor jitter = T::randn({kLatentDim}, rng, 0.0f, 0.25f);
  T::add_inplace(z, jitter);
  T::Tensor u = T::matvec(dm.style_map, z);
  T::add_inplace(u, dm.style_offset);

  // blended rendering + domain clutter + pixel noise
  T::Tensor img = T::matvec(dm.render, u);  // [256]
  const T::Tensor style = T::randn({kClutterDim}, rng);
  T::axpy_inplace(img, dm.clutter, T::matvec(dm.clutter_map, style));
  T::Tensor noise = T::randn({kImageSide * kImageSide}, rng, 0.0f, dm.noise);
  T::add_inplace(img, noise);

  // photometric shift
  T::scale_inplace(img, dm.contrast);
  img = T::add_scalar(img, dm.brightness);

  Sample sample;
  sample.image = img.reshaped({1, kImageSide, kImageSide});
  sample.label = label;
  return sample;
}

Dataset SyntheticDomainSource::make_split(std::size_t domain_index,
                                          std::size_t count,
                                          std::uint64_t stream_tag) const {
  REFFIL_CHECK_MSG(domain_index < domains_.size(), "domain index out of range");
  // Independent stream per (domain, split) so train/test never overlap,
  // splits are insensitive to generation order elsewhere, and a permuted
  // task order draws the same samples for the same domain (keyed by the
  // canonical stream_id, not the position).
  const std::size_t stream_id = spec_.domains[domain_index].stream_id;
  util::Rng rng(spec_.seed ^ (0x51EDC0DEULL * (stream_id + 1)) ^ stream_tag);
  Dataset out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t label = i % spec_.num_classes;  // class-balanced
    out.push_back(make_sample(domains_[domain_index], label, rng));
  }
  rng.shuffle(out);
  return out;
}

Dataset SyntheticDomainSource::train_split(std::size_t domain_index) const {
  return make_split(domain_index, spec_.domains.at(domain_index).train_samples,
                    0x7121A11ULL);
}

Dataset SyntheticDomainSource::test_split(std::size_t domain_index) const {
  return make_split(domain_index, spec_.domains.at(domain_index).test_samples,
                    0x7E57ULL);
}

std::vector<std::size_t> label_histogram(const Dataset& dataset,
                                         std::size_t num_classes) {
  std::vector<std::size_t> hist(num_classes, 0);
  for (const auto& s : dataset) {
    REFFIL_CHECK_MSG(s.label < num_classes, "label out of range");
    ++hist[s.label];
  }
  return hist;
}

}  // namespace reffil::data
