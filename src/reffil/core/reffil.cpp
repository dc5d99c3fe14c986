#include "reffil/core/reffil.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "reffil/autograd/graph.hpp"
#include "reffil/autograd/ops.hpp"
#include "reffil/core/finch.hpp"
#include "reffil/tensor/ops.hpp"
#include "reffil/util/error.hpp"
#include "reffil/util/prof.hpp"

namespace reffil::core {

namespace AG = reffil::autograd;
namespace T = reffil::tensor;

float dpcl_temperature(const RefFiLConfig& config, std::size_t task_zero_based) {
  if (!config.temperature_decay) return config.tau;
  const float t = static_cast<float>(task_zero_based + 1);  // paper is 1-based
  const float decayed =
      config.tau * (1.0f - (config.gamma + (t - 1.0f) * config.beta));
  return std::max(config.tau_min, decayed);  // Eq. (7)
}

RefFiLReplica::RefFiLReplica(const cl::MethodConfig& config,
                             const RefFiLConfig& reffil, util::Rng& rng)
    : cl::Replica(config, rng), use_cdap_(reffil.use_cdap) {
  if (reffil.use_cdap) {
    CdapConfig cdap_config;
    cdap_config.num_tokens = net.num_tokens();
    cdap_config.token_dim = config.net.token_dim;
    cdap_config.prompt_rows = reffil.prompt_rows;
    cdap_config.mlp_hidden = reffil.cdap_hidden;
    cdap_config.max_tasks = config.max_tasks;
    cdap_config.key_dim = reffil.key_dim;
    cdap = std::make_unique<CdapGenerator>(cdap_config, rng);
  } else {
    class_table = std::make_unique<nn::Embedding>(config.net.num_classes,
                                                  config.net.token_dim, rng);
  }
}

std::vector<nn::Module*> RefFiLReplica::modules() {
  if (use_cdap_) return {&net, cdap.get()};
  return {&net, class_table.get()};
}

AG::Var RefFiLReplica::local_prompt(const AG::Var& tokens,
                                    const std::vector<std::size_t>& tasks) const {
  // The generator sees a detached copy of the tokens (as L2P detaches its
  // query): the prompt path trains the CDAP parameters but does not add a
  // second gradient route into the feature extractor, which destabilizes
  // the backbone at few-round scale.
  if (use_cdap_) return cdap->generate(AG::detach(tokens), tasks);
  // Static ablation: the whole per-class table is attached (symmetric at
  // train and test time, since labels are unknown at inference).
  return class_table->table();
}

RefFiLMethod::RefFiLMethod(cl::MethodConfig config, RefFiLConfig reffil)
    : cl::MethodBase(
          [&reffil] {
            if (reffil.use_cdap && reffil.use_gpl && reffil.use_dpcl)
              return std::string("RefFiL");
            std::string name = "RefFiL[";
            if (reffil.use_cdap) name += "C";
            if (reffil.use_gpl) name += "G";
            if (reffil.use_dpcl) name += "D";
            return name + "]";
          }(),
          std::move(config)),
      reffil_(reffil) {
  REFFIL_CHECK_MSG(!reffil_.use_dpcl || reffil_.use_gpl,
                   "DPCL requires GPL's global prompts (paper Section 4.3)");
  init_workers();
  worker_prompts_.resize(config_.parallelism);
}

std::unique_ptr<cl::Replica> RefFiLMethod::make_replica(util::Rng& rng) {
  return std::make_unique<RefFiLReplica>(config_, reffil_, rng);
}

void RefFiLMethod::write_broadcast_extras(util::ByteWriter& writer) {
  if (!reffil_.use_gpl || lpg_summaries_.empty()) {
    writer.write_u32(0);
    return;
  }
  writer.write_u32(1);
  // (class, domain-task) prompt summaries — Eq. (3)'s balanced global set.
  writer.write_u64(lpg_summaries_.size());
  for (const auto& [key, summary] : lpg_summaries_) {
    writer.write_u64(key.first);
    writer.write_u64(key.second);
    summary.serialize(writer);
  }
  // FINCH-clustered per-class representatives (Eq. 5) for DPCL.
  writer.write_u64(representatives_.size());
  for (const auto& [label, reps] : representatives_) {
    writer.write_u64(label);
    writer.write_u64(reps.size());
    for (const auto& rep : reps) rep.serialize(writer);
  }
}

void RefFiLMethod::read_broadcast_extras(util::ByteReader& reader,
                                         std::size_t slot) {
  WorkerPrompts& wp = worker_prompts_[slot];
  wp.has_prompts = reader.read_u32() != 0;
  wp.per_task.clear();
  wp.reps_by_class.clear();
  if (wp.has_prompts) {
    const std::size_t k = config_.net.num_classes;
    const std::size_t d = config_.net.token_dim;
    const auto num_summaries = reader.read_u64();
    for (std::uint64_t i = 0; i < num_summaries; ++i) {
      const auto label = reader.read_u64();
      const auto task = reader.read_u64();
      const T::Tensor summary = T::Tensor::deserialize(reader);
      auto [it, inserted] = wp.per_task.try_emplace(task, T::Tensor({k, d}));
      if (label < k && summary.numel() == d) {
        for (std::size_t j = 0; j < d; ++j) it->second.at2(label, j) = summary.at(j);
      }
    }
    const auto num_classes_present = reader.read_u64();
    for (std::uint64_t i = 0; i < num_classes_present; ++i) {
      const auto label = reader.read_u64();
      const auto count = reader.read_u64();
      auto& reps = wp.reps_by_class[label];
      reps.reserve(count);
      for (std::uint64_t j = 0; j < count; ++j) {
        reps.push_back(T::Tensor::deserialize(reader));
      }
    }
    // Eq. (8): P̄^g row k = mean of class k's representatives (zero row for
    // classes not seen yet).
    wp.pbar = T::Tensor({k, d});
    for (const auto& [label, reps] : wp.reps_by_class) {
      if (label >= k || reps.empty()) continue;
      T::Tensor mean({d});
      for (const auto& rep : reps) T::add_inplace(mean, rep);
      T::scale_inplace(mean, 1.0f / static_cast<float>(reps.size()));
      for (std::size_t j = 0; j < d; ++j) wp.pbar.at2(label, j) = mean.at(j);
    }
  }
  cl::MethodBase::read_broadcast_extras(reader, slot);
}

namespace {

/// Eq. (6) for each row u_i of u [k, d] against its own global prompts
/// reps[i], summed: sum_i -log(sum_pos exp(cos/tau) / sum_all exp(cos/tau)),
/// the positives being the num_pos most similar prompts by current value.
/// One node computes, per row, the float and double operations of the
/// cosine_similarity, mul_scalar, exp, add, log and sub graph that term
/// once was, in that graph's order: the similarity sum adds in rank order,
/// and u_i's gradient adds the similarities' contributions from the lowest
/// rank to the highest, the order that graph's sweep reached them.
AG::Var dpcl_rows(const AG::Var& u,
                  std::vector<const std::vector<T::Tensor>*> reps,
                  std::size_t num_pos, float tau) {
  const std::size_t k = u->value().dim(0), d = u->value().dim(1);
  REFFIL_CHECK_MSG(reps.size() == k, "dpcl_rows: one prompt set per row");
  // Per row and rank: the cosine and both norms (double, as
  // cosine_similarity keeps them) and exp(sim / tau); per row the sums.
  struct Row {
    std::vector<std::size_t> order;  ///< prompt index by rank
    std::vector<double> cos, norm_a, norm_b;
    std::vector<float> e;
    float all = 0.0f, pos = 0.0f;
  };
  auto rows = std::make_shared<std::vector<Row>>(k);
  const float inv_tau = 1.0f / tau;
  AG::Var out = AG::make_node(
      T::Shape{}, {u},
      [u, reps, rows, num_pos, inv_tau, d](const T::Tensor& g) {
        // mul_scalar(dpcl, w) hands each row's sub node g; sub hands
        // log(all) g and log(pos) -g; each log divides by its argument.
        const float g_all = g.item();
        const float g_pos = g.item() * -1.0f;
        T::pool::Scratch du(u->value().shape(), /*zero=*/false);
        for (std::size_t i = 0; i < rows->size(); ++i) {
          const Row& row = (*rows)[i];
          const float ga = g_all / row.all, gp = g_pos / row.pos;
          const float* pa = u->value().begin() + i * d;
          float* out_row = du->begin() + i * d;
          for (std::size_t rank = row.order.size(); rank-- > 0;) {
            // exp, then mul_scalar(1/tau), then cosine_similarity's backward.
            const float ge = rank < num_pos ? gp + ga : ga;
            const double gs = (ge * row.e[rank]) * inv_tau;
            const float* pb = (*reps[i])[row.order[rank]].begin();
            const double cos = row.cos[rank], na = row.norm_a[rank],
                         nb = row.norm_b[rank];
            const bool first = rank + 1 == row.order.size();
            for (std::size_t j = 0; j < d; ++j) {
              const float c = static_cast<float>(
                  gs * (pb[j] / (na * nb) - cos * pa[j] / (na * na)));
              out_row[j] = first ? c : out_row[j] + c;
            }
          }
        }
        u->accumulate_grad(*du);
      },
      "ag.dpcl");
  AG::graph::record(out, [self = out.get(), pu = u.get(), reps, rows, num_pos,
                          inv_tau, d] {
    float total = 0.0f;
    for (std::size_t i = 0; i < rows->size(); ++i) {
      Row& row = (*rows)[i];
      const std::vector<T::Tensor>& set = *reps[i];
      const float* pa = pu->value().begin() + i * d;
      std::vector<float> sims(set.size());
      std::vector<double> cos(set.size()), norm_a(set.size()), norm_b(set.size());
      for (std::size_t r = 0; r < set.size(); ++r) {
        const float* pb = set[r].begin();
        double num = 0.0, na2 = 0.0, nb2 = 0.0;
        for (std::size_t j = 0; j < d; ++j) {
          num += double(pa[j]) * pb[j];
          na2 += double(pa[j]) * pa[j];
          nb2 += double(pb[j]) * pb[j];
        }
        const double eps = 1e-12;
        norm_a[r] = std::sqrt(na2) + eps;
        norm_b[r] = std::sqrt(nb2) + eps;
        cos[r] = num / (norm_a[r] * norm_b[r]);
        sims[r] = static_cast<float>(cos[r]);
      }
      row.order.resize(set.size());
      std::iota(row.order.begin(), row.order.end(), std::size_t{0});
      std::sort(row.order.begin(), row.order.end(),
                [&](std::size_t a, std::size_t b) { return sims[a] > sims[b]; });
      row.cos.clear();
      row.norm_a.clear();
      row.norm_b.clear();
      row.e.clear();
      for (std::size_t rank = 0; rank < set.size(); ++rank) {
        const std::size_t r = row.order[rank];
        row.cos.push_back(cos[r]);
        row.norm_a.push_back(norm_a[r]);
        row.norm_b.push_back(norm_b[r]);
        const float e = std::exp(sims[r] * inv_tau);
        row.e.push_back(e);
        row.all = rank == 0 ? e : row.all + e;
        if (rank < num_pos) row.pos = rank == 0 ? e : row.pos + e;
      }
      total += std::log(row.all) - std::log(row.pos);
    }
    self->mutable_value().begin()[0] = total;
  });
  return out;
}

}  // namespace

AG::Var RefFiLMethod::dpcl_term(const RefFiLReplica& rep, const AG::Var& local,
                                const std::vector<std::size_t>& labels,
                                const WorkerPrompts& prompts,
                                const fed::TrainJob& job) const {
  // Positive count per the paper's sampling rule: two-domain clients (U_b)
  // take the two closest prompts, single-domain clients take one. A class
  // without more global prompts than that has no negatives and no term.
  const std::size_t num_pos = job.group == fed::ClientGroup::kInBetween ? 2 : 1;
  std::vector<std::size_t> picked, picked_labels;
  std::vector<const std::vector<T::Tensor>*> reps;
  for (std::size_t j = 0; j < labels.size(); ++j) {
    const auto it = prompts.reps_by_class.find(labels[j]);
    if (it == prompts.reps_by_class.end() || it->second.size() <= num_pos) continue;
    picked.push_back(j);
    picked_labels.push_back(labels[j]);
    reps.push_back(&it->second);
  }
  if (picked.empty()) return {};
  // u_i: the row-mean of sample i's generated prompt, or its class row of
  // the static table (the table's fold covers the picked samples).
  std::optional<AG::SampleSubset> subset;
  if (labels.size() > 1) subset.emplace(picked);
  const AG::Var u =
      reffil_.use_cdap
          ? AG::sample_mean_rows(local, picked, labels.size())
          : AG::select_rows(rep.class_table->table(), picked_labels);
  subset.reset();
  return AG::mul_scalar(
      dpcl_rows(u, std::move(reps), num_pos, dpcl_temperature(reffil_, job.task)),
      reffil_.dpcl_weight);
}

std::string RefFiLMethod::replay_signature(const cl::Replica&,
                                           const fed::TrainJob& job,
                                           std::size_t slot) const {
  const WorkerPrompts& prompts = worker_prompts_[slot];
  const bool gpl_active = reffil_.use_gpl && prompts.has_prompts && job.task > 0;
  // DPCL ranks the *current* cosine similarities to pick positives and skips
  // classes without representatives — per-sample, value-dependent structure
  // no frozen tape can express. Those steps stay eager.
  if (reffil_.use_dpcl && gpl_active) return {};
  // P-bar and the per-domain GPL contexts are baked into the tape as
  // constants and refresh with every broadcast, so the signature pins the
  // round as well as the task (task 0 additionally co-trains the prompt-free
  // path, a different graph shape).
  return "reffil|t=" + std::to_string(job.task) +
         "|r=" + std::to_string(job.round) + (gpl_active ? "|gpl" : "");
}

AG::Var RefFiLMethod::sample_loss(cl::Replica& replica,
                                  const TaggedSample& tagged,
                                  const fed::TrainJob& job, std::size_t slot) {
  auto& rep = static_cast<RefFiLReplica&>(replica);
  const WorkerPrompts& prompts = worker_prompts_[slot];
  // Global prompts only carry cross-domain information once a second domain
  // exists; during task 1 they are single-domain and GPL would only add
  // gradient noise.
  const bool gpl_active = reffil_.use_gpl && prompts.has_prompts && job.task > 0;

  const data::Sample& sample = *tagged.sample;
  // One shared CNN/token graph feeds all three losses. The CDAP task key is
  // the task of the sample's own domain (old shards keep their key).
  const AG::Var tokens = rep.net.tokenize(sample.image);
  const AG::Var local = rep.local_prompt(tokens, {tagged.task});

  // Eq. (10): cross-entropy with the local prompt.
  const auto out_local = rep.net.forward_tokens(tokens, local);
  AG::Var loss = AG::cross_entropy_logits(out_local.logits, {sample.label});
  if (job.task == 0) {
    // During the first task the generator is still untrained and its
    // prompts are noise; co-training the prompt-free path keeps early
    // learning on pace with the baselines while the CDAP warms up.
    loss = AG::add(loss, AG::cross_entropy_logits(
                             rep.net.forward_tokens(tokens).logits,
                             {sample.label}));
  }

  if (gpl_active) {
    // Eq. (9) / Figure 1(c): the sample is also classified under the *other
    // domains'* prompt contexts plus the averaged clustered prompt, pushing
    // the shared backbone toward domain-invariant features. Stop-gradient on
    // the tokens: GPL shapes the attention block and classifier toward
    // prompt-context robustness without dragging the feature extractor away
    // from the L_CE objective.
    const AG::Var frozen_tokens = AG::detach(tokens);
    AG::Var gpl = AG::cross_entropy_logits(
        rep.net.forward_tokens(frozen_tokens, AG::constant(prompts.pbar)).logits,
        {sample.label});
    std::size_t contexts = 1;
    for (const auto& [task, context] : prompts.per_task) {
      if (task == tagged.task) continue;  // own domain: already in L_CE
      gpl = AG::add(gpl,
                    AG::cross_entropy_logits(
                        rep.net.forward_tokens(frozen_tokens, AG::constant(context))
                            .logits,
                        {sample.label}));
      ++contexts;
    }
    loss = AG::add(loss, AG::mul_scalar(gpl, reffil_.gpl_weight /
                                                 static_cast<float>(contexts)));
  }
  if (reffil_.use_dpcl && gpl_active) {
    const AG::Var dpcl = dpcl_term(rep, local, {sample.label}, prompts, job);
    if (dpcl) loss = AG::add(loss, dpcl);
  }
  return loss;
}

AG::Var RefFiLMethod::run_loss(cl::Replica& replica,
                               const std::vector<TaggedSample>& batch,
                               std::size_t lo, std::size_t hi,
                               const fed::TrainJob& job, std::size_t slot) {
  auto& rep = static_cast<RefFiLReplica&>(replica);
  const WorkerPrompts& prompts = worker_prompts_[slot];
  const bool gpl_active = reffil_.use_gpl && prompts.has_prompts && job.task > 0;
  const std::size_t m = hi - lo;
  T::Tensor images;
  std::vector<std::size_t> labels, tasks;
  {
    obs::prof::Span span("cl.batch");
    images = run_images(batch, lo, hi);
    for (std::size_t i = lo; i < hi; ++i) {
      labels.push_back(batch[i].sample->label);
      tasks.push_back(batch[i].task);
    }
  }
  // sample_loss's ops for all m samples, built in sample_loss's order: the
  // autograd fold commits each sample's parameter uses in reverse build
  // order, which is the order its one-sample graph's sweep reaches them
  // (DESIGN.md §16). Each cross-entropy row carries the scale its sample's
  // loss chain gives it; the root's 1/n is batch_loss's.
  const AG::Var tokens = rep.net.tokenize(images);
  const AG::Var local = rep.local_prompt(tokens, tasks);
  AG::Var loss = AG::cross_entropy_logits(
      rep.net.forward_tokens(tokens, local, m, reffil_.use_cdap).logits, labels,
      std::vector<float>(m, 1.0f));
  if (job.task == 0) {
    loss = AG::add(loss, AG::cross_entropy_logits(
                             rep.net.forward_tokens(tokens, {}, m).logits,
                             labels, std::vector<float>(m, 1.0f)));
  }
  if (gpl_active) {
    // Eq. (9): every context a sample takes (P-bar, then each other
    // domain's) is one block of a single forward: sample j's blocks in
    // sample_loss's order, each with gpl_weight over j's context count.
    const AG::Var frozen = AG::detach(tokens);
    const std::size_t block = frozen->value().numel() / m;  // one sample's
    std::vector<std::size_t> owners, block_labels;
    std::vector<float> weights;
    std::vector<const T::Tensor*> contexts;
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t first = contexts.size();
      contexts.push_back(&prompts.pbar);
      for (const auto& [task, context] : prompts.per_task) {
        if (task != tasks[j]) contexts.push_back(&context);
      }
      const float weight = reffil_.gpl_weight /
                           static_cast<float>(contexts.size() - first);
      for (std::size_t k = first; k < contexts.size(); ++k) {
        owners.push_back(j);
        block_labels.push_back(labels[j]);
        weights.push_back(weight);
      }
    }
    const std::size_t blocks = owners.size();
    const std::size_t d = frozen->value().dim(1);
    const std::size_t rows = prompts.pbar.dim(0);
    T::Tensor block_tokens({blocks * block / d, d});
    T::Tensor block_prompts({blocks * rows, d});
    float* pt = block_tokens.begin();
    float* pp = block_prompts.begin();
    for (std::size_t k = 0; k < blocks; ++k) {
      const float* src = frozen->value().begin() + owners[k] * block;
      pt = std::copy(src, src + block, pt);
      pp = std::copy(contexts[k]->begin(), contexts[k]->end(), pp);
    }
    const AG::SampleSubset subset(owners);
    const AG::Var gpl = AG::cross_entropy_logits(
        rep.net
            .forward_tokens(AG::constant(std::move(block_tokens)),
                            AG::constant(std::move(block_prompts)), blocks,
                            /*per_sample_prompts=*/true)
            .logits,
        block_labels, std::move(weights));
    // GPL first in the add: the sweep then reaches it last, so the
    // parameters' small CE partials wait for it, not its many blocks.
    loss = AG::add(gpl, loss);
  }
  if (reffil_.use_dpcl && gpl_active) {
    const AG::Var dpcl = dpcl_term(rep, local, labels, prompts, job);
    if (dpcl) loss = AG::add(loss, dpcl);
  }
  return AG::mul_scalar(loss, 1.0f / static_cast<float>(batch.size()));
}

void RefFiLMethod::write_update_extras(util::ByteWriter& writer,
                                       cl::Replica& replica,
                                       const fed::TrainJob& job) {
  if (!reffil_.use_gpl) {
    writer.write_u64(0);
    return;
  }
  auto& rep = static_cast<RefFiLReplica&>(replica);
  // Eq. (2): Local Prompt Group — average the generated prompt vectors per
  // class over (a budget of) the local data, after local training.
  // Keyed by (class, task-of-domain): prompts from different domains must
  // stay distinguishable on the server (Eq. 3's per-domain groups).
  std::map<std::pair<std::size_t, std::size_t>, T::Tensor> sums;
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> counts;
  const auto view = local_view(job);
  const std::size_t budget = std::min(view.size(), reffil_.lpg_sample_budget);
  const std::size_t d = config_.net.token_dim;
  // Prompt rows are independent forward values, so runs of at most
  // kMaxRunSamples samples each generate theirs in one batched pass; the
  // sums below still add them in sample order.
  std::vector<T::Tensor> prompt_vecs(budget);
  if (reffil_.use_cdap) {
    const std::size_t p = reffil_.prompt_rows;
    const std::size_t runs = batched_runs(budget);
    for (std::size_t r = 0; r < runs; ++r) {
      obs::prof::Span span("cl.lpg_prompt");
      const std::size_t lo = r * budget / runs, hi = (r + 1) * budget / runs;
      std::vector<std::size_t> tasks;
      for (std::size_t i = lo; i < hi; ++i) tasks.push_back(view[i].task);
      const AG::Var prompts =
          rep.cdap->generate(rep.net.tokenize(run_images(view, lo, hi)), tasks);
      for (std::size_t i = lo; i < hi; ++i) {
        const T::Tensor block = T::Tensor::view(
            prompts->mutable_value().begin() + (i - lo) * p * d, {p, d});
        prompt_vecs[i] = T::mean_rows(block);  // [d]
      }
    }
  } else {
    for (std::size_t i = 0; i < budget; ++i) {
      prompt_vecs[i] = T::row(rep.class_table->table()->value(),
                              view[i].sample->label);
    }
  }
  for (std::size_t i = 0; i < budget; ++i) {
    const auto key = std::make_pair(view[i].sample->label, view[i].task);
    auto [it, inserted] = sums.try_emplace(key, T::Tensor({d}));
    T::add_inplace(it->second, prompt_vecs[i]);
    ++counts[key];
  }
  writer.write_u64(sums.size());
  for (auto& [key, sum] : sums) {
    T::scale_inplace(sum, 1.0f / static_cast<float>(counts[key]));
    writer.write_u64(key.first);
    writer.write_u64(key.second);
    sum.serialize(writer);
  }
}

std::any RefFiLMethod::decode_update_extras(util::ByteReader& reader) const {
  const std::size_t d = config_.net.token_dim;
  // A group is two u64 keys and a [d] tensor (rank, dim, length, d floats):
  // a hostile count costs one division to reject, before any loop runs.
  const std::size_t group_bytes = 5 * sizeof(std::uint64_t) + d * sizeof(float);
  const auto num_groups = reader.read_u64();
  if (num_groups > reader.remaining() / group_bytes) {
    throw SerializationError("prompt group count " + std::to_string(num_groups) +
                             " exceeds what the remaining payload could encode");
  }
  PromptGroups groups;
  groups.reserve(num_groups);
  for (std::uint64_t i = 0; i < num_groups; ++i) {
    const auto label = reader.read_u64();
    const auto task = reader.read_u64();
    if (label >= config_.net.num_classes || task > current_task_) {
      throw SerializationError("prompt group key outside the server's classes "
                               "and tasks so far");
    }
    // The client writes its groups from a std::map: keys strictly increase.
    const PromptKey key(label, task);
    if (!groups.empty() && !(groups.back().first < key)) {
      throw SerializationError("prompt group keys not strictly increasing");
    }
    T::Tensor prompt = T::Tensor::deserialize(reader);
    if (prompt.shape() != T::Shape{d}) {
      throw ShapeError("uploaded prompt is not [token_dim]");
    }
    groups.emplace_back(key, std::move(prompt));
  }
  return groups;
}

void RefFiLMethod::after_aggregate(std::vector<std::any> extras) {
  if (!reffil_.use_gpl) return;
  // This round's uploads per (class, domain-task) key, in fold order.
  std::map<PromptKey, std::vector<T::Tensor>> uploads;
  for (std::any& extra : extras) {
    for (auto& [key, prompt] : std::any_cast<PromptGroups&>(extra)) {
      uploads[key].push_back(std::move(prompt));
    }
  }
  // Per (class, domain-task) summaries are kept fresh with an exponential
  // moving average over the rounds' uploads — stale prompts from an
  // untrained generator decay away.
  constexpr float kEmaKeep = 0.3f;
  for (auto& [key, prompts] : uploads) {
    T::Tensor mean(prompts.front().shape());
    for (const auto& u : prompts) T::add_inplace(mean, u);
    T::scale_inplace(mean, 1.0f / static_cast<float>(prompts.size()));
    auto it = lpg_summaries_.find(key);
    if (it == lpg_summaries_.end()) {
      lpg_summaries_.emplace(key, std::move(mean));
    } else {
      T::scale_inplace(it->second, kEmaKeep);
      T::axpy_inplace(it->second, 1.0f - kEmaKeep, mean);
    }
  }

  // Eq. (4-5): per class, the domain-wise prompt groups are the DPCL
  // candidate set. While the domain count stays under the representative
  // cap they are kept as-is (each summary IS one domain's prompt); beyond
  // the cap FINCH merges the most similar domains into shared
  // representatives, exactly the clustering role it plays in the paper.
  representatives_.clear();
  std::map<std::size_t, std::vector<T::Tensor>> by_class;
  for (const auto& [key, summary] : lpg_summaries_) {
    by_class[key.first].push_back(summary);
  }
  for (auto& [label, prompts] : by_class) {
    std::vector<T::Tensor> reps = prompts;
    while (reps.size() > reffil_.max_representatives) {
      std::vector<T::Tensor> clustered = finch_representatives(reps);
      if (clustered.size() >= reps.size()) {
        clustered.resize(reffil_.max_representatives);
      }
      reps = std::move(clustered);
    }
    representatives_[label] = std::move(reps);
  }
}

AG::Var RefFiLMethod::eval_logits(cl::Replica& replica,
                                  const tensor::Tensor& image, std::size_t) {
  auto& rep = static_cast<RefFiLReplica&>(replica);
  // The test-time task id is unknown (the paper lists task-id reliance as a
  // limitation). The eval policy resolves it:
  //  * kLatest:     use the newest task key (the paper's assumption),
  //  * kEnsemble:   average logits over every learned key — Figure 1(c)'s
  //                 "aligning predictions across diverse domain prompts"
  //                 applied at inference (old-domain samples see their own
  //                 domain's prompt context again),
  //  * kConfidence: per instance, keep the single most confident key.
  const std::size_t learned = std::min(current_task_, config_.max_tasks - 1);
  const AG::Var tokens = rep.net.tokenize(image);
  if (!reffil_.use_cdap || reffil_.eval_task_policy == EvalTaskPolicy::kLatest) {
    const AG::Var prompt = rep.local_prompt(tokens, {learned});
    return rep.net.forward_tokens(tokens, prompt).logits;
  }
  AG::Var logits;
  float best_confidence = -1.0f;
  for (std::size_t task = 0; task <= learned; ++task) {
    const AG::Var prompt = rep.local_prompt(tokens, {task});
    const AG::Var l = rep.net.forward_tokens(tokens, prompt).logits;
    if (reffil_.eval_task_policy == EvalTaskPolicy::kConfidence) {
      const float confidence = T::max_all(T::softmax_rows(l->value()));
      if (confidence > best_confidence) {
        best_confidence = confidence;
        logits = l;
      }
    } else {
      logits = (task == 0) ? l : AG::add(logits, l);
    }
  }
  return logits;
}

}  // namespace reffil::core
