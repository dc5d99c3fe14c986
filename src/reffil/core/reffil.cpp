#include "reffil/core/reffil.hpp"

#include <algorithm>
#include <numeric>

#include "reffil/autograd/ops.hpp"
#include "reffil/core/finch.hpp"
#include "reffil/tensor/ops.hpp"
#include "reffil/util/error.hpp"
#include "reffil/util/prof.hpp"
#include "reffil/util/thread_pool.hpp"

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

AG::Var RefFiLReplica::local_prompt(const AG::Var& tokens, std::size_t task) const {
  // The generator sees a detached copy of the tokens (as L2P detaches its
  // query): the prompt path trains the CDAP parameters but does not add a
  // second gradient route into the feature extractor, which destabilizes
  // the backbone at few-round scale.
  if (use_cdap_) return cdap->generate(AG::detach(tokens), task);
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

AG::Var RefFiLMethod::dpcl_loss(const AG::Var& generated,
                                const WorkerPrompts& prompts, std::size_t label,
                                const fed::TrainJob& job) const {
  const auto it = prompts.reps_by_class.find(label);
  if (it == prompts.reps_by_class.end()) return {};
  const auto& reps = it->second;
  // Positive count per the paper's sampling rule: two-domain clients (U_b)
  // take the two closest prompts, single-domain clients take one.
  const std::size_t num_pos = job.group == fed::ClientGroup::kInBetween ? 2 : 1;
  if (reps.size() <= num_pos) return {};  // no negatives available

  const float tau = dpcl_temperature(reffil_, job.task);
  std::vector<AG::Var> sims;
  sims.reserve(reps.size());
  for (const auto& rep : reps) {
    sims.push_back(AG::cosine_similarity(generated, AG::constant(rep)));
  }
  // Rank by current similarity values to split positives/negatives.
  std::vector<std::size_t> order(reps.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return sims[a]->value().item() > sims[b]->value().item();
  });

  // Eq. (6): -log( sum_pos exp(sim/tau) / (sum_pos + sum_neg) ).
  AG::Var pos_sum, all_sum;
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const AG::Var e = AG::exp(AG::mul_scalar(sims[order[rank]], 1.0f / tau));
    all_sum = (rank == 0) ? e : AG::add(all_sum, e);
    if (rank < num_pos) pos_sum = (rank == 0) ? e : AG::add(pos_sum, e);
  }
  return AG::sub(AG::log(all_sum), AG::log(pos_sum));
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
  const AG::Var local = rep.local_prompt(tokens, tagged.task);

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
    // u_i: the flattened generated prompt (row-mean for the CDAP prompt,
    // class row for the static table).
    const AG::Var u = reffil_.use_cdap
                          ? AG::mean_rows(local)
                          : AG::select_row(rep.class_table->table(), sample.label);
    const AG::Var dpcl = dpcl_loss(u, prompts, sample.label, job);
    if (dpcl) loss = AG::add(loss, AG::mul_scalar(dpcl, reffil_.dpcl_weight));
  }
  return loss;
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
  // The per-sample prompts are independent forward passes over the trained
  // replica, so idle workers generate them; the sums below still add them
  // in sample order.
  std::vector<T::Tensor> prompt_vecs(budget);
  util::global_thread_pool().fan_out(budget, [&](std::size_t i) {
    obs::prof::Span span("cl.lpg_prompt");
    const data::Sample& sample = *view[i].sample;
    if (reffil_.use_cdap) {
      const AG::Var tokens = rep.net.tokenize(sample.image);
      const AG::Var prompt = rep.cdap->generate(tokens, view[i].task);
      prompt_vecs[i] = T::mean_rows(prompt->value());  // [d]
    } else {
      prompt_vecs[i] = T::row(rep.class_table->table()->value(), sample.label);
    }
  });
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

void RefFiLMethod::read_update_extras(util::ByteReader& reader,
                                      const fed::ClientUpdate& update) {
  const auto num_groups = reader.read_u64();
  if (num_groups > 0) {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    for (std::uint64_t i = 0; i < num_groups; ++i) {
      const auto label = reader.read_u64();
      const auto task = reader.read_u64();
      pending_uploads_[{label, task}].push_back(T::Tensor::deserialize(reader));
    }
  }
  cl::MethodBase::read_update_extras(reader, update);
}

bool RefFiLMethod::validate_update_extras(util::ByteReader& reader,
                                          std::string* reason) const {
  // Read-only mirror of read_update_extras: group count, then per group a
  // label, a task id, and one prompt tensor. The count is bounded by what
  // the remaining bytes could actually encode (two u64 keys plus a minimal
  // tensor is 32 bytes) before any loop runs, so a hostile count costs one
  // division to reject. Decode failures throw; the caller quarantines.
  const auto num_groups = reader.read_u64();
  if (num_groups > reader.remaining() / 32) {
    if (reason) {
      *reason = "prompt group count " + std::to_string(num_groups) +
                " exceeds what the remaining payload could encode";
    }
    return false;
  }
  for (std::uint64_t i = 0; i < num_groups; ++i) {
    (void)reader.read_u64();  // label
    (void)reader.read_u64();  // task
    (void)T::Tensor::deserialize(reader);
  }
  return cl::MethodBase::validate_update_extras(reader, reason);
}

void RefFiLMethod::after_aggregate() {
  if (!reffil_.use_gpl) return;
  // Per (class, domain-task) summaries are kept fresh with an exponential
  // moving average over the rounds' uploads — stale prompts from an
  // untrained generator decay away.
  constexpr float kEmaKeep = 0.3f;
  for (auto& [key, uploads] : pending_uploads_) {
    T::Tensor mean(uploads.front().shape());
    for (const auto& u : uploads) T::add_inplace(mean, u);
    T::scale_inplace(mean, 1.0f / static_cast<float>(uploads.size()));
    auto it = lpg_summaries_.find(key);
    if (it == lpg_summaries_.end()) {
      lpg_summaries_.emplace(key, std::move(mean));
    } else {
      T::scale_inplace(it->second, kEmaKeep);
      T::axpy_inplace(it->second, 1.0f - kEmaKeep, mean);
    }
  }
  pending_uploads_.clear();

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
    const AG::Var prompt = rep.local_prompt(tokens, learned);
    return rep.net.forward_tokens(tokens, prompt).logits;
  }
  AG::Var logits;
  float best_confidence = -1.0f;
  for (std::size_t task = 0; task <= learned; ++task) {
    const AG::Var prompt = rep.local_prompt(tokens, task);
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

void RefFiLMethod::prepare_eval() {
  cl::MethodBase::prepare_eval();
  eval_pbar_.reset();
}

}  // namespace reffil::core
