#include "reffil/fed/runtime.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <variant>

#include "reffil/data/partition.hpp"
#include "reffil/fed/fedavg.hpp"
#include "reffil/fed/records.hpp"
#include "reffil/util/error.hpp"
#include "reffil/util/logging.hpp"
#include "reffil/util/obs.hpp"
#include "reffil/util/prof.hpp"
#include "reffil/util/thread_pool.hpp"

namespace reffil::fed {

namespace {

// Trains and folds one round's `work.size()` clients on up to `slots`
// concurrent worker slots (a slot runs one client at a time, so each replica
// serves exactly one concurrent client). Slots start clients only inside the
// window [cursor, cursor + window), where cursor is the first client not yet
// folded, so at most `window` payloads are alive at once: the ones in
// training plus the ones trained but not yet folded. Within the window a free
// slot starts the untrained client with the most work, ties to the lower
// index (Graham's largest-first rule), so no slot is left running one large
// client at the end. fold(i) runs strictly in index order, one at a time, on
// whichever slot completes the update at the cursor, while the other slots
// keep training. A throwing train or fold wakes every waiting slot and
// propagates out. train_client's result does not depend on the slot, and the
// fold order is fixed, so neither does the run.
void train_and_fold(util::ThreadPool& pool, std::size_t slots,
                    std::size_t window, const std::vector<std::size_t>& work,
                    const std::function<void(std::size_t, std::size_t)>& train,
                    const std::function<void(std::size_t)>& fold) {
  const std::size_t count = work.size();
  std::mutex mutex;
  std::condition_variable moved;  // the cursor advanced, or a slot failed
  std::vector<char> started(count, 0), done(count, 0);
  std::size_t cursor = 0, unstarted = count;
  bool failed = false;
  const auto fail = [&](std::unique_lock<std::mutex>& lock) {
    lock.lock();
    failed = true;
    moved.notify_all();
  };
  pool.parallel_for(std::min(slots, count), [&](std::size_t slot) {
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      std::size_t next = count;
      moved.wait(lock, [&] {
        const std::size_t end = std::min(count, cursor + window);
        for (std::size_t i = cursor; i < end; ++i) {
          if (!started[i] && (next == count || work[i] > work[next])) next = i;
        }
        return failed || unstarted == 0 || next != count;
      });
      if (failed || next == count) return;
      started[next] = 1;
      --unstarted;
      lock.unlock();
      try {
        train(next, slot);
      } catch (...) {
        fail(lock);
        throw;
      }
      lock.lock();
      done[next] = 1;
      // The slot that completes the update at the cursor folds it, then
      // every update after it that is already done.
      if (next != cursor) continue;
      while (!failed && cursor < count && done[cursor]) {
        const std::size_t i = cursor;
        lock.unlock();
        try {
          fold(i);
        } catch (...) {
          fail(lock);
          throw;
        }
        lock.lock();
        ++cursor;
        moved.notify_all();
      }
    }
  });
}

// Keeps, in order, the participants `keep` accepts. `keep` runs exactly once
// per participant, in plan order, so it may meter and trace.
template <typename Keep>
void keep_if(std::vector<ClientAssignment>& participants, Keep&& keep) {
  std::vector<ClientAssignment> kept;
  kept.reserve(participants.size());
  for (const ClientAssignment& a : participants) {
    if (keep(a)) kept.push_back(a);
  }
  participants = std::move(kept);
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void add_round(NetworkStats& n, const RoundStats& r) {
  n.bytes_down += r.bytes_down;
  n.bytes_up += r.bytes_up;
  n.messages += r.messages;
  n.dropped_updates += r.dropped;
  n.quarantined += r.quarantined;
  n.retries += r.retries;
  n.timed_out += r.timed_out;
  n.bytes_retransmitted += r.bytes_retransmitted;
  n.bytes_down_raw_equiv += r.bytes_down_raw_equiv;
  n.bytes_up_raw_equiv += r.bytes_up_raw_equiv;
}

double byte_ratio(std::uint64_t raw_equiv, std::uint64_t wire) {
  return wire > 0 ? static_cast<double>(raw_equiv) / static_cast<double>(wire)
                  : 1.0;
}

}  // namespace

double RunResult::average_accuracy() const {
  REFFIL_CHECK_MSG(!tasks.empty(), "no task results");
  double acc = 0.0;
  for (const auto& t : tasks) acc += t.cumulative_accuracy;
  return acc / static_cast<double>(tasks.size());
}

double RunResult::last_accuracy() const {
  REFFIL_CHECK_MSG(!tasks.empty(), "no task results");
  return tasks.back().cumulative_accuracy;
}

double RunResult::train_seconds() const {
  double total = 0.0;
  for (const auto& r : rounds) total += r.train_seconds;
  return total;
}

double RunResult::aggregate_seconds() const {
  double total = 0.0;
  for (const auto& r : rounds) total += r.aggregate_seconds;
  return total;
}

double RunResult::eval_seconds() const {
  double total = 0.0;
  for (const auto& t : tasks) total += t.eval_seconds;
  return total;
}

std::uint64_t RunResult::participants() const {
  std::uint64_t total = 0;
  for (const auto& r : rounds) total += r.selected;
  return total;
}

double RunResult::compression_ratio_down() const {
  return byte_ratio(network.bytes_down_raw_equiv, network.bytes_down);
}

double RunResult::compression_ratio_up() const {
  return byte_ratio(network.bytes_up_raw_equiv, network.bytes_up);
}

void write_run_summary(obs::JsonWriter& w, const RunResult& result) {
  util::json_scalars(w, result);
  util::json_members(w, result.network);
  w.field("avg", result.average_accuracy())
      .field("last", result.last_accuracy())
      .field("participants", result.participants())
      .field("compression_ratio_down", result.compression_ratio_down())
      .field("compression_ratio_up", result.compression_ratio_up())
      .field("train_seconds", result.train_seconds())
      .field("aggregate_seconds", result.aggregate_seconds())
      .field("eval_seconds", result.eval_seconds());
}

void write_run_json(obs::JsonWriter& w, const RunResult& result) {
  write_run_summary(w, result);
  w.key("tasks");
  util::json_value(w, result.tasks);
  // Present for every run (enabled=false for plain ones), so consumers
  // never branch on key existence.
  w.key("health").begin_object();
  util::json_members(w, result.monitor);
  w.key("events");
  util::json_value(w, result.health);
  w.end_object();
}

FederatedRunner::FederatedRunner(RunConfig config)
    : config_(std::move(config)), generator_(config_.spec) {
  parallelism_ = config_.parallelism == 0
                     ? util::global_thread_pool().size()
                     : config_.parallelism;
  test_cache_.resize(config_.spec.domains.size());
}

const data::Dataset& FederatedRunner::test_set(std::size_t domain) const {
  REFFIL_CHECK_MSG(domain < test_cache_.size(), "domain out of range");
  if (test_cache_[domain].empty()) {
    test_cache_[domain] = config_.source ? config_.source->test_split(domain)
                                         : generator_.test_split(domain);
  }
  return test_cache_[domain];
}

data::Dataset FederatedRunner::train_pool(std::size_t task) const {
  return config_.source ? config_.source->train_split(task)
                        : generator_.train_split(task);
}

RunResult FederatedRunner::run(Method& method) {
  const auto& spec = config_.spec;
  const auto start_time = std::chrono::steady_clock::now();

  RunResult result;
  result.method_name = method.name();
  result.dataset_name = spec.name;
  // Arm wire compression before validators or broadcasts exist: both read
  // the method's wire format.
  method.configure_compression(config_.compress);
  result.compression = config_.compress.to_string();

  // Dense and discrete-event runs share this round loop, window and fold,
  // and differ only in the round plan. The dense scheduler draws each cohort
  // from the data population with zero upload delays; the DES scheduler
  // samples a registered population far larger than that on a virtual
  // clock, gated by availability traces, with per-client upload delays. Both
  // follow the same growth schedule, which defines the data shards and the
  // group semantics.
  const bool des = config_.des.enabled();
  const SchedulerConfig growth{.initial_clients = spec.initial_clients,
                               .clients_per_round = spec.clients_per_round,
                               .client_increment = spec.client_increment,
                               .transition_fraction = 0.8};
  using Scheduler = std::variant<ClientIncrementScheduler, DesScheduler>;
  Scheduler scheduler =
      des ? Scheduler(std::in_place_type<DesScheduler>, growth, config_.des,
                      config_.seed)
          : Scheduler(std::in_place_type<ClientIncrementScheduler>, growth,
                      config_.seed);
  const DesScheduler* const des_scheduler =
      std::get_if<DesScheduler>(&scheduler);
  const double round_interval_s = des ? config_.des.round_interval_s : 0.0;

  util::Rng partition_rng(config_.seed ^ 0x9A27171017ULL);
  util::Rng dropout_rng(config_.seed ^ 0xD20D077ULL);
  // The fault-free path never touches the transport: no framing, no extra
  // rng streams, no byte overhead — bitwise-identical to a build without it.
  const bool faults_armed = config_.faults.enabled();
  std::optional<Transport> transport;
  if (faults_armed) {
    transport.emplace(config_.faults, config_.seed ^ 0x7A2A4F0B7ULL);
  }
  // The method supplies its own payload validator: the default certifies
  // exactly one model state; cl::MethodBase's is the reader its fold runs,
  // extras included. Either way, trailing undecoded bytes quarantine.
  const UpdateValidator update_validator =
      faults_armed ? method.update_validator() : UpdateValidator();
  // shards[t][shard]: the spec-sized partition of domain t's training pool.
  // Clients map onto it via ClientAssignment::shard, so data memory does not
  // grow with the registered population.
  std::vector<std::vector<data::Dataset>> shards(spec.domains.size());

  auto& pool = util::global_thread_pool();

  // Observability: metric handles are resolved once per run.
  obs::Counter& rounds_counter = obs::counter("fed.rounds");
  obs::Histogram& train_time = obs::histogram("fed.round_train_seconds");
  obs::Histogram& aggregate_time = obs::histogram("fed.aggregate_seconds");
  obs::Histogram& client_time = obs::histogram("cl.train_client_seconds");
  trace_record(RunStart{.method = result.method_name,
                        .dataset = result.dataset_name,
                        .tasks = spec.domains.size(),
                        .rounds_per_task = spec.rounds_per_task,
                        .seed = config_.seed});
  // Live telemetry is observation only: every monitor touch below is guarded
  // by this null check and reads state the run already computed, so an
  // unmonitored run pays nothing and a monitored one stays bitwise-identical.
  RunMonitor* const monitor = config_.monitor.get();
  if (monitor != nullptr) {
    monitor->on_run_start(result.method_name, result.dataset_name,
                          spec.domains.size(), spec.rounds_per_task);
  }

  std::size_t global_round = 0;
  for (std::size_t task = 0; task < spec.domains.size(); ++task) {
    method.on_task_start(task);

    // Partition the new domain across the (grown) data population.
    const std::size_t population = std::visit(
        [&](const auto& s) { return s.data_population(task); }, scheduler);
    shards[task] = data::quantity_shift_partition(
        train_pool(task), population,
        {.skew = config_.partition_skew, .min_per_client = 4}, partition_rng);

    for (std::size_t round = 0; round < spec.rounds_per_task; ++round) {
      const double sim_time =
          round_interval_s * static_cast<double>(global_round++);
      RoundPlan plan = std::visit(
          [&](auto& s) { return s.plan_round(task, round, sim_time); },
          scheduler);
      // Every occurrence of the round is one record (fed/records.hpp):
      // record() counts it into round_stats and traces it.
      const RoundAt at{static_cast<std::uint32_t>(task),
                       static_cast<std::uint32_t>(round)};
      RoundStats round_stats{.task = at.task, .round = at.round};
      const auto count_retries = [&](const Transport::Delivery& d,
                                     std::size_t client,
                                     const char* direction) {
        if (d.retries == 0 && d.duplicates == 0) return;
        record(round_stats, Retry{at, client, direction, d.retries,
                                  d.duplicates, d.bytes_retransmitted});
      };
      // Every exit path below commits the round: the fed.rounds counter,
      // result.rounds and result.network (the sum of committed rounds) must
      // agree no matter how the round ends.
      NormAccumulator norm_acc;  // accepted-update norms, monitor-armed only
      const auto commit_round = [&](const char* lost_reason) {
        rounds_counter.add(1);
        if (lost_reason != nullptr) {
          record(round_stats, RoundLost{round_stats, lost_reason});
        }
        add_round(result.network, round_stats);
        result.rounds.push_back(round_stats);
        if (monitor == nullptr) return;
        for (const HealthEvent& fired :
             monitor->on_round(result, round_stats, result.rounds.size(),
                               sim_time, norm_acc)) {
          trace_record(fired);
        }
      };

      // The server broadcasts to every selected participant before it can
      // know who will drop, so those bytes are metered against the full
      // selection — including rounds where every participant is later lost.
      const auto selected =
          static_cast<std::uint32_t>(plan.participants.size());
      obs::prof::Span bcast_span("fed.broadcast", obs::prof::Task{at.task});
      const std::vector<std::uint8_t> broadcast = method.make_broadcast();
      bcast_span.set_value(broadcast.size());
      bcast_span.finish();
      std::uint64_t bytes_down = broadcast.size() * selected;
      if (faults_armed) {
        obs::prof::Span down_span("fed.transport", obs::prof::Task{at.task});
        const std::vector<std::uint8_t> framed = Transport::frame(broadcast);
        bytes_down = 0;
        // An unreachable client misses the round whether the broadcast timed
        // out or exhausted its retry budget — both are straggler cutoffs
        // from the server's perspective.
        keep_if(plan.participants, [&](const ClientAssignment& a) {
          const Transport::Delivery d = transport->send_broadcast(framed);
          bytes_down += d.bytes_transmitted;
          count_retries(d, a.client_id, "down");
          if (d.outcome == Transport::Outcome::kDelivered) return true;
          record(round_stats, Timeout{at, a.client_id, "down", d.reason});
          return false;
        });
        down_span.set_value(bytes_down);
      }
      // The raw equivalent is what the same broadcast would have cost
      // uncompressed — broadcast.size() when compression is off.
      record(round_stats,
             Broadcast{.at = at,
                       .participants = selected,
                       .payload_bytes = broadcast.size(),
                       .bytes_down = bytes_down,
                       .bytes_down_raw_equiv =
                           raw_equiv_bytes(broadcast) * selected,
                       .sim_time_s = sim_time});
      // Straggler/dropout simulation: drop participants before training so
      // the federation neither waits for nor aggregates their updates.
      if (config_.dropout_probability > 0.0) {
        keep_if(plan.participants, [&](const ClientAssignment& a) {
          if (!dropout_rng.bernoulli(config_.dropout_probability)) return true;
          record(round_stats, Dropout{at, a.client_id});
          return false;
        });
      }
      // Each survivor starts its upload at its simulated compute-completion
      // offset (0 in dense runs). One whose offset already passes the round
      // deadline can never deliver, so it is cut before training — the
      // server would discard the result, and skipping the work is what lets
      // deadline-heavy configs scale. (A deadline arms the transport.)
      const double deadline = config_.faults.deadline_s;
      if (deadline > 0.0) {
        keep_if(plan.participants, [&](const ClientAssignment& a) {
          if (a.upload_delay_s < deadline) return true;
          record(round_stats,
                 Timeout{at, a.client_id, "up",
                         "round closed before local compute finished"});
          return false;
        });
      }
      if (plan.participants.empty()) {  // whole round lost before training
        commit_round("no participant survived transport, dropout or deadline");
        continue;
      }
      // Train, upload and fold in simulated arrival order. Ties keep plan
      // order, so zero delays leave a dense cohort as drawn.
      std::stable_sort(
          plan.participants.begin(), plan.participants.end(),
          [](const ClientAssignment& a, const ClientAssignment& b) {
            return a.upload_delay_s < b.upload_delay_s;
          });

      // Every round trains its cohort through one window (train_and_fold) of
      // 4 x parallelism clients and streams each update into the method's
      // sink as the fold reaches it, so payloads die once folded and server
      // memory stays O(window x payload + model) however large the cohort.
      // The sink is opened with the cohort's planned weight, which is what
      // keeps a round that folds every update bitwise federated_average.
      const std::size_t cohort = plan.participants.size();
      const std::size_t window = std::max<std::size_t>(1, parallelism_) * 4;
      std::vector<TrainJob> jobs(cohort);
      std::vector<std::size_t> work(cohort);  // samples in the client's shards
      std::size_t planned = 0;
      for (std::size_t i = 0; i < cohort; ++i) {
        const ClientAssignment& assignment = plan.participants[i];
        TrainJob& job = jobs[i];
        job.client_id = assignment.client_id;
        job.task = task;
        job.round = round;
        job.total_rounds = spec.rounds_per_task;
        job.group = assignment.group;
        job.local_epochs = spec.local_epochs;
        job.learning_rate = spec.learning_rate;
        if (task == 0 || assignment.group != ClientGroup::kOld) {
          job.new_data = &shards[task][assignment.shard];
          work[i] += job.new_data->size();
        }
        if (task > 0 && assignment.group != ClientGroup::kNew) {
          job.old_data = &shards[task - 1][assignment.shard];
          work[i] += job.old_data->size();
        }
        planned += work[i];
      }
      const std::unique_ptr<AggregationSink> sink =
          method.begin_streaming_aggregate(planned);
      std::vector<ClientUpdate> updates(cohort);
      std::vector<double> client_seconds(cohort, 0.0);
      std::vector<std::size_t> folded;  // clients whose update was folded

      const auto train = [&](std::size_t i, std::size_t slot) {
        jobs[i].worker_slot = slot;
        const auto client_start = std::chrono::steady_clock::now();
        {
          obs::prof::Span client_span("fed.client", obs::prof::Task{at.task});
          updates[i] = method.train_client(broadcast, jobs[i]);
          client_span.set_value(updates[i].payload.size());
        }
        updates[i].client_id = jobs[i].client_id;
        client_seconds[i] = seconds_since(client_start);
      };
      // Uplink, in plan order: meter each update — through the fault
      // transport when armed — and fold the survivors. The client_train
      // record carries the metered wire bytes of every attempt. A folded or
      // lost payload is released at once.
      const auto fold = [&](std::size_t i) {
        const ClientAssignment& assignment = plan.participants[i];
        ClientUpdate update = std::move(updates[i]);
        // Raw equivalent BEFORE the transport can damage/replace the
        // payload — the logical content is what the client produced.
        ClientTrain trained{.at = at,
                            .client = assignment.client_id,
                            .shard = assignment.shard,
                            .group = to_string(assignment.group),
                            .slot = jobs[i].worker_slot,
                            .wall_s = client_seconds[i],
                            .sim_start_s = assignment.upload_delay_s,
                            .samples = update.num_samples,
                            .bytes_up = update.payload.size(),
                            .bytes_up_raw_equiv =
                                raw_equiv_bytes(update.payload)};
        bool delivered = true;
        if (faults_armed) {
          Transport::Delivery d = transport->send_update(
              update.payload, update_validator, assignment.upload_delay_s);
          trained.bytes_up = d.bytes_transmitted;
          count_retries(d, assignment.client_id, "up");
          switch (d.outcome) {
            case Transport::Outcome::kDelivered:
              // A poisoned-at-source payload that still validated is
              // delivered as the damaged bytes the server actually saw.
              if (!d.payload.empty()) update.payload = std::move(d.payload);
              break;
            case Transport::Outcome::kTimedOut:
              delivered = false;
              record(round_stats,
                     Timeout{at, assignment.client_id, "up", d.reason});
              break;
            case Transport::Outcome::kQuarantined:
              delivered = false;
              record(round_stats,
                     Quarantine{at, assignment.client_id, d.reason});
              break;
          }
        }
        record(round_stats, trained);
        client_time.observe(trained.wall_s);
        if (!delivered) return;
        if (monitor != nullptr) {
          // Feed the drift detector the norm of what the server will
          // aggregate (post-transport bytes). Read-only, so the training
          // path is untouched with or without a monitor.
          if (const auto norm = update_state_l2_norm(update.payload)) {
            norm_acc.add(*norm);
          }
        }
        try {
          sink->add(update);
          folded.push_back(assignment.client_id);
        } catch (const Error& e) {
          // Only the armed transport delivers bytes the server did not
          // produce. A fold that rejects a payload its method's validator
          // let through quarantines that update, not the round.
          if (!faults_armed) throw;
          const std::string reason =
              std::string("aggregation rejected: ") + e.what();
          record(round_stats, Quarantine{at, assignment.client_id, reason});
        }
      };

      obs::prof::Span round_span("fed.train_round", obs::prof::Task{at.task});
      const auto window_start = std::chrono::steady_clock::now();
      train_and_fold(pool, parallelism_, window, work, train, fold);
      // Streamed folds ran inside the window, so they count here only:
      // train_seconds + aggregate_seconds stays a partition of the round.
      round_stats.train_seconds = seconds_since(window_start);
      round_span.finish();
      train_time.observe(round_stats.train_seconds);

      if (folded.empty()) {
        // Every survivor of dropout was then lost in transit: degrade
        // gracefully by carrying the previous global state into next round.
        commit_round("every update timed out or was quarantined");
        continue;
      }
      bool aggregated = true;
      {
        obs::prof::Span agg_span("fed.aggregate", obs::prof::Task{at.task});
        const auto agg_start = std::chrono::steady_clock::now();
        try {
          sink->finish();
        } catch (const Error& e) {
          // A corrupt method-specific extra that every per-update check let
          // through can still surface in the round's commit. Under the armed
          // transport, quarantine the folded updates rather than crash.
          if (!faults_armed) throw;
          aggregated = false;
          const std::string reason =
              std::string("aggregate failed: ") + e.what();
          for (const std::size_t client : folded) {
            record(round_stats, Quarantine{at, client, reason});
          }
        }
        // The time after the window: the adds already count as train.
        round_stats.aggregate_seconds = seconds_since(agg_start);
      }
      aggregate_time.observe(round_stats.aggregate_seconds);
      if (aggregated) {
        record(round_stats,
               Aggregate{at, folded.size(), round_stats.aggregate_seconds});
      }
      commit_round(aggregated ? nullptr
                              : "aggregation rejected the surviving updates");
    }

    evaluate_task(method, task, result);
    if (monitor != nullptr) {
      for (const HealthEvent& fired : monitor->health().observe_eval(
               static_cast<std::uint32_t>(task),
               result.tasks.back().cumulative_accuracy, result.rounds.size())) {
        trace_record(fired);
      }
    }
    if (config_.after_task) config_.after_task(method, task);
    REFFIL_LOG_INFO << spec.name << " / " << method.name() << ": task "
                    << (task + 1) << "/" << spec.domains.size() << " ("
                    << spec.domains[task].name << ") step-acc "
                    << result.tasks.back().cumulative_accuracy;
  }

  result.wall_seconds = seconds_since(start_time);
  obs::count("fed.runs");
  util::for_each_field(result.network, [](const char* name, std::uint64_t v) {
    obs::count(std::string("fed.") + name, v);
  });
  if (des_scheduler != nullptr) {
    obs::count("des.participations", des_scheduler->total_participations());
    obs::count("des.unique_participants", des_scheduler->unique_participants());
    if (des_scheduler->forced_rounds() != 0) {
      obs::count("des.forced_rounds", des_scheduler->forced_rounds());
    }
    trace_record(DesSummary{config_.des.registered_clients,
                            des_scheduler->sample_per_round(),
                            des_scheduler->total_participations(),
                            des_scheduler->unique_participants(),
                            des_scheduler->forced_rounds()});
  }
  if (obs::trace_enabled()) {
    obs::TraceEvent run_end("run_end");
    write_run_summary(run_end.writer(), result);
    obs::trace(run_end);
    obs::flush_trace();
  }
  // Persist the op-level profile (no-op when no profile sink is armed) so a
  // profiled run yields a document even without a clean process exit.
  obs::prof::flush();
  if (monitor != nullptr) monitor->finalize(result);
  return result;
}

void FederatedRunner::evaluate_task(Method& method, std::size_t task,
                                    RunResult& result) {
  method.prepare_eval();
  TaskResult task_result;
  task_result.task = task;
  task_result.domain_name = config_.spec.domains[task].name;

  obs::Histogram& eval_time = obs::histogram("fed.eval_seconds");
  obs::prof::Span eval_span("fed.eval",
                            obs::prof::Task{static_cast<std::uint32_t>(task)});
  const auto eval_start = std::chrono::steady_clock::now();

  std::size_t total_correct = 0, total_count = 0;
  auto& pool = util::global_thread_pool();
  for (std::size_t d = 0; d <= task; ++d) {
    const data::Dataset& test = test_set(d);
    REFFIL_CHECK_MSG(!test.empty(),
                     "evaluate_task: empty test split for domain '" +
                         config_.spec.domains[d].name +
                         "' — accuracy would be 0/0 (NaN)");
    std::atomic<std::size_t> correct{0};
    const auto domain_start = std::chrono::steady_clock::now();
    // Every pool thread takes test samples; predict only reads the slot's
    // replica, so threads may share a slot, and the samples still spread
    // over all slots' replicas.
    pool.parallel_for(test.size(), [&](std::size_t i) {
      if (method.predict(i % parallelism_, test[i].image) == test[i].label) {
        correct.fetch_add(1, std::memory_order_relaxed);
      }
    });
    task_result.per_domain_accuracy.push_back(
        100.0 * static_cast<double>(correct.load()) /
        static_cast<double>(test.size()));
    trace_record(Eval{task, d, config_.spec.domains[d].name,
                      task_result.per_domain_accuracy.back(), test.size(),
                      seconds_since(domain_start)});
    total_correct += correct.load();
    total_count += test.size();
  }
  REFFIL_CHECK_MSG(total_count > 0,
                   "evaluate_task: no test samples across seen domains");
  task_result.cumulative_accuracy =
      100.0 * static_cast<double>(total_correct) /
      static_cast<double>(total_count);
  task_result.eval_seconds = seconds_since(eval_start);
  eval_time.observe(task_result.eval_seconds);
  result.tasks.push_back(std::move(task_result));
}

}  // namespace reffil::fed
