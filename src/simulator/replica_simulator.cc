#include "src/simulator/replica_simulator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>

#include "src/common/logging.h"
#include "src/memory/block_manager.h"
#include "src/memory/prefix_cache.h"
#include "src/obs/metrics_registry.h"
#include "src/robustness/admission.h"
#include "src/robustness/bounded_queue.h"
#include "src/scheduler/scheduler_factory.h"
#include "src/verify/invariant_checker.h"

namespace sarathi {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

// Windowed P99 TBT signal for the overload controller: samples accumulate per
// elapsed second of simulation time; the controller reads the last completed
// window.
constexpr double kTbtWindowS = 1.0;

struct InFlightBatch {
  ScheduledBatch batch;
  double start_s = 0.0;
  double exit_s = 0.0;
};

// Request lifecycle spans: one async "request" span per request (keyed by
// request id), with a nested child span naming the current phase. The phases
// a request moves through: queued -> prefill -> decode -> closed, with crash
// recomputes looping back to queued. Chrome async events with the same
// (category, id) but distinct names render nested in Perfetto.
enum SpanPhase : uint8_t { kSpanNone = 0, kSpanQueued, kSpanPrefill, kSpanDecode, kSpanClosed };
constexpr const char* kSpanNames[] = {"", "queued", "prefill", "decode", ""};

// How much of a failed attempt's progress counts as wasted service.
enum class Waste : uint8_t {
  kAllProgress,    // Everything the attempt computed is lost or redone elsewhere.
  kRecomputeOnly,  // A migration checkpoint: only recompute the attempt already paid.
};

// Requests that come due at absolute times (client deadlines, cluster-planned
// extractions), sorted by time. A request locked in an in-flight batch when
// its time comes is parked and retried once the batch exits.
struct DueQueue {
  std::vector<std::pair<double, size_t>> entries;
  size_t cursor = 0;
  std::vector<std::pair<double, size_t>> parked;

  bool pending() const { return cursor < entries.size(); }
};

// Fires everything in `due` whose time is at or before `upto`: first the
// parked requests, then the newly due ones. `fire(time, idx)` returns false
// while the request is locked, which parks (or keeps parked) the entry.
template <typename Fire>
void Drain(DueQueue* due, double upto, Fire fire) {
  size_t kept = 0;
  for (const auto& entry : due->parked) {
    if (!fire(entry.first, entry.second)) {
      due->parked[kept++] = entry;
    }
  }
  due->parked.resize(kept);
  while (due->pending() && due->entries[due->cursor].first <= upto) {
    const auto entry = due->entries[due->cursor++];
    if (!fire(entry.first, entry.second)) {
      due->parked.push_back(entry);
    }
  }
}

std::unique_ptr<KvAllocator> MakeReplicaAllocator(const SimulatorOptions& options,
                                                  const IterationCostModel& cost_model) {
  AllocatorOptions allocator_options;
  allocator_options.capacity_tokens =
      options.kv_capacity_tokens > 0 ? options.kv_capacity_tokens : cost_model.MaxKvTokens();
  allocator_options.block_size = options.block_size;
  allocator_options.watermark = options.watermark;
  allocator_options.sliding_window = options.model.sliding_window;
  allocator_options.max_seq_len =
      options.kv_max_seq_len > 0 ? options.kv_max_seq_len : options.model.max_seq_len;
  // Prefix caching requires stable position->block identity, which a sliding
  // window destroys (blocks are recycled in place as the window advances).
  // Windowed models therefore degrade kPagedCached to the plain paged manager
  // instead of failing the run.
  AllocatorKind kind = options.allocator_kind;
  if (kind == AllocatorKind::kPagedCached && options.model.sliding_window > 0) {
    kind = AllocatorKind::kPaged;
  }
  return MakeAllocator(kind, options.scheduler.policy, allocator_options);
}

// One replica's run over one trace. Per-run state lives in members and each
// kind of event has one handler. A step of the loop (Step) runs in a fixed
// order: outages due before the next batch can start, each preceded by the
// work due at its down_s; then batch exits due by now, arrivals, client
// timeouts and cluster-planned extractions (AdvanceTo); then overload control;
// then one batch is launched, or the clock idles to the next event.
class Replica {
 public:
  Replica(const SimulatorOptions& options, const SimulatedEngine& engine, const Trace& trace);
  // The allocator, scheduler and overload controls hold &obs_.
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  // One pass of the event loop. Returns false once every request has drained.
  bool Step();
  // End-of-run accounting; the replica is spent afterwards.
  SimResult Finish();

 private:
  // Moves the clock to `t` and delivers everything due by then: batch exits
  // in exit order, arrivals, client timeouts, then planned extractions.
  void AdvanceTo(double t);
  // Offers trace request `idx` at its arrival time: adopts a migrated-in
  // request, sheds it under overload, or enqueues it.
  void Offer(size_t idx);
  // Aborts request `idx` at `t` for `reason` (see the definition). Returns
  // false while the request is locked in an in-flight batch.
  bool Abort(size_t idx, double t, FailureKind reason);
  // Replica crash at outage.down_s.
  void Crash(const ReplicaOutage& outage);

  void ExitBatch(InFlightBatch done);
  void EmitTokens(const InFlightBatch& done);
  void ForkSiblings(const ScheduledBatch& batch, double exit_s);
  void Launch(ScheduledBatch batch);
  double Stretch();
  void ControlOverload();
  double NextEventTime() const;

  const char* ShedVerdict(size_t idx, double* retry_after_s, double* predicted_ttft_s);
  void Shed(size_t idx, double t, const char* what, double retry_after_s,
            double predicted_ttft_s);
  void RecordFailure(size_t idx, double t, FailureKind failure, Waste waste);
  void MoveSpan(size_t idx, uint8_t phase, double t);
  bool OverloadEligible(size_t idx) const;

  const SimulatorOptions& options_;
  const SimulatedEngine& engine_;
  const Trace& trace_;
  const int num_stages_;

  std::unique_ptr<KvAllocator> allocator_;
  std::unique_ptr<Scheduler> scheduler_;
  // Non-null for paged memory (required by parallel sampling's forks).
  PagedBlockManager* paged_;
  // Non-null iff the run uses the radix prefix cache (kPagedCached, not
  // downgraded); drives admission-time lookups and the end-of-run drain.
  PrefixCachingAllocator* prefix_cache_;

  // Observability: the replica owns the clock; schedulers and the allocator
  // emit against it. Null sinks cost one branch per emission site.
  ObsHooks obs_;
  Tracer* tracer_;
  MetricsRegistry* metrics_;
  FlightRecorder* flight_;
  SloMonitor* slo_;
  InvariantChecker* checker_;
  const int fpid_;

  SimResult result_;
  // One state per trace request, then one per forked sibling; index i is
  // result_.requests[i] and the state's slot.
  std::vector<std::unique_ptr<RequestState>> states_;
  std::vector<uint8_t> span_phase_;
  // Parallel-sampling plans: parent -> siblings still to fork.
  std::unordered_map<const RequestState*, int64_t> pending_forks_;
  int64_t next_fork_id_ = 1000000000;

  std::vector<double> stage_free_;
  std::vector<InFlightBatch> in_flight_;
  // Reused per-iteration shape scratch for MFU/MBU accounting.
  BatchWork work_scratch_;
  // Reused batch description, pooled into the tracer as each slice's name.
  std::string slice_scratch_;
  size_t next_arrival_ = 0;
  double now_ = 0.0;
  double first_start_ = -1.0;
  double last_exit_ = 0.0;

  // Client deadlines (original trace requests only; forked siblings never
  // carry one) and cluster-planned extractions (migration checkpoints,
  // degraded drains, hedge-race cancellations).
  DueQueue deadlines_;
  DueQueue extractions_;

  size_t next_outage_ = 0;
  size_t slowdown_cursor_ = 0;
  // Crash-induced recomputes (standalone mode); counted into num_preemptions
  // alongside the scheduler's own memory-pressure preemptions.
  int64_t crash_recomputes_ = 0;

  // Overload control (src/robustness). All three mechanisms are off by
  // default; then nothing here allocates and the loop pays one branch.
  const bool overload_active_;
  std::unique_ptr<AdmissionPredictor> admission_;
  std::unique_ptr<CoDelQueue> codel_;
  std::unique_ptr<OverloadController> controller_;
  LogHistogram tbt_window_;
  double tbt_window_start_ = 0.0;
  double tbt_window_p99_ = 0.0;
};

Replica::Replica(const SimulatorOptions& options, const SimulatedEngine& engine,
                 const Trace& trace)
    : options_(options),
      engine_(engine),
      trace_(trace),
      num_stages_(engine.num_stages()),
      allocator_(MakeReplicaAllocator(options, engine.cost_model())),
      scheduler_(MakeScheduler(options.scheduler, allocator_.get())),
      paged_(dynamic_cast<PagedBlockManager*>(allocator_.get())),
      prefix_cache_(dynamic_cast<PrefixCachingAllocator*>(allocator_.get())),
      obs_{options.tracer, options.metrics, options.checker, options.flight},
      tracer_(options.tracer),
      metrics_(options.metrics),
      flight_(options.flight),
      slo_(options.slo),
      checker_(options.checker),
      fpid_(options.trace_pid),
      span_phase_(trace.size(), kSpanNone),
      stage_free_(static_cast<size_t>(num_stages_), 0.0),
      overload_active_(options.overload.enabled()) {
  // Parallel sampling (num_samples > 1) forks siblings at prefill completion
  // and requires paged memory for the zero-copy prompt sharing.
  bool any_forking = false;
  for (const Request& r : trace.requests) {
    CHECK_GE(r.num_samples, 1);
    any_forking |= r.num_samples > 1;
  }
  CHECK(!any_forking || paged_ != nullptr)
      << "num_samples > 1 requires a paged-memory policy (sarathi/vllm/fastserve/vtc)";

  if (obs_.active()) {
    allocator_->set_obs(&obs_);
    scheduler_->set_obs(&obs_);
  }
  if (checker_ != nullptr) {
    if (flight_ != nullptr) {
      checker_->set_flight(flight_);
    }
    checker_->BeginRun(scheduler_.get(), allocator_.get(),
                       scheduler_->name() + "/replica" + std::to_string(fpid_));
  }
  if (tracer_ != nullptr) {
    tracer_->set_default_pid(fpid_);
    tracer_->SetProcessName(fpid_, "replica " + std::to_string(fpid_));
    for (int s = 0; s < num_stages_; ++s) {
      tracer_->SetThreadName(s, "stage " + std::to_string(s));
    }
    if (!options.outages.empty() || !options.slowdowns.empty()) {
      tracer_->SetThreadName(num_stages_, "faults");
    }
  }

  result_.scheduler_name = scheduler_->name();
  result_.stage_busy_s.assign(static_cast<size_t>(num_stages_), 0.0);
  states_.reserve(trace.size());
  result_.requests.resize(trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    const Request& r = trace.requests[i];
    states_.push_back(std::make_unique<RequestState>(r));
    if (r.restored_generated > 0) {
      states_.back()->RestoreFromMigration(r.restored_generated);
    }
    // Each request carries its metrics slot so the hot loop resolves
    // request -> RequestMetrics without hashing.
    states_.back()->set_slot(static_cast<int64_t>(i));
    RequestMetrics& m = result_.requests[i];
    m.id = r.id;
    m.arrival_s = r.arrival_time_s;
    m.deadline_s = r.deadline_s;
    m.qos = r.qos;
    if (options.reuse_buffers) {
      // One emission per output token; reserving up front keeps steady-state
      // iterations free of telemetry-buffer growth.
      m.token_times_s.reserve(static_cast<size_t>(std::max<int64_t>(0, r.output_tokens)));
    }
    if (r.num_samples > 1) {
      pending_forks_.emplace(states_.back().get(), r.num_samples - 1);
    }
    if (r.deadline_s > 0.0) {
      deadlines_.entries.emplace_back(r.arrival_time_s + r.deadline_s, i);
    }
    if (r.planned_abort != PlannedAbort::kNone && r.planned_abort_s > 0.0) {
      extractions_.entries.emplace_back(r.planned_abort_s, i);
    }
  }
  std::sort(deadlines_.entries.begin(), deadlines_.entries.end());
  std::sort(extractions_.entries.begin(), extractions_.entries.end());
  in_flight_.reserve(static_cast<size_t>(num_stages_) + 1);

  const OverloadOptions& overload = options.overload;
  if (overload.admission_ttft_slo_s > 0.0) {
    admission_ = std::make_unique<AdmissionPredictor>(
        &engine.cost_model(), std::max<int64_t>(1, options.scheduler.token_budget));
  }
  if (overload.queue_limit_s > 0.0) {
    codel_ = std::make_unique<CoDelQueue>(
        CoDelOptions{overload.queue_limit_s, overload.codel_interval_s});
    if (obs_.active()) {
      codel_->set_obs(&obs_);
    }
  }
  if (overload.brownout) {
    controller_ = std::make_unique<OverloadController>(overload.controller);
    if (obs_.active()) {
      controller_->set_obs(&obs_);
    }
  }
}

bool Replica::Step() {
  double target = std::max(now_, stage_free_[0]);
  const std::vector<ReplicaOutage>& outages = options_.outages;
  while (next_outage_ < outages.size() && outages[next_outage_].down_s <= target) {
    const ReplicaOutage outage = outages[next_outage_++];
    AdvanceTo(std::max(now_, outage.down_s));
    Crash(outage);
    target = std::max(target, stage_free_[0]);
  }
  AdvanceTo(target);

  obs_.SetNow(now_);
  if (overload_active_) {
    ControlOverload();
  }
  ScheduledBatch batch = scheduler_->Schedule();
  result_.peak_kv_blocks = std::max(result_.peak_kv_blocks, allocator_->used_units());
  if (!batch.empty()) {
    Launch(std::move(batch));
    return true;
  }
  double next_event = NextEventTime();
  if (next_event == kInfinity) {
    CHECK(!scheduler_->HasWork())
        << scheduler_->name() << " deadlocked: " << scheduler_->queue_size()
        << " requests waiting, " << scheduler_->running().size()
        << " running, nothing schedulable";
    return false;  // All requests drained.
  }
  now_ = std::max(now_, next_event);
  return true;
}

void Replica::AdvanceTo(double t) {
  now_ = t;
  while (!in_flight_.empty()) {
    // Earliest exit first; equal exits leave in launch order.
    auto next = std::min_element(
        in_flight_.begin(), in_flight_.end(),
        [](const InFlightBatch& a, const InFlightBatch& b) { return a.exit_s < b.exit_s; });
    if (next->exit_s > t) {
      break;
    }
    InFlightBatch done = std::move(*next);
    in_flight_.erase(next);
    ExitBatch(std::move(done));
  }
  while (next_arrival_ < trace_.size() && trace_.requests[next_arrival_].arrival_time_s <= t) {
    Offer(next_arrival_);
    ++next_arrival_;
  }
  Drain(&deadlines_, t,
        [this](double at, size_t idx) { return Abort(idx, at, FailureKind::kTimeout); });
  Drain(&extractions_, t, [this](double at, size_t idx) {
    PlannedAbort plan = trace_.requests[idx].planned_abort;
    return Abort(idx, at,
                 plan == PlannedAbort::kMigrateOut ? FailureKind::kMigrated
                 : plan == PlannedAbort::kDrain    ? FailureKind::kDegradedDrain
                                                   : FailureKind::kHedgeCancelled);
  });
}

void Replica::Offer(size_t idx) {
  const Request& request = trace_.requests[idx];
  const double arrival = request.arrival_time_s;
  obs_.SetNow(arrival);
  RequestState* state = states_[idx].get();
  if (request.restored_generated > 0) {
    // Live-migrated arrival: adopt with the transferred KV, resuming the
    // decode with zero recompute. When the allocator cannot hold the restored
    // context, fall back to the recompute path — the request queues like a
    // preempted one and rebuilds its KV (counted as waste).
    if (scheduler_->AdoptMigrated(state)) {
      MoveSpan(idx, kSpanDecode, arrival);
      result_.peak_kv_blocks = std::max(result_.peak_kv_blocks, allocator_->used_units());
      if (tracer_ != nullptr) {
        tracer_->Instant("migration", "adopt", arrival, {Arg("request", request.id)});
      }
      if (metrics_ != nullptr) {
        metrics_->AddCount("migrations_in", arrival);
      }
    } else {
      state->ResetForRecompute();
      scheduler_->Enqueue(state);
      MoveSpan(idx, kSpanQueued, arrival);
      if (metrics_ != nullptr) {
        metrics_->AddCount("migration_fallbacks", arrival);
      }
    }
  } else {
    double retry_after = 0.0;
    double predicted_ttft = 0.0;
    const char* shed_what = overload_active_ && OverloadEligible(idx)
                                ? ShedVerdict(idx, &retry_after, &predicted_ttft)
                                : nullptr;
    if (shed_what != nullptr) {
      Shed(idx, arrival, shed_what, retry_after, predicted_ttft);
    } else {
      if (prefix_cache_ != nullptr && state->token_ids() != nullptr) {
        // Radix-cache lookup before enqueue: matched full blocks are
        // refcount-pinned so eviction cannot race the admission, and the
        // request's prefill starts at the matched boundary. Admission later
        // transplants the pinned chain into the block table.
        int64_t cached =
            prefix_cache_->PinPrefix(state->id(), state->token_ids(), state->prompt_tokens());
        if (cached > 0) {
          state->ApplyCachedPrefix(cached);
          result_.requests[idx].cached_prefill_tokens = cached;
          if (tracer_ != nullptr) {
            tracer_->Instant("kv", "prefix_hit", arrival,
                             {Arg("request", state->id()), Arg("cached_tokens", cached)});
          }
          if (metrics_ != nullptr) {
            metrics_->AddCount("prefix_hits", arrival);
            metrics_->AddCount("cached_prefill_tokens", arrival, static_cast<double>(cached));
          }
          if (flight_ != nullptr) {
            flight_->RecordInstant("kv", "prefix_hit", arrival, fpid_,
                                   {{"request", static_cast<double>(state->id())},
                                    {"cached_tokens", static_cast<double>(cached)}});
          }
        }
      }
      const OverloadOptions& overload = options_.overload;
      if (controller_ != nullptr && controller_->level() >= OverloadLevel::kBrownout &&
          state->qos() == QosClass::kBatch && overload.brownout_output_cap > 0 &&
          OverloadEligible(idx)) {
        // Brownout: batch-lane work is admitted but degraded (capped
        // generation) to free budget for the interactive lane.
        state->TruncateOutputAt(overload.brownout_output_cap);
        ++result_.num_browned_out;
        if (metrics_ != nullptr) {
          metrics_->AddCount("browned_out", arrival);
        }
      }
      scheduler_->Enqueue(state);
      MoveSpan(idx, kSpanQueued, arrival);
    }
  }
  if (metrics_ != nullptr) {
    metrics_->AddCount("arrivals", arrival);
  }
  if (flight_ != nullptr) {
    flight_->RecordInstant("request", "arrival", arrival, fpid_,
                           {{"request", static_cast<double>(request.id)}});
  }
}

// The overload rung or admission verdict that sheds arrival `idx` (its
// tracer instant and metrics counter name), or null to admit it.
const char* Replica::ShedVerdict(size_t idx, double* retry_after_s, double* predicted_ttft_s) {
  const RequestState& state = *states_[idx];
  OverloadLevel level = controller_ != nullptr ? controller_->level() : OverloadLevel::kNormal;
  if (level >= OverloadLevel::kShed && state.qos() == QosClass::kBatch) {
    // Shed rung: batch-lane arrivals are rejected outright so the interactive
    // lane keeps its SLO through the overload.
    ++result_.num_shed_admission;
    return "shed_brownout";
  }
  if (admission_ == nullptr) {
    return nullptr;
  }
  // SLO-aware admission: shed when the modeled TTFT cannot meet min(admission
  // SLO, the client's own deadline), with a modeled retry-after for the
  // client's backoff.
  double slo = options_.overload.admission_ttft_slo_s;
  if (trace_.requests[idx].deadline_s > 0.0) {
    slo = std::min(slo, trace_.requests[idx].deadline_s);
  }
  int64_t backlog = scheduler_->QueuedPrefillTokens();
  int64_t decodes = static_cast<int64_t>(scheduler_->running().size());
  double predicted = admission_->PredictTtftS(backlog, decodes, state.prompt_tokens());
  if (predicted <= slo) {
    return nullptr;
  }
  *predicted_ttft_s = predicted;
  *retry_after_s = admission_->RetryAfterS(backlog, decodes, state.prompt_tokens(), slo);
  ++result_.num_shed_admission;
  return "shed_admission";
}

// Permanent shed, shared by admission sheds, CoDel queue drops and batch-lane
// brownout sheds. The request must already be out of the scheduler (never
// enqueued, or just aborted); `what` is both the tracer instant name and the
// metrics counter.
void Replica::Shed(size_t idx, double t, const char* what, double retry_after_s,
                   double predicted_ttft_s) {
  states_[idx]->set_phase(RequestPhase::kFailed);
  const int64_t id = result_.requests[idx].id;
  if (tracer_ != nullptr) {
    if (predicted_ttft_s > 0.0) {
      tracer_->Instant("overload", what, t,
                       {Arg("request", id), Arg("retry_after_s", retry_after_s),
                        Arg("predicted_ttft_s", predicted_ttft_s)});
    } else {
      tracer_->Instant("overload", what, t,
                       {Arg("request", id), Arg("retry_after_s", retry_after_s)});
    }
  }
  RecordFailure(idx, t, FailureKind::kShed, Waste::kAllProgress);
  if (metrics_ != nullptr) {
    metrics_->AddCount(what, t);
    if (retry_after_s > 0.0) {
      metrics_->Observe("retry_after_s", t, retry_after_s);
    }
    if (predicted_ttft_s > 0.0) {
      metrics_->Observe("shed_predicted_ttft_s", t, predicted_ttft_s);
    }
  }
  if (flight_ != nullptr) {
    flight_->RecordInstant("overload", what, t, fpid_,
                           {{"request", static_cast<double>(id)},
                            {"retry_after_s", retry_after_s},
                            {"predicted_ttft_s", predicted_ttft_s}});
  }
  if (slo_ != nullptr) {
    slo_->RecordOutcome(result_.requests[idx].qos, /*good=*/false, t);
  }
}

// Aborts request `idx` for `reason`: a client timeout (kTimeout) or a
// cluster-planned extraction (kMigrated, kDegradedDrain, kHedgeCancelled).
// Migration checkpoints and drains only extract decoding requests — a queued
// or still-prefilling request holds little worth moving and is covered by
// hedging instead — while hedge-race cancellations fire in any phase. The
// attempt keeps its emitted tokens; for a migration they are exactly the
// progress the destination resumes from. A timeout's failed_s is the deadline
// itself, not the (possibly later) moment the abort executes; an
// extraction's is when it executes (deferred past in-flight batches and any
// token emitted meanwhile), which the cluster uses as the KV transfer start.
bool Replica::Abort(size_t idx, double t, FailureKind reason) {
  RequestState* state = states_[idx].get();
  if (state->phase() == RequestPhase::kFinished || state->phase() == RequestPhase::kFailed) {
    return true;  // Finished (or already failed) first: nothing to abort.
  }
  const bool timeout = reason == FailureKind::kTimeout;
  if (!timeout && (idx >= next_arrival_ || (reason != FailureKind::kHedgeCancelled &&
                                            !(state->prefill_complete() &&
                                              state->generated() > 0)))) {
    return true;  // Never arrived, or not decoding: leave it in place.
  }
  if (state->locked()) {
    return false;
  }
  const RequestMetrics& request_metrics = result_.requests[idx];
  if (!timeout && !request_metrics.token_times_s.empty()) {
    t = std::max(t, request_metrics.token_times_s.back());
  }
  obs_.SetNow(t);
  CHECK(scheduler_->Abort(state));
  const char* what = timeout                                ? "timeout"
                     : reason == FailureKind::kMigrated      ? "migrate_out"
                     : reason == FailureKind::kDegradedDrain ? "drain"
                                                             : "hedge_cancel";
  if (tracer_ != nullptr) {
    tracer_->Instant(timeout ? "fault" : "migration", what, t,
                     {Arg("request", request_metrics.id)});
  }
  RecordFailure(idx, t, reason,
                reason == FailureKind::kMigrated ? Waste::kRecomputeOnly : Waste::kAllProgress);
  if (metrics_ != nullptr) {
    metrics_->AddCount(timeout ? "timeouts" : what, t);
  }
  if (timeout) {
    if (flight_ != nullptr) {
      flight_->RecordInstant("fault", "timeout", t, fpid_,
                             {{"request", static_cast<double>(request_metrics.id)}});
    }
    if (slo_ != nullptr) {
      slo_->RecordOutcome(request_metrics.qos, /*good=*/false, t);
    }
  }
  return true;
}

// In-flight batches are discarded (their tokens were never emitted), every
// admitted request loses its KV, and the stages stay idle until outage.up_s.
void Replica::Crash(const ReplicaOutage& outage) {
  obs_.SetNow(outage.down_s);
  for (auto& f : in_flight_) {
    for (const auto& item : f.batch.items) {
      item.request->set_locked(false);
    }
    if (checker_ != nullptr) {
      checker_->OnBatchDiscarded(f.batch);
    }
  }
  in_flight_.clear();
  if (options_.fail_interrupted_on_crash) {
    for (RequestState* state : scheduler_->DrainAll()) {
      RecordFailure(static_cast<size_t>(state->slot()), outage.down_s,
                    FailureKind::kReplicaCrash, Waste::kAllProgress);
    }
  } else {
    // Standalone replica: running requests recompute after recovery; the
    // wait queue survives the crash untouched (it holds no KV).
    std::vector<RequestState*> running = scheduler_->running();
    for (RequestState* state : running) {
      CHECK(scheduler_->Abort(state));
      state->ResetForRecompute();
      scheduler_->Enqueue(state);
      MoveSpan(static_cast<size_t>(state->slot()), kSpanQueued, outage.down_s);
      ++crash_recomputes_;
    }
  }
  if (tracer_ != nullptr) {
    // A slice on the fault track spanning the outage, plus instants at the
    // crash and recovery edges.
    tracer_->Complete("fault", "outage", outage.down_s, outage.duration(), num_stages_,
                      {Arg("duration_s", outage.duration())});
    tracer_->Instant("fault", "crash", outage.down_s);
    tracer_->Instant("fault", "recovered", outage.up_s);
  }
  if (metrics_ != nullptr) {
    metrics_->AddCount("outages", outage.down_s);
  }
  if (flight_ != nullptr) {
    // The trigger instant itself carries the reason; the recovery edge is
    // recorded so a post-crash dump shows the outage extent.
    flight_->Trigger("replica_crash", outage.down_s, fpid_);
    flight_->RecordInstant("fault", "recovered", outage.up_s, fpid_);
  }
  for (double& f : stage_free_) {
    f = std::max(f, outage.up_s);
  }
  ++result_.num_outages;
  result_.downtime_s += outage.duration();
}

void Replica::ExitBatch(InFlightBatch done) {
  obs_.SetNow(done.exit_s);
  EmitTokens(done);
  ForkSiblings(done.batch, done.exit_s);
  scheduler_->ObserveIterationTime(done.batch, done.exit_s - done.start_s);
  scheduler_->OnBatchComplete(done.batch);
  if (checker_ != nullptr) {
    checker_->OnBatchApplied(done.batch, done.exit_s);
  }
  if (paged_ != nullptr) {
    // Time domain carries no KV values; discard CoW data-copy records.
    (void)paged_->TakePendingCows();
  }
  // Forked siblings may have just taken block references.
  result_.peak_kv_blocks = std::max(result_.peak_kv_blocks, allocator_->used_units());
  for (const auto& item : done.batch.items) {
    if (!item.request->finished()) {
      continue;
    }
    size_t idx = static_cast<size_t>(item.request->slot());
    RequestMetrics& request_metrics = result_.requests[idx];
    request_metrics.completion_s = done.exit_s;
    request_metrics.preemptions = item.request->preemptions();
    request_metrics.wasted_tokens = item.request->wasted_tokens();
    MoveSpan(idx, kSpanClosed, done.exit_s);
    if (metrics_ != nullptr) {
      metrics_->AddCount("completions", done.exit_s);
    }
    if (flight_ != nullptr) {
      flight_->RecordInstant("request", "completion", done.exit_s, fpid_,
                             {{"request", static_cast<double>(request_metrics.id)}});
    }
    if (slo_ != nullptr) {
      slo_->RecordOutcome(request_metrics.qos, request_metrics.good(), done.exit_s);
    }
  }
  if (options_.reuse_buffers) {
    scheduler_->RecycleBatch(std::move(done.batch));
  }
}

// Token emissions happen at pipeline exit, before state advances.
void Replica::EmitTokens(const InFlightBatch& done) {
  const double exit_s = done.exit_s;
  for (const auto& item : done.batch.items) {
    RequestMetrics& request_metrics = result_.requests[static_cast<size_t>(item.request->slot())];
    bool emits = item.is_decode ||
                 item.request->prefill_done() + item.num_tokens == item.request->prefill_target();
    if (emits) {
      // The first token's latency is its TTFT, every later one's a TBT gap.
      std::vector<double>& token_times = request_metrics.token_times_s;
      const bool first = token_times.empty();
      const double latency = exit_s - (first ? request_metrics.arrival_s : token_times.back());
      if (metrics_ != nullptr) {
        metrics_->AddCount("output_tokens", exit_s);
        metrics_->Observe(first ? "ttft_s" : "tbt_s", exit_s, latency);
      }
      if (slo_ != nullptr) {
        slo_->RecordLatency(first ? SloSignal::kTtft : SloSignal::kTbt, request_metrics.qos,
                            latency, exit_s);
      }
      if (controller_ != nullptr && !first) {
        // Feed the controller's windowed P99 TBT signal.
        tbt_window_.Record(latency);
      }
      token_times.push_back(exit_s);
      ++result_.total_output_tokens;
    }
    item.request->set_locked(false);
  }
}

// Materializes parallel-sampling siblings for parents whose prefill just
// completed — before OnBatchComplete, while the parent's block table is
// guaranteed alive. Each sibling's first token is its fork-point draw,
// emitted at this batch's exit.
void Replica::ForkSiblings(const ScheduledBatch& batch, double exit_s) {
  if (pending_forks_.empty()) {
    return;
  }
  for (const auto& item : batch.items) {
    if (item.is_decode ||
        item.request->prefill_done() + item.num_tokens != item.request->prefill_target()) {
      continue;
    }
    auto plan = pending_forks_.find(item.request);
    if (plan == pending_forks_.end()) {
      continue;
    }
    double parent_first_scheduled =
        result_.requests[static_cast<size_t>(item.request->slot())].first_scheduled_s;
    for (int64_t s = 0; s < plan->second; ++s) {
      int64_t child_id = next_fork_id_++;
      RequestState child_state = RequestState::ForkedFrom(*item.request, child_id);
      child_state.AdvancePrefill(child_state.remaining_prefill());
      states_.push_back(std::make_unique<RequestState>(child_state));
      RequestState* child = states_.back().get();
      paged_->Fork(item.request->id(), child_id);

      RequestMetrics child_metrics;
      child_metrics.id = child_id;
      child_metrics.qos = item.request->qos();
      child_metrics.arrival_s = item.request->arrival_time_s();
      child_metrics.first_scheduled_s = parent_first_scheduled;
      child_metrics.token_times_s.push_back(exit_s);
      ++result_.total_output_tokens;
      if (metrics_ != nullptr) {
        metrics_->AddCount("output_tokens", exit_s);
      }
      bool child_done = child->finished();
      if (child_done) {
        paged_->Release(child_id);
        child->set_phase(RequestPhase::kFinished);
        child_metrics.completion_s = exit_s;
      } else {
        scheduler_->AdoptRunning(child);
      }
      result_.requests.push_back(std::move(child_metrics));
      size_t slot = result_.requests.size() - 1;
      child->set_slot(static_cast<int64_t>(slot));
      // Sibling spans begin at the fork point, already decoding (or
      // instantly closed for single-token samples).
      span_phase_.push_back(kSpanNone);
      MoveSpan(slot, kSpanDecode, exit_s);
      if (child_done) {
        MoveSpan(slot, kSpanClosed, exit_s);
      }
    }
    pending_forks_.erase(plan);
  }
}

// Starts `batch` at now_: times it, pushes it through the pipeline stages
// (the gaps between stages are the paper's bubbles), accounts for it, and
// locks its requests until it exits.
void Replica::Launch(ScheduledBatch batch) {
  ++result_.num_iterations;
  CHECK_LE(result_.num_iterations, options_.max_iterations) << "runaway scheduling loop";
  if (checker_ != nullptr) {
    checker_->OnBatchScheduled(batch, now_);
  }
  double iter_flops = 0.0;
  double iter_bytes = 0.0;
  double stage_time;
  if (options_.reuse_buffers) {
    // Fast path: one pass over the batch shape yields the stage time and the
    // MFU/MBU accounting totals together (one KvSpan per sequence).
    stage_time = engine_.StageTimeAndTotals(batch, &iter_flops, &iter_bytes);
  } else {
    stage_time = engine_.StageTime(batch);
  }
  double stretch = Stretch();
  if (stretch > 1.0) {
    stage_time *= stretch;
    ++result_.degraded_iterations;
    if (metrics_ != nullptr) {
      metrics_->AddCount("degraded_iterations", now_);
    }
  }
  const double start = now_;
  double enter = start;
  const char* slice_name = "";
  if (tracer_ != nullptr) {
    batch.DescribeTo(&slice_scratch_);
    slice_name = tracer_->Pool(slice_scratch_);
  }
  for (int s = 0; s < num_stages_; ++s) {
    double stage_start = std::max(stage_free_[static_cast<size_t>(s)], enter);
    result_.stage_busy_s[static_cast<size_t>(s)] += stage_time;
    if (tracer_ != nullptr) {
      tracer_->Complete("iteration", slice_name, stage_start, stage_time, s,
                        {Arg("tokens", batch.TotalTokens()), Arg("decodes", batch.NumDecodes()),
                         Arg("prefill_tokens", batch.NumPrefillTokens())});
    }
    if (flight_ != nullptr) {
      // Literal name (not batch.Describe()): the flight path must not
      // allocate in steady state; the shape args carry the batch identity.
      flight_->RecordComplete(
          "iteration", "iteration", stage_start, stage_time, fpid_, s,
          {{"tokens", static_cast<double>(batch.TotalTokens())},
           {"decodes", static_cast<double>(batch.NumDecodes())},
           {"prefill_tokens", static_cast<double>(batch.NumPrefillTokens())}});
    }
    enter = stage_start + stage_time;
    stage_free_[static_cast<size_t>(s)] = enter;
  }
  const double exit = enter;
  if (first_start_ < 0.0) {
    first_start_ = start;
  }
  last_exit_ = std::max(last_exit_, exit);

  result_.total_prefill_tokens += batch.NumPrefillTokens();
  if (options_.reuse_buffers) {
    // Totals were computed alongside the stage time above.
    result_.total_flops += iter_flops;
    result_.total_bytes += iter_bytes;
  } else {
    work_scratch_ = batch.ToBatchWork();
    result_.total_flops += engine_.cost_model().BatchFlops(work_scratch_);
    result_.total_bytes += engine_.cost_model().BatchMemoryBytes(work_scratch_);
  }
  if (options_.record_iterations) {
    IterationRecord record;
    record.start_s = start;
    record.stage_time_s = stage_time;
    record.exit_s = exit;
    record.description = batch.Describe();
    record.total_tokens = batch.TotalTokens();
    record.num_decodes = batch.NumDecodes();
    record.prefill_tokens = batch.NumPrefillTokens();
    result_.iterations.push_back(std::move(record));
  }
  if (metrics_ != nullptr) {
    metrics_->AddCount("iterations", start);
    if (batch.NumPrefillTokens() > 0) {
      metrics_->AddCount("prefill_tokens", start, static_cast<double>(batch.NumPrefillTokens()));
    }
  }
  for (const auto& item : batch.items) {
    item.request->set_locked(true);
    size_t idx = static_cast<size_t>(item.request->slot());
    RequestMetrics& request_metrics = result_.requests[idx];
    if (request_metrics.first_scheduled_s < 0.0) {
      request_metrics.first_scheduled_s = start;
    }
    MoveSpan(idx, item.is_decode ? kSpanDecode : kSpanPrefill, start);
  }
  in_flight_.push_back(InFlightBatch{std::move(batch), start, exit});
}

// Gray-failure degradation: an iteration whose batch starts inside a slowdown
// episode runs slower on every pipeline stage; transient jitter stretches
// isolated iterations on top. (Monotonic cursor — batch starts never move
// backwards within a run.)
double Replica::Stretch() {
  const std::vector<SlowdownEpisode>& slowdowns = options_.slowdowns;
  while (slowdown_cursor_ < slowdowns.size() && slowdowns[slowdown_cursor_].end_s <= now_) {
    ++slowdown_cursor_;
  }
  double stretch = 1.0;
  if (slowdown_cursor_ < slowdowns.size() && now_ >= slowdowns[slowdown_cursor_].start_s) {
    stretch = slowdowns[slowdown_cursor_].factor;
  }
  return stretch * IterationJitterFactor(options_.jitter_seed, options_.trace_pid,
                                         result_.num_iterations, options_.jitter_probability,
                                         options_.jitter_max_extra);
}

// Moves the brownout ladder on this step's signals, then lets CoDel drop from
// the queue head.
void Replica::ControlOverload() {
  if (controller_ != nullptr) {
    // Roll the TBT window forward; an idle gap spanning several windows
    // resets the signal (no samples -> no pressure).
    if (now_ >= tbt_window_start_ + kTbtWindowS) {
      tbt_window_p99_ = tbt_window_.empty() ? 0.0 : tbt_window_.Quantile(0.99);
      double windows = std::floor((now_ - tbt_window_start_) / kTbtWindowS);
      tbt_window_start_ += windows * kTbtWindowS;
      if (windows > 1.0) {
        tbt_window_p99_ = 0.0;
      }
      tbt_window_ = LogHistogram();
    }
    OverloadSignals signals;
    RequestState* oldest = scheduler_->OldestQueued();
    signals.queue_delay_s = oldest != nullptr ? now_ - oldest->arrival_time_s() : 0.0;
    signals.p99_tbt_s = tbt_window_p99_;
    signals.kv_utilization = allocator_->Utilization();
    OverloadLevel prev = controller_->level();
    OverloadLevel level = controller_->Update(now_, signals);
    // Every sample, not only on change: the scheduler's budget recovery ramps
    // down across repeated SetOverloadLevel calls.
    scheduler_->SetOverloadLevel(level);
    if (level != prev) {
      if (tracer_ != nullptr) {
        tracer_->Instant("overload", "overload_level", now_,
                         {Arg("level", tracer_->Pool(OverloadLevelName(level))),
                          Arg("queue_delay_s", signals.queue_delay_s),
                          Arg("p99_tbt_s", signals.p99_tbt_s),
                          Arg("kv_utilization", signals.kv_utilization)});
      }
      if (metrics_ != nullptr) {
        metrics_->SetGauge("overload_level", now_, static_cast<double>(static_cast<int>(level)));
      }
      if (flight_ != nullptr) {
        flight_->RecordCounter("overload", "overload_level", now_, fpid_,
                               static_cast<double>(static_cast<int>(level)));
        if (level > prev && level >= OverloadLevel::kBrownout) {
          flight_->Trigger(
              level >= OverloadLevel::kShed ? "overload_shed" : "overload_brownout", now_,
              fpid_);
        }
      }
    }
  }
  if (codel_ == nullptr) {
    return;
  }
  // CoDel bounded queue: drop from the head while the controller says the
  // standing delay warrants it. An ineligible head (planned abort, sampling
  // parent) pauses dropping entirely — conservative, and those requests are
  // rare and cluster-managed.
  while (true) {
    RequestState* oldest = scheduler_->OldestQueued();
    if (oldest == nullptr || oldest->slot() < 0 ||
        !OverloadEligible(static_cast<size_t>(oldest->slot()))) {
      break;
    }
    if (!codel_->ShouldDrop(now_ - oldest->arrival_time_s(), now_)) {
      break;
    }
    size_t idx = static_cast<size_t>(oldest->slot());
    CHECK(scheduler_->Abort(oldest));
    ++result_.num_shed_queue;
    Shed(idx, now_, "shed_queue", 0.0, 0.0);
  }
}

// When an idle replica (empty batch) next has something to do; infinity once
// it has drained. Outages, deadlines and extractions only wake a replica that
// still has work.
double Replica::NextEventTime() const {
  double next_event = kInfinity;
  if (next_arrival_ < trace_.size()) {
    next_event = std::min(next_event, trace_.requests[next_arrival_].arrival_time_s);
  }
  for (const auto& f : in_flight_) {
    next_event = std::min(next_event, f.exit_s);
  }
  bool pending_work =
      scheduler_->HasWork() || !in_flight_.empty() || next_arrival_ < trace_.size();
  if (pending_work && next_outage_ < options_.outages.size()) {
    next_event = std::min(next_event, options_.outages[next_outage_].down_s);
  }
  if (pending_work && deadlines_.pending()) {
    next_event = std::min(next_event, deadlines_.entries[deadlines_.cursor].first);
  }
  if (pending_work && extractions_.pending()) {
    next_event = std::min(next_event, extractions_.entries[extractions_.cursor].first);
  }
  if (codel_ != nullptr && scheduler_->queue_size() > 0) {
    // A standing queue with an empty batch (KV-blocked) still needs the CoDel
    // clock to advance so drops can relieve the pressure.
    RequestState* oldest = scheduler_->OldestQueued();
    if (oldest != nullptr && oldest->slot() >= 0 &&
        OverloadEligible(static_cast<size_t>(oldest->slot()))) {
      next_event = std::min(next_event, now_ + options_.overload.codel_interval_s);
    }
  }
  return next_event;
}

SimResult Replica::Finish() {
  if (prefix_cache_ != nullptr) {
    const PrefixCachingAllocator::CacheStats& cache_stats = prefix_cache_->stats();
    result_.prefix_lookups = cache_stats.lookups;
    result_.prefix_hits = cache_stats.hits;
    result_.cached_prefill_tokens = cache_stats.cached_tokens;
    result_.prefix_evictions = cache_stats.evictions;
    result_.peak_cached_blocks = cache_stats.peak_cached_blocks;
    // Drain retained blocks before the end-of-run audit: with the cache
    // empty, a leak-free run must account for every block exactly like the
    // plain paged manager does.
    prefix_cache_->DrainCache();
  }
  if (checker_ != nullptr) {
    checker_->EndRun();
  }
  // Slowdown episodes that overlapped the run, clipped to the last exit so
  // degraded_s measures wall-clock the workload actually spent degraded.
  for (const SlowdownEpisode& episode : options_.slowdowns) {
    if (episode.start_s > last_exit_) {
      break;
    }
    double clipped_end = std::min(episode.end_s, last_exit_);
    ++result_.num_slowdown_episodes;
    result_.degraded_s += clipped_end - episode.start_s;
    if (tracer_ != nullptr) {
      tracer_->Complete("fault", "slowdown", episode.start_s, clipped_end - episode.start_s,
                        num_stages_, {Arg("factor", episode.factor)});
      tracer_->Instant("fault", "degrade_begin", episode.start_s,
                       {Arg("factor", episode.factor)});
      tracer_->Instant("fault", "degrade_end", clipped_end);
    }
    if (metrics_ != nullptr) {
      metrics_->AddCount("slowdown_episodes", episode.start_s);
    }
  }
  if (controller_ != nullptr) {
    result_.overload_transitions = controller_->transitions();
  }
  const IterationCostModel& cost_model = engine_.cost_model();
  result_.num_preemptions = scheduler_->preemption_count() + crash_recomputes_;
  result_.peak_flops = cost_model.PeakFlops();
  result_.peak_bandwidth = cost_model.PeakBandwidth();
  result_.makespan_s = last_exit_;
  result_.active_window_s = first_start_ < 0.0 ? 0.0 : last_exit_ - first_start_;
  result_.total_kv_blocks = allocator_->total_units();
  if (metrics_ != nullptr) {
    metrics_->Finalize(result_.makespan_s);
  }
  if (slo_ != nullptr) {
    // Close out the burn-rate windows so trailing badness still alerts.
    slo_->AdvanceTo(result_.makespan_s);
  }
  return std::move(result_);
}

// The one failed-attempt record: when and why the attempt failed, its
// preemptions and the service it wasted; then its span closes.
void Replica::RecordFailure(size_t idx, double t, FailureKind failure, Waste waste) {
  const RequestState& state = *states_[idx];
  RequestMetrics& request_metrics = result_.requests[idx];
  request_metrics.failed_s = t;
  request_metrics.failure = failure;
  request_metrics.preemptions = state.preemptions();
  request_metrics.wasted_tokens = state.wasted_tokens();
  if (waste == Waste::kAllProgress) {
    request_metrics.wasted_tokens += state.prefill_done() + state.generated();
  }
  MoveSpan(idx, kSpanClosed, t);
}

// Moves request `idx`'s lifecycle span to `phase` at time `t`, closing the
// open child span (and, on kSpanClosed, the request span itself). Cluster
// retry rounds re-dispatch the same request id, so each attempt's span id
// folds in its trace's retry round; round 0 keeps the raw id, and forked
// siblings are always round 0.
void Replica::MoveSpan(size_t idx, uint8_t phase, double t) {
  if (tracer_ == nullptr) {
    return;
  }
  uint8_t current = span_phase_[idx];
  if (current == phase || current == kSpanClosed) {
    return;
  }
  int64_t request_id = result_.requests[idx].id;
  int64_t round = idx < trace_.size() ? trace_.requests[idx].retry_round : 0;
  int64_t id = SpanIdForAttempt(request_id, round);
  if (current == kSpanNone) {
    if (round > 0) {
      tracer_->AsyncBegin("request", "request", id, t,
                          {Arg("request", request_id), Arg("round", round)});
    } else {
      tracer_->AsyncBegin("request", "request", id, t, {Arg("request", request_id)});
    }
  } else {
    tracer_->AsyncEnd("request", kSpanNames[current], id, t);
  }
  if (phase == kSpanClosed) {
    tracer_->AsyncEnd("request", "request", id, t);
  } else {
    tracer_->AsyncBegin("request", kSpanNames[phase], id, t);
  }
  span_phase_[idx] = phase;
}

// Overload mitigations only touch "plain" trace requests. Planned-abort
// carriers, parallel-sampling parents and migrated-in arrivals have
// cluster-coordinated lifecycles (extraction plans, forks, adopted KV) that a
// unilateral shed or truncation would corrupt; forked siblings (slot >=
// trace size) are born running and never shed.
bool Replica::OverloadEligible(size_t idx) const {
  if (idx >= trace_.size()) {
    return false;
  }
  const Request& r = trace_.requests[idx];
  return r.planned_abort == PlannedAbort::kNone && r.num_samples <= 1 &&
         r.restored_generated <= 0;
}

}  // namespace

ReplicaSimulator::ReplicaSimulator(const SimulatorOptions& options) : options_(options) {
  std::shared_ptr<IterationCostModel> cost_model = options_.cost_model;
  if (cost_model == nullptr) {
    cost_model = std::make_shared<IterationCostModel>(options_.model, options_.cluster,
                                                      options_.parallel);
  }
  engine_ = std::make_unique<SimulatedEngine>(std::move(cost_model), options_.reuse_buffers);
}

SimResult ReplicaSimulator::Run(const Trace& trace) {
  Replica replica(options_, *engine_, trace);
  while (replica.Step()) {
  }
  return replica.Finish();
}

}  // namespace sarathi
