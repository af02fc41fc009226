#include "perfbench/src/layer_trace.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <sstream>
#include <type_traits>

#include "perfbench/src/summary.h"
#include "src/engine/execution_engine.h"
#include "src/memory/prefix_cache.h"
#include "src/scheduler/scheduler_factory.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

enum Query : uint8_t {
  kUtilization = 0,
  kUsedUnits,
  kTotalUnits,
  kNumSequences,
  kCachedUnits,
  kAuditInvariants,
  kAuditCache,
};

// Forwards every KvAllocator call to the real allocator, counting it and
// appending it to the operation stream tagged with the replay loop's current
// phase. Adds no behaviour of its own.
class RecordingAllocator final : public sarathi::KvAllocator {
 public:
  RecordingAllocator(sarathi::KvAllocator* inner, OpStream* stream)
      : inner_(inner), stream_(stream) {}

  void set_phase(OpPhase phase) { phase_ = phase; }

  bool CanAdmit(int64_t prompt_len, int64_t max_total_len) const override {
    bool ok = inner_->CanAdmit(prompt_len, max_total_len);
    RecordArgs(OpKind::kCanAdmit, {0, prompt_len, max_total_len, nullptr}, ok);
    return ok;
  }
  bool CanAdmitSeq(sarathi::SeqId id, int64_t prompt_len, int64_t max_total_len) const override {
    bool ok = inner_->CanAdmitSeq(id, prompt_len, max_total_len);
    RecordArgs(OpKind::kCanAdmitSeq, {id, prompt_len, max_total_len, nullptr}, ok);
    return ok;
  }
  void Admit(sarathi::SeqId id, int64_t prompt_len, int64_t max_total_len) override {
    inner_->Admit(id, prompt_len, max_total_len);
    RecordArgs(OpKind::kAdmit, {id, prompt_len, max_total_len, nullptr}, false);
  }
  bool CanAppendToken(sarathi::SeqId id) const override {
    bool ok = inner_->CanAppendToken(id);
    RecordId(OpKind::kCanAppendToken, id, ok);
    return ok;
  }
  void AppendToken(sarathi::SeqId id) override {
    inner_->AppendToken(id);
    RecordId(OpKind::kAppendToken, id, false);
  }
  void Release(sarathi::SeqId id) override {
    inner_->Release(id);
    RecordId(OpKind::kRelease, id, false);
  }
  void ReleaseFinished(sarathi::SeqId id) override {
    inner_->ReleaseFinished(id);
    RecordId(OpKind::kReleaseFinished, id, false);
  }
  void OnRequestDropped(sarathi::SeqId id) override {
    inner_->OnRequestDropped(id);
    RecordId(OpKind::kOnRequestDropped, id, false);
  }
  int64_t cached_units() const override {
    RecordQuery(kCachedUnits);
    return inner_->cached_units();
  }
  double Utilization() const override {
    RecordQuery(kUtilization);
    return inner_->Utilization();
  }
  int64_t used_units() const override {
    RecordQuery(kUsedUnits);
    return inner_->used_units();
  }
  int64_t total_units() const override {
    RecordQuery(kTotalUnits);
    return inner_->total_units();
  }
  int64_t num_sequences() const override {
    RecordQuery(kNumSequences);
    return inner_->num_sequences();
  }
  std::string AuditInvariants() const override {
    RecordQuery(kAuditInvariants);
    return inner_->AuditInvariants();
  }
  std::string AuditCache() const override {
    RecordQuery(kAuditCache);
    return inner_->AuditCache();
  }

  // PinPrefix is not a KvAllocator call: the replay loop invokes it on the
  // prefix-caching allocator directly and records it here.
  void RecordPin(const sarathi::Request& request, int64_t cached) {
    OpPhase saved = phase_;
    phase_ = OpPhase::kPin;
    RecordArgs(OpKind::kPinPrefix, {request.id, request.prompt_tokens, cached, &request}, false);
    phase_ = saved;
  }

  // Ids too large for the compact record; checked once per replay.
  static bool IdFits(int64_t id) {
    return id >= 0 && id <= std::numeric_limits<uint32_t>::max();
  }

 private:
  void Record(OpKind kind, uint32_t arg, bool result, uint8_t query = 0) const {
    AllocatorOp op;
    op.arg = arg;
    op.kind = kind;
    op.phase = phase_;
    op.result = result ? 1 : 0;
    op.query = query;
    stream_->ops.push_back(op);
    ++stream_->counts[static_cast<int>(kind)];
  }
  void RecordId(OpKind kind, sarathi::SeqId id, bool result) const {
    Record(kind, static_cast<uint32_t>(id), result);
  }
  void RecordArgs(OpKind kind, const OpArgs& args, bool result) const {
    stream_->args.push_back(args);
    Record(kind, static_cast<uint32_t>(stream_->args.size() - 1), result);
  }
  void RecordQuery(uint8_t query) const { Record(OpKind::kQuery, 0, false, query); }

  sarathi::KvAllocator* inner_;
  OpStream* stream_;
  OpPhase phase_ = OpPhase::kLoop;
};

sarathi::AllocatorOptions AllocatorOptionsFor(const sarathi::SimulatorOptions& options,
                                              const sarathi::IterationCostModel& cost_model) {
  sarathi::AllocatorOptions allocator_options;
  allocator_options.capacity_tokens =
      options.kv_capacity_tokens > 0 ? options.kv_capacity_tokens : cost_model.MaxKvTokens();
  allocator_options.block_size = options.block_size;
  allocator_options.watermark = options.watermark;
  allocator_options.sliding_window = options.model.sliding_window;
  allocator_options.max_seq_len =
      options.kv_max_seq_len > 0 ? options.kv_max_seq_len : options.model.max_seq_len;
  return allocator_options;
}

// Run degrades kPagedCached to kPaged for sliding-window models.
sarathi::AllocatorKind EffectiveKind(const sarathi::SimulatorOptions& options) {
  if (options.allocator_kind == sarathi::AllocatorKind::kPagedCached &&
      options.model.sliding_window > 0) {
    return sarathi::AllocatorKind::kPaged;
  }
  return options.allocator_kind;
}

std::string Unsupported(const sarathi::SimulatorOptions& options, const sarathi::Trace& trace) {
  if (!options.outages.empty() || !options.slowdowns.empty() ||
      options.jitter_probability > 0.0) {
    return "faults are not replayed";
  }
  if (options.overload.enabled()) {
    return "overload control is not replayed";
  }
  if (!options.reuse_buffers || options.record_iterations) {
    return "only the default fast path is replayed";
  }
  if (options.tracer != nullptr || options.metrics != nullptr || options.flight != nullptr ||
      options.slo != nullptr || options.checker != nullptr) {
    return "observability sinks and the checker are not replayed";
  }
  for (const sarathi::Request& r : trace.requests) {
    if (r.deadline_s > 0.0 || r.num_samples != 1 ||
        r.planned_abort != sarathi::PlannedAbort::kNone || r.restored_generated > 0) {
      return "request " + std::to_string(r.id) +
             " needs deadlines, sampling, planned aborts or migration";
    }
    if (!RecordingAllocator::IdFits(r.id)) {
      return "request id " + std::to_string(r.id) + " does not fit the op record";
    }
  }
  return "";
}

struct InFlight {
  sarathi::ScheduledBatch batch;
  double start_s = 0.0;
  double exit_s = 0.0;
};

// Times `fn` into `*acc` when `timed`, else just calls it.
template <typename Fn>
auto Span(bool timed, double* acc, Fn&& fn) {
  if (!timed) {
    return fn();
  }
  Clock::time_point t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    *acc += Seconds(t0, Clock::now());
  } else {
    auto value = fn();
    *acc += Seconds(t0, Clock::now());
    return value;
  }
}

}  // namespace

LayerTimes& LayerTimes::operator+=(const LayerTimes& other) {
  loop_s += other.loop_s;
  enqueue_s += other.enqueue_s;
  pin_s += other.pin_s;
  schedule_s += other.schedule_s;
  complete_s += other.complete_s;
  cost_s += other.cost_s;
  enqueue_calls += other.enqueue_calls;
  schedule_calls += other.schedule_calls;
  complete_calls += other.complete_calls;
  cost_calls += other.cost_calls;
  cost_cache_hits += other.cost_cache_hits;
  cost_cache_lookups += other.cost_cache_lookups;
  batch_tokens += other.batch_tokens;
  batch_seqs += other.batch_seqs;
  return *this;
}

AllocatorReplayTimes& AllocatorReplayTimes::operator+=(const AllocatorReplayTimes& other) {
  total_s += other.total_s;
  for (int p = 0; p < static_cast<int>(OpPhase::kNumPhases); ++p) {
    phase_s[p] += other.phase_s[p];
  }
  return *this;
}

std::string ReplayReplica(const sarathi::SimulatorOptions& options, const sarathi::Trace& trace,
                          bool timed, ReplayOutput* out) {
  std::string unsupported = Unsupported(options, trace);
  if (!unsupported.empty()) {
    return unsupported;
  }
  std::shared_ptr<sarathi::IterationCostModel> cost_model = options.cost_model;
  if (cost_model == nullptr) {
    cost_model = std::make_shared<sarathi::IterationCostModel>(options.model, options.cluster,
                                                               options.parallel);
  }
  sarathi::SimulatedEngine engine(cost_model, /*reuse_buffers=*/true);
  const int num_stages = engine.num_stages();

  std::unique_ptr<sarathi::KvAllocator> allocator =
      sarathi::MakeAllocator(EffectiveKind(options), options.scheduler.policy,
                             AllocatorOptionsFor(options, *cost_model));
  auto* prefix_cache = dynamic_cast<sarathi::PrefixCachingAllocator*>(allocator.get());
  out->stream = OpStream();
  RecordingAllocator recorder(allocator.get(), &out->stream);
  std::unique_ptr<sarathi::Scheduler> scheduler =
      sarathi::MakeScheduler(options.scheduler, &recorder);

  LayerTimes& times = out->times;
  times = LayerTimes();
  sarathi::SimResult& result = out->result;
  result = sarathi::SimResult();
  result.scheduler_name = scheduler->name();
  result.stage_busy_s.assign(static_cast<size_t>(num_stages), 0.0);
  result.requests.resize(trace.size());
  std::vector<std::unique_ptr<sarathi::RequestState>> states;
  states.reserve(trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    const sarathi::Request& request = trace.requests[i];
    states.push_back(std::make_unique<sarathi::RequestState>(request));
    states.back()->set_slot(static_cast<int64_t>(i));
    sarathi::RequestMetrics& metrics = result.requests[i];
    metrics.id = request.id;
    metrics.arrival_s = request.arrival_time_s;
    metrics.deadline_s = request.deadline_s;
    metrics.qos = request.qos;
    metrics.token_times_s.reserve(
        static_cast<size_t>(std::max<int64_t>(0, request.output_tokens)));
  }
  const sarathi::CostCacheStats cache_before = cost_model->cache_stats();

  std::vector<double> stage_free(static_cast<size_t>(num_stages), 0.0);
  std::vector<InFlight> in_flight;
  size_t next_arrival = 0;
  double now = 0.0;
  double first_start = -1.0;
  double last_exit = 0.0;

  auto deliver_arrivals = [&](double upto) {
    while (next_arrival < trace.size() && trace.requests[next_arrival].arrival_time_s <= upto) {
      const sarathi::Request& request = trace.requests[next_arrival];
      sarathi::RequestState* state = states[next_arrival].get();
      if (prefix_cache != nullptr && request.token_ids != nullptr) {
        int64_t cached = Span(timed, &times.pin_s, [&] {
          return prefix_cache->PinPrefix(request.id, request.token_ids, request.prompt_tokens);
        });
        recorder.RecordPin(request, cached);
        if (cached > 0) {
          state->ApplyCachedPrefix(cached);
          result.requests[next_arrival].cached_prefill_tokens = cached;
        }
      }
      recorder.set_phase(OpPhase::kEnqueue);
      Span(timed, &times.enqueue_s, [&] { scheduler->Enqueue(state); });
      recorder.set_phase(OpPhase::kLoop);
      ++times.enqueue_calls;
      ++next_arrival;
    }
  };

  auto deliver_completions = [&](double upto) {
    while (true) {
      size_t best = in_flight.size();
      for (size_t i = 0; i < in_flight.size(); ++i) {
        if (in_flight[i].exit_s <= upto &&
            (best == in_flight.size() || in_flight[i].exit_s < in_flight[best].exit_s)) {
          best = i;
        }
      }
      if (best == in_flight.size()) {
        return;
      }
      InFlight done = std::move(in_flight[best]);
      in_flight.erase(in_flight.begin() + static_cast<long>(best));
      for (const sarathi::BatchItem& item : done.batch.items) {
        sarathi::RequestMetrics& metrics =
            result.requests[static_cast<size_t>(item.request->slot())];
        if (item.is_decode ||
            item.request->prefill_done() + item.num_tokens == item.request->prefill_target()) {
          metrics.token_times_s.push_back(done.exit_s);
          ++result.total_output_tokens;
        }
        item.request->set_locked(false);
      }
      recorder.set_phase(OpPhase::kComplete);
      Span(timed, &times.complete_s, [&] {
        scheduler->ObserveIterationTime(done.batch, done.exit_s - done.start_s);
        scheduler->OnBatchComplete(done.batch);
      });
      recorder.set_phase(OpPhase::kLoop);
      ++times.complete_calls;
      result.peak_kv_blocks = std::max(result.peak_kv_blocks, recorder.used_units());
      for (const sarathi::BatchItem& item : done.batch.items) {
        if (item.request->finished()) {
          sarathi::RequestMetrics& metrics =
              result.requests[static_cast<size_t>(item.request->slot())];
          metrics.completion_s = done.exit_s;
          metrics.preemptions = item.request->preemptions();
          metrics.wasted_tokens = item.request->wasted_tokens();
        }
      }
      Span(timed, &times.complete_s, [&] { scheduler->RecycleBatch(std::move(done.batch)); });
    }
  };

  Clock::time_point loop_start = Clock::now();
  while (true) {
    now = std::max(now, stage_free[0]);
    deliver_completions(now);
    deliver_arrivals(now);
    recorder.set_phase(OpPhase::kSchedule);
    sarathi::ScheduledBatch batch =
        Span(timed, &times.schedule_s, [&] { return scheduler->Schedule(); });
    recorder.set_phase(OpPhase::kLoop);
    ++times.schedule_calls;
    result.peak_kv_blocks = std::max(result.peak_kv_blocks, recorder.used_units());
    if (batch.empty()) {
      double next_event = std::numeric_limits<double>::infinity();
      if (next_arrival < trace.size()) {
        next_event = trace.requests[next_arrival].arrival_time_s;
      }
      for (const InFlight& f : in_flight) {
        next_event = std::min(next_event, f.exit_s);
      }
      if (next_event == std::numeric_limits<double>::infinity()) {
        if (scheduler->HasWork()) {
          return "scheduler deadlocked with work left";
        }
        break;
      }
      now = std::max(now, next_event);
      continue;
    }
    ++result.num_iterations;
    if (result.num_iterations > options.max_iterations) {
      return "runaway scheduling loop";
    }
    double iter_flops = 0.0;
    double iter_bytes = 0.0;
    double stage_time = Span(timed, &times.cost_s, [&] {
      return engine.StageTimeAndTotals(batch, &iter_flops, &iter_bytes);
    });
    ++times.cost_calls;
    times.batch_tokens += batch.TotalTokens();
    times.batch_seqs += static_cast<int64_t>(batch.items.size());
    double start = now;
    double enter = start;
    for (int s = 0; s < num_stages; ++s) {
      double stage_start = std::max(stage_free[static_cast<size_t>(s)], enter);
      result.stage_busy_s[static_cast<size_t>(s)] += stage_time;
      enter = stage_start + stage_time;
      stage_free[static_cast<size_t>(s)] = enter;
    }
    if (first_start < 0.0) {
      first_start = start;
    }
    last_exit = std::max(last_exit, enter);
    result.total_prefill_tokens += batch.NumPrefillTokens();
    result.total_flops += iter_flops;
    result.total_bytes += iter_bytes;
    for (const sarathi::BatchItem& item : batch.items) {
      item.request->set_locked(true);
      sarathi::RequestMetrics& metrics = result.requests[static_cast<size_t>(item.request->slot())];
      if (metrics.first_scheduled_s < 0.0) {
        metrics.first_scheduled_s = start;
      }
    }
    in_flight.push_back(InFlight{std::move(batch), start, enter});
  }
  times.loop_s = Seconds(loop_start, Clock::now());

  const sarathi::CostCacheStats& cache_after = cost_model->cache_stats();
  times.cost_cache_hits = cache_after.Hits() - cache_before.Hits();
  times.cost_cache_lookups =
      times.cost_cache_hits + cache_after.Misses() - cache_before.Misses();
  if (prefix_cache != nullptr) {
    const sarathi::PrefixCachingAllocator::CacheStats& stats = prefix_cache->stats();
    result.prefix_lookups = stats.lookups;
    result.prefix_hits = stats.hits;
    result.cached_prefill_tokens = stats.cached_tokens;
    result.prefix_evictions = stats.evictions;
    result.peak_cached_blocks = stats.peak_cached_blocks;
    prefix_cache->DrainCache();
  }
  result.num_preemptions = scheduler->preemption_count();
  result.peak_flops = cost_model->PeakFlops();
  result.peak_bandwidth = cost_model->PeakBandwidth();
  result.makespan_s = last_exit;
  result.active_window_s = first_start < 0.0 ? 0.0 : last_exit - first_start;
  result.total_kv_blocks = allocator->total_units();
  return "";
}

std::string ReplayAllocatorOps(const sarathi::SimulatorOptions& options, const OpStream& stream,
                               AllocatorReplayTimes* times) {
  sarathi::IterationCostModel cost_model(options.model, options.cluster, options.parallel);
  std::unique_ptr<sarathi::KvAllocator> allocator = sarathi::MakeAllocator(
      EffectiveKind(options), options.scheduler.policy, AllocatorOptionsFor(options, cost_model));
  auto* prefix_cache = dynamic_cast<sarathi::PrefixCachingAllocator*>(allocator.get());
  *times = AllocatorReplayTimes();
  size_t mismatches = 0;
  size_t first_mismatch = 0;

  // Ops issued from one replay-loop call form a contiguous run of one phase;
  // each run is timed as a whole.
  size_t i = 0;
  const size_t n = stream.ops.size();
  while (i < n) {
    const OpPhase phase = stream.ops[i].phase;
    Clock::time_point t0 = Clock::now();
    for (; i < n && stream.ops[i].phase == phase; ++i) {
      const AllocatorOp& op = stream.ops[i];
      bool ok = false;
      bool probe = false;
      switch (op.kind) {
        case OpKind::kCanAdmit: {
          const OpArgs& a = stream.args[op.arg];
          ok = allocator->CanAdmit(a.a, a.b);
          probe = true;
          break;
        }
        case OpKind::kCanAdmitSeq: {
          const OpArgs& a = stream.args[op.arg];
          ok = allocator->CanAdmitSeq(a.id, a.a, a.b);
          probe = true;
          break;
        }
        case OpKind::kAdmit: {
          const OpArgs& a = stream.args[op.arg];
          allocator->Admit(a.id, a.a, a.b);
          break;
        }
        case OpKind::kCanAppendToken:
          ok = allocator->CanAppendToken(op.arg);
          probe = true;
          break;
        case OpKind::kAppendToken:
          allocator->AppendToken(op.arg);
          break;
        case OpKind::kRelease:
          allocator->Release(op.arg);
          break;
        case OpKind::kReleaseFinished:
          allocator->ReleaseFinished(op.arg);
          break;
        case OpKind::kOnRequestDropped:
          allocator->OnRequestDropped(op.arg);
          break;
        case OpKind::kPinPrefix: {
          const OpArgs& a = stream.args[op.arg];
          int64_t cached = prefix_cache == nullptr
                               ? -1
                               : prefix_cache->PinPrefix(a.id, a.request->token_ids, a.a);
          if (cached != a.b && mismatches++ == 0) {
            first_mismatch = i;
          }
          break;
        }
        case OpKind::kQuery:
          switch (op.query) {
            case kUtilization:
              allocator->Utilization();
              break;
            case kUsedUnits:
              allocator->used_units();
              break;
            case kTotalUnits:
              allocator->total_units();
              break;
            case kNumSequences:
              allocator->num_sequences();
              break;
            case kCachedUnits:
              allocator->cached_units();
              break;
            case kAuditInvariants:
              allocator->AuditInvariants();
              break;
            default:
              allocator->AuditCache();
              break;
          }
          break;
        default:
          break;
      }
      if (probe && ok != (op.result != 0) && mismatches++ == 0) {
        first_mismatch = i;
      }
    }
    double elapsed = Seconds(t0, Clock::now());
    times->phase_s[static_cast<int>(phase)] += elapsed;
    times->total_s += elapsed;
  }
  if (mismatches > 0) {
    std::ostringstream message;
    message << mismatches
            << " allocator operations returned differently in the bulk replay, first at op "
            << first_mismatch;
    return message.str();
  }
  return "";
}

std::string CompareRuns(const sarathi::SimResult& expected, const sarathi::SimResult& actual) {
  std::ostringstream message;
  if (expected.num_iterations != actual.num_iterations) {
    message << "iterations " << actual.num_iterations << " != " << expected.num_iterations;
    return message.str();
  }
  if (expected.requests.size() != actual.requests.size()) {
    message << "requests " << actual.requests.size() << " != " << expected.requests.size();
    return message.str();
  }
  for (size_t i = 0; i < expected.requests.size(); ++i) {
    if (expected.requests[i].token_times_s != actual.requests[i].token_times_s) {
      message << "token times of request " << expected.requests[i].id << " differ";
      return message.str();
    }
  }
  if (RequestTelemetry(expected) != RequestTelemetry(actual)) {
    return "per-request telemetry differs";
  }
  return "";
}

}  // namespace perfbench
