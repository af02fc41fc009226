// The simulator benchmark: one command per workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--commit <id>]
//
// --trace 0 measures the end-to-end metrics: set-up time, host time per
// simulated request bare, with the invariant checker (on a leading slice)
// and with every observability sink attached, peak RSS, and the simulated
// serving metrics. --trace 1 measures the per-layer metrics from outside the
// program (see layer_trace.h). Both check the program's outputs; the last line
// of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A failed correctness gate counts the requests of its leg as failed and
// makes the command exit with status 1.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/layer_trace.h"
#include "perfbench/src/summary.h"
#include "perfbench/src/workloads.h"
#include "src/common/thread_pool.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0.0) || args->seconds > 600.0) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1" ? 1 : 0;
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  if (argc % 2 == 0 || args->trace < 0 || args->seconds <= 0.0) {
    return false;
  }
  const auto& names = WorkloadNames();
  return std::find(names.begin(), names.end(), args->workload) != names.end();
}

// Metrics in print order, each with its unit.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, {value, unit}});
  }
  // Marks `requests` requests of a leg as failed, with the reason on stderr.
  void Fail(const std::string& leg, const std::string& why, int64_t requests) {
    std::cerr << "FAIL [" << leg << "]: " << why << "\n";
    failed_ += requests;
    correct_ = false;
  }
  void Attempt(int64_t requests) { attempted_ += requests; }
  bool correct() const { return correct_; }

  void Print() const {
    std::string json = "{\"correct\": ";
    json += correct_ ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      double v = metrics_[i].second.first;
      std::snprintf(value, sizeof(value), "%.17g", std::isfinite(v) ? v : 0.0);
      json += (i > 0 ? ", \"" : "\"") + metrics_[i].first + "\": {\"value\": " + value +
              ", \"unit\": \"" + metrics_[i].second.second + "\"}";
    }
    json += "}}";
    std::cout << json << std::endl;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// Seed of a run's k-th trace: the runs of different seeds share no trace.
uint64_t TraceSeed(const WorkloadConfig& config, uint64_t seed, int k) {
  return seed * static_cast<uint64_t>(config.traces_per_run) + static_cast<uint64_t>(k);
}

// Calls `fn` (which returns the seconds it measured) `reps` times.
template <typename Fn>
std::vector<double> Repeat(int reps, Fn&& fn) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    samples.push_back(fn());
  }
  return samples;
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

// ---- --trace 0: end-to-end metrics ----

// Wall time of one run of `trace` with `sinks` (rendered when any is set).
// Constructing the simulator is set-up and is not timed.
double TimeRun(const WorkloadConfig& config, const sarathi::Trace& trace, const Sinks& sinks) {
  WorkloadSim sim(config, sinks);
  Clock::time_point t0 = Clock::now();
  sim.Run(trace);
  RenderSinks(sinks);
  return Since(t0);
}

// Mean seconds of one bare run of `trace`, over `reps` runs.
double BareSeconds(const WorkloadConfig& config, const sarathi::Trace& trace, int reps) {
  double total = 0.0;
  for (int i = 0; i < reps; ++i) {
    total += TimeRun(config, trace, Sinks{});
  }
  return total / reps;
}

// Runs of a bare slice needed to measure at least 0.1 s, from one run.
int RepsFor(double seconds) { return std::clamp(static_cast<int>(0.1 / seconds) + 1, 1, 50); }

// One of the run's traces, with its slices and what its first visit found.
struct TraceState {
  sarathi::Trace trace;
  sarathi::Trace checked;
  sarathi::Trace observed;
  std::string telemetry;
  std::string observed_telemetry;
  int checked_reps = 1;
  int observed_reps = 1;
  SimSummary summary;
};

void RunEndToEnd(const WorkloadConfig& config, const Args& args, Report* report) {
  const double tbt_limit_s = StrictTbtSlo(config);

  // Set-up: trace generation plus simulator construction, timed per trace
  // and again every round.
  std::vector<TraceState> states(static_cast<size_t>(config.traces_per_run));
  std::vector<double> setups;
  auto setup = [&](int k) {
    Clock::time_point t0 = Clock::now();
    states[static_cast<size_t>(k)].trace =
        GenerateWorkloadTrace(config, TraceSeed(config, args.seed, k));
    WorkloadSim sim(config, Sinks{});
    setups.push_back(Since(t0));
  };
  for (int k = 0; k < config.traces_per_run; ++k) {
    setup(k);
    TraceState& state = states[static_cast<size_t>(k)];
    state.checked = LeadingSlice(state.trace, config.checked_slice);
    state.observed = LeadingSlice(state.trace, config.observed_slice);
    report->Attempt(static_cast<int64_t>(state.trace.size() + state.checked.size() +
                                         state.observed.size()));
  }
  // Warm-up, and the reference the first bare visit must reproduce.
  states[0].telemetry = RequestTelemetry(WorkloadSim(config, Sinks{}).Run(states[0].trace));

  // The three legs, each sampling host microseconds per request of the whole
  // trace:
  //  - bare: simulate the whole trace and compute its summaries.
  //  - checked: a fixed leading slice with an InvariantChecker attached. The
  //    checker's cost per simulated iteration, against a bare run of the same
  //    slice, is charged to every iteration the whole trace simulates: a
  //    short slice's cost per request swings by 25% from seed to seed with its
  //    share of long outputs, while the checker's cost per iteration does not.
  //  - observed: tracer, metrics registry, flight recorder and SLO monitor,
  //    outputs rendered to memory, on a leading slice; their overhead over a
  //    bare run of the same slice scales the trace's bare cost.
  // A trace's first visit by each leg carries that leg's correctness gates.
  std::vector<double> bare_us;
  std::vector<double> checked_us;
  std::vector<double> observed_us;
  struct BareRun {
    double seconds = 0.0;
    double iterations = 0.0;  // Simulated, kept or not.
  };
  auto bare_leg = [&](int k, bool first) {
    TraceState& state = states[static_cast<size_t>(k)];
    const double n = static_cast<double>(state.trace.size());
    WorkloadSim sim(config, Sinks{});
    const int64_t iterations_before = sim.SimulatedIterations();
    Clock::time_point t0 = Clock::now();
    sarathi::SimResult result = sim.Run(state.trace);
    SimSummary summary = Summarize(result, static_cast<int64_t>(n), kTtftLimitS, tbt_limit_s);
    BareRun bare{Since(t0),
                 static_cast<double>(sim.SimulatedIterations() - iterations_before)};
    bare_us.push_back(bare.seconds * 1e6 / n);
    if (first) {
      state.summary = summary;
      std::string problem = CheckResult(result, state.trace);
      std::string telemetry = RequestTelemetry(result);
      if (!problem.empty()) {
        report->Fail("bare", problem, static_cast<int64_t>(n));
      } else if (k == 0 && telemetry != state.telemetry) {
        report->Fail("bare", "two runs of the same trace differ", static_cast<int64_t>(n));
      }
      state.observed_telemetry =
          RequestTelemetry(WorkloadSim(config, Sinks{}).Run(state.observed));
      state.checked_reps = RepsFor(BareSeconds(config, state.checked, 1));
      state.observed_reps = RepsFor(BareSeconds(config, state.observed, 1));
    }
    return bare;
  };

  // Every trace's first bare visit comes before any checked or observed leg,
  // so that peak RSS is the bare simulator's own, not the sinks' output.
  Clock::time_point start = Clock::now();
  for (int k = 0; k < config.traces_per_run; ++k) {
    bare_leg(k, /*first=*/true);
  }
  const double peak_rss_mb = PeakRssMiB();

  // Rounds then visit the traces in turn, running the three legs once on each
  // trace, so every median mixes traces and samples the host across the whole
  // window.
  for (int round = 0; round < config.traces_per_run || Since(start) < args.seconds; ++round) {
    const int k = round % config.traces_per_run;
    const bool first = round < config.traces_per_run;
    TraceState& state = states[static_cast<size_t>(k)];
    const double n = static_cast<double>(state.trace.size());
    const BareRun bare = bare_leg(k, /*first=*/false);

    sarathi::InvariantChecker checker;
    Sinks checked_sinks;
    checked_sinks.checker = &checker;
    WorkloadSim checked_sim(config, checked_sinks);
    Clock::time_point t0 = Clock::now();
    checked_sim.Run(state.checked);
    const double checked_s = Since(t0);
    if (first && !checker.ok()) {
      report->Fail("checked", checker.Report(), static_cast<int64_t>(state.checked.size()));
    }
    const double per_iteration_s =
        std::max(0.0, checked_s - BareSeconds(config, state.checked, state.checked_reps)) /
        static_cast<double>(std::max<int64_t>(checker.iterations_checked(), 1));
    checked_us.push_back((bare.seconds + per_iteration_s * bare.iterations) * 1e6 / n);

    sarathi::Tracer tracer;
    sarathi::MetricsRegistry metrics;
    sarathi::FlightRecorder flight;
    sarathi::SloMonitor slo;
    AddSloPolicies(config, &slo);
    Sinks sinks{&tracer, &metrics, &flight, &slo, nullptr};
    WorkloadSim observed_sim(config, sinks);
    t0 = Clock::now();
    sarathi::SimResult observed = observed_sim.Run(state.observed);
    Summarize(observed, static_cast<int64_t>(state.observed.size()), kTtftLimitS, tbt_limit_s);
    const size_t rendered = RenderSinks(sinks);
    const double observed_s = Since(t0);
    if (first && (rendered == 0 || RequestTelemetry(observed) != state.observed_telemetry)) {
      report->Fail("observed", "telemetry with sinks attached differs from the bare run",
                   static_cast<int64_t>(state.observed.size()));
    }
    observed_us.push_back(bare.seconds * 1e6 / n * observed_s /
                          BareSeconds(config, state.observed, state.observed_reps));

    setup(k);
  }

  std::vector<sarathi::Trace> traces;
  for (const TraceState& state : states) {
    traces.push_back(state.trace);
  }
  const double capacity_qps = FindCapacityQps(config, traces, args.seed);

  // The simulated metrics repeat exactly per trace; report their median over
  // the run's traces.
  auto sim_median = [&](double SimSummary::*field) {
    std::vector<double> values;
    for (const TraceState& state : states) {
      values.push_back(state.summary.*field);
    }
    return Median(values);
  };
  report->Add("setup_s", Median(setups), "s");
  report->Add("host_us_per_req", Median(bare_us), "us");
  report->Add("host_us_per_req_checked", Median(checked_us), "us");
  report->Add("host_us_per_req_observed", Median(observed_us), "us");
  report->Add("peak_rss_mb", peak_rss_mb, "MiB");
  report->Add("sim_ttft_p50_s", sim_median(&SimSummary::ttft_p50_s), "s");
  report->Add("sim_ttft_p99_s", sim_median(&SimSummary::ttft_p99_s), "s");
  report->Add("sim_tbt_p99_s", sim_median(&SimSummary::tbt_p99_s), "s");
  report->Add("sim_output_tok_per_s", sim_median(&SimSummary::output_tok_per_s), "tok/s");
  report->Add("sim_goodput_frac", sim_median(&SimSummary::goodput_frac), "ratio");
  report->Add("sim_slo_attain_frac", sim_median(&SimSummary::slo_attain_frac), "ratio");
  report->Add("sim_capacity_qps", capacity_qps, "req/s");
}

// ---- --trace 1: per-layer metrics, measured from outside ----

void RunLayers(const WorkloadConfig& config, const Args& args, Report* report) {
  const double tbt_limit_s = StrictTbtSlo(config);
  sarathi::Trace trace;
  std::vector<double> generation = Repeat(5, [&] {
    Clock::time_point t0 = Clock::now();
    trace = GenerateWorkloadTrace(config, TraceSeed(config, args.seed, 0));
    return Since(t0);
  });
  const int64_t n = static_cast<int64_t>(trace.size());
  report->Attempt(n);

  // The workload's own run at jobs=1, counting every iteration it simulates;
  // its wall time is the base of cluster.wall_amplification and shard.speedup.
  WorkloadConfig serial = config;
  serial.cluster.jobs = 1;
  CountedRun counted = RunCounted(serial, trace);
  const sarathi::SimResult& result = counted.result;
  std::string problem = CheckResult(result, trace);
  if (!problem.empty()) {
    report->Fail("workload", problem, n);
  }
  std::vector<double> summaries = Repeat(3, [&] {
    Clock::time_point s0 = Clock::now();
    Summarize(result, n, kTtftLimitS, tbt_limit_s);
    return Since(s0);
  });

  // Per-replica runs: the whole trace for a replica workload; for a cluster,
  // each replica's initial sub-trace (its first routing assignment), run
  // alone and fault-free.
  std::vector<sarathi::Trace> subtraces;
  if (config.is_cluster) {
    subtraces.resize(static_cast<size_t>(config.cluster.num_replicas));
    for (size_t i = 0; i < counted.assignment.size(); ++i) {
      if (counted.assignment[i] >= 0) {
        subtraces[static_cast<size_t>(counted.assignment[i])].requests.push_back(
            trace.requests[i]);
      }
    }
    std::erase_if(subtraces, [](const sarathi::Trace& t) { return t.empty(); });
  } else {
    subtraces.push_back(trace);
  }
  LayerTimes times;
  AllocatorReplayTimes allocator_times;
  int64_t op_counts[static_cast<int>(OpKind::kNumKinds)] = {};
  int64_t ops = 0;
  int64_t replayed_iterations = 0;
  double alone_s = 0.0;
  double untraced_loop_s = 0.0;
  for (const sarathi::Trace& sub : subtraces) {
    Clock::time_point a0 = Clock::now();
    sarathi::SimResult alone = sarathi::ReplicaSimulator(config.replica()).Run(sub);
    alone_s += Since(a0);
    ReplayOutput untraced;
    std::string why = ReplayReplica(config.replica(), sub, /*timed=*/false, &untraced);
    if (why.empty()) {
      why = CompareRuns(alone, untraced.result);
    }
    ReplayOutput replay;
    if (why.empty()) {
      why = ReplayReplica(config.replica(), sub, /*timed=*/true, &replay);
    }
    if (why.empty()) {
      why = CompareRuns(alone, replay.result);
    }
    AllocatorReplayTimes sub_times;
    if (why.empty()) {
      why = ReplayAllocatorOps(config.replica(), replay.stream, &sub_times);
    }
    if (!why.empty()) {
      report->Fail("replay", why, n);
      break;
    }
    times += replay.times;
    untraced_loop_s += untraced.times.loop_s;
    allocator_times += sub_times;
    for (int k = 0; k < static_cast<int>(OpKind::kNumKinds); ++k) {
      op_counts[k] += replay.stream.counts[k];
    }
    ops += static_cast<int64_t>(replay.stream.ops.size());
    replayed_iterations += replay.result.num_iterations;
  }
  auto phase_s = [&](OpPhase p) { return allocator_times.phase_s[static_cast<int>(p)]; };
  auto count = [&](OpKind k) { return static_cast<double>(op_counts[static_cast<int>(k)]); };
  const double schedule_self = std::max(0.0, times.schedule_s - phase_s(OpPhase::kSchedule));
  const double complete_self = std::max(0.0, times.complete_s - phase_s(OpPhase::kComplete));
  const double enqueue_self = std::max(0.0, times.enqueue_s - phase_s(OpPhase::kEnqueue));
  const double scheduler_self = schedule_self + complete_self + enqueue_self;
  const double loop_self =
      std::max(0.0, times.loop_s - times.schedule_s - times.complete_s - times.enqueue_s -
                        times.pin_s - times.cost_s - phase_s(OpPhase::kLoop));
  // Shares of the sum of self times: the traced loop with its clock reads
  // and recording replaced by the allocator's bulk-replay time.
  const double self_total = loop_self + scheduler_self + allocator_times.total_s + times.cost_s;

  // Checked slice: bare against checker-attached.
  sarathi::Trace checked_trace = LeadingSlice(trace, config.checked_slice);
  const double checked_bare_s =
      BareSeconds(config, checked_trace, RepsFor(BareSeconds(config, checked_trace, 1)));
  sarathi::InvariantChecker checker;
  Sinks checked_sinks;
  checked_sinks.checker = &checker;
  const double checked_s = TimeRun(config, checked_trace, checked_sinks);
  if (!checker.ok()) {
    report->Fail("checked", checker.Report(), static_cast<int64_t>(checked_trace.size()));
  }

  // Each observability sink alone against a bare run.
  sarathi::Trace observed_trace = LeadingSlice(trace, config.observed_slice);
  const double observed_bare_s =
      BareSeconds(config, observed_trace, RepsFor(BareSeconds(config, observed_trace, 1)));
  sarathi::Tracer tracer;
  Sinks tracer_sinks;
  tracer_sinks.tracer = &tracer;
  const double tracer_s = TimeRun(config, observed_trace, tracer_sinks);
  sarathi::MetricsRegistry metrics;
  Sinks metrics_sinks;
  metrics_sinks.metrics = &metrics;
  const double metrics_s = TimeRun(config, observed_trace, metrics_sinks);
  sarathi::FlightRecorder flight;
  Sinks flight_sinks;
  flight_sinks.flight = &flight;
  const double flight_s = TimeRun(config, observed_trace, flight_sinks);
  sarathi::SloMonitor slo;
  AddSloPolicies(config, &slo);
  Sinks slo_sinks;
  slo_sinks.slo = &slo;
  const double slo_s = TimeRun(config, observed_trace, slo_sinks);

  // Sharding: jobs=1 against jobs=nproc on the cluster workloads.
  double speedup = 1.0;
  if (config.is_cluster) {
    WorkloadConfig parallel = config;
    parallel.cluster.jobs = sarathi::ResolveJobs(0);
    speedup = Ratio(counted.wall_s, TimeRun(parallel, trace, Sinks{}));
  }

  int64_t attempts = n - result.num_shed + result.TotalRetries() + result.timeout_retries +
                     result.hedges_issued + result.partition_redispatches +
                     result.drain_failovers + result.migrations;
  int64_t prompt_tokens = 0;
  for (const sarathi::Request& r : trace.requests) {
    prompt_tokens += r.prompt_tokens;
  }
  const double iterations = static_cast<double>(std::max<int64_t>(times.cost_calls, 1));

  report->Add("perfmodel.calls", static_cast<double>(times.cost_calls), "count");
  report->Add("perfmodel.ns_per_call", times.cost_s * 1e9 / iterations, "ns");
  report->Add("perfmodel.share", Ratio(times.cost_s, self_total), "ratio");
  report->Add("perfmodel.cache_hit_rate",
              Ratio(static_cast<double>(times.cost_cache_hits),
                    static_cast<double>(times.cost_cache_lookups)),
              "ratio");
  report->Add("scheduler.schedule.calls", static_cast<double>(times.schedule_calls), "count");
  report->Add("scheduler.schedule.ns_per_call",
              schedule_self * 1e9 / static_cast<double>(std::max<int64_t>(times.schedule_calls, 1)),
              "ns");
  report->Add("scheduler.complete.ns_per_call",
              complete_self * 1e9 / static_cast<double>(std::max<int64_t>(times.complete_calls, 1)),
              "ns");
  report->Add("scheduler.enqueue.ns_per_call",
              enqueue_self * 1e9 / static_cast<double>(std::max<int64_t>(times.enqueue_calls, 1)),
              "ns");
  report->Add("scheduler.share", Ratio(scheduler_self, self_total), "ratio");
  report->Add("scheduler.batch_tokens_mean", static_cast<double>(times.batch_tokens) / iterations,
              "tokens");
  report->Add("scheduler.batch_seqs_mean", static_cast<double>(times.batch_seqs) / iterations,
              "seqs");
  report->Add("scheduler.preemptions", static_cast<double>(result.num_preemptions), "count");
  report->Add("scheduler.queue_wait_p50_s", result.MedianSchedulingDelay(), "s");
  report->Add("memory.admit.calls", count(OpKind::kAdmit), "count");
  report->Add("memory.can_append.calls", count(OpKind::kCanAppendToken), "count");
  report->Add("memory.append.calls", count(OpKind::kAppendToken), "count");
  report->Add("memory.release.calls", count(OpKind::kRelease) + count(OpKind::kReleaseFinished),
              "count");
  report->Add("memory.pin.calls", count(OpKind::kPinPrefix), "count");
  report->Add("memory.ns_per_op",
              allocator_times.total_s * 1e9 / static_cast<double>(std::max<int64_t>(ops, 1)), "ns");
  report->Add("memory.share", Ratio(allocator_times.total_s, self_total), "ratio");
  report->Add("memory.kv_peak_util", result.PeakKvUtilization(), "ratio");
  report->Add("memory.prefix_hit_rate",
              Ratio(static_cast<double>(result.prefix_hits),
                    static_cast<double>(result.prefix_lookups)),
              "ratio");
  report->Add("memory.prefix_cached_token_share",
              Ratio(static_cast<double>(result.cached_prefill_tokens),
                    static_cast<double>(prompt_tokens)),
              "ratio");
  report->Add("memory.prefix_evictions", static_cast<double>(result.prefix_evictions), "count");
  report->Add("replica.iterations", static_cast<double>(replayed_iterations), "count");
  report->Add("replica.ns_per_iteration",
              alone_s * 1e9 / static_cast<double>(std::max<int64_t>(replayed_iterations, 1)), "ns");
  report->Add("replica.loop_self_share", Ratio(loop_self, self_total), "ratio");
  report->Add("cluster.iter_amplification",
              Ratio(static_cast<double>(counted.simulated_iterations),
                    static_cast<double>(result.num_iterations)),
              "x");
  report->Add("cluster.wall_amplification", Ratio(counted.wall_s, alone_s), "x");
  report->Add("cluster.replica_runs", static_cast<double>(checker.runs_checked()), "count");
  report->Add("cluster.attempts_per_request",
              Ratio(static_cast<double>(attempts), static_cast<double>(n)), "x");
  report->Add("shard.speedup", speedup, "x");
  report->Add("verify.overhead_x", Ratio(checked_s, checked_bare_s), "x");
  report->Add("verify.iterations_checked", static_cast<double>(checker.iterations_checked()),
              "count");
  report->Add("verify.us_per_iteration",
              (checked_s - checked_bare_s) * 1e6 /
                  static_cast<double>(std::max<int64_t>(checker.iterations_checked(), 1)),
              "us");
  report->Add("obs.tracer.overhead_x", Ratio(tracer_s, observed_bare_s), "x");
  report->Add("obs.metrics.overhead_x", Ratio(metrics_s, observed_bare_s), "x");
  report->Add("obs.flight.overhead_x", Ratio(flight_s, observed_bare_s), "x");
  report->Add("obs.slo.overhead_x", Ratio(slo_s, observed_bare_s), "x");
  report->Add("obs.tracer.events", static_cast<double>(tracer.size()), "count");
  report->Add("report.summary_s", Median(summaries), "s");
  report->Add("workload.trace_gen_s", Median(generation), "s");
  report->Add("trace.overhead_x", Ratio(times.loop_s, untraced_loop_s), "x");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
                 " [--commit <id>]\nworkloads:";
    for (const std::string& name : perfbench::WorkloadNames()) {
      std::cerr << " " << name;
    }
    std::cerr << "\n";
    return 2;
  }
  const int jobs = sarathi::ResolveJobs(0);
  perfbench::WorkloadConfig config = perfbench::MakeWorkloadConfig(args.workload);
  std::cout << "host: cores=" << jobs << " build=" << PERFBENCH_BUILD_TYPE << " flags=\""
            << PERFBENCH_CXX_FLAGS << "\" compiler=\"" << PERFBENCH_COMPILER
            << "\" commit=" << args.commit << "\n";
  std::cout << "workload: " << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace << std::endl;
  perfbench::Report report;
  if (args.trace == 1) {
    perfbench::RunLayers(config, args, &report);
  } else {
    perfbench::RunEndToEnd(config, args, &report);
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
