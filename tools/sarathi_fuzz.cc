// sarathi_fuzz: differential scheduler/allocator fuzzer with the runtime
// invariant checker enabled.
//
// For each seed it synthesizes a randomized workload (bursty or Poisson
// arrivals, parallel sampling, deadlines, multi-tenant client ids), a
// randomized scheduler configuration (budget, batch size, ablations, dynamic
// budget controller), and a fault schedule (replica crashes, client timeouts,
// gray-failure slowdown episodes with jitter, hedged dispatch, drain or live
// KV-migration failover, correlated domain crashes and network partitions
// with the cascade-mitigation knobs, autoscaling), then runs every scheduling policy on both KV
// allocators with an InvariantChecker attached. Any violation of the paper's guarantees (token
// budget, stall-free batching, token/KV conservation, clock monotonicity) is
// reported with the seed, run label, iteration, and request id needed to
// reproduce it:
//
//   sarathi_fuzz --seeds=1 --start=<failing seed>
//
// Every cluster cell also passes a result oracle: the router's hedge counters
// must be consistent with each other and with the per-request hedge records.
//
// Each seed additionally performs a determinism check: one configuration is
// simulated twice with identical inputs and the runs must produce
// byte-identical request-metrics and aggregate telemetry CSVs.
//
// Flags:
//   --seeds=N        number of seeds to run (default 100)
//   --start=S        first seed (default 0)
//   --fatal          abort on the first violation (stack trace at the site)
//   --repro-out=DIR  write a repro file per failing seed into DIR
//   --verbose        one line per seed instead of a progress line per 10
//   --force-gray     force every seed into a gray-failure cluster case
//                    (slowdown episodes + seed-rotated failover/hedging)
//   --force-prefix   force the prefix-cache dimension on every seed: token
//                    identity is synthesized for the whole trace and the
//                    cached allocator joins the differential matrix
//   --force-cascade  force the correlated-fault dimension on every seed:
//                    failure domains with seed-rotated partition fractions
//                    and mitigation knobs (timeout re-offers, cascade
//                    breaker, slow-start re-admission)
//   --force-autoscale  force the autoscaling dimension on every seed: a
//                    provisioned floor below the replica count, with
//                    seed-rotated thresholds, lag and TBT signal
//   --jobs=N         fan seeds across N worker threads (0 = hardware
//                    concurrency). Seeds are independent; outcomes are
//                    replayed in seed order, so stdout/stderr and the exit
//                    code are byte-identical to --jobs=1.
//   --fingerprint-out=FILE  write one "seed,bytes,fnv1a" line per seed from
//                    the determinism check's telemetry, for cross-run
//                    byte-comparison (e.g. --jobs=1 vs --jobs=8 in CI)

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/args.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/serving_system.h"
#include "src/scheduler/scheduler_factory.h"
#include "src/simulator/cluster_simulator.h"
#include "src/simulator/fault_injector.h"
#include "src/simulator/replica_simulator.h"
#include "src/simulator/telemetry.h"
#include "src/verify/invariant_checker.h"
#include "src/workload/trace.h"

namespace sarathi {
namespace {

constexpr char kUsage[] = R"(sarathi_fuzz: randomized invariant fuzzer (see docs/verification.md)

  --seeds=N        number of seeds to run (default 100)
  --start=S        first seed (default 0)
  --fatal          abort on the first violation instead of accumulating
  --repro-out=DIR  write a repro report per failing seed into DIR
  --verbose        per-seed progress lines
  --force-gray     force every seed into a gray-failure cluster case
  --force-prefix   force the prefix-cache dimension on every seed
  --force-cascade  force the correlated-fault/cascade dimension on every seed
  --force-autoscale  force the autoscaling dimension on every seed
  --jobs=N         run seeds on N threads (0 = hardware concurrency);
                   output stays byte-identical to --jobs=1
  --fingerprint-out=FILE  one "seed,bytes,fnv1a" telemetry line per seed
)";

constexpr SchedulerPolicy kPolicies[] = {
    SchedulerPolicy::kSarathi,          SchedulerPolicy::kVllm,
    SchedulerPolicy::kOrca,             SchedulerPolicy::kFasterTransformer,
    SchedulerPolicy::kFastServe,        SchedulerPolicy::kVtc,
};

// Everything one seed determines: the workload, the scheduler shape, the
// deployment, and the fault schedule. Derived deterministically from the seed
// alone so a failing seed reproduces in isolation.
struct FuzzCase {
  Trace trace;
  SchedulerConfig scheduler;  // Policy is overwritten per matrix cell.
  Deployment deployment;
  bool pipeline_deployment = false;

  // KV sizing: small enough to force admission pressure and preemption,
  // large enough that progress is always possible (a lone sequence can
  // always grow, and crash-recompute re-admission — which needs
  // prefill_target + output <= max_seq_len, i.e. prompt + 2*output — fits).
  int64_t kv_max_seq_len = 0;
  int64_t kv_capacity_tokens = 0;

  bool cluster_mode = false;
  int num_replicas = 0;
  RoutingPolicy routing = RoutingPolicy::kLeastOutstandingWork;
  FaultOptions faults;         // Cluster-mode fault model (incl. gray failures).
  FailoverMode degraded_failover = FailoverMode::kNone;
  double hedge_after_s = 0.0;
  bool standalone_outages = false;  // Standalone: crash-recompute outages.
  double outage_mtbf_s = 0.0;
  double outage_mttr_s = 0.0;

  // Overload-control dimension (drawn after everything else so pre-existing
  // seeds keep their cases byte-identical): replica-level admission/CoDel/
  // brownout knobs, QoS lane marking, and the cluster-level storm dampers.
  OverloadOptions overload;
  bool retry_jitter = false;
  double retry_budget_ratio = 0.0;
  double backpressure_queue_s = 0.0;
  bool overload_burst = false;  // Trace got an appended arrival burst.

  // Prefix-cache dimension (drawn after overload so pre-existing seeds keep
  // their cases byte-identical): requests carry synthesized token identity
  // with shared-prefix families, and kPagedCached joins the allocator matrix.
  bool prefix_cache = false;

  // Correlated-fault / cascade dimension (drawn after prefix so pre-existing
  // seeds keep their cases byte-identical): failure domains with partitions,
  // client timeout re-offers, the cascade breaker, and slow-start re-admission.
  bool cascade = false;
  int timeout_retry_max = 0;
  double timeout_retry_backoff_s = 1.0;
  CascadeBreakerOptions cascade_breaker;
  SlowStartOptions slow_start;

  // Cluster shard workers (ClusterOptions::jobs). Results are byte-identical
  // at any value, so the draw only puts the sharded path under test.
  int jobs = 1;

  // Autoscaling dimension (drawn after the shard count so pre-existing seeds
  // keep their cases byte-identical): min_replicas > 0 runs the cluster
  // with a provisioned floor below its replica count.
  AutoscaleOptions autoscale;

  std::string Summary() const;
};

std::string FuzzCase::Summary() const {
  std::ostringstream out;
  out << trace.size() << " requests, budget=" << scheduler.token_budget
      << ", max_batch=" << scheduler.max_batch_size
      << (scheduler.enable_chunking ? "" : ", no-chunking")
      << (scheduler.enable_hybrid ? "" : ", no-hybrid")
      << (scheduler.align_chunks_to_tile ? ", align-tile" : "")
      << (scheduler.dynamic_budget_tbt_slo_s > 0.0 ? ", dynamic-budget" : "")
      << ", kv=" << kv_capacity_tokens << "/" << kv_max_seq_len
      << ", model=" << deployment.model.name;
  if (cluster_mode) {
    out << ", cluster x" << num_replicas << " (" << RoutingPolicyName(routing)
        << ", mtbf=" << faults.mtbf_s << ", jobs=" << jobs << ")";
    if (faults.any_degradation()) {
      out << ", gray (degrade-mtbf=" << faults.degrade_mtbf_s
          << ", failover=" << FailoverModeName(degraded_failover);
      if (hedge_after_s > 0.0) out << ", hedge=" << hedge_after_s;
      out << ")";
    }
  } else if (standalone_outages) {
    out << ", outages (mtbf=" << outage_mtbf_s << ")";
  } else if (faults.any_degradation()) {
    out << ", standalone gray (degrade-mtbf=" << faults.degrade_mtbf_s << ")";
  }
  if (overload.enabled() || retry_budget_ratio > 0.0 || backpressure_queue_s > 0.0) {
    out << ", overload (";
    if (overload.admission_ttft_slo_s > 0.0) out << "admission=" << overload.admission_ttft_slo_s;
    if (overload.queue_limit_s > 0.0) out << " codel=" << overload.queue_limit_s;
    if (overload.brownout) out << " brownout";
    if (retry_budget_ratio > 0.0) out << " retry-budget=" << retry_budget_ratio;
    if (backpressure_queue_s > 0.0) out << " backpressure=" << backpressure_queue_s;
    if (overload_burst) out << " burst";
    out << ")";
  }
  if (prefix_cache) out << ", prefix-cache";
  if (cascade) {
    out << ", cascade (domains=" << faults.num_domains
        << ", part-frac=" << faults.domain_partition_fraction;
    if (timeout_retry_max > 0) out << ", timeout-retries=" << timeout_retry_max;
    if (cascade_breaker.enabled) out << ", breaker";
    if (slow_start.enabled) out << ", slow-start";
    out << ")";
  }
  if (autoscale.min_replicas > 0) {
    out << ", autoscale (min=" << autoscale.min_replicas << ", out=" << autoscale.scale_out_queue_s
        << ", lag=" << autoscale.provisioning_lag_s;
    if (autoscale.tbt_slo_s > 0.0) out << ", tbt-slo=" << autoscale.tbt_slo_s;
    out << ")";
  }
  return out.str();
}

// Synthesizes token identity for the trace: a few shared token streams
// ("families") stand in for system prompts / conversation histories, and
// most requests open with a family prefix — the multi-turn shape the radix
// cache exploits. Shapes (prompt/output counts, arrivals) are untouched, so
// cache-off matrix cells behave exactly as before.
void AttachTokenIdentity(Trace* trace, Rng& rng) {
  constexpr int32_t kVocab = 32000;
  int64_t max_len = 1;
  for (const Request& r : trace->requests) {
    max_len = std::max(max_len, r.prompt_tokens + r.output_tokens);
  }
  int64_t num_families = rng.UniformInt(1, 4);
  std::vector<std::vector<int32_t>> families(static_cast<size_t>(num_families));
  for (auto& family : families) {
    family.reserve(static_cast<size_t>(max_len));
    for (int64_t i = 0; i < max_len; ++i) {
      family.push_back(static_cast<int32_t>(rng.UniformInt(0, kVocab - 1)));
    }
  }
  for (Request& r : trace->requests) {
    if (rng.Uniform(0.0, 1.0) < 0.2) continue;  // Keep some anonymous.
    const std::vector<int32_t>& family =
        families[static_cast<size_t>(rng.UniformInt(0, num_families - 1))];
    int64_t shared = rng.UniformInt(0, r.prompt_tokens);
    auto tokens = std::make_shared<std::vector<int32_t>>(
        family.begin(), family.begin() + shared);
    while (static_cast<int64_t>(tokens->size()) < r.prompt_tokens + r.output_tokens) {
      tokens->push_back(static_cast<int32_t>(rng.UniformInt(0, kVocab - 1)));
    }
    r.token_ids = std::move(tokens);
  }
}

Trace MakeTrace(Rng& rng) {
  Trace trace;
  trace.name = "fuzz";
  int64_t n = rng.UniformInt(6, 32);
  int64_t max_prompt = rng.UniformInt(0, 2) == 0 ? 64 : (rng.UniformInt(0, 1) == 0 ? 256 : 384);
  bool burst = rng.Uniform(0.0, 1.0) < 0.4;
  double qps = rng.Uniform(2.0, 30.0);
  double clock = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    Request r;
    r.id = i;
    if (!burst) clock += rng.Exponential(qps);
    r.arrival_time_s = clock;
    r.prompt_tokens = rng.UniformInt(1, max_prompt);
    r.output_tokens = rng.UniformInt(1, 48);
    r.client_id = rng.UniformInt(0, 3);
    if (rng.Uniform(0.0, 1.0) < 0.10) r.num_samples = rng.UniformInt(2, 3);
    if (rng.Uniform(0.0, 1.0) < 0.15) r.deadline_s = rng.Uniform(0.2, 10.0);
    trace.requests.push_back(r);
  }
  return trace;
}

SchedulerConfig MakeSchedulerConfig(Rng& rng) {
  SchedulerConfig config;
  constexpr int64_t kBudgets[] = {128, 192, 256, 512};
  config.token_budget = kBudgets[rng.UniformInt(0, 3)];
  config.max_batch_size = rng.UniformInt(2, 16);
  config.max_prefill_tokens = rng.UniformInt(0, 1) == 0 ? 16384 : 512;
  config.align_chunks_to_tile = rng.UniformInt(0, 1) == 0;
  if (rng.Uniform(0.0, 1.0) < 0.10) config.enable_chunking = false;
  if (rng.Uniform(0.0, 1.0) < 0.10) config.enable_hybrid = false;
  if (rng.Uniform(0.0, 1.0) < 0.25) {
    config.dynamic_budget_tbt_slo_s = rng.Uniform(0.01, 0.1);
    config.min_token_budget = 128;
    config.max_token_budget = 2048;
    config.budget_tile = 128;
  }
  // VTC tenant weights for the client ids the workload emits.
  config.client_weights = {{0, 1.0}, {1, 2.0}, {2, 0.5}, {3, 1.0}};
  return config;
}

FuzzCase MakeCase(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  FuzzCase fuzz_case;
  fuzz_case.trace = MakeTrace(rng);
  fuzz_case.scheduler = MakeSchedulerConfig(rng);
  fuzz_case.pipeline_deployment = rng.Uniform(0.0, 1.0) < 0.2;
  fuzz_case.deployment = fuzz_case.pipeline_deployment ? LlamaOnA40Tp4Pp2() : MistralOnA100();

  int64_t max_total = 0;
  for (const Request& r : fuzz_case.trace.requests) {
    max_total = std::max(max_total, r.prompt_tokens + 2 * r.output_tokens);
  }
  fuzz_case.kv_max_seq_len = max_total;
  fuzz_case.kv_capacity_tokens = rng.UniformInt(2, 4) * max_total;

  fuzz_case.cluster_mode = rng.Uniform(0.0, 1.0) < 0.4;
  if (fuzz_case.cluster_mode) {
    fuzz_case.num_replicas = static_cast<int>(rng.UniformInt(2, 3));
    fuzz_case.routing = rng.UniformInt(0, 1) == 0 ? RoutingPolicy::kRoundRobin
                                                  : RoutingPolicy::kLeastOutstandingWork;
    fuzz_case.faults.seed = seed + 17;
    fuzz_case.faults.mtbf_s = rng.Uniform(4.0, 20.0);
    fuzz_case.faults.mttr_s = rng.Uniform(0.5, 3.0);
    fuzz_case.faults.min_outage_s = 0.25;
    if (rng.Uniform(0.0, 1.0) < 0.5) {
      fuzz_case.faults.request_timeout_probability = rng.Uniform(0.05, 0.4);
      fuzz_case.faults.request_timeout_s = rng.Uniform(2.0, 10.0);
    }
  } else {
    fuzz_case.standalone_outages = rng.Uniform(0.0, 1.0) < 0.5;
    fuzz_case.outage_mtbf_s = rng.Uniform(5.0, 15.0);
    fuzz_case.outage_mttr_s = rng.Uniform(0.5, 2.0);
  }

  // Gray failures. Drawn after everything else so seeds that predate this
  // block keep their historical workloads and outage schedules byte-identical.
  if (rng.Uniform(0.0, 1.0) < 0.5) {
    fuzz_case.faults.seed = seed + 17;
    fuzz_case.faults.degrade_mtbf_s = rng.Uniform(3.0, 15.0);
    fuzz_case.faults.degrade_mttr_s = rng.Uniform(1.0, 6.0);
    fuzz_case.faults.min_degrade_s = 0.5;
    fuzz_case.faults.degrade_min_factor = rng.Uniform(1.5, 2.5);
    fuzz_case.faults.degrade_max_factor =
        fuzz_case.faults.degrade_min_factor + rng.Uniform(0.5, 2.0);
    if (rng.Uniform(0.0, 1.0) < 0.5) {
      fuzz_case.faults.jitter_probability = rng.Uniform(0.01, 0.1);
      fuzz_case.faults.jitter_max_extra = rng.Uniform(0.2, 2.0);
    }
    if (fuzz_case.cluster_mode) {
      int64_t mode = rng.UniformInt(0, 2);
      fuzz_case.degraded_failover = mode == 0   ? FailoverMode::kNone
                                    : mode == 1 ? FailoverMode::kRecompute
                                                : FailoverMode::kLiveMigrate;
      if (rng.Uniform(0.0, 1.0) < 0.5) fuzz_case.hedge_after_s = rng.Uniform(0.25, 2.0);
    }
  }

  // Overload control. Drawn after the gray-failure block so seeds that
  // predate this dimension keep their cases byte-identical. Once the gate
  // fires the seed is new coverage, so retagging earlier requests with QoS
  // lanes and appending an arrival burst is fair game.
  if (rng.Uniform(0.0, 1.0) < 0.5) {
    fuzz_case.scheduler.qos_lanes = true;
    fuzz_case.scheduler.batch_aging_s = rng.Uniform(0.5, 3.0);
    double batch_frac = rng.Uniform(0.2, 0.6);
    for (Request& r : fuzz_case.trace.requests) {
      if (rng.Uniform(0.0, 1.0) < batch_frac) r.qos = QosClass::kBatch;
    }
    if (rng.Uniform(0.0, 1.0) < 0.5) {
      fuzz_case.overload.admission_ttft_slo_s = rng.Uniform(0.5, 4.0);
    }
    if (rng.Uniform(0.0, 1.0) < 0.5) {
      fuzz_case.overload.queue_limit_s = rng.Uniform(0.2, 2.0);
      fuzz_case.overload.codel_interval_s = rng.Uniform(0.25, 1.0);
    }
    if (rng.Uniform(0.0, 1.0) < 0.5) {
      fuzz_case.overload.brownout = true;
      OverloadControllerOptions& ladder = fuzz_case.overload.controller;
      ladder.queue_delay_throughput_s = rng.Uniform(0.1, 0.5);
      ladder.queue_delay_brownout_s =
          ladder.queue_delay_throughput_s + rng.Uniform(0.2, 1.0);
      ladder.queue_delay_shed_s = ladder.queue_delay_brownout_s + rng.Uniform(0.5, 2.0);
      ladder.min_dwell_s = rng.Uniform(0.2, 1.0);
      fuzz_case.overload.brownout_output_cap = rng.UniformInt(4, 32);
    }
    if (fuzz_case.cluster_mode) {
      fuzz_case.retry_jitter = rng.UniformInt(0, 1) == 1;
      if (rng.Uniform(0.0, 1.0) < 0.5) fuzz_case.retry_budget_ratio = rng.Uniform(0.05, 0.5);
      if (rng.Uniform(0.0, 1.0) < 0.5) fuzz_case.backpressure_queue_s = rng.Uniform(0.5, 3.0);
    }
    // Arrival burst: a pile of extra requests lands at one instant partway
    // through the trace so the shed/brownout paths actually trip.
    if (rng.Uniform(0.0, 1.0) < 0.6) {
      fuzz_case.overload_burst = true;
      double horizon = 0.0;
      for (const Request& r : fuzz_case.trace.requests) {
        horizon = std::max(horizon, r.arrival_time_s);
      }
      double burst_t = rng.Uniform(0.0, std::max(horizon, 0.5));
      int64_t burst_n = rng.UniformInt(8, 24);
      int64_t next_id = static_cast<int64_t>(fuzz_case.trace.size());
      for (int64_t j = 0; j < burst_n; ++j) {
        Request r;
        r.id = next_id++;
        r.arrival_time_s = burst_t;
        // Stay inside the KV sizing drawn above: prompt + 2*output must fit
        // kv_max_seq_len or crash-recompute re-admission could deadlock.
        r.prompt_tokens = rng.UniformInt(1, std::max<int64_t>(1, fuzz_case.kv_max_seq_len / 2));
        int64_t max_output =
            std::max<int64_t>(1, (fuzz_case.kv_max_seq_len - r.prompt_tokens) / 2);
        r.output_tokens = rng.UniformInt(1, std::min<int64_t>(48, max_output));
        r.client_id = rng.UniformInt(0, 3);
        if (rng.Uniform(0.0, 1.0) < batch_frac) r.qos = QosClass::kBatch;
        if (rng.Uniform(0.0, 1.0) < 0.25) r.deadline_s = rng.Uniform(0.5, 10.0);
        fuzz_case.trace.requests.push_back(r);
      }
      // The replica simulator consumes arrivals in trace order; keep the
      // trace sorted (stable, so equal-time order stays deterministic).
      std::stable_sort(fuzz_case.trace.requests.begin(), fuzz_case.trace.requests.end(),
                       [](const Request& a, const Request& b) {
                         return a.arrival_time_s < b.arrival_time_s;
                       });
    }
  }

  // Prefix cache. Drawn after the overload block so seeds that predate this
  // dimension keep their cases byte-identical. Once the gate fires the seed
  // is new coverage: token identity is attached to the existing requests and
  // windowed deployments (Mistral's sliding window recycles block contents,
  // so the cached allocator rejects it) move to the non-windowed Yi-34B.
  if (rng.Uniform(0.0, 1.0) < 0.5) {
    fuzz_case.prefix_cache = true;
    AttachTokenIdentity(&fuzz_case.trace, rng);
    if (fuzz_case.deployment.model.sliding_window > 0) {
      fuzz_case.deployment = YiOnA100Tp2();
    }
  }

  // Correlated-fault / cascade dimension. Drawn after the prefix block so
  // seeds that predate this dimension keep their cases byte-identical. The
  // domain process layers whole-domain crashes and network partitions on top
  // of whatever independent faults the seed already drew; the mitigation
  // knobs (timeout re-offers, breaker, slow-start) toggle independently so
  // mitigated and unmitigated cascades both stay inside the matrix.
  if (rng.Uniform(0.0, 1.0) < 0.4) {
    fuzz_case.cascade = true;
    if (!fuzz_case.cluster_mode) {
      fuzz_case.cluster_mode = true;
      fuzz_case.standalone_outages = false;
      fuzz_case.num_replicas = static_cast<int>(rng.UniformInt(3, 4));
      fuzz_case.faults.seed = seed + 17;
    }
    fuzz_case.faults.num_domains =
        static_cast<int>(rng.UniformInt(2, std::min<int64_t>(3, fuzz_case.num_replicas)));
    fuzz_case.faults.domain_mtbf_s = rng.Uniform(4.0, 15.0);
    fuzz_case.faults.domain_mttr_s = rng.Uniform(1.0, 4.0);
    fuzz_case.faults.min_domain_outage_s = 0.5;
    fuzz_case.faults.domain_partition_fraction = rng.Uniform(0.0, 1.0);
    if (rng.Uniform(0.0, 1.0) < 0.5) {
      fuzz_case.timeout_retry_max = static_cast<int>(rng.UniformInt(1, 3));
      fuzz_case.timeout_retry_backoff_s = rng.Uniform(0.25, 1.5);
    }
    if (rng.Uniform(0.0, 1.0) < 0.5) {
      fuzz_case.cascade_breaker.enabled = true;
      fuzz_case.cascade_breaker.headroom = rng.Uniform(0.6, 0.95);
    }
    if (rng.Uniform(0.0, 1.0) < 0.5) {
      fuzz_case.slow_start.enabled = true;
      fuzz_case.slow_start.ramp_s = rng.Uniform(1.0, 6.0);
      fuzz_case.slow_start.stagger_s = rng.Uniform(0.25, 1.5);
    }
  }

  // Cluster shard count, drawn after every other block (even for standalone
  // cases, which --force-gray/--force-cascade may promote to clusters) so
  // pre-existing seeds keep their cases byte-identical.
  fuzz_case.jobs = static_cast<int>(rng.UniformInt(1, 4));

  // Autoscaling. Drawn after the shard count so seeds that predate this
  // dimension keep their cases byte-identical. Standalone cases are promoted
  // to clusters; the floor stays below the replica count so the autoscaler
  // opens and closes replicas around whatever faults and overload the seed
  // already drew.
  if (rng.Uniform(0.0, 1.0) < 0.3) {
    if (!fuzz_case.cluster_mode) {
      fuzz_case.cluster_mode = true;
      fuzz_case.standalone_outages = false;
      fuzz_case.num_replicas = static_cast<int>(rng.UniformInt(3, 4));
      fuzz_case.faults.seed = seed + 17;
    }
    AutoscaleOptions& autoscale = fuzz_case.autoscale;
    autoscale.min_replicas = static_cast<int>(rng.UniformInt(1, fuzz_case.num_replicas - 1));
    autoscale.scale_out_queue_s = rng.Uniform(0.1, 1.0);
    autoscale.scale_in_queue_s = autoscale.scale_out_queue_s * rng.Uniform(0.05, 0.5);
    autoscale.provisioning_lag_s = rng.Uniform(0.0, 3.0);
    if (rng.Uniform(0.0, 1.0) < 0.5) {
      autoscale.tbt_slo_s = rng.Uniform(0.02, 0.2);
      autoscale.tbt_window_s = rng.Uniform(1.0, 10.0);
    }
    autoscale.eval_interval_s = rng.Uniform(0.25, 2.0);
    autoscale.cooldown_s = rng.Uniform(0.0, 3.0);
  }
  return fuzz_case;
}

// Parallel sampling forks share prompt KV, which only the paged allocator
// supports; reservation runs serve every request single-sample.
Trace StripSamples(const Trace& trace) {
  Trace stripped = trace;
  for (Request& r : stripped.requests) r.num_samples = 1;
  return stripped;
}

SimulatorOptions MakeReplicaOptions(const FuzzCase& fuzz_case, SchedulerPolicy policy,
                                    AllocatorKind kind, InvariantChecker* checker) {
  SimulatorOptions options;
  options.model = fuzz_case.deployment.model;
  options.cluster = fuzz_case.deployment.cluster;
  options.parallel = fuzz_case.deployment.parallel;
  options.scheduler = fuzz_case.scheduler;
  options.scheduler.policy = policy;
  options.allocator_kind = kind;
  options.kv_capacity_tokens = fuzz_case.kv_capacity_tokens;
  options.kv_max_seq_len = fuzz_case.kv_max_seq_len;
  options.record_iterations = true;
  options.overload = fuzz_case.overload;
  options.checker = checker;
  return options;
}

double TraceHorizon(const Trace& trace) {
  double last = 0.0;
  for (const Request& r : trace.requests) last = std::max(last, r.arrival_time_s);
  return last + 60.0;
}

// Result oracle for a merged cluster result: counters the router reports
// must agree with each other and with the per-request records. Returns one
// line per disagreement, empty when consistent.
std::string CheckClusterResult(const SimResult& result) {
  std::ostringstream out;
  int64_t request_hedges = 0;
  for (const RequestMetrics& m : result.requests) request_hedges += m.hedges;
  if (result.hedges_cancelled > result.hedges_issued) {
    out << "result oracle: hedges_cancelled " << result.hedges_cancelled
        << " exceeds hedges_issued " << result.hedges_issued << "\n";
  }
  if (result.hedges_won > result.hedges_issued) {
    out << "result oracle: hedges_won " << result.hedges_won << " exceeds hedges_issued "
        << result.hedges_issued << "\n";
  }
  if (request_hedges != result.hedges_issued) {
    out << "result oracle: per-request hedges sum to " << request_hedges
        << " but hedges_issued is " << result.hedges_issued << "\n";
  }
  return out.str();
}

// Runs one matrix cell (policy x allocator) under the checker, plus the
// result oracle on cluster cells. Returns the report on violation, empty
// string when clean.
std::string RunCell(const FuzzCase& fuzz_case, SchedulerPolicy policy, AllocatorKind kind,
                    bool fatal) {
  InvariantChecker::Options checker_options;
  checker_options.fatal = fatal;
  InvariantChecker checker(checker_options);

  Trace trace =
      kind == AllocatorKind::kReservation ? StripSamples(fuzz_case.trace) : fuzz_case.trace;

  std::string oracle;
  if (fuzz_case.cluster_mode) {
    ClusterOptions cluster;
    cluster.replica = MakeReplicaOptions(fuzz_case, policy, kind, &checker);
    cluster.num_replicas = fuzz_case.num_replicas;
    cluster.routing = fuzz_case.routing;
    cluster.faults = fuzz_case.faults;
    cluster.degraded_failover = fuzz_case.degraded_failover;
    cluster.hedge_after_s = fuzz_case.hedge_after_s;
    cluster.retry_jitter = fuzz_case.retry_jitter;
    cluster.retry_budget_ratio = fuzz_case.retry_budget_ratio;
    cluster.backpressure_queue_s = fuzz_case.backpressure_queue_s;
    cluster.timeout_retry_max = fuzz_case.timeout_retry_max;
    cluster.timeout_retry_backoff_s = fuzz_case.timeout_retry_backoff_s;
    cluster.cascade = fuzz_case.cascade_breaker;
    cluster.slow_start = fuzz_case.slow_start;
    cluster.jobs = fuzz_case.jobs;
    cluster.autoscale = fuzz_case.autoscale;
    ClusterSimulator simulator(cluster);
    oracle = CheckClusterResult(simulator.Run(trace));
  } else {
    SimulatorOptions options = MakeReplicaOptions(fuzz_case, policy, kind, &checker);
    if (fuzz_case.faults.any_degradation()) {
      FaultInjector gray(fuzz_case.faults);
      options.slowdowns = gray.SlowdownsFor(0, TraceHorizon(fuzz_case.trace));
      options.jitter_probability = fuzz_case.faults.jitter_probability;
      options.jitter_max_extra = fuzz_case.faults.jitter_max_extra;
      options.jitter_seed = fuzz_case.faults.seed;
    }
    if (fuzz_case.standalone_outages) {
      FaultOptions fault_options;
      fault_options.seed = fuzz_case.faults.seed + 31;
      fault_options.mtbf_s = fuzz_case.outage_mtbf_s;
      fault_options.mttr_s = fuzz_case.outage_mttr_s;
      fault_options.min_outage_s = 0.25;
      options.outages =
          FaultInjector(fault_options).OutagesFor(0, TraceHorizon(fuzz_case.trace));
      options.fail_interrupted_on_crash = false;  // Crash-recompute path.
    }
    ReplicaSimulator simulator(options);
    simulator.Run(trace);
  }
  if (checker.ok()) return oracle;
  return oracle + checker.Report();
}

// Serializes the telemetry a run produced into one comparable string.
std::string TelemetryFingerprint(const SimResult& result) {
  std::ostringstream out;
  WriteRequestMetricsCsv(result, out);
  WriteAggregateCsv(result, out);
  WriteIterationLogCsv(result, out);
  return out.str();
}

// FNV-1a over the telemetry string: a compact per-seed digest that two fuzz
// invocations (e.g. --jobs=1 and --jobs=8) can compare byte-for-byte.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

struct DeterminismOutcome {
  std::string error;  // Empty when the two runs matched.
  size_t fingerprint_bytes = 0;
  uint64_t fingerprint_hash = 0;
};

// Same seed, same inputs, twice: the telemetry must match byte for byte.
// Rotates through the policies by seed so all six get coverage; faults are
// forced on so the crash/retry/re-route machinery is inside the comparison.
DeterminismOutcome RunDeterminismCheck(const FuzzCase& fuzz_case, uint64_t seed) {
  SchedulerPolicy policy = kPolicies[seed % (sizeof(kPolicies) / sizeof(kPolicies[0]))];
  ClusterOptions cluster;
  // The cached allocator is always inside the byte-compare: radix lookups,
  // pin/transplant admissions, retention, and LRU eviction must all replay
  // identically. Seeds without token identity still run the cached code with
  // every lookup missing; windowed deployments silently downgrade to kPaged.
  cluster.replica =
      MakeReplicaOptions(fuzz_case, policy, AllocatorKind::kPagedCached, nullptr);
  cluster.num_replicas = fuzz_case.cluster_mode ? fuzz_case.num_replicas : 2;
  cluster.routing = fuzz_case.routing;
  cluster.faults = fuzz_case.faults;
  cluster.degraded_failover = fuzz_case.degraded_failover;
  cluster.hedge_after_s = fuzz_case.hedge_after_s;
  cluster.jobs = fuzz_case.jobs;
  // Autoscaling joins the byte-compare only where the seed drew (or was
  // forced into) it, so every other seed keeps its fingerprint.
  cluster.autoscale = fuzz_case.autoscale;
  if (cluster.faults.mtbf_s <= 0.0) {
    cluster.faults.seed = seed + 17;
    cluster.faults.mtbf_s = 8.0;
    cluster.faults.mttr_s = 1.0;
    cluster.faults.min_outage_s = 0.25;
  }
  // Gray failures are always inside the byte-compare, with the failover and
  // hedging machinery rotating by seed so all code paths get exercised.
  if (!cluster.faults.any_degradation()) {
    cluster.faults.degrade_mtbf_s = 6.0;
    cluster.faults.degrade_mttr_s = 2.0;
    cluster.faults.min_degrade_s = 0.5;
  }
  if (cluster.degraded_failover == FailoverMode::kNone) {
    cluster.degraded_failover =
        seed % 2 == 0 ? FailoverMode::kLiveMigrate : FailoverMode::kRecompute;
  }
  if (cluster.hedge_after_s <= 0.0 && seed % 3 == 0) cluster.hedge_after_s = 0.5;
  // Overload control is likewise always inside the byte-compare: seeds that
  // didn't draw the dimension get deterministic, seed-rotated defaults so the
  // shed/brownout/backpressure paths run under the double-run comparison.
  cluster.retry_jitter = fuzz_case.retry_jitter;
  cluster.retry_budget_ratio = fuzz_case.retry_budget_ratio;
  cluster.backpressure_queue_s = fuzz_case.backpressure_queue_s;
  OverloadOptions& overload = cluster.replica.overload;
  if (!overload.enabled()) {
    overload.admission_ttft_slo_s = 1.0 + static_cast<double>(seed % 3);
    overload.queue_limit_s = 0.5;
    overload.brownout = seed % 2 == 0;
  }
  if (!cluster.retry_jitter && seed % 2 == 0) cluster.retry_jitter = true;
  if (cluster.retry_budget_ratio <= 0.0 && seed % 2 == 1) cluster.retry_budget_ratio = 0.25;
  if (cluster.backpressure_queue_s <= 0.0 && seed % 3 == 1) {
    cluster.backpressure_queue_s = 1.0;
  }
  // Correlated domains are always inside the byte-compare: partition token
  // deferral, redispatch, rejoin reconciliation, and the breaker/slow-start
  // gates must all replay identically. Seeds that didn't draw the dimension
  // get deterministic, seed-rotated defaults.
  cluster.timeout_retry_max = fuzz_case.timeout_retry_max;
  cluster.timeout_retry_backoff_s = fuzz_case.timeout_retry_backoff_s;
  cluster.cascade = fuzz_case.cascade_breaker;
  cluster.slow_start = fuzz_case.slow_start;
  if (cluster.faults.num_domains == 0) {
    cluster.faults.num_domains = 2;
    cluster.faults.domain_mtbf_s = 6.0 + static_cast<double>(seed % 5);
    cluster.faults.domain_mttr_s = 1.5;
    cluster.faults.min_domain_outage_s = 0.5;
    cluster.faults.domain_partition_fraction = seed % 2 == 0 ? 1.0 : 0.5;
  }
  if (cluster.timeout_retry_max == 0 && seed % 2 == 0) cluster.timeout_retry_max = 2;
  if (!cluster.cascade.enabled && seed % 3 == 0) cluster.cascade.enabled = true;
  if (!cluster.slow_start.enabled && seed % 3 == 2) {
    cluster.slow_start.enabled = true;
    cluster.slow_start.ramp_s = 3.0;
    cluster.slow_start.stagger_s = 0.5;
  }

  DeterminismOutcome outcome;
  std::string first;
  for (int run = 0; run < 2; ++run) {
    ClusterSimulator simulator(cluster);
    SimResult result = simulator.Run(fuzz_case.trace);
    std::string fingerprint = TelemetryFingerprint(result);
    if (run == 0) {
      first = std::move(fingerprint);
      outcome.fingerprint_bytes = first.size();
      outcome.fingerprint_hash = Fnv1a(first);
    } else if (fingerprint != first) {
      std::ostringstream out;
      out << "determinism violation: policy " << SchedulerPolicyName(policy)
          << ", two identical cluster runs produced different telemetry ("
          << first.size() << " vs " << fingerprint.size() << " bytes)";
      outcome.error = out.str();
      return outcome;
    }
  }
  return outcome;
}

// Everything one seed produces, computed without touching stdout/stderr so
// seeds can run concurrently and be replayed in order afterwards.
struct SeedOutcome {
  uint64_t seed = 0;
  std::string summary;
  std::vector<std::string> failures;
  int64_t runs = 0;
  size_t fingerprint_bytes = 0;
  uint64_t fingerprint_hash = 0;
};

struct ForceFlags {
  bool gray = false;
  bool prefix = false;
  bool cascade = false;
  bool autoscale = false;
};

SeedOutcome RunSeed(uint64_t seed, bool fatal, const ForceFlags& force) {
  SeedOutcome outcome;
  outcome.seed = seed;
  FuzzCase fuzz_case = MakeCase(seed);
  if (force.prefix && !fuzz_case.prefix_cache) {
    // CI smoke mode: every seed exercises the cached allocator. Token
    // identity comes from a side Rng stream so the seed's own case draws
    // stay byte-identical to an unforced run.
    fuzz_case.prefix_cache = true;
    Rng prefix_rng(seed * 0x9e3779b97f4a7c15ULL + 7);
    AttachTokenIdentity(&fuzz_case.trace, prefix_rng);
    if (fuzz_case.deployment.model.sliding_window > 0) {
      fuzz_case.deployment = YiOnA100Tp2();
    }
  }
  if (force.gray) {
    // CI smoke mode: every seed becomes a gray-failure cluster case, with
    // the failover mode and hedging rotating deterministically by seed.
    if (!fuzz_case.cluster_mode) {
      fuzz_case.cluster_mode = true;
      fuzz_case.standalone_outages = false;
      fuzz_case.num_replicas = 2 + static_cast<int>(seed % 2);
      fuzz_case.faults.seed = seed + 17;
    }
    if (!fuzz_case.faults.any_degradation()) {
      fuzz_case.faults.degrade_mtbf_s = 5.0 + static_cast<double>(seed % 7);
      fuzz_case.faults.degrade_mttr_s = 2.0 + static_cast<double>(seed % 3);
      fuzz_case.faults.min_degrade_s = 0.5;
    }
    fuzz_case.degraded_failover = seed % 3 == 0   ? FailoverMode::kNone
                                  : seed % 3 == 1 ? FailoverMode::kRecompute
                                                  : FailoverMode::kLiveMigrate;
    fuzz_case.hedge_after_s = seed % 2 == 0 ? 0.5 : 0.0;
  }
  if (force.cascade && !fuzz_case.cascade) {
    // CI smoke mode: every seed exercises the correlated-fault dimension,
    // with the partition fraction and mitigation knobs rotating
    // deterministically by seed so crash-domains, partition-domains, and
    // mitigated/unmitigated cascades all get forced coverage.
    fuzz_case.cascade = true;
    if (!fuzz_case.cluster_mode) {
      fuzz_case.cluster_mode = true;
      fuzz_case.standalone_outages = false;
      fuzz_case.num_replicas = 3 + static_cast<int>(seed % 2);
      fuzz_case.faults.seed = seed + 17;
    }
    fuzz_case.faults.num_domains = 2;
    fuzz_case.faults.domain_mtbf_s = 5.0 + static_cast<double>(seed % 7);
    fuzz_case.faults.domain_mttr_s = 1.0 + static_cast<double>(seed % 3);
    fuzz_case.faults.min_domain_outage_s = 0.5;
    fuzz_case.faults.domain_partition_fraction =
        seed % 3 == 0 ? 1.0 : seed % 3 == 1 ? 0.5 : 0.0;
    if (seed % 2 == 0) fuzz_case.timeout_retry_max = 2;
    fuzz_case.cascade_breaker.enabled = seed % 2 == 1;
    if (seed % 3 != 0) {
      fuzz_case.slow_start.enabled = true;
      fuzz_case.slow_start.ramp_s = 2.0 + static_cast<double>(seed % 3);
      fuzz_case.slow_start.stagger_s = 0.5;
    }
  }
  if (force.autoscale && fuzz_case.autoscale.min_replicas <= 0) {
    // CI smoke mode: every seed runs autoscaled, with the floor, thresholds,
    // provisioning lag and the TBT signal rotating deterministically by seed.
    if (!fuzz_case.cluster_mode) {
      fuzz_case.cluster_mode = true;
      fuzz_case.standalone_outages = false;
      fuzz_case.num_replicas = 3 + static_cast<int>(seed % 2);
      fuzz_case.faults.seed = seed + 17;
    }
    AutoscaleOptions& autoscale = fuzz_case.autoscale;
    autoscale.min_replicas = 1 + static_cast<int>(seed % static_cast<uint64_t>(
                                                           fuzz_case.num_replicas - 1));
    autoscale.scale_out_queue_s = 0.25 + 0.25 * static_cast<double>(seed % 3);
    autoscale.scale_in_queue_s = 0.05;
    autoscale.provisioning_lag_s = seed % 2 == 0 ? 0.0 : 1.5;
    autoscale.tbt_slo_s = seed % 3 == 1 ? 0.05 : 0.0;
    autoscale.tbt_window_s = 5.0;
    autoscale.eval_interval_s = 0.5;
    autoscale.cooldown_s = seed % 2 == 0 ? 0.0 : 2.0;
  }
  // --fatal wants the failing run alone on the process; sharding never
  // changes results, so serial replicas lose no coverage.
  if (fatal) fuzz_case.jobs = 1;
  outcome.summary = fuzz_case.Summary();

  std::vector<AllocatorKind> kinds = {AllocatorKind::kPaged, AllocatorKind::kReservation};
  if (fuzz_case.prefix_cache) {
    kinds.push_back(AllocatorKind::kPagedCached);
  }
  for (SchedulerPolicy policy : kPolicies) {
    for (AllocatorKind kind : kinds) {
      std::string report = RunCell(fuzz_case, policy, kind, fatal);
      ++outcome.runs;
      if (!report.empty()) {
        std::ostringstream out;
        out << "seed " << seed << ", policy " << SchedulerPolicyName(policy)
            << ", allocator " << AllocatorKindName(kind) << ":\n" << report;
        outcome.failures.push_back(out.str());
      }
    }
  }
  DeterminismOutcome determinism = RunDeterminismCheck(fuzz_case, seed);
  outcome.runs += 2;
  outcome.fingerprint_bytes = determinism.fingerprint_bytes;
  outcome.fingerprint_hash = determinism.fingerprint_hash;
  if (!determinism.error.empty()) {
    outcome.failures.push_back("seed " + std::to_string(seed) + ": " + determinism.error);
  }
  return outcome;
}

int RunMain(int argc, char** argv) {
  auto parsed = ArgParser::Parse(argc, argv);
  if (!parsed.ok()) {
    std::cerr << parsed.status().ToString() << "\n" << kUsage;
    return 2;
  }
  ArgParser args = std::move(parsed).value();
  if (args.GetBool("help", false)) {
    std::cout << kUsage;
    return 0;
  }
  auto seeds_arg = args.GetInt("seeds", 100);
  auto start_arg = args.GetInt("start", 0);
  auto jobs_arg = args.GetInt("jobs", 1);
  if (!seeds_arg.ok() || !start_arg.ok() || !jobs_arg.ok()) {
    std::cerr << (!seeds_arg.ok()   ? seeds_arg.status()
                  : !start_arg.ok() ? start_arg.status()
                                    : jobs_arg.status())
                     .ToString()
              << "\n";
    return 2;
  }
  int64_t num_seeds = seeds_arg.value();
  int64_t start = start_arg.value();
  bool fatal = args.GetBool("fatal", false);
  bool verbose = args.GetBool("verbose", false);
  ForceFlags force;
  force.gray = args.GetBool("force-gray", false);
  force.prefix = args.GetBool("force-prefix", false);
  force.cascade = args.GetBool("force-cascade", false);
  force.autoscale = args.GetBool("force-autoscale", false);
  std::string repro_dir = args.GetString("repro-out", "");
  std::string fingerprint_path = args.GetString("fingerprint-out", "");
  int jobs = ResolveJobs(static_cast<int>(jobs_arg.value()));
  // --fatal aborts inside the failing run to get a stack trace at the site;
  // keep that run alone on the process so the trace is unpolluted.
  if (fatal) jobs = 1;
  for (const std::string& key : args.UnconsumedKeys()) {
    std::cerr << "warning: unknown flag --" << key << "\n";
  }

  std::ofstream fingerprint_out;
  if (!fingerprint_path.empty()) {
    fingerprint_out.open(fingerprint_path);
    if (!fingerprint_out) {
      std::cerr << "cannot open --fingerprint-out file " << fingerprint_path << "\n";
      return 2;
    }
  }

  // Seeds are fanned across the pool one chunk at a time, then each chunk's
  // outcomes are replayed in seed order below. All printing, accounting, and
  // the early stop happen in the replay, so stdout/stderr and the exit code
  // are byte-identical for every --jobs value.
  int64_t failing_seeds = 0;
  int64_t runs = 0;
  bool stopped = false;
  for (int64_t chunk_start = 0; chunk_start < num_seeds && !stopped; chunk_start += jobs) {
    int64_t chunk = std::min<int64_t>(jobs, num_seeds - chunk_start);
    std::vector<SeedOutcome> outcomes = RunMany(jobs, chunk, [&](int64_t k) {
      return RunSeed(static_cast<uint64_t>(start + chunk_start + k), fatal, force);
    });
    for (int64_t k = 0; k < chunk && !stopped; ++k) {
      const SeedOutcome& outcome = outcomes[static_cast<size_t>(k)];
      int64_t i = chunk_start + k;
      uint64_t seed = outcome.seed;
      runs += outcome.runs;
      if (fingerprint_out.is_open()) {
        fingerprint_out << seed << "," << outcome.fingerprint_bytes << ","
                        << outcome.fingerprint_hash << "\n";
      }

      if (!outcome.failures.empty()) {
        ++failing_seeds;
        std::cerr << "FAIL seed " << seed << " (" << outcome.summary << ")\n";
        for (const std::string& failure : outcome.failures) std::cerr << failure << "\n";
        if (!repro_dir.empty()) {
          std::error_code ec;
          std::filesystem::create_directories(repro_dir, ec);
          std::ofstream out(repro_dir + "/seed_" + std::to_string(seed) + ".txt");
          out << "Reproduce with: sarathi_fuzz --seeds=1 --start=" << seed << "\n"
              << "Case: " << outcome.summary << "\n\n";
          for (const std::string& failure : outcome.failures) out << failure << "\n";
        }
        if (failing_seeds >= 5) {
          std::cerr << "stopping after 5 failing seeds\n";
          stopped = true;
        }
      } else if (verbose) {
        std::cout << "ok seed " << seed << " (" << outcome.summary << ")\n";
      } else if ((i + 1) % 10 == 0 || i + 1 == num_seeds) {
        std::cout << "seeds " << start << ".." << (start + i) << ": "
                  << (failing_seeds == 0 ? "all clean" : "FAILURES") << " (" << runs
                  << " runs)\n";
      }
    }
  }

  if (failing_seeds > 0) {
    std::cerr << failing_seeds << " failing seed(s)\n";
    return 1;
  }
  std::cout << "fuzz clean: " << num_seeds << " seeds, " << runs
            << " runs (6 policies x 2-3 allocators + determinism), 0 violations\n";
  return 0;
}

}  // namespace
}  // namespace sarathi

int main(int argc, char** argv) { return sarathi::RunMain(argc, argv); }
