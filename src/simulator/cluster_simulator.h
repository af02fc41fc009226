// Multi-replica serving: a failure-aware front-end router over identical
// replicas.
//
// The paper evaluates per-replica capacity; production serving multiplies
// replicas behind a router — and replicas fail. This module scales the
// simulator out and degrades it gracefully: requests are assigned to a
// replica at arrival by a routing policy, each replica is simulated
// independently on its sub-trace, and the metrics merge. Routing decisions
// use only information available at assignment time (no oracle): round-robin
// or least-outstanding-work, always restricted to replicas that are up at
// that moment.
//
// Fault handling (all seeded through FaultOptions, so runs are reproducible):
//  - Replica crashes (FaultInjector MTBF/MTTR schedules) interrupt every
//    request on the replica; the router re-routes interrupted requests to
//    survivors with capped retries and exponential backoff.
//  - Client timeouts abort requests whose deadline expires; expired requests
//    are never retried.
//  - Admission control sheds arrivals when even the least-loaded healthy
//    replica is more than `shed_outstanding_s` seconds of estimated work
//    behind, so P99 TBT saturates instead of diverging.
//
// Gray-failure handling (slowdowns leave a replica up but 1.5-4x slower):
//  - A HealthProber samples each replica's iteration-latency ratio on a fixed
//    cadence and classifies it healthy/degraded/down with EWMA + hysteresis,
//    so the router reacts with a realistic detection lag on both edges.
//  - Circuit breaker: routing prefers replicas not currently detected
//    degraded (new arrivals, retries, failover and hedge destinations alike),
//    falling back to degraded replicas only when nothing better is up.
//  - Degraded failover moves decoding requests off a detected-degraded
//    replica: kRecompute drains them and re-routes from scratch; kLiveMigrate
//    checkpoints their KV, streams it over a serialized migration link, and
//    the destination adopts it with zero recompute. A replica the router
//    starts migrating off is quarantined (no new work) for the rest of the
//    run so the checkpointed image stays consistent with what the
//    destination restored.
//  - Hedged dispatch: a request stuck on a detected-degraded replica is
//    speculatively re-dispatched to a healthy one after `hedge_after_s`.
//
// Hedges and partition redispatches (a near-side duplicate of a request
// caught behind a detected partition) are the two kinds of race, resolved
// by one rule at response granularity: the attempt whose completion reaches
// the client first — partitioned emissions deliver at the heal — wins, ties
// going to the primary; the client consumes the winner's stream, and the
// loser is cancelled mid-service at the winner's visible completion
// (deferred to its own replica's heal if partitioned), its tokens counted as
// wasted duplicates. Hedge races alone feed hedges_issued / hedges_won /
// hedges_cancelled; partition races feed partition_redispatches /
// partition_reconciled.

#ifndef SRC_SIMULATOR_CLUSTER_SIMULATOR_H_
#define SRC_SIMULATOR_CLUSTER_SIMULATOR_H_

#include <memory>
#include <vector>

#include "src/robustness/cascade.h"
#include "src/simulator/fault_injector.h"
#include "src/simulator/health_prober.h"
#include "src/simulator/replica_simulator.h"

namespace sarathi {

// One provisioned interval of a replica under autoscaling: the replica
// accepts new work only while some window covers the routing instant. A still
// -open window has to_s = +infinity; closing a window stops new assignments
// but lets work already routed there drain (scale-in never kills requests).
struct ProvisionWindow {
  double from_s = 0.0;
  double to_s = 0.0;
};

// One autoscaler decision: replica `replica` was opened (out) or closed /
// cancelled (in) at decision time t_s. A scale-out opens the window at
// t_s + provisioning_lag_s; a scale-in of a still-pending launch cancels it.
struct ScaleEvent {
  double t_s = 0.0;
  int replica = -1;
  bool out = false;
};

// Metrics-driven autoscaler over the replica fleet. Enabled when
// min_replicas >= 1: replicas [0, min_replicas) are provisioned for the whole
// run (the floor that guarantees the router always has a destination), the
// rest open and close between min_replicas and ClusterOptions::num_replicas
// (the ceiling). Decisions are evaluated during the time-ordered arrival
// pass, at most one step per eval_interval_s, so the provision timeline is a
// pure function of the trace + options and later retry/failover rounds replay
// against a fixed schedule — which is what keeps parallel runs deterministic.
struct AutoscaleOptions {
  // <= 0 disables autoscaling entirely (every replica always provisioned).
  int min_replicas = 0;
  // Scale out when the mean backlog of provisioned replicas (estimated
  // outstanding work / service rate) exceeds this many seconds.
  double scale_out_queue_s = 4.0;
  // Scale in when the mean backlog falls below this many seconds.
  double scale_in_queue_s = 0.5;
  // A newly opened replica takes this long to boot before admitting work.
  double provisioning_lag_s = 30.0;
  // Optional latency signal: also scale out when the windowed P99 of the
  // cost-model-predicted TBT of routed arrivals exceeds this bound (<= 0
  // disables the signal; tbt_window_s is the sliding sample window).
  double tbt_slo_s = 0.0;
  double tbt_window_s = 60.0;
  // Minimum spacing between signal evaluations and between scale decisions.
  double eval_interval_s = 5.0;
  double cooldown_s = 30.0;
};

enum class RoutingPolicy {
  kRoundRobin,
  // Assign to the replica with the least estimated outstanding work: the sum
  // of (prompt + expected output) tokens of its still-unfinished assignments,
  // aged by an estimated service rate.
  kLeastOutstandingWork,
};

std::string_view RoutingPolicyName(RoutingPolicy policy);

// What the router does with decode-phase requests on a detected-degraded
// replica: nothing, drain-and-recompute elsewhere, or live KV migration.
enum class FailoverMode {
  kNone = 0,
  kRecompute,
  kLiveMigrate,
};

std::string_view FailoverModeName(FailoverMode mode);

struct ClusterOptions {
  SimulatorOptions replica;  // Every replica is identical.
  int num_replicas = 2;
  RoutingPolicy routing = RoutingPolicy::kLeastOutstandingWork;
  // Estimated replica service rate (tokens/s) used to age outstanding work
  // for kLeastOutstandingWork; <= 0 derives a default from the cost model.
  double estimated_tokens_per_s = 0.0;

  // ---- Fault model ----
  FaultOptions faults;
  // Re-route attempts granted to a request interrupted by a replica crash.
  int max_retries = 2;
  // First retry waits this long after the crash; each further retry doubles
  // the wait.
  double retry_backoff_s = 0.25;
  // Admission control: shed an arrival when the least-loaded healthy
  // replica's estimated outstanding work exceeds this many seconds of
  // service (<= 0 disables shedding). Retries are never shed.
  double shed_outstanding_s = 0.0;
  // Horizon for generating outage schedules; <= 0 derives one from the trace
  // span plus its estimated drain time.
  double fault_horizon_s = 0.0;

  // ---- Gray-failure handling ----
  // Health-prober cadence and classifier thresholds.
  ProberOptions prober;
  // Circuit breaker: prefer replicas not currently detected degraded when
  // routing (arrivals, retries, failover and hedge destinations).
  bool avoid_degraded = true;
  // Failover for decode-phase requests caught on a detected-degraded replica.
  FailoverMode degraded_failover = FailoverMode::kNone;
  // The router waits this long after detection (or after the request's first
  // token, whichever is later) before pulling a request off the replica.
  double migration_delay_s = 0.25;
  // Live-migration link: serialized KV transfers at this bandwidth (bytes/s)
  // plus a fixed per-transfer latency. Transfer size is the checkpointed
  // context (prompt + generated - 1 tokens) times ModelSpec::KvBytesPerToken.
  double migration_bandwidth_Bps = 25e9;
  double migration_latency_s = 10e-6;
  // Hedged dispatch: re-dispatch a request still unfinished this long after
  // its replica was detected degraded (<= 0 disables hedging).
  double hedge_after_s = 0.0;
  // Per-replica slowdown schedules overriding FaultInjector::SlowdownsFor
  // (benchmarks pin episodes to exact replicas/times). Empty = derive from
  // `faults`; replicas beyond the vector get no episodes.
  std::vector<std::vector<SlowdownEpisode>> slowdown_overrides;

  // ---- Overload control (src/robustness) ----
  // Full-jitter crash-retry backoff: uniform in [0, retry_backoff_s *
  // 2^attempt), deterministic in (faults.seed, request id, attempt). Off
  // keeps the legacy un-jittered exponential backoff.
  bool retry_jitter = false;
  // Token-bucket retry budget: every initially-routed request credits
  // `retry_budget_ratio` tokens (balance capped at retry_budget_burst) and
  // every crash retry spends one; a request denied a token keeps its crash
  // failure. Bounds retry amplification to burst + ratio * arrivals, which is
  // what damps a metastable retry storm. ratio <= 0 disables.
  double retry_budget_ratio = 0.0;
  double retry_budget_burst = 8.0;
  // Backpressure propagation: when any allowed replica's estimated
  // outstanding work is at most this many seconds of service, routing is
  // restricted to such replicas (a bounded per-replica queue as seen from the
  // router). <= 0 disables.
  double backpressure_queue_s = 0.0;
  // Suspend hedged dispatch while every live replica's estimated outstanding
  // work exceeds this many seconds — a hedge under cluster-wide saturation
  // only adds load. <= 0 disables suppression.
  double hedge_suppress_outstanding_s = 0.0;

  // ---- Cascade resilience (correlated domains, partitions, recovery) ----
  // Correlated failure domains and network partitions arrive through
  // `faults` (FaultOptions::num_domains / domain_mtbf_s /
  // domain_partition_fraction). Replicas are assigned to contiguous balanced
  // domains; a domain crash merges into every member's outage schedule, a
  // domain partition leaves members executing but unreachable.
  //
  // Client timeout-retry behavior: a request whose deadline expired is
  // re-offered to the cluster up to this many times, each after a fixed
  // (deliberately synchronized — that is what real fleets of clients do)
  // timeout_retry_backoff_s, with a fresh full deadline. This is the
  // amplification loop that makes overload metastable: every timed-out
  // request comes back as new load. 0 disables (default).
  int timeout_retry_max = 0;
  double timeout_retry_backoff_s = 1.0;
  // Cascade breaker (src/robustness/cascade.h): compares offered load
  // against surviving capacity (from the shared cost model and the fault
  // schedules) and, while engaged, sheds arrivals beyond headroom x capacity
  // and denies timeout-retries outright. Default off.
  CascadeBreakerOptions cascade;
  // Slow-start staggered re-admission: a replica rejoining after a crash or
  // partition takes new work only through a ramped admission cap, members of
  // the same domain staggered so a domain rejoin is not a synchronized
  // re-admission spike. Default off.
  SlowStartOptions slow_start;
  // Nominal per-replica queue bound (seconds of service) the slow-start ramp
  // scales: a ramping replica at fraction f admits work only while its
  // estimated outstanding work is under f x this bound. <= 0 derives
  // backpressure_queue_s when set, else 4 s.
  double slow_start_cap_s = 0.0;

  // ---- Parallel sharded execution ----
  // Worker count for per-replica simulation. Replicas partition into
  // contiguous shards (shard of replica r = r * shards / num_replicas); each
  // round's dirty replicas simulate on a ThreadPool, one task per shard with
  // its own memoized cost model and invariant checker, and everything merges
  // back in replica-index order. 1 (default) is the pre-existing serial path;
  // <= 0 resolves to the hardware concurrency. Results are byte-identical for
  // every value — see docs/performance.md for the argument.
  int jobs = 1;

  // ---- Autoscaling ----
  // Off by default (min_replicas = 0: all num_replicas always provisioned).
  AutoscaleOptions autoscale;
};

class ClusterSimulator {
 public:
  explicit ClusterSimulator(const ClusterOptions& options);

  // Routes the trace, simulates every replica, re-routes crash-interrupted
  // requests, applies degraded failover and hedging, merges metrics. The
  // merged SimResult keeps the original trace requests in trace order (forked
  // siblings, if any, follow them); stage_busy_s and replica_downtime_s
  // concatenate all replicas' entries.
  SimResult Run(const Trace& trace);

  // The initial per-replica assignment of the most recent Run (trace index
  // -> replica id, -1 for shed requests), for tests and balance diagnostics.
  const std::vector<int>& last_assignment() const { return assignment_; }

  // The outage schedules the most recent Run injected (one vector per
  // replica), for tests and reporting.
  const std::vector<std::vector<ReplicaOutage>>& outage_schedules() const {
    return outage_schedules_;
  }

  // The slowdown schedules the most recent Run injected (one vector per
  // replica), for tests and reporting.
  const std::vector<std::vector<SlowdownEpisode>>& slowdown_schedules() const {
    return slowdown_schedules_;
  }

  // The degradation intervals the prober detected in the most recent Run
  // (one vector per replica; detection lags the injected episodes by EWMA
  // warm-up plus hysteresis on both edges).
  const std::vector<std::vector<DetectedInterval>>& detected_degraded() const {
    return detected_;
  }

  // The ground-truth partition windows the most recent Run injected (one
  // vector per replica; ReplicaOutage reused as a plain interval — the
  // replica keeps executing, it is only unreachable).
  const std::vector<std::vector<ReplicaOutage>>& partition_schedules() const {
    return partition_windows_;
  }

  // The unreachable intervals the prober detected in the most recent Run
  // (silence hysteresis on the onset edge, first answered probe on the clear
  // edge).
  const std::vector<std::vector<DetectedInterval>>& detected_unreachable() const {
    return detected_unreachable_;
  }

  // The replica -> failure-domain assignment of the most recent Run (empty
  // when no domains are configured).
  const std::vector<int>& domain_assignment() const { return domain_of_; }

  // The cascade breaker's engaged intervals in the most recent Run.
  const std::vector<CascadeInterval>& cascade_engaged() const { return cascade_engaged_; }

  // Per-replica provisioned windows of the most recent Run. Empty vectors
  // when autoscaling is off (every replica is then always provisioned).
  const std::vector<std::vector<ProvisionWindow>>& provision_windows() const {
    return provision_windows_;
  }

  // The autoscaler's decisions in the most recent Run, in time order.
  const std::vector<ScaleEvent>& scale_events() const { return scale_events_; }

  // Aggregated memo statistics of the cluster cost model plus every shard
  // model, for the cache-parity regression test: parallel runs must keep hit
  // rates within noise of serial runs.
  CostCacheStats cost_cache_stats() const;

 private:
  struct RouterState {
    std::vector<double> outstanding_tokens;
    std::vector<double> last_update;
    int rr_cursor = 0;
  };

  // True if `replica` is inside an outage at time `t`.
  bool DownAt(int replica, double t) const;
  // True if `replica` is inside a ground-truth partition at time `t` (still
  // executing, unreachable from the router).
  bool PartitionedAt(int replica, double t) const;
  // The injected slowdown factor of `replica` at time `t` (1.0 when healthy).
  double SlowdownFactorAt(int replica, double t) const;
  // True if the prober had classified `replica` degraded at time `t`.
  bool DetectedDegradedAt(int replica, double t) const;
  // True if the prober had classified `replica` unreachable at time `t`.
  bool DetectedUnreachableAt(int replica, double t) const;
  // Slow-start admission fraction of `replica` at `t`: 1 when no ramp is
  // active, 0 before its staggered gate opens, the linear ramp in between.
  double SlowStartFractionAt(int replica, double t) const;
  // True if `replica` is provisioned at time `t` (always true when
  // autoscaling is off).
  bool ProvisionedAt(int replica, double t) const;
  // Earliest time >= t at which any replica is up; t itself if one already is.
  double NextHealthyTime(double t) const;

  // Ages outstanding-work estimates to `now`.
  void AgeOutstanding(RouterState* state, double now) const;

  // Picks a replica for `tokens` of work arriving at `now` among replicas up
  // and not quarantined at `now`, avoiding `exclude` when any alternative
  // exists and preferring replicas not detected degraded, then not
  // backpressured (ClusterOptions::backpressure_queue_s). Returns -1 when no
  // replica qualifies. Non-const: it advances the rotating cursor, the
  // outstanding-work estimates and the backpressure-skip counter.
  int Route(int64_t tokens, double now, int exclude, RouterState* state);

  ClusterOptions options_;
  // One cost model for the whole cluster, built once at construction: the
  // service-rate estimate and every serial replica simulation — including
  // retry/failover/hedge re-simulation rounds — share its memo cache instead
  // of each rebuilding an IterationCostModel per probe. Sharded runs use
  // shard_models_ instead (the memo caches are not thread-safe; cached vs
  // uncached evaluation is bit-identical, so the split never changes results).
  std::shared_ptr<IterationCostModel> cost_model_;
  std::vector<std::shared_ptr<IterationCostModel>> shard_models_;
  double service_rate_;
  std::vector<int> assignment_;
  std::vector<std::vector<ReplicaOutage>> outage_schedules_;
  std::vector<std::vector<SlowdownEpisode>> slowdown_schedules_;
  std::vector<std::vector<DetectedInterval>> detected_;
  // ---- Cascade-resilience state (rebuilt per Run) ----
  std::vector<std::vector<ReplicaOutage>> partition_windows_;
  std::vector<std::vector<DetectedInterval>> detected_unreachable_;
  std::vector<int> domain_of_;        // Replica -> domain (-1 without domains).
  std::vector<int> domain_index_of_;  // 0-based index within the domain.
  // Rejoin instants (crash repair or partition heal) per replica, sorted —
  // each opens a slow-start ramp staggered by domain_index_of_.
  std::vector<std::vector<double>> rejoins_;
  std::vector<CascadeInterval> cascade_engaged_;
  int64_t slow_start_admits_ = 0;
  // Replicas the router is migrating off: no new work for the rest of the
  // run, so the checkpointed KV images stay consistent.
  std::vector<bool> quarantined_;
  // Routing decisions of the most recent Run that avoided a backpressured
  // replica (reset per Run, reported as SimResult::num_backpressure_skips).
  int64_t backpressure_skips_ = 0;
  // ---- Autoscaler state (rebuilt per Run) ----
  bool autoscale_active_ = false;
  std::vector<std::vector<ProvisionWindow>> provision_windows_;
  std::vector<ScaleEvent> scale_events_;
  // O(1) routing fast path: valid while no fault/detection signal exists, the
  // policy is round-robin, and neither backpressure nor slow-start gating is
  // configured — every Route() call then reduces to advancing the cursor over
  // the (contiguous) provisioned prefix. open_replicas_ tracks that prefix
  // length during the arrival pass; the flag drops to requiring
  // !autoscale_active_ afterwards (see Run).
  bool fast_route_ = false;
  int open_replicas_ = 0;
};

}  // namespace sarathi

#endif  // SRC_SIMULATOR_CLUSTER_SIMULATOR_H_
