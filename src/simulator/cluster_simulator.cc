#include "src/simulator/cluster_simulator.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <set>
#include <unordered_map>
#include <utility>

#include "src/common/intervals.h"
#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/obs_hooks.h"
#include "src/robustness/retry_budget.h"
#include "src/simulator/telemetry.h"
#include "src/verify/invariant_checker.h"

namespace sarathi {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();
constexpr size_t kNoSlot = static_cast<size_t>(-1);

// Inserts `request` keeping the sub-trace sorted by arrival time; among equal
// arrivals the new request goes last (stable).
void InsertSorted(Trace* trace, const Request& request) {
  auto it = std::upper_bound(trace->requests.begin(), trace->requests.end(),
                             request.arrival_time_s,
                             [](double t, const Request& r) { return t < r.arrival_time_s; });
  trace->requests.insert(it, request);
}

// Sub-trace request of the service attempt with this id and arrival time, for
// stamping planned aborts (migration checkpoints, drains, hedge cancels).
Request* FindSubRequest(Trace* trace, int64_t id, double arrival_s) {
  for (Request& r : trace->requests) {
    if (r.id == id && r.arrival_time_s == arrival_s) {
      return &r;
    }
  }
  return nullptr;
}

// Sorts and coalesces overlapping/adjacent intervals in place. Domain crash
// faults merge into the independent per-replica outage schedule, which every
// consumer (DownAt, ReplicaSimulator) expects sorted and non-overlapping.
void MergeIntervals(std::vector<ReplicaOutage>* intervals) {
  std::sort(intervals->begin(), intervals->end(),
            [](const ReplicaOutage& a, const ReplicaOutage& b) {
              if (a.down_s != b.down_s) {
                return a.down_s < b.down_s;
              }
              return a.up_s < b.up_s;
            });
  std::vector<ReplicaOutage> merged;
  for (const ReplicaOutage& interval : *intervals) {
    if (!merged.empty() && interval.down_s <= merged.back().up_s) {
      merged.back().up_s = std::max(merged.back().up_s, interval.up_s);
    } else {
      merged.push_back(interval);
    }
  }
  *intervals = std::move(merged);
}

}  // namespace

std::string_view RoutingPolicyName(RoutingPolicy policy) {
  switch (policy) {
    case RoutingPolicy::kRoundRobin:
      return "round_robin";
    case RoutingPolicy::kLeastOutstandingWork:
      return "least_outstanding_work";
  }
  return "unknown";
}

std::string_view FailoverModeName(FailoverMode mode) {
  switch (mode) {
    case FailoverMode::kNone:
      return "none";
    case FailoverMode::kRecompute:
      return "recompute";
    case FailoverMode::kLiveMigrate:
      return "live_migrate";
  }
  return "unknown";
}

ClusterSimulator::ClusterSimulator(const ClusterOptions& options) : options_(options) {
  CHECK_GE(options_.num_replicas, 1);
  CHECK_GE(options_.max_retries, 0);
  CHECK_GT(options_.retry_backoff_s, 0.0);
  CHECK_GT(options_.migration_bandwidth_Bps, 0.0);
  CHECK_GE(options_.migration_latency_s, 0.0);
  CHECK_GE(options_.migration_delay_s, 0.0);
  if (options_.autoscale.min_replicas > 0) {
    CHECK_LE(options_.autoscale.min_replicas, options_.num_replicas);
    CHECK_GT(options_.autoscale.eval_interval_s, 0.0);
    CHECK_GE(options_.autoscale.provisioning_lag_s, 0.0);
    CHECK_GE(options_.autoscale.cooldown_s, 0.0);
    CHECK_GT(options_.autoscale.scale_out_queue_s, options_.autoscale.scale_in_queue_s);
  }
  // Built once and shared with every replica simulation (always serial within
  // a cluster run), so probes and retry rounds reuse one memo cache instead
  // of reconstructing a model each time.
  cost_model_ = options_.replica.cost_model;
  if (cost_model_ == nullptr) {
    cost_model_ = std::make_shared<IterationCostModel>(
        options_.replica.model, options_.replica.cluster, options_.replica.parallel);
  }
  if (options_.estimated_tokens_per_s > 0.0) {
    service_rate_ = options_.estimated_tokens_per_s;
  } else {
    // Default estimate: tokens a budget-sized hybrid iteration retires per
    // second, from the replica's cost model, derated for decode-phase
    // inefficiency (a request's decode tokens drain far slower than its
    // prefill tokens). Overestimating the drain would zero every replica's
    // outstanding count and blind the balancer.
    BatchWork probe;
    probe.sequences.push_back(SequenceWork::PrefillChunk(1024, 512));
    double iteration = cost_model_->IterationCost(probe).Total();
    service_rate_ = 0.4 * 512.0 / std::max(iteration, 1e-9);
  }
}

bool ClusterSimulator::DownAt(int replica, double t) const {
  return CoveringInterval(outage_schedules_[static_cast<size_t>(replica)], t,
                          &ReplicaOutage::down_s, &ReplicaOutage::up_s) != nullptr;
}

bool ClusterSimulator::PartitionedAt(int replica, double t) const {
  return CoveringInterval(partition_windows_[static_cast<size_t>(replica)], t,
                          &ReplicaOutage::down_s, &ReplicaOutage::up_s) != nullptr;
}

double ClusterSimulator::SlowdownFactorAt(int replica, double t) const {
  const SlowdownEpisode* episode =
      CoveringInterval(slowdown_schedules_[static_cast<size_t>(replica)], t,
                       &SlowdownEpisode::start_s, &SlowdownEpisode::end_s);
  return episode != nullptr ? episode->factor : 1.0;
}

// HealthProber appends detected intervals in time order and closes each one
// before it opens the next, so they are sorted and disjoint.
bool ClusterSimulator::DetectedDegradedAt(int replica, double t) const {
  return CoveringInterval(detected_[static_cast<size_t>(replica)], t,
                          &DetectedInterval::begin_s, &DetectedInterval::end_s) != nullptr;
}

bool ClusterSimulator::DetectedUnreachableAt(int replica, double t) const {
  return CoveringInterval(detected_unreachable_[static_cast<size_t>(replica)], t,
                          &DetectedInterval::begin_s, &DetectedInterval::end_s) != nullptr;
}

double ClusterSimulator::SlowStartFractionAt(int replica, double t) const {
  if (!options_.slow_start.enabled) {
    return 1.0;
  }
  // The ramp opened by the latest rejoin at or before t governs; earlier
  // ramps have either completed or been superseded.
  const auto& rejoins = rejoins_[static_cast<size_t>(replica)];
  double fraction = 1.0;
  for (auto it = rejoins.rbegin(); it != rejoins.rend(); ++it) {
    if (*it <= t) {
      fraction = SlowStartFraction(options_.slow_start, *it,
                                   domain_index_of_[static_cast<size_t>(replica)], t);
      break;
    }
  }
  return fraction;
}

bool ClusterSimulator::ProvisionedAt(int replica, double t) const {
  // Windows are appended in from_s order.
  return !autoscale_active_ ||
         CoveringInterval(provision_windows_[static_cast<size_t>(replica)], t,
                          &ProvisionWindow::from_s, &ProvisionWindow::to_s) != nullptr;
}

CostCacheStats ClusterSimulator::cost_cache_stats() const {
  CostCacheStats total = cost_model_->cache_stats();
  for (const auto& model : shard_models_) {
    const CostCacheStats& stats = model->cache_stats();
    total.linear_hits += stats.linear_hits;
    total.linear_misses += stats.linear_misses;
    total.shape_hits += stats.shape_hits;
    total.shape_misses += stats.shape_misses;
  }
  return total;
}

double ClusterSimulator::NextHealthyTime(double t) const {
  double earliest_up = kInfinity;
  for (int r = 0; r < options_.num_replicas; ++r) {
    if (!DownAt(r, t)) {
      return t;
    }
    for (const ReplicaOutage& outage : outage_schedules_[static_cast<size_t>(r)]) {
      if (t >= outage.down_s && t < outage.up_s) {
        earliest_up = std::min(earliest_up, outage.up_s);
        break;
      }
    }
  }
  return earliest_up;
}

void ClusterSimulator::AgeOutstanding(RouterState* state, double now) const {
  for (int i = 0; i < options_.num_replicas; ++i) {
    auto& last = state->last_update[static_cast<size_t>(i)];
    if (last >= now) {
      continue;  // Out-of-order retry timestamps never rewind the estimate.
    }
    auto& tokens = state->outstanding_tokens[static_cast<size_t>(i)];
    tokens = std::max(0.0, tokens - (now - last) * service_rate_);
    last = now;
  }
}

int ClusterSimulator::Route(int64_t tokens, double now, int exclude,
                            RouterState* state) {
  const int n = options_.num_replicas;
  // O(1) fast path for the fleet-scale hot loop: with no fault or detection
  // signal anywhere, no quarantine possible, round-robin routing, and neither
  // backpressure nor slow-start gating configured, the general scan below
  // always picks the cursor itself (or, under autoscaling, the first replica
  // of the provisioned prefix [0, open_replicas_) when the cursor is past
  // it). This reproduces the general path's picks and state updates exactly —
  // the general RR branch never ages outstanding estimates — so taking it is
  // invisible to results.
  if (fast_route_ && exclude < 0) {
    int pick = state->rr_cursor;
    if (autoscale_active_ && pick >= open_replicas_) {
      if (open_replicas_ == 0) {
        return -1;  // Nothing provisioned (matches the num_live == 0 return).
      }
      pick = 0;  // The scan wraps to the provisioned prefix [0, open).
    }
    state->rr_cursor = (state->rr_cursor + 1) % n;
    state->outstanding_tokens[static_cast<size_t>(pick)] += static_cast<double>(tokens);
    return pick;
  }
  // A ground-truth-partitioned replica is not dispatchable: a new connection
  // to it never answers, so the router's dispatch attempt fails exactly like
  // a connection to a crashed host — what it cannot tell (dead vs
  // unreachable) is how to treat the work already in flight there, which is
  // the prober's job. An unprovisioned replica (autoscaling) has no host to
  // connect to at all.
  auto live = [&](int r) {
    return !DownAt(r, now) && !PartitionedAt(r, now) &&
           !quarantined_[static_cast<size_t>(r)] && ProvisionedAt(r, now);
  };
  // Detected-degraded and detected-unreachable replicas are shunned alike
  // while a clean alternative exists.
  auto suspect = [&](int r) {
    return DetectedDegradedAt(r, now) || DetectedUnreachableAt(r, now);
  };
  int num_live = 0;       // Up, reachable, and not quarantined.
  int num_preferred = 0;  // Live and not detected degraded/unreachable.
  for (int r = 0; r < n; ++r) {
    bool is_live = live(r);
    num_live += is_live ? 1 : 0;
    num_preferred += (is_live && !suspect(r)) ? 1 : 0;
  }
  if (num_live == 0) {
    return -1;
  }
  // Circuit breaker: when any live replica is not detected degraded, restrict
  // the choice to those; otherwise fall back to whatever is live.
  bool prefer = options_.avoid_degraded && num_preferred > 0;
  // Avoid the replica that just failed the request — unless it is the only
  // eligible one standing.
  int num_eligible = prefer ? num_preferred : num_live;
  bool avoid = exclude >= 0 && !(num_eligible == 1 && live(exclude) &&
                                 (!prefer || !suspect(exclude)));
  auto eligible = [&](int r) {
    return live(r) && !(prefer && suspect(r)) && !(avoid && r == exclude);
  };
  // Backpressure propagation: a replica whose estimated outstanding work
  // exceeds the bound has a standing queue; while any eligible replica is
  // under the bound, restrict the choice to those. When every eligible
  // replica is over the bound, backpressure cannot help and routing falls
  // back to plain least-loaded (shedding is the admission layer's job).
  bool shun_pressured = false;
  auto pressured = [&](int r) {
    return state->outstanding_tokens[static_cast<size_t>(r)] >
           options_.backpressure_queue_s * service_rate_;
  };
  if (options_.backpressure_queue_s > 0.0) {
    AgeOutstanding(state, now);
    int num_unpressured = 0;
    int num_allowed = 0;
    for (int r = 0; r < n; ++r) {
      if (!eligible(r)) {
        continue;
      }
      ++num_allowed;
      num_unpressured += pressured(r) ? 0 : 1;
    }
    if (num_unpressured > 0 && num_unpressured < num_allowed) {
      shun_pressured = true;
      ++backpressure_skips_;
    }
  }
  // Slow-start gating (anti-metastable): a replica still ramping after a
  // rejoin only accepts outstanding work up to its current admission fraction
  // of the queue bound. While any replica that backpressure left eligible is
  // not ramp-limited, restrict the choice to those; when every choice is
  // ramping, the least-loaded fallback still routes (the breaker, not the
  // router, decides what to refuse outright). Counting only what backpressure
  // left keeps the two gates from excluding every live replica between them.
  bool shun_ramping = false;
  auto ramp_limited = [&](int r) {
    double fraction = SlowStartFractionAt(r, now);
    if (fraction >= 1.0) {
      return false;
    }
    if (fraction <= 0.0) {
      return true;  // Stagger gate not open yet: admit nothing.
    }
    double cap_s = options_.slow_start_cap_s > 0.0       ? options_.slow_start_cap_s
                   : options_.backpressure_queue_s > 0.0 ? options_.backpressure_queue_s
                                                         : 4.0;
    return state->outstanding_tokens[static_cast<size_t>(r)] >
           fraction * cap_s * service_rate_;
  };
  if (options_.slow_start.enabled) {
    AgeOutstanding(state, now);
    int num_open = 0;
    int num_allowed = 0;
    for (int r = 0; r < n; ++r) {
      if (!eligible(r) || (shun_pressured && pressured(r))) {
        continue;
      }
      ++num_allowed;
      num_open += ramp_limited(r) ? 0 : 1;
    }
    if (num_open > 0 && num_open < num_allowed) {
      shun_ramping = true;
    }
  }
  auto allowed = [&](int r) {
    return eligible(r) && !(shun_pressured && pressured(r)) &&
           !(shun_ramping && ramp_limited(r));
  };

  int pick = -1;
  if (options_.routing == RoutingPolicy::kRoundRobin) {
    for (int k = 0; k < n; ++k) {
      int r = (state->rr_cursor + k) % n;
      if (allowed(r)) {
        pick = r;
        break;
      }
    }
  } else {
    // Age each replica's outstanding estimate, then pick the least loaded.
    // The scan starts at a rotating offset so drained (all-zero) states
    // degrade to round-robin instead of pinning replica 0.
    AgeOutstanding(state, now);
    for (int k = 0; k < n; ++k) {
      int r = (state->rr_cursor + k) % n;
      if (!allowed(r)) {
        continue;
      }
      if (pick < 0 || state->outstanding_tokens[static_cast<size_t>(r)] <
                          state->outstanding_tokens[static_cast<size_t>(pick)]) {
        pick = r;
      }
    }
  }
  state->rr_cursor = (state->rr_cursor + 1) % n;
  if (pick < 0) {
    return -1;  // Everything live was excluded.
  }
  if (options_.slow_start.enabled && SlowStartFractionAt(pick, now) < 1.0) {
    ++slow_start_admits_;  // Admitted under a rejoining replica's ramp.
  }
  state->outstanding_tokens[static_cast<size_t>(pick)] += static_cast<double>(tokens);
  return pick;
}

SimResult ClusterSimulator::Run(const Trace& trace) {
  const int n = options_.num_replicas;
  const size_t num_requests = trace.size();

  FaultInjector injector(options_.faults);
  Trace stamped = trace;
  injector.ApplyTimeouts(&stamped);

  double last_arrival = 0.0;
  int64_t trace_tokens = 0;
  for (const Request& r : stamped.requests) {
    last_arrival = std::max(last_arrival, r.arrival_time_s);
    trace_tokens += r.total_tokens();
  }
  double horizon = options_.fault_horizon_s;
  if (horizon <= 0.0) {
    // Cover the arrival span plus a generous multiple of the estimated drain.
    horizon = last_arrival + 60.0 +
              4.0 * static_cast<double>(trace_tokens) / (service_rate_ * n);
  }
  outage_schedules_.assign(static_cast<size_t>(n), {});
  slowdown_schedules_.assign(static_cast<size_t>(n), {});
  for (int r = 0; r < n; ++r) {
    outage_schedules_[static_cast<size_t>(r)] = injector.OutagesFor(r, horizon);
    if (!options_.slowdown_overrides.empty()) {
      if (static_cast<size_t>(r) < options_.slowdown_overrides.size()) {
        slowdown_schedules_[static_cast<size_t>(r)] =
            options_.slowdown_overrides[static_cast<size_t>(r)];
      }
    } else {
      slowdown_schedules_[static_cast<size_t>(r)] = injector.SlowdownsFor(r, horizon);
    }
  }
  quarantined_.assign(static_cast<size_t>(n), false);

  // ---- Autoscaling ----
  // Replicas [0, min_replicas) are provisioned for the whole run (the floor
  // that guarantees the router always has a destination); everything above
  // the floor opens and closes as the arrival pass evaluates the signals.
  // The provisioned set is always a contiguous prefix [0, k): scale-out opens
  // the lowest-index unopened replica, scale-in closes (or cancels) the
  // highest-index open-or-pending one, and launches activate in index order —
  // the invariant the O(1) routing fast path relies on.
  autoscale_active_ = options_.autoscale.min_replicas > 0;
  provision_windows_.assign(static_cast<size_t>(n), {});
  scale_events_.clear();
  const int min_provisioned =
      autoscale_active_ ? std::min(options_.autoscale.min_replicas, n) : n;
  if (autoscale_active_) {
    for (int r = 0; r < min_provisioned; ++r) {
      provision_windows_[static_cast<size_t>(r)].push_back({0.0, kInfinity});
    }
  }
  open_replicas_ = min_provisioned;

  // ---- Correlated failure domains ----
  // Replicas are grouped into contiguous, balanced domains; a domain fault
  // takes every member out at once. Crash faults merge into the members'
  // independent outage schedules (every downstream consumer sees one sorted,
  // non-overlapping schedule). Partition faults form their own windows: the
  // member keeps executing, but nothing it emits reaches the client and no
  // new work can be dispatched to it until the window heals.
  partition_windows_.assign(static_cast<size_t>(n), {});
  domain_of_.assign(static_cast<size_t>(n), 0);
  domain_index_of_.assign(static_cast<size_t>(n), 0);
  std::vector<DomainStatus> domain_status;
  if (options_.faults.any_domain_faults()) {
    const int num_domains = std::min(options_.faults.num_domains, n);
    domain_status.resize(static_cast<size_t>(num_domains));
    std::vector<int> members_seen(static_cast<size_t>(num_domains), 0);
    for (int r = 0; r < n; ++r) {
      int d = r * num_domains / n;
      domain_of_[static_cast<size_t>(r)] = d;
      domain_index_of_[static_cast<size_t>(r)] = members_seen[static_cast<size_t>(d)]++;
    }
    for (int d = 0; d < num_domains; ++d) {
      DomainStatus& status = domain_status[static_cast<size_t>(d)];
      status.domain = d;
      status.num_replicas = members_seen[static_cast<size_t>(d)];
      for (const DomainFault& fault : injector.DomainFaultsFor(d, horizon)) {
        double span = std::min(fault.up_s, horizon) - fault.down_s;
        if (fault.kind == DomainFaultKind::kCrash) {
          ++status.crashes;
          status.down_s += span * status.num_replicas;
        } else {
          ++status.partitions;
          status.partitioned_s += span * status.num_replicas;
        }
        for (int r = 0; r < n; ++r) {
          if (domain_of_[static_cast<size_t>(r)] != d) {
            continue;
          }
          auto* schedule = fault.kind == DomainFaultKind::kCrash
                               ? &outage_schedules_[static_cast<size_t>(r)]
                               : &partition_windows_[static_cast<size_t>(r)];
          schedule->push_back({fault.down_s, fault.up_s});
        }
      }
    }
    for (int r = 0; r < n; ++r) {
      MergeIntervals(&outage_schedules_[static_cast<size_t>(r)]);
      MergeIntervals(&partition_windows_[static_cast<size_t>(r)]);
    }
  }
  // Slow-start ramps open at every rejoin — crash recovery or partition heal,
  // domain-correlated or independent alike.
  rejoins_.assign(static_cast<size_t>(n), {});
  if (options_.slow_start.enabled) {
    for (int r = 0; r < n; ++r) {
      auto& rejoins = rejoins_[static_cast<size_t>(r)];
      for (const ReplicaOutage& outage : outage_schedules_[static_cast<size_t>(r)]) {
        rejoins.push_back(outage.up_s);
      }
      for (const ReplicaOutage& window : partition_windows_[static_cast<size_t>(r)]) {
        rejoins.push_back(window.up_s);
      }
      std::sort(rejoins.begin(), rejoins.end());
    }
  }

  // ---- Health probing ----
  // The prober replays the fault schedules (ground truth the replicas will
  // execute) on its fixed cadence before any simulation: detection intervals
  // are a pure function of the schedules, with realistic lag from EWMA
  // warm-up and hysteresis, and are then consulted by every routing decision
  // at that decision's own timestamp — no oracle.
  detected_.assign(static_cast<size_t>(n), {});
  detected_unreachable_.assign(static_cast<size_t>(n), {});
  HealthProber prober(n, options_.prober);
  bool any_signal = false;
  for (int r = 0; r < n; ++r) {
    any_signal |= !outage_schedules_[static_cast<size_t>(r)].empty() ||
                  !slowdown_schedules_[static_cast<size_t>(r)].empty() ||
                  !partition_windows_[static_cast<size_t>(r)].empty();
  }
  // O(1) routing fast path (see Route): valid while nothing can make the
  // general scan deviate from "pick the cursor within the provisioned
  // prefix" — no fault/detection signal anywhere (which also rules out
  // quarantine: failover needs a detection to act on), round-robin policy,
  // and no backpressure or slow-start queue gating.
  fast_route_ = !any_signal && options_.routing == RoutingPolicy::kRoundRobin &&
                !options_.slow_start.enabled && options_.backpressure_queue_s <= 0.0;
  if (any_signal) {
    for (double t = options_.prober.probe_interval_s; t <= horizon;
         t += options_.prober.probe_interval_s) {
      for (int r = 0; r < n; ++r) {
        if (DownAt(r, t)) {
          // Connection refused: the prober knows the replica is dead.
          prober.MarkDown(r, t);
        } else if (PartitionedAt(r, t)) {
          // Probe sent, no answer: silence, which the prober must not
          // misread as death — after enough consecutive silent samples it
          // declares the replica unreachable instead.
          prober.ObserveSilence(r, t);
        } else {
          prober.Observe(r, t, SlowdownFactorAt(r, t));
        }
      }
    }
    for (int r = 0; r < n; ++r) {
      detected_[static_cast<size_t>(r)] = prober.DegradedIntervals(r);
      detected_unreachable_[static_cast<size_t>(r)] = prober.UnreachableIntervals(r);
    }
  }

  // ---- Observability ----
  // Retry rounds re-simulate replicas from scratch; a shared tracer would
  // accumulate duplicate events from the discarded rounds. Instead every
  // simulate() call starts that replica on a fresh tracer/registry (replacing
  // the previous round's), and the final per-replica state merges into the
  // caller's sinks at the end of Run. Router-level events (sheds, retries,
  // health transitions, failovers, hedges) are recorded directly into the
  // destination tracer as process `n`.
  Tracer* dest_tracer = options_.replica.tracer;
  MetricsRegistry* dest_metrics = options_.replica.metrics;
  // The flight recorder and SLO monitor get the merged, client-visible
  // timeline replayed post-hoc (end of Run) rather than the per-round replica
  // feeds, which would double-count every re-simulated attempt and fire
  // triggers for rounds that were discarded.
  FlightRecorder* flight = options_.replica.flight;
  SloMonitor* slo = options_.replica.slo;
  ObsHooks router_obs;
  router_obs.tracer = dest_tracer;
  router_obs.metrics = dest_metrics;
  std::vector<std::unique_ptr<Tracer>> replica_tracers(static_cast<size_t>(n));
  std::vector<std::unique_ptr<MetricsRegistry>> replica_metrics(static_cast<size_t>(n));
  if (dest_tracer != nullptr) {
    dest_tracer->set_default_pid(n);
    dest_tracer->SetProcessName(n, "router");
    for (const HealthTransition& tr : prober.transitions()) {
      dest_tracer->Instant("router", dest_tracer->Pool(ReplicaHealthName(tr.to)), tr.time_s,
                           {Arg("replica", static_cast<int64_t>(tr.replica))});
    }
    for (int r = 0; r < n; ++r) {
      for (const ReplicaOutage& window : partition_windows_[static_cast<size_t>(r)]) {
        dest_tracer->Instant("router", "partition", window.down_s,
                             {Arg("replica", static_cast<int64_t>(r))});
        dest_tracer->Instant("router", "rejoined", window.up_s,
                             {Arg("replica", static_cast<int64_t>(r))});
      }
    }
  }
  if (dest_metrics != nullptr) {
    for (const HealthTransition& tr : prober.transitions()) {
      dest_metrics->AddCount("probe_transitions", tr.time_s);
    }
  }

  // ---- Initial routing (health-aware, with admission control) ----
  std::vector<Trace> sub(static_cast<size_t>(n));
  for (Trace& s : sub) {
    s.name = trace.name;
  }
  assignment_.assign(num_requests, -1);
  // Service-attempt history per trace request: (replica, attempt arrival).
  // migrated_in marks attempts that resumed from transferred KV.
  struct Attempt {
    int replica;
    double arrival_s;
    bool migrated_in = false;
  };
  std::vector<std::vector<Attempt>> chains(num_requests);
  std::vector<bool> shed(num_requests, false);
  // Router-decided final failures: a retry whose remaining deadline had
  // already expired is recorded as a timeout, not retried.
  std::vector<std::pair<FailureKind, double>> failure_override(
      num_requests, {FailureKind::kNone, -1.0});

  RouterState router;
  router.outstanding_tokens.assign(static_cast<size_t>(n), 0.0);
  router.last_update.assign(static_cast<size_t>(n), 0.0);
  backpressure_skips_ = 0;
  slow_start_admits_ = 0;

  // ---- Cascade breaker ----
  // The breaker works from the offered-load and surviving-capacity timelines
  // alone — both known up front (arrivals from the trace, capacity steps from
  // the ground-truth fault schedules and the memoized cost model's
  // service-rate estimate). It engages when offered load outruns surviving
  // capacity, sheds down to a survivable fraction while engaged, and clears
  // only once the modeled backlog has drained — the condition that prevents
  // metastable lock-in.
  cascade_engaged_.clear();
  CascadeBreaker breaker(options_.cascade);
  if (options_.cascade.enabled) {
    std::vector<RateSample> arrivals;
    arrivals.reserve(num_requests);
    for (const Request& r : stamped.requests) {
      arrivals.push_back({r.arrival_time_s, static_cast<double>(r.total_tokens())});
    }
    std::sort(arrivals.begin(), arrivals.end(),
              [](const RateSample& a, const RateSample& b) { return a.t_s < b.t_s; });
    std::vector<double> edges = {0.0};
    for (int r = 0; r < n; ++r) {
      for (const ReplicaOutage& outage : outage_schedules_[static_cast<size_t>(r)]) {
        edges.push_back(outage.down_s);
        edges.push_back(outage.up_s);
      }
      for (const ReplicaOutage& window : partition_windows_[static_cast<size_t>(r)]) {
        edges.push_back(window.down_s);
        edges.push_back(window.up_s);
      }
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    std::vector<RateSample> capacity;
    capacity.reserve(edges.size());
    for (double e : edges) {
      int up = 0;
      for (int r = 0; r < n; ++r) {
        up += (!DownAt(r, e) && !PartitionedAt(r, e)) ? 1 : 0;
      }
      capacity.push_back({e, static_cast<double>(up) * service_rate_});
    }
    breaker.Build(arrivals, capacity, horizon);
    cascade_engaged_ = breaker.engaged();
    if (dest_tracer != nullptr) {
      for (const CascadeInterval& interval : cascade_engaged_) {
        dest_tracer->Instant("router", "cascade_engaged", interval.begin_s);
        dest_tracer->Instant("router", "cascade_cleared", interval.end_s);
      }
    }
  }

  // Token-bucket retry budget (overload control): credited by initial
  // routing, spent by crash retries. A request denied a token never re-asks —
  // its crash failure stands — so denials are bounded by the request count.
  RetryBudget retry_budget(options_.retry_budget_ratio, options_.retry_budget_burst);
  if (router_obs.active()) {
    retry_budget.set_obs(&router_obs);
  }
  std::vector<bool> retry_denied(num_requests, false);
  int64_t retries_denied = 0;
  int64_t hedges_suppressed = 0;

  // ---- Autoscaler pass state ----
  // Decisions are made only here, at arrival-time eval instants, so the
  // provision timeline is fixed before any replica simulates and later
  // retry/failover rounds replay against the same windows — deterministic by
  // construction. Launch activations (from_s = decision + provisioning lag)
  // are applied as the time-ordered pass reaches them.
  int64_t autoscale_out = 0;
  int64_t autoscale_in = 0;
  int peak_provisioned = autoscale_active_ ? min_provisioned : 0;
  std::vector<std::pair<double, int>> pending_activation;  // (from_s, replica)
  size_t activation_ptr = 0;
  int opened_or_pending = min_provisioned;
  double next_eval = 0.0;
  double last_scale = -kInfinity;
  // Sliding window of cost-model-predicted TBT samples for the latency
  // signal, plus a memo keyed by (concurrency, quantized context) — the
  // prediction is a pure function of those two.
  std::vector<std::pair<double, double>> tbt_samples;
  size_t tbt_head = 0;
  std::unordered_map<int64_t, double> tbt_memo;
  auto apply_activation = [&](const std::pair<double, int>& activation) {
    ++open_replicas_;
    if (options_.slow_start.enabled) {
      // A scale-out activation is a rejoin: the fresh replica re-admits
      // through the same staggered ramp a crash-recovered one would.
      auto& rejoins = rejoins_[static_cast<size_t>(activation.second)];
      rejoins.insert(std::upper_bound(rejoins.begin(), rejoins.end(), activation.first),
                     activation.first);
    }
  };

  for (size_t i = 0; i < num_requests; ++i) {
    const Request& request = stamped.requests[i];
    double t = request.arrival_time_s;
    if (autoscale_active_) {
      while (activation_ptr < pending_activation.size() &&
             pending_activation[activation_ptr].first <= t) {
        apply_activation(pending_activation[activation_ptr]);
        ++activation_ptr;
      }
      peak_provisioned = std::max(peak_provisioned, open_replicas_);
      if (t >= next_eval) {
        next_eval = t + options_.autoscale.eval_interval_s;
        AgeOutstanding(&router, t);
        double backlog = 0.0;
        for (int r = 0; r < open_replicas_; ++r) {
          backlog += router.outstanding_tokens[static_cast<size_t>(r)];
        }
        backlog /= static_cast<double>(std::max(1, open_replicas_)) * service_rate_;
        double p99 = 0.0;
        if (options_.autoscale.tbt_slo_s > 0.0) {
          while (tbt_head < tbt_samples.size() &&
                 tbt_samples[tbt_head].first < t - options_.autoscale.tbt_window_s) {
            ++tbt_head;
          }
          if (tbt_head < tbt_samples.size()) {
            std::vector<double> window;
            window.reserve(tbt_samples.size() - tbt_head);
            for (size_t s = tbt_head; s < tbt_samples.size(); ++s) {
              window.push_back(tbt_samples[s].second);
            }
            size_t rank = (window.size() - 1) * 99 / 100;
            std::nth_element(window.begin(), window.begin() + static_cast<long>(rank),
                             window.end());
            p99 = window[rank];
          }
        }
        bool slow = options_.autoscale.tbt_slo_s > 0.0 && p99 > options_.autoscale.tbt_slo_s;
        bool cooled = t - last_scale >= options_.autoscale.cooldown_s;
        if (cooled && (backlog > options_.autoscale.scale_out_queue_s || slow) &&
            opened_or_pending < n) {
          int idx = opened_or_pending++;
          double from_s = t + options_.autoscale.provisioning_lag_s;
          provision_windows_[static_cast<size_t>(idx)].push_back({from_s, kInfinity});
          pending_activation.push_back({from_s, idx});
          scale_events_.push_back({t, idx, true});
          ++autoscale_out;
          last_scale = t;
          if (dest_tracer != nullptr) {
            dest_tracer->Instant("router", "scale_out", t,
                                 {Arg("replica", static_cast<int64_t>(idx))});
          }
          if (dest_metrics != nullptr) {
            dest_metrics->AddCount("scale_events", t);
          }
        } else if (cooled && !slow && backlog < options_.autoscale.scale_in_queue_s &&
                   opened_or_pending > min_provisioned) {
          int idx = --opened_or_pending;
          auto& windows = provision_windows_[static_cast<size_t>(idx)];
          if (windows.back().from_s > t) {
            // Still booting: cancel the launch outright. Activations are in
            // index order, so the cancelled one is the newest pending entry.
            windows.pop_back();
            pending_activation.pop_back();
          } else {
            windows.back().to_s = t;  // Drain: no new work, in-flight finishes.
            --open_replicas_;
          }
          scale_events_.push_back({t, idx, false});
          ++autoscale_in;
          last_scale = t;
          if (dest_tracer != nullptr) {
            dest_tracer->Instant("router", "scale_in", t,
                                 {Arg("replica", static_cast<int64_t>(idx))});
          }
          if (dest_metrics != nullptr) {
            dest_metrics->AddCount("scale_events", t);
          }
        }
      }
    }
    bool any_up;
    if (!any_signal) {
      // No outage/partition window exists anywhere: reachability reduces to
      // having a provisioned replica, with no per-replica scan.
      any_up = !autoscale_active_ || open_replicas_ > 0;
    } else {
      any_up = false;
      for (int r = 0; r < n; ++r) {
        any_up |= !DownAt(r, t) && !PartitionedAt(r, t) && ProvisionedAt(r, t);
      }
    }
    auto record_shed = [&](const char* reason) {
      if (dest_tracer != nullptr) {
        dest_tracer->Instant("router", "shed", t,
                             {Arg("request", request.id), Arg("reason", reason)});
      }
      if (dest_metrics != nullptr) {
        dest_metrics->AddCount("shed", t);
      }
    };
    if (!any_up) {
      shed[i] = true;  // Whole cluster down: reject immediately.
      record_shed("cluster_down");
      continue;
    }
    if (options_.shed_outstanding_s > 0.0) {
      AgeOutstanding(&router, t);
      double least = kInfinity;
      for (int r = 0; r < n; ++r) {
        if (!DownAt(r, t) && ProvisionedAt(r, t)) {
          least = std::min(least, router.outstanding_tokens[static_cast<size_t>(r)]);
        }
      }
      if (least / service_rate_ > options_.shed_outstanding_s) {
        shed[i] = true;
        record_shed("overload");
        continue;
      }
    }
    if (options_.cascade.enabled && !breaker.AdmitArrival(t, request.total_tokens())) {
      shed[i] = true;  // Breaker engaged: shed down to survivable load.
      record_shed("cascade");
      continue;
    }
    int pick = Route(request.total_tokens(), t, /*exclude=*/-1, &router);
    CHECK_GE(pick, 0);  // Quarantine is empty during initial routing.
    if (autoscale_active_ && options_.autoscale.tbt_slo_s > 0.0) {
      // Latency signal sample: the cost model's decode-iteration time at the
      // destination's estimated concurrency — its outstanding work divided
      // into requests of this arrival's size, decoding at mid-generation
      // context (quantized so the memo stays small).
      int64_t context = request.prompt_tokens + request.output_tokens / 2;
      int64_t context_q = (context / 64 + 1) * 64;
      int64_t concurrency = std::max<int64_t>(
          1, static_cast<int64_t>(
                 router.outstanding_tokens[static_cast<size_t>(pick)] /
                 static_cast<double>(std::max<int64_t>(1, request.total_tokens()))));
      concurrency = std::min<int64_t>(concurrency, 64);
      int64_t key = (concurrency << 32) | context_q;
      auto [memo, inserted] = tbt_memo.try_emplace(key, 0.0);
      if (inserted) {
        BatchWork batch;
        for (int64_t s = 0; s < concurrency; ++s) {
          batch.sequences.push_back(SequenceWork::Decode(context_q));
        }
        memo->second = cost_model_->IterationCost(batch).Total();
      }
      tbt_samples.push_back({t, memo->second});
    }
    assignment_[i] = pick;
    chains[i].push_back({pick, t, false});
    retry_budget.OnRequest(t);
    InsertSorted(&sub[static_cast<size_t>(pick)], request);
  }
  if (autoscale_active_) {
    // Launches still pending after the last arrival open anyway (their
    // windows exist); account them and drop the O(1) fast path — Route calls
    // from retry/failover rounds land at arbitrary times and must consult
    // the windows themselves.
    while (activation_ptr < pending_activation.size()) {
      apply_activation(pending_activation[activation_ptr]);
      ++activation_ptr;
    }
    peak_provisioned = std::max(peak_provisioned, open_replicas_);
    fast_route_ = false;
  }

  // Absolute client deadline per request (0 = none). A client timeout-retry
  // restarts the client's clock, so the window is mutable state rather than a
  // pure function of the stamped trace.
  std::vector<double> deadline_abs(num_requests, 0.0);
  for (size_t i = 0; i < num_requests; ++i) {
    if (stamped.requests[i].deadline_s > 0.0) {
      deadline_abs[i] = stamped.requests[i].arrival_time_s + stamped.requests[i].deadline_s;
    }
  }

  // Every re-routed service attempt — crash retry, timeout re-offer, drain
  // failover, live migration, race duplicate — is built here: a copy of trace
  // request i arriving on `replica` at `t`, in a round of its own (a distinct
  // async-span id, even when it lands back on a replica that already traced
  // an attempt of this request), with only the remainder of the client's
  // current deadline window. A client re-offer (`restart_clock`) instead
  // restarts that window in full. A live migration's destination resumes
  // after `restored_generated` tokens. The caller appends the returned
  // attempt to the chain or records it as a race duplicate.
  auto dispatch = [&](size_t i, int replica, double t, std::set<int>* dirty,
                      int64_t restored_generated = 0, bool restart_clock = false) {
    Request attempt = stamped.requests[i];
    attempt.arrival_time_s = t;
    attempt.retry_round = static_cast<int64_t>(chains[i].size());
    attempt.restored_generated = restored_generated;
    if (attempt.deadline_s > 0.0) {
      if (restart_clock) {
        deadline_abs[i] = t + attempt.deadline_s;
      } else {
        attempt.deadline_s = deadline_abs[i] - t;
      }
    }
    InsertSorted(&sub[static_cast<size_t>(replica)], attempt);
    dirty->insert(replica);
    return Attempt{replica, t, restored_generated > 0};
  };

  // ---- Simulate; re-route crash-interrupted requests until quiescent ----
  std::vector<SimResult> results(static_cast<size_t>(n));
  // Per-replica attempt index: request id -> (attempt arrival, metrics slot),
  // invalidated when the replica re-simulates and rebuilt lazily. Replaces
  // the linear result scans that dominated fleet-scale merges.
  std::vector<std::unordered_map<int64_t, std::vector<std::pair<double, size_t>>>>
      attempt_index(static_cast<size_t>(n));
  auto simulate = [&](int r, const std::shared_ptr<IterationCostModel>& model,
                      InvariantChecker* checker) {
    SimulatorOptions replica_options = options_.replica;
    replica_options.cost_model = model;
    replica_options.checker = checker;
    replica_options.fail_interrupted_on_crash = true;
    replica_options.outages = outage_schedules_[static_cast<size_t>(r)];
    replica_options.slowdowns = slowdown_schedules_[static_cast<size_t>(r)];
    replica_options.jitter_probability = injector.options().jitter_probability;
    replica_options.jitter_max_extra = injector.options().jitter_max_extra;
    replica_options.jitter_seed = injector.options().seed;
    replica_options.trace_pid = r;
    replica_options.tracer = nullptr;
    replica_options.metrics = nullptr;
    // Shared PR-level sinks never see discarded retry rounds; the merged
    // result is replayed into them once at the end of Run.
    replica_options.flight = nullptr;
    replica_options.slo = nullptr;
    if (dest_tracer != nullptr) {
      replica_tracers[static_cast<size_t>(r)] = std::make_unique<Tracer>();
      replica_options.tracer = replica_tracers[static_cast<size_t>(r)].get();
    }
    if (dest_metrics != nullptr) {
      replica_metrics[static_cast<size_t>(r)] =
          std::make_unique<MetricsRegistry>(dest_metrics->window_s());
      replica_options.metrics = replica_metrics[static_cast<size_t>(r)].get();
    }
    results[static_cast<size_t>(r)] =
        ReplicaSimulator(replica_options).Run(sub[static_cast<size_t>(r)]);
    attempt_index[static_cast<size_t>(r)].clear();
  };
  // ---- Sharded parallel execution ----
  // Replicas partition into contiguous shards, one RunMany task per shard.
  // Each shard owns a private memoized cost model (the caches are not thread-
  // safe; cached and uncached evaluation are bit-identical, so per-shard
  // caches cannot change results) and a private per-round invariant checker
  // merged back in shard order. The shard layout is a pure function of
  // (jobs, num_replicas); whether RunMany actually spawns threads is the
  // host's business and never affects results.
  const int num_shards = std::max(1, std::min(ResolveJobs(options_.jobs), n));
  if (num_shards > 1 && static_cast<int>(shard_models_.size()) != num_shards) {
    shard_models_.assign(static_cast<size_t>(num_shards), nullptr);
    for (auto& model : shard_models_) {
      model = std::make_shared<IterationCostModel>(
          options_.replica.model, options_.replica.cluster, options_.replica.parallel);
    }
  }
  auto simulate_all = [&](const std::vector<int>& dirty) {
    if (num_shards <= 1) {
      for (int r : dirty) {
        simulate(r, cost_model_, options_.replica.checker);
      }
      return;
    }
    std::vector<std::vector<int>> members(static_cast<size_t>(num_shards));
    for (int r : dirty) {
      members[static_cast<size_t>(static_cast<int64_t>(r) * num_shards / n)].push_back(r);
    }
    std::vector<int> active;
    for (int s = 0; s < num_shards; ++s) {
      if (!members[static_cast<size_t>(s)].empty()) {
        active.push_back(s);
      }
    }
    // Fresh per-shard checkers with the destination's own cap: every shard
    // appends its violations in replica order, and merging the shards in
    // order reproduces exactly the retained-violation sequence a serial pass
    // over the same (ascending) dirty set would have accumulated — any
    // prefix-of-a-concatenation is the concatenation of prefixes.
    InvariantChecker* dest_checker = options_.replica.checker;
    std::vector<std::unique_ptr<InvariantChecker>> shard_checkers(active.size());
    if (dest_checker != nullptr) {
      for (auto& checker : shard_checkers) {
        checker = std::make_unique<InvariantChecker>(dest_checker->options());
      }
    }
    RunMany(num_shards, static_cast<int64_t>(active.size()), [&](int64_t task) {
      int s = active[static_cast<size_t>(task)];
      InvariantChecker* checker =
          dest_checker != nullptr ? shard_checkers[static_cast<size_t>(task)].get() : nullptr;
      for (int r : members[static_cast<size_t>(s)]) {
        simulate(r, shard_models_[static_cast<size_t>(s)], checker);
      }
      return 0;
    });
    if (dest_checker != nullptr) {
      for (const auto& checker : shard_checkers) {
        dest_checker->MergeFrom(*checker);
      }
    }
  };
  auto find_slot = [&](int replica, int64_t id, double arrival_s) -> size_t {
    auto& index = attempt_index[static_cast<size_t>(replica)];
    const SimResult& result = results[static_cast<size_t>(replica)];
    if (index.empty() && !result.requests.empty()) {
      index.reserve(result.requests.size());
      for (size_t slot = 0; slot < result.requests.size(); ++slot) {
        index[result.requests[slot].id].push_back({result.requests[slot].arrival_s, slot});
      }
    }
    auto it = index.find(id);
    if (it == index.end()) {
      return kNoSlot;
    }
    for (const auto& [attempt_arrival_s, slot] : it->second) {
      if (attempt_arrival_s == arrival_s) {
        return slot;  // Slots ascend per id: same pick as the linear scan.
      }
    }
    return kNoSlot;
  };
  {
    std::vector<int> all(static_cast<size_t>(n));
    std::iota(all.begin(), all.end(), 0);
    simulate_all(all);
  }

  // Each round re-routes every retryable interruption and re-simulates the
  // replicas that received work. Re-simulation only ever adds load, so a
  // previously interrupted attempt stays interrupted and the loop converges:
  // total attempts are capped at num_requests * (max_retries + 1).
  auto run_retry_rounds = [&]() {
    int64_t round_guard =
        static_cast<int64_t>(num_requests) * (options_.max_retries + 1) + 1;
    while (round_guard-- > 0) {
      struct Retry {
        double time;
        size_t index;
      };
      std::vector<Retry> retries;
      for (size_t i = 0; i < num_requests; ++i) {
        if (shed[i] || retry_denied[i] ||
            failure_override[i].first != FailureKind::kNone) {
          continue;
        }
        const Attempt& last = chains[i].back();
        size_t slot = find_slot(last.replica, stamped.requests[i].id, last.arrival_s);
        CHECK_NE(slot, kNoSlot);
        const RequestMetrics& m = results[static_cast<size_t>(last.replica)].requests[slot];
        if (!m.failed() || m.failure != FailureKind::kReplicaCrash) {
          continue;  // Completed, still only timed out, or never failed.
        }
        int used = static_cast<int>(chains[i].size()) - 1;
        if (used >= options_.max_retries) {
          continue;  // Retries exhausted: the crash failure stands.
        }
        // Full jitter (when enabled) decorrelates the retry instants of
        // requests interrupted by the same crash, so survivors do not land on
        // the failover replica as a thundering herd.
        double backoff =
            options_.retry_jitter
                ? FullJitterBackoffS(options_.retry_backoff_s, used,
                                     stamped.requests[i].id, options_.faults.seed)
                : options_.retry_backoff_s * static_cast<double>(int64_t{1} << used);
        double t = NextHealthyTime(m.failed_s + backoff);
        if (t == kInfinity) {
          continue;  // No replica ever recovers: the crash failure stands.
        }
        if (deadline_abs[i] > 0.0 && t >= deadline_abs[i]) {
          failure_override[i] = {FailureKind::kTimeout, deadline_abs[i]};
          continue;  // The client will have given up before the retry lands.
        }
        retries.push_back({t, i});
      }
      if (retries.empty()) {
        break;
      }
      std::sort(retries.begin(), retries.end(), [](const Retry& a, const Retry& b) {
        if (a.time != b.time) {
          return a.time < b.time;
        }
        return a.index < b.index;
      });
      std::set<int> dirty;
      for (const Retry& retry : retries) {
        size_t i = retry.index;
        // Budget check in dispatch (time) order: under a storm the earliest
        // retries drain the bucket and the rest keep their crash failures.
        if (!retry_budget.TryConsume(retry.time)) {
          retry_denied[i] = true;
          ++retries_denied;
          if (dest_tracer != nullptr) {
            dest_tracer->Instant("router", "retry_denied", retry.time,
                                 {Arg("request", stamped.requests[i].id)});
          }
          if (dest_metrics != nullptr) {
            dest_metrics->AddCount("retries_denied", retry.time);
          }
          continue;
        }
        int pick = Route(stamped.requests[i].total_tokens(), retry.time,
                         chains[i].back().replica, &router);
        if (pick < 0) {
          continue;  // Every live replica quarantined or down: failure stands.
        }
        if (dest_tracer != nullptr) {
          dest_tracer->Instant("router", "retry", retry.time,
                               {Arg("request", stamped.requests[i].id),
                                Arg("replica", static_cast<int64_t>(pick))});
        }
        if (dest_metrics != nullptr) {
          dest_metrics->AddCount("retries", retry.time);
        }
        chains[i].push_back(dispatch(i, pick, retry.time, &dirty));
      }
      if (dirty.empty()) {
        break;  // Nothing routable this round; nothing will change.
      }
      simulate_all({dirty.begin(), dirty.end()});
    }
  };
  run_retry_rounds();

  auto attempt_metrics = [&](const Attempt& attempt, int64_t id) -> const RequestMetrics& {
    size_t slot = find_slot(attempt.replica, id, attempt.arrival_s);
    CHECK_NE(slot, kNoSlot);
    return results[static_cast<size_t>(attempt.replica)].requests[slot];
  };
  // When an attempt stopped occupying its replica: completion, failure, or
  // never within the run.
  auto done_time = [](const RequestMetrics& m) {
    return m.completed() ? m.completion_s : (m.failed() ? m.failed_s : kInfinity);
  };

  // ---- Client timeout-retries (the metastable amplification source) ----
  // A client whose deadline expired re-offers the request after a fixed,
  // deliberately synchronized backoff, with a fresh full deadline. During a
  // capacity dip every timed-out client re-offers at once, the re-offered
  // load times out again, and the cluster locks into serving work that can
  // never finish — metastable overload. The cascade breaker (when enabled)
  // denies re-offers while engaged, which is what breaks the loop.
  int64_t timeout_retries = 0;
  int64_t cascade_retry_denied = 0;
  std::vector<int> timeout_tries(num_requests, 0);
  if (options_.timeout_retry_max > 0) {
    int guard = options_.timeout_retry_max + 1;
    while (guard-- > 0) {
      struct Reoffer {
        double time;
        size_t index;
      };
      std::vector<Reoffer> reoffers;
      for (size_t i = 0; i < num_requests; ++i) {
        if (shed[i] || retry_denied[i] ||
            timeout_tries[i] >= options_.timeout_retry_max) {
          continue;
        }
        // The timeout may be router-decided (failure_override) or observed by
        // the replica attempt itself.
        double failed_at = -1.0;
        if (failure_override[i].first == FailureKind::kTimeout) {
          failed_at = failure_override[i].second;
        } else if (failure_override[i].first != FailureKind::kNone) {
          continue;
        } else {
          const RequestMetrics& m =
              attempt_metrics(chains[i].back(), stamped.requests[i].id);
          if (!m.failed() || m.failure != FailureKind::kTimeout) {
            continue;
          }
          failed_at = m.failed_s;
        }
        reoffers.push_back({failed_at + options_.timeout_retry_backoff_s, i});
      }
      if (reoffers.empty()) {
        break;
      }
      std::sort(reoffers.begin(), reoffers.end(), [](const Reoffer& a, const Reoffer& b) {
        if (a.time != b.time) {
          return a.time < b.time;
        }
        return a.index < b.index;
      });
      std::set<int> dirty;
      for (const Reoffer& re : reoffers) {
        size_t i = re.index;
        ++timeout_tries[i];
        if (options_.cascade.enabled && breaker.EngagedAt(re.time)) {
          ++cascade_retry_denied;  // The timeout stands; the breaker refused.
          if (dest_tracer != nullptr) {
            dest_tracer->Instant("router", "cascade_denied", re.time,
                                 {Arg("request", stamped.requests[i].id)});
          }
          continue;
        }
        bool any_up = false;
        for (int r = 0; r < n; ++r) {
          any_up |= !DownAt(r, re.time) && !PartitionedAt(r, re.time);
        }
        if (!any_up) {
          continue;  // Nothing to re-offer to: the timeout stands.
        }
        int pick = Route(stamped.requests[i].total_tokens(), re.time, /*exclude=*/-1, &router);
        if (pick < 0) {
          continue;
        }
        failure_override[i] = {FailureKind::kNone, -1.0};
        chains[i].push_back(dispatch(i, pick, re.time, &dirty, 0, /*restart_clock=*/true));
        ++timeout_retries;
        if (dest_tracer != nullptr) {
          dest_tracer->Instant("router", "timeout_retry", re.time,
                               {Arg("request", stamped.requests[i].id),
                                Arg("replica", static_cast<int64_t>(pick))});
        }
        if (dest_metrics != nullptr) {
          dest_metrics->AddCount("timeout_retries", re.time);
        }
      }
      if (dirty.empty()) {
        break;
      }
      simulate_all({dirty.begin(), dirty.end()});
      run_retry_rounds();  // Re-offered attempts can crash like anything else.
    }
  }

  // ---- Degraded failover: drain-and-recompute or live KV migration ----
  int64_t migrations_done = 0;
  int64_t migrations_cancelled = 0;
  int64_t drain_failovers = 0;
  int64_t migrated_kv_bytes = 0;
  if (options_.degraded_failover != FailoverMode::kNone) {
    const bool live_migrate = options_.degraded_failover == FailoverMode::kLiveMigrate;
    // Decide which requests to pull off which replicas. Only decode-phase
    // requests are worth moving (a queued or still-prefilling request holds
    // little KV and is covered by hedging); parallel-sampling parents are
    // left in place (their forked siblings share prompt KV on the source).
    struct Failover {
      size_t index;
      int src;
      double plan_s;
      int dst = -1;
    };
    std::vector<Failover> decisions;
    for (size_t i = 0; i < num_requests; ++i) {
      if (shed[i] || failure_override[i].first != FailureKind::kNone ||
          stamped.requests[i].num_samples > 1) {
        continue;
      }
      const Attempt& att = chains[i].back();
      const RequestMetrics& m = attempt_metrics(att, stamped.requests[i].id);
      if (m.failure == FailureKind::kReplicaCrash || m.token_times_s.empty()) {
        continue;
      }
      double done_t = done_time(m);
      for (const DetectedInterval& d : detected_[static_cast<size_t>(att.replica)]) {
        double t_m = std::max(d.begin_s, m.token_times_s.front()) + options_.migration_delay_s;
        if (t_m >= d.end_s || t_m >= done_t) {
          continue;  // Detection cleared, or the request finished first.
        }
        if (deadline_abs[i] > 0.0 && t_m >= deadline_abs[i]) {
          continue;  // The client gives up before the failover lands.
        }
        if (PartitionedAt(att.replica, t_m)) {
          continue;  // No orchestrating a drain/migration through a partition.
        }
        decisions.push_back({i, att.replica, t_m});
        break;
      }
    }
    std::sort(decisions.begin(), decisions.end(), [](const Failover& a, const Failover& b) {
      if (a.plan_s != b.plan_s) {
        return a.plan_s < b.plan_s;
      }
      return a.index < b.index;
    });
    // Quarantine every source before choosing destinations: destinations must
    // never land on a replica whose checkpoint timings the extra load would
    // perturb, and the router stops feeding a replica it is draining anyway.
    for (const Failover& d : decisions) {
      quarantined_[static_cast<size_t>(d.src)] = true;
    }
    std::vector<Failover> accepted;
    std::set<int> dirty_src;
    for (Failover& d : decisions) {
      const Request& original = stamped.requests[d.index];
      int64_t route_tokens = live_migrate ? original.output_tokens : original.total_tokens();
      int pick = Route(route_tokens, d.plan_s, /*exclude=*/d.src, &router);
      if (pick < 0 || pick == d.src) {
        continue;  // Nowhere to move it; the request rides out the slowdown.
      }
      d.dst = pick;
      Request* sub_request = FindSubRequest(&sub[static_cast<size_t>(d.src)], original.id,
                                            chains[d.index].back().arrival_s);
      CHECK(sub_request != nullptr);
      sub_request->planned_abort =
          live_migrate ? PlannedAbort::kMigrateOut : PlannedAbort::kDrain;
      sub_request->planned_abort_s = d.plan_s;
      dirty_src.insert(d.src);
      accepted.push_back(d);
      if (dest_tracer != nullptr) {
        dest_tracer->Instant("router", live_migrate ? "migrate_plan" : "drain_plan", d.plan_s,
                             {Arg("request", original.id),
                              Arg("src", static_cast<int64_t>(d.src)),
                              Arg("dst", static_cast<int64_t>(d.dst))});
      }
    }
    simulate_all({dirty_src.begin(), dirty_src.end()});
    // Read the actual checkpoint outcomes, then build destination attempts.
    // A request that finished before its planned abort fired is a cancelled
    // failover (nothing moved).
    struct Transfer {
      size_t index;
      int dst;
      double failed_s;
      int64_t generated;
    };
    std::vector<Transfer> transfers;
    std::set<int> dirty_dst;
    for (const Failover& d : accepted) {
      const RequestMetrics& sm =
          attempt_metrics(chains[d.index].back(), stamped.requests[d.index].id);
      FailureKind want = live_migrate ? FailureKind::kMigrated : FailureKind::kDegradedDrain;
      if (sm.failure != want) {
        if (live_migrate) {
          ++migrations_cancelled;
        }
        continue;
      }
      double deadline = deadline_abs[d.index];
      if (!live_migrate) {
        double t = sm.failed_s;
        if (deadline > 0.0 && t >= deadline) {
          failure_override[d.index] = {FailureKind::kTimeout, deadline};
          continue;
        }
        chains[d.index].push_back(dispatch(d.index, d.dst, t, &dirty_dst));
        ++drain_failovers;
        if (dest_metrics != nullptr) {
          dest_metrics->AddCount("drain_failovers", t);
        }
        continue;
      }
      transfers.push_back({d.index, d.dst, sm.failed_s,
                           static_cast<int64_t>(sm.token_times_s.size())});
    }
    // Serialize KV transfers on the migration link in checkpoint order; the
    // destination adopts the request when its image lands.
    std::sort(transfers.begin(), transfers.end(), [](const Transfer& a, const Transfer& b) {
      if (a.failed_s != b.failed_s) {
        return a.failed_s < b.failed_s;
      }
      return a.index < b.index;
    });
    double link_free = 0.0;
    const int64_t kv_bytes_per_token = options_.replica.model.KvBytesPerToken();
    for (const Transfer& tr : transfers) {
      const Request& original = stamped.requests[tr.index];
      CHECK_GT(tr.generated, 0);  // The checkpoint only fires on decoders.
      if (tr.generated >= original.output_tokens) {
        ++migrations_cancelled;  // Fully generated: nothing left to resume.
        continue;
      }
      int64_t bytes = (original.prompt_tokens + tr.generated - 1) * kv_bytes_per_token;
      double start = std::max(link_free, tr.failed_s);
      double busy = static_cast<double>(bytes) / options_.migration_bandwidth_Bps;
      link_free = start + busy;
      double ready = start + busy + options_.migration_latency_s;
      double deadline = deadline_abs[tr.index];
      if (deadline > 0.0 && ready >= deadline) {
        failure_override[tr.index] = {FailureKind::kTimeout, deadline};
        ++migrations_cancelled;
        continue;
      }
      chains[tr.index].push_back(dispatch(tr.index, tr.dst, ready, &dirty_dst, tr.generated));
      ++migrations_done;
      migrated_kv_bytes += bytes;
      if (dest_tracer != nullptr) {
        dest_tracer->Instant("router", "migrate", ready,
                             {Arg("request", original.id),
                              Arg("dst", static_cast<int64_t>(tr.dst)),
                              Arg("bytes", bytes)});
      }
      if (dest_metrics != nullptr) {
        dest_metrics->AddCount("migrations", ready);
      }
    }
    simulate_all({dirty_dst.begin(), dirty_dst.end()});
    run_retry_rounds();  // Destinations can crash like anything else.
  }

  // ---- Races: partition redispatch and hedged dispatch ----
  // Both speculatively duplicate a request's last attempt onto another
  // replica and deliver whichever copy the client sees complete first. Each
  // kind has its own trigger:
  //  - Partition: a request in flight on a replica that partitions keeps
  //    executing there (the far side), but nothing it emits reaches the
  //    client until the window heals. When the prober declares the replica
  //    unreachable inside the window, the router duplicates it near-side.
  //  - Hedge: a request still unfinished hedge_after_s into its replica's
  //    detected degradation is duplicated onto a clean replica.
  // One rule resolves every race, in the cancel pass and in the merge alike:
  // the attempt with the earlier client-visible completion (deliver_time)
  // wins, ties going to the primary, and the loser is cancelled at
  // deliver_time(loser's replica, winner's completion) — a cancel cannot
  // cross a partition either, so a far-side loser is cancelled no earlier
  // than its window's end. Re-simulating after the cancels can still shift
  // completions, so the merge applies the rule again to the final metrics.
  // Partition races run first, so hedging decides from the
  // post-reconciliation timeline.
  enum class RaceKind { kNone, kPartition, kHedge };
  struct Race {
    RaceKind kind = RaceKind::kNone;
    Attempt dup{-1, 0.0};
    // The far replica's partition window (partition races only).
    double window_begin_s = 0.0;
    double window_end_s = 0.0;
  };
  std::vector<Race> races(num_requests);
  int64_t partition_redispatches = 0;
  int64_t partition_reconciled = 0;
  int64_t hedges_issued = 0;
  // Client-visible delivery time of an emission from `replica` at time t:
  // deferred to the end of the partition window when inside one.
  auto deliver_time = [&](int replica, double t) {
    const ReplicaOutage* window =
        CoveringInterval(partition_windows_[static_cast<size_t>(replica)], t,
                         &ReplicaOutage::down_s, &ReplicaOutage::up_s);
    return window != nullptr ? window->up_s : t;
  };
  // The race rule: the duplicate wins only with a strictly earlier
  // client-visible completion; t_win is the winner's (infinity when neither
  // attempt completes).
  struct RaceOutcome {
    bool dup_wins;
    double t_win;
  };
  auto resolve_race = [&](int primary_replica, const RequestMetrics& pm, int dup_replica,
                          const RequestMetrics& dm) {
    double p_fin = pm.completed() ? deliver_time(primary_replica, pm.completion_s) : kInfinity;
    double d_fin = dm.completed() ? deliver_time(dup_replica, dm.completion_s) : kInfinity;
    return RaceOutcome{d_fin < p_fin, std::min(p_fin, d_fin)};
  };
  // Duplicates every request whose last attempt `trigger` fires on (it
  // returns the dispatch time, or a negative value for no duplicate, and may
  // record the partition window), then cancels each race's loser.
  auto run_races = [&](RaceKind kind, auto&& trigger) {
    std::set<int> dirty;
    for (size_t i = 0; i < num_requests; ++i) {
      if (shed[i] || failure_override[i].first != FailureKind::kNone ||
          stamped.requests[i].num_samples > 1 || races[i].kind != RaceKind::kNone) {
        continue;
      }
      const Attempt& primary = chains[i].back();
      // Requests on (or migrated off) a quarantined replica are already being
      // handled by the failover path; a duplicate would stamp cancels onto a
      // replica whose checkpoint timings must stay frozen.
      if (primary.migrated_in || quarantined_[static_cast<size_t>(primary.replica)]) {
        continue;
      }
      Race race;
      double t = trigger(i, primary, &race);
      if (t < 0.0) {
        continue;
      }
      int pick = Route(stamped.requests[i].total_tokens(), t, primary.replica, &router);
      if (pick < 0 || pick == primary.replica) {
        continue;  // Nowhere else to duplicate onto.
      }
      race.kind = kind;
      race.dup = dispatch(i, pick, t, &dirty);
      races[i] = race;
      bool hedge = kind == RaceKind::kHedge;
      ++(hedge ? hedges_issued : partition_redispatches);
      if (dest_tracer != nullptr) {
        dest_tracer->Instant("router", hedge ? "hedge" : "partition_redispatch", t,
                             {Arg("request", stamped.requests[i].id),
                              Arg("replica", static_cast<int64_t>(pick))});
      }
      if (dest_metrics != nullptr) {
        dest_metrics->AddCount(hedge ? "hedges" : "partition_redispatches", t);
      }
    }
    simulate_all({dirty.begin(), dirty.end()});
    std::set<int> dirty_cancel;
    for (size_t i = 0; i < num_requests; ++i) {
      if (races[i].kind != kind) {
        continue;
      }
      const Attempt& primary = chains[i].back();
      const Attempt& dup = races[i].dup;
      RaceOutcome outcome =
          resolve_race(primary.replica, attempt_metrics(primary, stamped.requests[i].id),
                       dup.replica, attempt_metrics(dup, stamped.requests[i].id));
      if (outcome.t_win == kInfinity) {
        continue;  // Neither attempt ever completes; both outcomes stand.
      }
      const Attempt& loser = outcome.dup_wins ? primary : dup;
      Request* sub_request = FindSubRequest(&sub[static_cast<size_t>(loser.replica)],
                                            stamped.requests[i].id, loser.arrival_s);
      CHECK(sub_request != nullptr);
      sub_request->planned_abort = PlannedAbort::kHedgeCancel;
      sub_request->planned_abort_s = deliver_time(loser.replica, outcome.t_win);
      dirty_cancel.insert(loser.replica);
    }
    simulate_all({dirty_cancel.begin(), dirty_cancel.end()});
  };

  run_races(RaceKind::kPartition, [&](size_t i, const Attempt& far, Race* race) {
    if (partition_windows_[static_cast<size_t>(far.replica)].empty()) {
      return -1.0;
    }
    const RequestMetrics& m = attempt_metrics(far, stamped.requests[i].id);
    if (m.failure == FailureKind::kReplicaCrash) {
      return -1.0;  // The retry machinery owns crash-interrupted attempts.
    }
    double done_t = done_time(m);
    for (const ReplicaOutage& w : partition_windows_[static_cast<size_t>(far.replica)]) {
      if (far.arrival_s >= w.down_s) {
        continue;  // Dispatched after the cut; the router never saw it vanish.
      }
      if (done_t <= w.down_s) {
        continue;  // Finished client-visibly before the cut.
      }
      // The router acts when the prober's verdict lands inside the window;
      // a window shorter than the prober's hysteresis is ridden out.
      for (const DetectedInterval& d : detected_unreachable_[static_cast<size_t>(far.replica)]) {
        if (d.begin_s >= w.down_s && d.begin_s < w.up_s) {
          if (deadline_abs[i] > 0.0 && d.begin_s >= deadline_abs[i]) {
            return -1.0;  // The client gives up before the duplicate could land.
          }
          race->window_begin_s = w.down_s;
          race->window_end_s = w.up_s;
          return d.begin_s;
        }
      }
      return -1.0;
    }
    return -1.0;
  });

  if (options_.hedge_after_s > 0.0) {
    run_races(RaceKind::kHedge, [&](size_t i, const Attempt& primary, Race*) {
      double done_t = done_time(attempt_metrics(primary, stamped.requests[i].id));
      for (const DetectedInterval& d : detected_[static_cast<size_t>(primary.replica)]) {
        double t_h = std::max(d.begin_s, primary.arrival_s) + options_.hedge_after_s;
        if (t_h >= d.end_s || t_h >= done_t) {
          continue;  // Detection cleared, or the request finished first.
        }
        if (deadline_abs[i] > 0.0 && t_h >= deadline_abs[i]) {
          continue;
        }
        if (options_.hedge_suppress_outstanding_s > 0.0) {
          // Overload brownout: when every live replica is saturated past the
          // bound, a speculative duplicate only deepens the overload —
          // suppress the hedge and let the primary ride it out.
          AgeOutstanding(&router, t_h);
          double least = kInfinity;
          for (int r = 0; r < n; ++r) {
            if (!DownAt(r, t_h) && !quarantined_[static_cast<size_t>(r)]) {
              least = std::min(least, router.outstanding_tokens[static_cast<size_t>(r)]);
            }
          }
          if (least / service_rate_ > options_.hedge_suppress_outstanding_s) {
            ++hedges_suppressed;
            if (dest_tracer != nullptr) {
              dest_tracer->Instant("router", "hedge_suppressed", t_h,
                                   {Arg("request", stamped.requests[i].id)});
            }
            if (dest_metrics != nullptr) {
              dest_metrics->AddCount("hedges_suppressed", t_h);
            }
            return -1.0;
          }
        }
        // A hedge is pure speculation, so its target must be clean: down,
        // partitioned, quarantined, detected-degraded, and detected-
        // unreachable replicas are excluded outright — with no fall-back,
        // unlike regular routing, because a duplicate on a suspect replica is
        // only added load.
        for (int r = 0; r < n; ++r) {
          if (r != primary.replica && !DownAt(r, t_h) && !PartitionedAt(r, t_h) &&
              !quarantined_[static_cast<size_t>(r)] && ProvisionedAt(r, t_h) &&
              !DetectedDegradedAt(r, t_h) && !DetectedUnreachableAt(r, t_h)) {
            return t_h;
          }
        }
        return -1.0;  // No clean alternative to hedge onto.
      }
      return -1.0;
    });
  }

  // ---- Merge ----
  SimResult merged;
  merged.scheduler_name = results[0].scheduler_name + " x" + std::to_string(n) + " (" +
                          std::string(RoutingPolicyName(options_.routing)) + ")";
  merged.requests.resize(num_requests);
  std::vector<std::vector<bool>> consumed(static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) {
    consumed[static_cast<size_t>(r)].assign(results[static_cast<size_t>(r)].requests.size(),
                                            false);
  }

  int64_t lost_tokens = 0;
  for (size_t i = 0; i < num_requests; ++i) {
    const Request& original = stamped.requests[i];
    if (shed[i]) {
      RequestMetrics m;
      m.id = original.id;
      m.qos = original.qos;
      m.arrival_s = original.arrival_time_s;
      m.deadline_s = original.deadline_s;
      m.failed_s = original.arrival_time_s;
      m.failure = FailureKind::kShed;
      merged.requests[i] = m;
      ++merged.num_shed;
      continue;
    }
    const auto& chain = chains[i];
    // Walk the attempt chain reconstructing the client-visible token stream.
    // `carried` holds tokens the client already consumed from attempts whose
    // service was preserved across a hop: a live migration's destination
    // resumes after them (all its tokens are fresh), a drain's destination
    // re-emits them (the duplicates are dropped client-side and counted
    // lost). A crash hop restarts the stream — everything so far is lost,
    // matching the plain retry semantics.
    std::vector<double> carried;
    std::vector<double> fresh;
    int64_t emitted = 0;
    int64_t wasted = 0;
    int64_t cached = 0;
    int64_t crash_retries = 0;
    int64_t num_migrated_in = 0;
    double first_sched = -1.0;
    const RequestMetrics* final_attempt = nullptr;
    int final_replica = chain.back().replica;
    for (size_t a = 0; a < chain.size(); ++a) {
      SimResult& replica_result = results[static_cast<size_t>(chain[a].replica)];
      size_t slot = find_slot(chain[a].replica, original.id, chain[a].arrival_s);
      CHECK_NE(slot, kNoSlot);
      consumed[static_cast<size_t>(chain[a].replica)][slot] = true;
      const RequestMetrics& am = replica_result.requests[slot];
      emitted += static_cast<int64_t>(am.token_times_s.size());
      wasted += am.wasted_tokens;
      cached += am.cached_prefill_tokens;
      if (first_sched < 0.0) {
        first_sched = am.first_scheduled_s;
      }
      if (chain[a].migrated_in) {
        ++num_migrated_in;
        fresh = am.token_times_s;  // Resumed past `carried`: all fresh.
      } else {
        size_t drop = std::min(carried.size(), am.token_times_s.size());
        fresh.assign(am.token_times_s.begin() + static_cast<long>(drop),
                     am.token_times_s.end());
      }
      // Far-side emissions inside a partition window only become
      // client-visible when the window heals.
      if (!partition_windows_[static_cast<size_t>(chain[a].replica)].empty()) {
        for (double& t : fresh) {
          t = deliver_time(chain[a].replica, t);
        }
      }
      if (a + 1 < chain.size()) {
        bool preserved =
            (am.failure == FailureKind::kMigrated && chain[a + 1].migrated_in) ||
            am.failure == FailureKind::kDegradedDrain;
        if (preserved) {
          carried.insert(carried.end(), fresh.begin(), fresh.end());
        } else {
          carried.clear();  // Crash hop: the retry restarts the stream.
          first_sched = -1.0;
          if (am.failure != FailureKind::kTimeout) {
            // Timeout hops are client re-offers, counted in timeout_retries.
            ++crash_retries;
          }
        }
      } else {
        final_attempt = &am;
      }
    }
    std::vector<double> stream = carried;
    stream.insert(stream.end(), fresh.begin(), fresh.end());
    // Race resolution: the cancel pass's rule applied to the final simulated
    // data, so the client is served from whichever attempt actually became
    // visible first.
    int64_t hedged = 0;
    const Race& race = races[i];
    if (race.kind != RaceKind::kNone) {
      const Attempt& dup = race.dup;
      size_t dslot = find_slot(dup.replica, original.id, dup.arrival_s);
      CHECK_NE(dslot, kNoSlot);
      consumed[static_cast<size_t>(dup.replica)][dslot] = true;
      const RequestMetrics& dm = results[static_cast<size_t>(dup.replica)].requests[dslot];
      const RequestMetrics& pm = *final_attempt;
      emitted += static_cast<int64_t>(dm.token_times_s.size());
      wasted += dm.wasted_tokens;
      cached += dm.cached_prefill_tokens;
      RaceOutcome outcome = resolve_race(final_replica, pm, dup.replica, dm);
      if (outcome.dup_wins) {
        size_t drop = std::min(carried.size(), dm.token_times_s.size());
        stream = carried;
        for (size_t k = drop; k < dm.token_times_s.size(); ++k) {
          stream.push_back(deliver_time(dup.replica, dm.token_times_s[k]));
        }
        if (carried.empty()) {
          first_sched = dm.first_scheduled_s;
        }
        final_attempt = &dm;
        final_replica = dup.replica;
      }
      if (race.kind == RaceKind::kHedge) {
        hedged = 1;
        merged.hedges_won += outcome.dup_wins ? 1 : 0;
        merged.hedges_cancelled += (pm.failure == FailureKind::kHedgeCancelled ? 1 : 0) +
                                   (dm.failure == FailureKind::kHedgeCancelled ? 1 : 0);
      } else if (outcome.t_win < kInfinity) {
        // Partition reconciliation: exactly one stream is delivered, audited
        // against partition_conservation.
        ++partition_reconciled;
        if (options_.replica.checker != nullptr) {
          PartitionReconcile rec;
          rec.request_id = original.id;
          rec.partition_begin_s = race.window_begin_s;
          rec.partition_end_s = race.window_end_s;
          rec.winner_far = !outcome.dup_wins;
          rec.winner_token_times_s = stream;
          rec.winner_completion_s = outcome.t_win;
          rec.delivered_token_times_s = stream;
          rec.delivered_completion_s = rec.winner_completion_s;
          // Client-side suppression: once a winner is delivered, the losing
          // completion never reaches the client, whether or not the cancel
          // caught the loser mid-service.
          rec.loser_suppressed = true;
          rec.loser_completed = (outcome.dup_wins ? pm : dm).completed();
          rec.output_tokens = original.output_tokens;
          options_.replica.checker->CheckPartitionReconcile(rec);
        }
      }
    }
    RequestMetrics m = *final_attempt;
    m.token_times_s = stream;
    if (m.completed()) {
      m.completion_s = deliver_time(final_replica, m.completion_s);
    }
    // Latency metrics measure from the client's original arrival, covering
    // every failed attempt, backoff wait, and migration transfer.
    m.arrival_s = original.arrival_time_s;
    m.deadline_s = original.deadline_s;
    if (original.deadline_s > 0.0 &&
        deadline_abs[i] > original.arrival_time_s + original.deadline_s) {
      // Client timeout-retries restarted the clock; goodput judges against
      // the final re-offer's window.
      m.deadline_s = deadline_abs[i] - original.arrival_time_s;
    }
    m.first_scheduled_s = first_sched;
    m.retries = crash_retries;
    m.migrations = num_migrated_in;
    m.hedges = hedged;
    m.wasted_tokens = wasted;
    // Every attempt's cache-served prefill was real reuse on its replica.
    m.cached_prefill_tokens = cached;
    if (failure_override[i].first != FailureKind::kNone) {
      m.failure = failure_override[i].first;
      m.failed_s = failure_override[i].second;
    }
    lost_tokens += emitted - static_cast<int64_t>(stream.size());
    merged.requests[i] = m;
  }
  // Forked siblings (parallel sampling) belong to no routing chain; append
  // them so their tokens and TBT samples stay in the merged metrics.
  for (int r = 0; r < n; ++r) {
    const SimResult& result = results[static_cast<size_t>(r)];
    for (size_t slot = 0; slot < result.requests.size(); ++slot) {
      if (!consumed[static_cast<size_t>(r)][slot]) {
        merged.requests.push_back(result.requests[slot]);
      }
    }
  }

  for (int r = 0; r < n; ++r) {
    const SimResult& result = results[static_cast<size_t>(r)];
    merged.num_iterations += result.num_iterations;
    merged.num_preemptions += result.num_preemptions;
    merged.makespan_s = std::max(merged.makespan_s, result.makespan_s);
    merged.active_window_s = std::max(merged.active_window_s, result.active_window_s);
    merged.total_output_tokens += result.total_output_tokens;
    merged.total_prefill_tokens += result.total_prefill_tokens;
    merged.total_flops += result.total_flops;
    merged.peak_flops += result.peak_flops;
    merged.total_bytes += result.total_bytes;
    merged.peak_bandwidth += result.peak_bandwidth;
    merged.stage_busy_s.insert(merged.stage_busy_s.end(), result.stage_busy_s.begin(),
                               result.stage_busy_s.end());
    merged.num_outages += result.num_outages;
    merged.downtime_s += result.downtime_s;
    merged.replica_downtime_s.push_back(result.downtime_s);
    merged.peak_kv_blocks += result.peak_kv_blocks;
    merged.total_kv_blocks += result.total_kv_blocks;
    merged.prefix_lookups += result.prefix_lookups;
    merged.prefix_hits += result.prefix_hits;
    merged.cached_prefill_tokens += result.cached_prefill_tokens;
    merged.prefix_evictions += result.prefix_evictions;
    merged.peak_cached_blocks += result.peak_cached_blocks;
    merged.num_slowdown_episodes += result.num_slowdown_episodes;
    merged.degraded_s += result.degraded_s;
    merged.degraded_iterations += result.degraded_iterations;
    merged.num_shed_admission += result.num_shed_admission;
    merged.num_shed_queue += result.num_shed_queue;
    merged.num_browned_out += result.num_browned_out;
    merged.overload_transitions += result.overload_transitions;
    if (dest_tracer != nullptr && replica_tracers[static_cast<size_t>(r)] != nullptr) {
      dest_tracer->Append(std::move(*replica_tracers[static_cast<size_t>(r)]));
    }
    if (dest_metrics != nullptr && replica_metrics[static_cast<size_t>(r)] != nullptr) {
      dest_metrics->MergeFrom(*replica_metrics[static_cast<size_t>(r)]);
    }
  }
  merged.total_output_tokens -= lost_tokens;
  merged.lost_output_tokens = lost_tokens;
  merged.probe_transitions = static_cast<int64_t>(prober.transitions().size());
  merged.hedges_issued = hedges_issued;
  merged.migrations = migrations_done;
  merged.migrations_cancelled = migrations_cancelled;
  merged.drain_failovers = drain_failovers;
  merged.migrated_kv_bytes = migrated_kv_bytes;
  merged.num_retries_denied = retries_denied;
  merged.num_hedges_suppressed = hedges_suppressed;
  merged.num_backpressure_skips = backpressure_skips_;
  for (const DomainStatus& status : domain_status) {
    merged.num_domain_faults += status.crashes + status.partitions;
    merged.num_partitions += status.partitions;
  }
  for (int r = 0; r < n; ++r) {
    for (const ReplicaOutage& window : partition_windows_[static_cast<size_t>(r)]) {
      merged.partitioned_s += std::min(window.up_s, horizon) - window.down_s;
    }
  }
  merged.partition_redispatches = partition_redispatches;
  merged.partition_reconciled = partition_reconciled;
  merged.cascade_sheds =
      (options_.cascade.enabled ? breaker.sheds() : 0) + cascade_retry_denied;
  merged.cascade_engaged_s = options_.cascade.enabled ? breaker.engaged_duration_s() : 0.0;
  merged.slow_start_admits = slow_start_admits_;
  merged.timeout_retries = timeout_retries;
  merged.domains = domain_status;
  if (autoscale_active_) {
    merged.autoscale_out = autoscale_out;
    merged.autoscale_in = autoscale_in;
    merged.autoscale_events = autoscale_out + autoscale_in;
    merged.peak_provisioned_replicas = peak_provisioned;
    // Replica-seconds provisioned: still-open windows run to the end of the
    // merged timeline. The GPU-seconds proxy scales by the per-replica GPU
    // count — the number an operator's bill actually tracks.
    double end_s = std::max(merged.makespan_s, last_arrival);
    double provisioned_s = 0.0;
    for (int r = 0; r < n; ++r) {
      for (const ProvisionWindow& window : provision_windows_[static_cast<size_t>(r)]) {
        double to_s = std::min(window.to_s, end_s);
        provisioned_s += std::max(0.0, to_s - std::min(window.from_s, end_s));
      }
    }
    merged.replica_seconds_provisioned = provisioned_s;
    merged.autoscale_cost_gpu_s =
        provisioned_s * static_cast<double>(options_.replica.parallel.num_gpus());
  }

  // ---- Post-hoc flight / SLO replay ----
  // Only the merged result is the client-visible timeline, so the shared
  // sinks are fed here, in global time order, once per Run.
  if (flight != nullptr) {
    enum ReplayKind {
      kArrival,
      kCompletion,
      kFailure,
      kProbe,
      kCrash,
      kRecover,
      kPartitionBegin,
      kPartitionEnd,
      kCascade,
      kCascadeClear
    };
    struct FlightReplay {
      double t;
      ReplayKind kind;
      int pid;
      int64_t id;
      double value;
    };
    std::vector<FlightReplay> replay;
    for (const RequestMetrics& m : merged.requests) {
      replay.push_back({m.arrival_s, kArrival, n, m.id, 0.0});
      if (m.completed()) {
        replay.push_back({m.completion_s, kCompletion, n, m.id, m.completion_s - m.arrival_s});
      } else if (m.failed()) {
        replay.push_back(
            {m.failed_s, kFailure, n, m.id, static_cast<double>(static_cast<int>(m.failure))});
      }
    }
    for (const HealthTransition& tr : prober.transitions()) {
      replay.push_back({tr.time_s, kProbe, tr.replica, static_cast<int64_t>(tr.to), 0.0});
    }
    for (int r = 0; r < n; ++r) {
      for (const ReplicaOutage& outage : outage_schedules_[static_cast<size_t>(r)]) {
        if (outage.down_s > merged.makespan_s) {
          continue;
        }
        replay.push_back({outage.down_s, kCrash, r, 0, 0.0});
        replay.push_back({outage.up_s, kRecover, r, 0, 0.0});
      }
      for (const ReplicaOutage& window : partition_windows_[static_cast<size_t>(r)]) {
        if (window.down_s > merged.makespan_s) {
          continue;
        }
        replay.push_back({window.down_s, kPartitionBegin, r, 0, 0.0});
        replay.push_back({window.up_s, kPartitionEnd, r, 0, 0.0});
      }
    }
    for (const CascadeInterval& interval : cascade_engaged_) {
      if (interval.begin_s > merged.makespan_s) {
        continue;
      }
      replay.push_back({interval.begin_s, kCascade, n, 0, 0.0});
      replay.push_back({interval.end_s, kCascadeClear, n, 0, 0.0});
    }
    std::stable_sort(replay.begin(), replay.end(),
                     [](const FlightReplay& a, const FlightReplay& b) { return a.t < b.t; });
    for (const FlightReplay& e : replay) {
      switch (e.kind) {
        case kArrival:
          flight->RecordInstant("request", "arrival", e.t, e.pid,
                                {{"request", static_cast<double>(e.id)}});
          break;
        case kCompletion:
          flight->RecordInstant("request", "completion", e.t, e.pid,
                                {{"request", static_cast<double>(e.id)}, {"latency_s", e.value}});
          break;
        case kFailure:
          flight->RecordInstant("fault", "failure", e.t, e.pid,
                                {{"request", static_cast<double>(e.id)}, {"failure", e.value}});
          break;
        case kProbe:
          flight->RecordInstant("router", "probe_transition", e.t, e.pid,
                                {{"health", static_cast<double>(e.id)}});
          break;
        case kCrash:
          flight->Trigger("replica_crash", e.t, e.pid);
          break;
        case kRecover:
          flight->RecordInstant("fault", "recovered", e.t, e.pid);
          break;
        case kPartitionBegin:
          flight->RecordInstant("fault", "partition", e.t, e.pid);
          break;
        case kPartitionEnd:
          flight->RecordInstant("fault", "rejoined", e.t, e.pid);
          break;
        case kCascade:
          // A detected cascade is exactly the post-mortem a flight recorder
          // exists for: dump the ring on the first engagement.
          flight->Trigger("cascade_detected", e.t, e.pid);
          break;
        case kCascadeClear:
          flight->RecordInstant("router", "cascade_cleared", e.t, e.pid);
          break;
      }
    }
  }
  ReplaySloFromResult(merged, slo);
  return merged;
}

}  // namespace sarathi
