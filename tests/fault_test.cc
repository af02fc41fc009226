// Tests for the fault-injection layer: seeded outage/timeout generation,
// scheduler aborts, replica crash/recovery, deadline expiry, and
// failure-aware cluster routing (retry, backoff, shedding).

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/serving_system.h"
#include "src/memory/kv_allocator.h"
#include "src/scheduler/scheduler_factory.h"
#include "src/simulator/cluster_simulator.h"
#include "src/simulator/fault_injector.h"
#include "src/simulator/replica_simulator.h"

namespace sarathi {
namespace {

SimulatorOptions BaseOptions(const SchedulerConfig& scheduler) {
  Deployment deployment = MistralOnA100();
  SimulatorOptions options;
  options.model = deployment.model;
  options.cluster = deployment.cluster;
  options.parallel = deployment.parallel;
  options.scheduler = scheduler;
  return options;
}

ClusterOptions SmallCluster(int replicas, const SchedulerConfig& scheduler) {
  ClusterOptions options;
  options.replica = BaseOptions(scheduler);
  options.num_replicas = replicas;
  options.routing = RoutingPolicy::kLeastOutstandingWork;
  return options;
}

std::vector<SchedulerConfig> AllPolicies() {
  std::vector<SchedulerConfig> configs;
  configs.push_back(SarathiConfig(512));
  configs.push_back(VllmConfig());
  configs.push_back(OrcaConfig());
  configs.push_back(FasterTransformerConfig(32));
  SchedulerConfig fastserve = SarathiConfig(512);
  fastserve.policy = SchedulerPolicy::kFastServe;
  configs.push_back(fastserve);
  SchedulerConfig vtc = SarathiConfig(512);
  vtc.policy = SchedulerPolicy::kVtc;
  configs.push_back(vtc);
  return configs;
}

int64_t TotalEmittedTokens(const SimResult& result) {
  int64_t total = 0;
  for (const RequestMetrics& r : result.requests) {
    total += static_cast<int64_t>(r.token_times_s.size());
  }
  return total;
}

// ---------- FaultInjector ----------

TEST(FaultInjectorTest, OutagesAreSeededSortedAndDisjoint) {
  FaultOptions options;
  options.seed = 7;
  options.mtbf_s = 20.0;
  options.mttr_s = 5.0;
  options.min_outage_s = 1.0;
  FaultInjector injector(options);

  std::vector<ReplicaOutage> a = injector.OutagesFor(0, 500.0);
  std::vector<ReplicaOutage> b = injector.OutagesFor(0, 500.0);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].down_s, b[i].down_s);  // Bitwise reproducible.
    EXPECT_EQ(a[i].up_s, b[i].up_s);
    EXPECT_GE(a[i].duration(), options.min_outage_s);
    EXPECT_LT(a[i].down_s, 500.0);
    if (i > 0) {
      EXPECT_GT(a[i].down_s, a[i - 1].up_s);  // Sorted, non-overlapping.
    }
  }
  // Replicas draw independent streams from the same seed.
  std::vector<ReplicaOutage> other = injector.OutagesFor(1, 500.0);
  bool differs = other.size() != a.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = other[i].down_s != a[i].down_s;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultInjectorTest, DisabledFaultsProduceNothing) {
  FaultInjector injector(FaultOptions{});  // mtbf_s = 0 disables outages.
  EXPECT_TRUE(injector.OutagesFor(0, 1e6).empty());
  EXPECT_TRUE(injector.SlowdownsFor(0, 1e6).empty());
  EXPECT_FALSE(injector.options().any_faults());
  EXPECT_FALSE(injector.options().any_degradation());
}

TEST(FaultInjectorTest, SlowdownsAreSeededSortedDisjointAndClamped) {
  FaultOptions options;
  options.seed = 7;
  options.degrade_mtbf_s = 15.0;
  options.degrade_mttr_s = 5.0;
  options.min_degrade_s = 1.0;
  options.degrade_min_factor = 1.5;
  options.degrade_max_factor = 4.0;
  FaultInjector injector(options);

  std::vector<SlowdownEpisode> a = injector.SlowdownsFor(0, 500.0);
  std::vector<SlowdownEpisode> b = injector.SlowdownsFor(0, 500.0);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start_s, b[i].start_s);  // Bitwise reproducible.
    EXPECT_EQ(a[i].end_s, b[i].end_s);
    EXPECT_EQ(a[i].factor, b[i].factor);
    EXPECT_GE(a[i].duration(), options.min_degrade_s);
    EXPECT_LT(a[i].start_s, 500.0);  // Every episode starts inside the horizon.
    EXPECT_GE(a[i].factor, options.degrade_min_factor);
    EXPECT_LE(a[i].factor, options.degrade_max_factor);
    if (i > 0) {
      EXPECT_GT(a[i].start_s, a[i - 1].end_s);  // Sorted, non-overlapping.
    }
  }
  // Degradation draws from a stream independent of the crash process: adding
  // a crash process must not move the episodes.
  options.mtbf_s = 20.0;
  std::vector<SlowdownEpisode> with_crashes = FaultInjector(options).SlowdownsFor(0, 500.0);
  ASSERT_EQ(with_crashes.size(), a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(with_crashes[i].start_s, a[i].start_s);
  }
  // Replicas draw independent streams from the same seed.
  std::vector<SlowdownEpisode> other = injector.SlowdownsFor(1, 500.0);
  bool differs = other.size() != a.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = other[i].start_s != a[i].start_s;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultInjectorTest, PathologicalOptionsAreClampedNotFatal) {
  FaultOptions options;
  options.mtbf_s = 10.0;
  options.mttr_s = -3.0;         // Negative repair time: degenerate to floor.
  options.min_outage_s = 0.0;    // Zero floor: a tiny positive floor instead.
  options.degrade_mtbf_s = 10.0;
  options.degrade_mttr_s = 0.0;  // Zero degrade duration: floor again.
  options.min_degrade_s = -1.0;
  options.degrade_min_factor = 0.25;  // Below 1: a "slowdown" may not speed up.
  options.degrade_max_factor = 0.1;   // Inverted range: collapses to min.
  options.request_timeout_probability = 7.0;  // Clamped into [0, 1].
  options.jitter_probability = -0.5;
  options.jitter_max_extra = -2.0;
  FaultInjector injector(options);

  EXPECT_GT(injector.options().min_outage_s, 0.0);
  EXPECT_EQ(injector.options().mttr_s, injector.options().min_outage_s);
  EXPECT_GT(injector.options().min_degrade_s, 0.0);
  EXPECT_EQ(injector.options().degrade_mttr_s, injector.options().min_degrade_s);
  EXPECT_GE(injector.options().degrade_min_factor, 1.0);
  EXPECT_GE(injector.options().degrade_max_factor, injector.options().degrade_min_factor);
  EXPECT_EQ(injector.options().request_timeout_probability, 1.0);
  EXPECT_EQ(injector.options().jitter_probability, 0.0);
  EXPECT_EQ(injector.options().jitter_max_extra, 0.0);

  // The clamped configuration generates sane schedules: no zero-length or
  // overlapping outages/episodes, factors never below 1.
  std::vector<ReplicaOutage> outages = injector.OutagesFor(0, 200.0);
  ASSERT_FALSE(outages.empty());
  for (size_t i = 0; i < outages.size(); ++i) {
    EXPECT_GT(outages[i].duration(), 0.0);
    if (i > 0) {
      EXPECT_GE(outages[i].down_s, outages[i - 1].up_s);
    }
  }
  std::vector<SlowdownEpisode> episodes = injector.SlowdownsFor(0, 200.0);
  ASSERT_FALSE(episodes.empty());
  for (const SlowdownEpisode& e : episodes) {
    EXPECT_GT(e.duration(), 0.0);
    EXPECT_GE(e.factor, 1.0);
  }
}

TEST(FaultInjectorTest, LastOutageMayOverlapHorizonEnd) {
  FaultOptions options;
  options.seed = 3;
  options.mtbf_s = 5.0;
  options.mttr_s = 50.0;  // Long repairs: some outage will straddle the end.
  options.min_outage_s = 20.0;
  options.degrade_mtbf_s = 5.0;
  options.degrade_mttr_s = 50.0;
  options.min_degrade_s = 20.0;
  FaultInjector injector(options);

  bool outage_straddles = false;
  for (double horizon : {30.0, 60.0, 90.0}) {
    std::vector<ReplicaOutage> outages = injector.OutagesFor(0, horizon);
    for (const ReplicaOutage& o : outages) {
      EXPECT_LT(o.down_s, horizon);  // Starts inside...
      outage_straddles = outage_straddles || o.up_s > horizon;  // ...may end after.
    }
    // The schedule is a prefix-stable function of the horizon: growing the
    // horizon never rewrites earlier outages (re-simulation safety).
    std::vector<ReplicaOutage> longer = injector.OutagesFor(0, horizon + 100.0);
    ASSERT_GE(longer.size(), outages.size());
    for (size_t i = 0; i < outages.size(); ++i) {
      EXPECT_EQ(longer[i].down_s, outages[i].down_s);
      EXPECT_EQ(longer[i].up_s, outages[i].up_s);
    }
    std::vector<SlowdownEpisode> episodes = injector.SlowdownsFor(0, horizon);
    for (const SlowdownEpisode& e : episodes) {
      EXPECT_LT(e.start_s, horizon);
    }
  }
  EXPECT_TRUE(outage_straddles);
  EXPECT_TRUE(injector.OutagesFor(0, 0.0).empty());  // Empty/negative horizon.
  EXPECT_TRUE(injector.SlowdownsFor(0, -1.0).empty());
}

TEST(FaultInjectorTest, TimeoutsWorkWithoutACrashProcess) {
  FaultOptions options;
  options.mtbf_s = 0.0;  // No crashes at all...
  options.request_timeout_probability = 1.0;
  options.request_timeout_s = 10.0;
  FaultInjector injector(options);
  EXPECT_TRUE(injector.options().any_faults());  // ...but still a fault model.
  EXPECT_TRUE(injector.OutagesFor(0, 1e4).empty());
  Request r;
  r.id = 4;
  double timeout = injector.TimeoutFor(r);
  EXPECT_GE(timeout, 5.0);
  EXPECT_LE(timeout, 15.0);
  EXPECT_EQ(timeout, FaultInjector(options).TimeoutFor(r));  // Seeded.
}

TEST(FaultInjectorTest, IterationJitterIsDeterministicBoundedAndGated) {
  // Disabled configurations are exactly 1.
  EXPECT_EQ(IterationJitterFactor(9, 0, 5, 0.0, 2.0), 1.0);
  EXPECT_EQ(IterationJitterFactor(9, 0, 5, 0.5, 0.0), 1.0);

  // probability=1: every iteration stretched, but never beyond 1 + max_extra.
  bool varies = false;
  double first = IterationJitterFactor(9, 0, 0, 1.0, 0.5);
  for (int64_t iter = 0; iter < 200; ++iter) {
    double factor = IterationJitterFactor(9, 0, iter, 1.0, 0.5);
    EXPECT_GT(factor, 1.0);
    EXPECT_LE(factor, 1.5);
    EXPECT_EQ(factor, IterationJitterFactor(9, 0, iter, 1.0, 0.5));  // Pure.
    varies = varies || factor != first;
  }
  EXPECT_TRUE(varies);

  // Low probability: most iterations are untouched.
  int64_t stretched = 0;
  for (int64_t iter = 0; iter < 1000; ++iter) {
    if (IterationJitterFactor(9, 0, iter, 0.05, 1.0) > 1.0) ++stretched;
  }
  EXPECT_GT(stretched, 0);
  EXPECT_LT(stretched, 200);  // ~50 expected out of 1000.
}

TEST(FaultInjectorTest, TimeoutStampingIsProbabilityGatedAndIdempotent) {
  Trace trace = UniformTrace(50, 100, 10, 1.0);
  trace.requests[0].deadline_s = 99.0;  // Pre-existing deadlines survive.

  FaultOptions none;
  none.request_timeout_probability = 0.0;
  Trace untouched = trace;
  FaultInjector(none).ApplyTimeouts(&untouched);
  for (size_t i = 1; i < untouched.size(); ++i) {
    EXPECT_EQ(untouched.requests[i].deadline_s, 0.0);
  }

  FaultOptions all;
  all.request_timeout_probability = 1.0;
  all.request_timeout_s = 10.0;
  Trace stamped = trace;
  FaultInjector(all).ApplyTimeouts(&stamped);
  EXPECT_EQ(stamped.requests[0].deadline_s, 99.0);
  for (size_t i = 1; i < stamped.size(); ++i) {
    EXPECT_GE(stamped.requests[i].deadline_s, 5.0);  // timeout * U(0.5, 1.5).
    EXPECT_LE(stamped.requests[i].deadline_s, 15.0);
  }
  Trace again = trace;
  FaultInjector(all).ApplyTimeouts(&again);
  for (size_t i = 0; i < stamped.size(); ++i) {
    EXPECT_EQ(again.requests[i].deadline_s, stamped.requests[i].deadline_s);
  }
}

// ---------- Scheduler::Abort (acceptance c) ----------

TEST(SchedulerAbortTest, AbortReleasesAllKvForEveryPolicy) {
  for (const SchedulerConfig& config : AllPolicies()) {
    SCOPED_TRACE(std::string(SchedulerPolicyName(config.policy)));
    AllocatorOptions allocator_options;
    allocator_options.capacity_tokens = 1 << 20;
    std::unique_ptr<KvAllocator> allocator =
        MakeAllocatorFor(config.policy, allocator_options);
    std::unique_ptr<Scheduler> scheduler = MakeScheduler(config, allocator.get());

    std::vector<std::unique_ptr<RequestState>> states;
    for (int i = 0; i < 8; ++i) {
      Request r;
      r.id = i;
      r.prompt_tokens = 200;
      r.output_tokens = 50;
      states.push_back(std::make_unique<RequestState>(r));
      scheduler->Enqueue(states.back().get());
    }
    // Admit a few into the running batch so KV is actually held.
    for (int iter = 0; iter < 3; ++iter) {
      ScheduledBatch batch = scheduler->Schedule();
      ASSERT_FALSE(batch.empty());
      scheduler->OnBatchComplete(batch);
    }
    EXPECT_GT(allocator->Utilization(), 0.0);

    std::vector<RequestState*> drained = scheduler->DrainAll();
    EXPECT_EQ(drained.size(), 8u);
    EXPECT_FALSE(scheduler->HasWork());
    EXPECT_EQ(allocator->Utilization(), 0.0);  // Every KV block released.
    EXPECT_EQ(scheduler->abort_count(), 8);
    for (RequestState* state : drained) {
      EXPECT_EQ(state->phase(), RequestPhase::kFailed);
      EXPECT_FALSE(scheduler->Abort(state));  // Already gone: not found.
    }
  }
}

// ---------- Replica crash / recovery ----------

TEST(ReplicaFaultTest, StandaloneCrashRecomputesAndCompletesEverything) {
  SimulatorOptions options = BaseOptions(SarathiConfig(512));
  options.outages = {{0.5, 1.5}};
  // 80k prefill tokens arriving at t=0: several seconds of work, so the
  // crash lands mid-run with requests admitted and in flight.
  Trace trace = UniformTrace(20, 4000, 20, 0.0);
  SimResult result = ReplicaSimulator(options).Run(trace);

  EXPECT_EQ(result.num_outages, 1);
  EXPECT_DOUBLE_EQ(result.downtime_s, 1.0);
  EXPECT_GT(result.makespan_s, 1.5);  // Nothing finishes during the outage.
  EXPECT_GT(result.num_preemptions, 0);  // Crash recomputes are preemptions.
  ASSERT_EQ(result.requests.size(), 20u);
  for (const RequestMetrics& r : result.requests) {
    EXPECT_TRUE(r.completed());
    EXPECT_FALSE(r.failed());
    EXPECT_EQ(r.token_times_s.size(), 20u);  // No token lost to the crash.
  }
  EXPECT_EQ(result.total_output_tokens, 400);
  EXPECT_EQ(TotalEmittedTokens(result), result.total_output_tokens);
}

TEST(ReplicaFaultTest, ClusterModeCrashFailsInterruptedRequests) {
  SimulatorOptions options = BaseOptions(SarathiConfig(512));
  options.outages = {{0.5, 1.5}};
  options.fail_interrupted_on_crash = true;
  Trace trace = UniformTrace(20, 4000, 20, 0.0);  // All arrive before the crash.
  SimResult result = ReplicaSimulator(options).Run(trace);

  int64_t crashed = 0;
  for (const RequestMetrics& r : result.requests) {
    EXPECT_TRUE(r.completed() != r.failed());  // Exactly one outcome.
    if (r.failed()) {
      EXPECT_EQ(r.failure, FailureKind::kReplicaCrash);
      EXPECT_DOUBLE_EQ(r.failed_s, 0.5);
      ++crashed;
    }
  }
  EXPECT_GT(crashed, 0);
  EXPECT_EQ(result.CountFailed(FailureKind::kReplicaCrash), crashed);
  EXPECT_EQ(TotalEmittedTokens(result), result.total_output_tokens);
}

TEST(ReplicaFaultTest, DeadlineExpiryAbortsAtTheDeadline) {
  SimulatorOptions options = BaseOptions(SarathiConfig(512));
  // Heavy burst: later arrivals queue long enough to blow a tight deadline.
  Trace trace = UniformTrace(40, 2000, 20, 0.05);
  for (size_t i = 20; i < trace.size(); ++i) {
    trace.requests[i].deadline_s = 0.05;
  }
  SimResult result = ReplicaSimulator(options).Run(trace);

  int64_t timed_out = 0;
  for (size_t i = 0; i < result.requests.size(); ++i) {
    const RequestMetrics& r = result.requests[i];
    EXPECT_TRUE(r.completed() != r.failed());
    if (r.failed()) {
      EXPECT_EQ(r.failure, FailureKind::kTimeout);
      // failed_s records the logical deadline, not the abort's processing time.
      EXPECT_DOUBLE_EQ(r.failed_s, r.arrival_s + trace.requests[i].deadline_s);
      EXPECT_FALSE(r.good());
      ++timed_out;
    }
  }
  EXPECT_GT(timed_out, 0);
  EXPECT_LT(timed_out, static_cast<int64_t>(trace.size()));  // Early ones finish.
  EXPECT_EQ(result.CountFailed(FailureKind::kTimeout), timed_out);
  EXPECT_EQ(result.CountGood() + result.CountFailed(),
            static_cast<int64_t>(trace.size()));
  EXPECT_EQ(TotalEmittedTokens(result), result.total_output_tokens);
}

// ---------- Order within one replica step ----------
//
// A step delivers batch exits, then arrivals, then the timeout pass, then the
// extraction pass; an outage first runs that same sequence at its down_s.

TEST(ReplicaStepOrderTest, TimeoutBeatsAnExtractionDueInTheSameStep) {
  for (PlannedAbort plan :
       {PlannedAbort::kMigrateOut, PlannedAbort::kDrain, PlannedAbort::kHedgeCancel}) {
    SimulatorOptions options = BaseOptions(SarathiConfig(512));
    // Short prompt, long generation: decoding well before t = 0.3, so every
    // kind of extraction is eligible when it comes due.
    Trace trace = UniformTrace(1, 64, 400, 0.0);
    trace.requests[0].deadline_s = 0.3;
    trace.requests[0].planned_abort = plan;
    trace.requests[0].planned_abort_s = 0.3;
    SimResult result = ReplicaSimulator(options).Run(trace);

    const RequestMetrics& r = result.requests[0];
    ASSERT_TRUE(r.failed());
    EXPECT_EQ(r.failure, FailureKind::kTimeout) << static_cast<int>(plan);
    EXPECT_DOUBLE_EQ(r.failed_s, 0.3);
    EXPECT_EQ(result.CountFailed(), 1);
  }
}

TEST(ReplicaStepOrderTest, OnlyAHedgeCancelExtractsAQueuedRequest) {
  for (PlannedAbort plan :
       {PlannedAbort::kMigrateOut, PlannedAbort::kDrain, PlannedAbort::kHedgeCancel}) {
    // One sequence at a time: request 1 waits in the queue behind request 0's
    // long generation when its extraction comes due.
    SimulatorOptions options = BaseOptions(SarathiConfig(512, /*max_batch_size=*/1));
    Trace trace = UniformTrace(2, 64, 200, 0.001);
    trace.requests[1].planned_abort = plan;
    trace.requests[1].planned_abort_s = 0.05;
    SimResult result = ReplicaSimulator(options).Run(trace);

    ASSERT_TRUE(result.requests[0].completed());
    const RequestMetrics& queued = result.requests[1];
    if (plan == PlannedAbort::kHedgeCancel) {
      ASSERT_TRUE(queued.failed());
      EXPECT_EQ(queued.failure, FailureKind::kHedgeCancelled);
      EXPECT_DOUBLE_EQ(queued.failed_s, 0.05);
      EXPECT_TRUE(queued.token_times_s.empty());
    } else {
      EXPECT_TRUE(queued.completed()) << static_cast<int>(plan);
      EXPECT_GT(queued.first_scheduled_s, 0.05);  // Still queued at the plan.
      EXPECT_EQ(queued.token_times_s.size(), 200u);
    }
  }
}

TEST(ReplicaStepOrderTest, OutageLandsAfterArrivalsAtItsDownTime) {
  SimulatorOptions options = BaseOptions(SarathiConfig(512));
  options.outages = {{1.0, 2.0}};
  options.fail_interrupted_on_crash = true;
  Trace trace = UniformTrace(3, 64, 8, 0.0);
  trace.requests[1].arrival_time_s = 1.0;    // Exactly at down_s.
  trace.requests[2].arrival_time_s = 1.001;  // Just after it.
  SimResult result = ReplicaSimulator(options).Run(trace);

  // Offered before the crash, so the crash drains and fails it.
  EXPECT_TRUE(result.requests[0].completed());
  ASSERT_TRUE(result.requests[1].failed());
  EXPECT_EQ(result.requests[1].failure, FailureKind::kReplicaCrash);
  EXPECT_DOUBLE_EQ(result.requests[1].failed_s, 1.0);
  // Arrives into the outage and is served after recovery.
  ASSERT_TRUE(result.requests[2].completed());
  EXPECT_GE(result.requests[2].first_scheduled_s, 2.0);
}

// ---------- Cluster fault tolerance (acceptance a, b) ----------

ClusterOptions FaultyCluster() {
  ClusterOptions options = SmallCluster(3, SarathiConfig(512));
  options.faults.seed = 11;
  options.faults.mtbf_s = 6.0;
  options.faults.mttr_s = 2.0;
  options.faults.min_outage_s = 0.5;
  options.max_retries = 2;
  options.retry_backoff_s = 0.25;
  return options;
}

TEST(ClusterFaultTest, CrashRerouteAccountsForEveryRequestAndToken) {
  ClusterOptions options = FaultyCluster();
  ClusterSimulator cluster(options);
  Trace trace = UniformTrace(60, 500, 20, 4.0);
  SimResult result = cluster.Run(trace);

  EXPECT_GT(result.num_outages, 0);  // Seed 11 injects outages in this window.
  EXPECT_GT(result.downtime_s, 0.0);
  ASSERT_EQ(result.replica_downtime_s.size(), 3u);
  ASSERT_GE(result.requests.size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    const RequestMetrics& r = result.requests[i];
    EXPECT_EQ(r.id, trace.requests[i].id);
    // Every request is accounted for: completed, or failed with a cause.
    EXPECT_TRUE(r.completed() != r.failed());
    if (r.failed()) {
      EXPECT_NE(r.failure, FailureKind::kNone);
    }
    EXPECT_LE(r.retries, options.max_retries);
  }
  EXPECT_GT(result.TotalRetries(), 0);  // At least one request was re-routed.
  // No token silently dropped: the merged total equals what the surviving
  // attempt streams actually contain, and lost service is itemized.
  EXPECT_GE(result.lost_output_tokens, 0);
  EXPECT_EQ(TotalEmittedTokens(result), result.total_output_tokens);
}

TEST(ClusterFaultTest, IdenticalSeedsProduceIdenticalMetrics) {
  Trace trace = UniformTrace(40, 500, 16, 4.0);
  SimResult a = ClusterSimulator(FaultyCluster()).Run(trace);
  SimResult b = ClusterSimulator(FaultyCluster()).Run(trace);

  EXPECT_EQ(a.scheduler_name, b.scheduler_name);
  EXPECT_EQ(a.makespan_s, b.makespan_s);  // Bitwise equality throughout.
  EXPECT_EQ(a.total_output_tokens, b.total_output_tokens);
  EXPECT_EQ(a.lost_output_tokens, b.lost_output_tokens);
  EXPECT_EQ(a.num_outages, b.num_outages);
  EXPECT_EQ(a.downtime_s, b.downtime_s);
  EXPECT_EQ(a.num_shed, b.num_shed);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].id, b.requests[i].id);
    EXPECT_EQ(a.requests[i].completion_s, b.requests[i].completion_s);
    EXPECT_EQ(a.requests[i].failed_s, b.requests[i].failed_s);
    EXPECT_EQ(a.requests[i].failure, b.requests[i].failure);
    EXPECT_EQ(a.requests[i].retries, b.requests[i].retries);
    EXPECT_EQ(a.requests[i].token_times_s, b.requests[i].token_times_s);
  }
}

TEST(ClusterFaultTest, AdmissionControlShedsOverload) {
  ClusterOptions options = SmallCluster(2, SarathiConfig(512));
  options.shed_outstanding_s = 0.25;
  ClusterSimulator cluster(options);
  // 192k tokens within ~1s: far beyond what two replicas can drain.
  Trace trace = UniformTrace(48, 4000, 8, 0.02);
  SimResult result = cluster.Run(trace);

  EXPECT_GT(result.num_shed, 0);
  EXPECT_LT(result.num_shed, static_cast<int64_t>(trace.size()));
  const auto& assignment = cluster.last_assignment();
  int64_t shed_seen = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    const RequestMetrics& r = result.requests[i];
    if (r.failure == FailureKind::kShed) {
      EXPECT_EQ(assignment[i], -1);
      EXPECT_FALSE(r.completed());
      EXPECT_DOUBLE_EQ(r.failed_s, r.arrival_s);  // Rejected on arrival.
      EXPECT_TRUE(r.token_times_s.empty());
      ++shed_seen;
    } else {
      EXPECT_GE(assignment[i], 0);
      EXPECT_TRUE(r.completed());
    }
  }
  EXPECT_EQ(shed_seen, result.num_shed);
  EXPECT_EQ(TotalEmittedTokens(result), result.total_output_tokens);
}

TEST(ClusterFaultTest, GoodputCountsOnlyInDeadlineCompletions) {
  ClusterOptions options = SmallCluster(2, SarathiConfig(512));
  options.faults.request_timeout_probability = 1.0;
  options.faults.request_timeout_s = 0.001;  // Nothing can finish this fast.
  ClusterSimulator cluster(options);
  Trace trace = UniformTrace(12, 2000, 16, 4.0);
  SimResult result = cluster.Run(trace);

  // Requests either time out or finish late; none are "good".
  EXPECT_EQ(result.CountGood(), 0);
  EXPECT_DOUBLE_EQ(result.Goodput(), 0.0);
  EXPECT_EQ(result.CountFailed(FailureKind::kTimeout), result.CountFailed());
}

// ---------- Cluster edge cases ----------

TEST(ClusterEdgeTest, EmptyTraceProducesEmptyResult) {
  ClusterSimulator cluster(FaultyCluster());
  Trace trace;
  trace.name = "empty";
  SimResult result = cluster.Run(trace);
  EXPECT_TRUE(result.requests.empty());
  EXPECT_EQ(result.total_output_tokens, 0);
  EXPECT_EQ(result.num_shed, 0);
  EXPECT_DOUBLE_EQ(result.makespan_s, 0.0);
  EXPECT_TRUE(cluster.last_assignment().empty());
}

TEST(ClusterEdgeTest, SingleReplicaClusterServesWithFaultsEnabled) {
  ClusterOptions options = FaultyCluster();
  options.num_replicas = 1;
  ClusterSimulator cluster(options);
  Trace trace = UniformTrace(12, 400, 10, 2.0);
  SimResult result = cluster.Run(trace);
  ASSERT_GE(result.requests.size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_TRUE(result.requests[i].completed() != result.requests[i].failed());
  }
  EXPECT_EQ(TotalEmittedTokens(result), result.total_output_tokens);
}

TEST(ClusterEdgeTest, ReplicaWithZeroAssignmentsMergesCleanly) {
  ClusterOptions options = SmallCluster(3, SarathiConfig(512));
  ClusterSimulator cluster(options);
  Trace trace = UniformTrace(1, 300, 5, 1.0);  // Two replicas stay idle.
  SimResult result = cluster.Run(trace);
  ASSERT_EQ(result.requests.size(), 1u);
  EXPECT_TRUE(result.requests[0].completed());
  EXPECT_EQ(result.total_output_tokens, 5);
  ASSERT_EQ(result.replica_downtime_s.size(), 3u);
  EXPECT_EQ(cluster.last_assignment()[0], 0);
}

}  // namespace
}  // namespace sarathi
