// Tests of the benchmark's own machinery: the outside-in replayer must
// reproduce ReplicaSimulator::Run exactly, and the iteration counter behind
// cluster.iter_amplification must read 1.0 when nothing is re-simulated.
#include <gtest/gtest.h>

#include "perfbench/src/layer_trace.h"
#include "perfbench/src/summary.h"
#include "perfbench/src/workloads.h"
#include "src/core/serving_system.h"
#include "src/workload/dataset.h"

namespace perfbench {
namespace {

// The first `n` requests of a workload's trace for `seed`.
sarathi::Trace Slice(const WorkloadConfig& config, uint64_t seed, int64_t n) {
  return LeadingSlice(GenerateWorkloadTrace(config, seed), n);
}

void ExpectReplayMatchesRun(const WorkloadConfig& config, const sarathi::Trace& trace) {
  sarathi::SimResult run = sarathi::ReplicaSimulator(config.replica()).Run(trace);
  ASSERT_GT(run.num_iterations, 0);
  for (bool timed : {false, true}) {
    ReplayOutput replay;
    ASSERT_EQ(ReplayReplica(config.replica(), trace, timed, &replay), "");
    EXPECT_EQ(CompareRuns(run, replay.result), "") << "timed=" << timed;
    EXPECT_EQ(replay.result.prefix_hits, run.prefix_hits);
    EXPECT_EQ(replay.result.prefix_evictions, run.prefix_evictions);
    EXPECT_EQ(replay.result.peak_kv_blocks, run.peak_kv_blocks);
    EXPECT_EQ(replay.times.cost_calls, run.num_iterations);
    AllocatorReplayTimes times;
    EXPECT_EQ(ReplayAllocatorOps(config.replica(), replay.stream, &times), "");
    EXPECT_GT(times.total_s, 0.0);
  }
}

TEST(Replayer, ReproducesRunOnPlainPaging) {
  WorkloadConfig config = MakeWorkloadConfig("replica_chat");
  ExpectReplayMatchesRun(config, Slice(config, 7, 600));
}

TEST(Replayer, ReproducesRunOnThePrefixCache) {
  WorkloadConfig config = MakeWorkloadConfig("sessions_prefix");
  sarathi::Trace trace = Slice(config, 7, 200);
  ExpectReplayMatchesRun(config, trace);
  ReplayOutput replay;
  ASSERT_EQ(ReplayReplica(config.replica(), trace, true, &replay), "");
  EXPECT_EQ(replay.stream.count(OpKind::kPinPrefix), static_cast<int64_t>(trace.size()));
  EXPECT_GT(replay.result.prefix_hits, 0);
  EXPECT_GT(replay.result.prefix_evictions, 0);
}

TEST(Replayer, ReproducesRunOnAFleetSubtrace) {
  // Sub-traces of a cluster run keep their global request ids.
  WorkloadConfig config = MakeWorkloadConfig("fleet_day");
  sarathi::Trace trace = Slice(config, 7, 3000);
  sarathi::Trace every_third;
  for (size_t i = 0; i < trace.size(); i += 3) {
    every_third.requests.push_back(trace.requests[i]);
  }
  ExpectReplayMatchesRun(config, every_third);
}

TEST(Replayer, RefusesWhatItDoesNotReplay) {
  WorkloadConfig config = MakeWorkloadConfig("replica_chat");
  sarathi::Trace trace = Slice(config, 7, 10);
  ReplayOutput replay;
  sarathi::SimulatorOptions faulty = config.replica();
  faulty.outages.push_back({1.0, 2.0});
  EXPECT_NE(ReplayReplica(faulty, trace, false, &replay), "");
  sarathi::Trace deadlines = trace;
  deadlines.requests[3].deadline_s = 5.0;
  EXPECT_NE(ReplayReplica(config.replica(), deadlines, false, &replay), "");
}

TEST(Replayer, BulkReplayDetectsADivergentStream) {
  WorkloadConfig config = MakeWorkloadConfig("replica_chat");
  ReplayOutput replay;
  ASSERT_EQ(ReplayReplica(config.replica(), Slice(config, 7, 50), false, &replay), "");
  for (AllocatorOp& op : replay.stream.ops) {
    if (op.kind == OpKind::kCanAppendToken) {
      op.result = op.result != 0 ? 0 : 1;
      break;
    }
  }
  AllocatorReplayTimes times;
  EXPECT_NE(ReplayAllocatorOps(config.replica(), replay.stream, &times), "");
}

TEST(IterationAmplification, IsOneOnAFaultFreeRoundRobinCluster) {
  WorkloadConfig config = MakeWorkloadConfig("cascade_fleet");
  config.cluster.faults = sarathi::FaultOptions();
  config.cluster.timeout_retry_max = 0;
  config.cluster.num_replicas = 4;
  config.cluster.routing = sarathi::RoutingPolicy::kRoundRobin;
  sarathi::Trace trace = Slice(config, 7, 400);
  for (int jobs : {1, 2}) {
    config.cluster.jobs = jobs;
    CountedRun run = RunCounted(config, trace);
    ASSERT_GT(run.result.num_iterations, 0);
    EXPECT_EQ(run.simulated_iterations, run.result.num_iterations) << "jobs=" << jobs;
  }
}

TEST(IterationAmplification, ExceedsOneUnderFaults) {
  WorkloadConfig config = MakeWorkloadConfig("cascade_fleet");
  CountedRun run = RunCounted(config, Slice(config, 7, 1500));
  EXPECT_GT(run.simulated_iterations, run.result.num_iterations);
}

TEST(Workloads, SameSeedSameTrace) {
  for (const std::string& name : WorkloadNames()) {
    WorkloadConfig config = MakeWorkloadConfig(name);
    sarathi::Trace a = GenerateWorkloadTrace(config, 11);
    sarathi::Trace b = GenerateWorkloadTrace(config, 11);
    sarathi::Trace c = GenerateWorkloadTrace(config, 12);
    ASSERT_EQ(a.size(), b.size()) << name;
    bool differs = a.size() != c.size();
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.requests[i].arrival_time_s, b.requests[i].arrival_time_s) << name;
      EXPECT_EQ(a.requests[i].prompt_tokens, b.requests[i].prompt_tokens) << name;
      differs |= i < c.size() && a.requests[i].arrival_time_s != c.requests[i].arrival_time_s;
    }
    EXPECT_TRUE(differs) << name;
  }
}

}  // namespace
}  // namespace perfbench
