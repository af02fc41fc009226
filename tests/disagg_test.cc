// Tests for the disaggregated prefill/decode simulator.

#include <gtest/gtest.h>

#include "src/capacity/capacity_search.h"
#include "src/core/serving_system.h"
#include "src/simulator/disagg_simulator.h"

namespace sarathi {
namespace {

DisaggOptions SmallOptions() {
  DisaggOptions options;
  options.model = Mistral7B();
  options.cluster = AzureNC96adsCluster();
  options.prefill_parallel = Tp(1);
  options.decode_parallel = Tp(1);
  return options;
}

TEST(DisaggTest, AllRequestsCompleteWithAllTokens) {
  DisaggSimulator simulator(SmallOptions());
  TraceOptions trace_options;
  trace_options.num_requests = 32;
  trace_options.qps = 1.0;
  trace_options.seed = 3;
  Trace trace = GenerateTrace(OpenChatShareGpt4(), trace_options);
  SimResult result = simulator.Run(trace);
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_TRUE(result.requests[i].completed());
    EXPECT_EQ(static_cast<int64_t>(result.requests[i].token_times_s.size()),
              trace.requests[i].output_tokens);
  }
  EXPECT_EQ(result.scheduler_name, "disaggregated");
}

TEST(DisaggTest, SingleTokenRequestFinishesAtPrefill) {
  DisaggSimulator simulator(SmallOptions());
  Trace trace = UniformTrace(1, 500, 1, 0.0);
  SimResult result = simulator.Run(trace);
  ASSERT_TRUE(result.requests[0].completed());
  EXPECT_EQ(result.requests[0].token_times_s.size(), 1u);
  // No decode-pool time was needed.
  EXPECT_DOUBLE_EQ(result.stage_busy_s[1], 0.0);
}

TEST(DisaggTest, DecodesNeverSeePrefillInterference) {
  // Steady decode TBT must equal one decode-iteration latency regardless of
  // prefill traffic — the defining property of disaggregation.
  DisaggOptions options = SmallOptions();
  DisaggSimulator simulator(options);
  Trace trace = UniformTrace(8, 2048, 60, 1.0);  // Prefills keep arriving.
  SimResult result = simulator.Run(trace);
  // Beyond the migration-induced first gap, every TBT sample is small.
  for (const auto& r : result.requests) {
    auto tbt = r.TbtSamples();
    for (size_t i = 1; i < tbt.size(); ++i) {
      EXPECT_LT(tbt[i], 0.05) << "decode interfered with";
    }
  }
}

TEST(DisaggTest, SlowMigrationLinkDelaysSecondToken) {
  Trace trace = UniformTrace(1, 4096, 4, 0.0);
  DisaggOptions fast = SmallOptions();
  fast.migration_bandwidth = 300e9;
  DisaggOptions slow = SmallOptions();
  slow.migration_bandwidth = 2e9;
  SimResult fast_result = DisaggSimulator(fast).Run(trace);
  SimResult slow_result = DisaggSimulator(slow).Run(trace);
  // First TBT gap covers the migration; the slow link shows it.
  double fast_gap = fast_result.requests[0].TbtSamples()[0];
  double slow_gap = slow_result.requests[0].TbtSamples()[0];
  // 4096 tokens * 128 KiB/token ~ 0.5 GiB; at 2 GB/s that's ~0.27 s extra.
  EXPECT_GT(slow_gap, fast_gap + 0.1);
  // TTFT is unaffected by the link: the first token comes from the prefill
  // replica.
  EXPECT_NEAR(fast_result.requests[0].Ttft(), slow_result.requests[0].Ttft(), 1e-9);
}

TEST(DisaggTest, PrefillPoolSerializesWork) {
  // Two simultaneous long prompts: one prefill engine processes them in one
  // coalesced batch or back-to-back; TTFT of the second reflects that.
  DisaggOptions options = SmallOptions();
  options.max_prefill_tokens = 4096;  // Forces separate batches.
  DisaggSimulator simulator(options);
  Trace trace = UniformTrace(2, 4096, 2, 0.0);
  SimResult result = simulator.Run(trace);
  double first = result.requests[0].Ttft();
  double second = result.requests[1].Ttft();
  EXPECT_GT(second, 1.8 * first);
}

TEST(DisaggTest, DeterministicAndCapacitySearchable) {
  DisaggOptions options = SmallOptions();
  auto runner = [&options](const Trace& trace) {
    DisaggSimulator fresh(options);
    return fresh.Run(trace);
  };
  CapacityOptions capacity_options;
  capacity_options.dataset = OpenChatShareGpt4();
  capacity_options.tbt_slo_s = 0.1;
  capacity_options.num_requests = 64;
  CapacityResult capacity = FindCapacity(runner, capacity_options);
  EXPECT_GT(capacity.capacity_qps, 0.0);

  TraceOptions trace_options;
  trace_options.num_requests = 24;
  trace_options.qps = 1.0;
  Trace trace = GenerateTrace(OpenChatShareGpt4(), trace_options);
  SimResult a = runner(trace);
  SimResult b = runner(trace);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_DOUBLE_EQ(a.P99Tbt(), b.P99Tbt());
}

TEST(DisaggTest, MfuAccountedAcrossBothPools) {
  DisaggSimulator simulator(SmallOptions());
  Trace trace = UniformTrace(8, 1024, 16, 0.0);
  SimResult result = simulator.Run(trace);
  EXPECT_GT(result.Mfu(), 0.0);
  EXPECT_LT(result.Mfu(), 0.7);
  EXPECT_GT(result.total_flops, 0.0);
}

TEST(DisaggTest, KvBlocksReportedAcrossBothPools) {
  DisaggSimulator simulator(SmallOptions());
  Trace trace = UniformTrace(8, 1024, 16, 0.0);
  SimResult result = simulator.Run(trace);
  // Both pools hold all eight 1024-token contexts at their peak: 64 blocks
  // each, per pool.
  EXPECT_GE(result.peak_kv_blocks, 2 * 8 * 64);
  EXPECT_GT(result.total_kv_blocks, result.peak_kv_blocks);
  EXPECT_EQ(result.num_preemptions, 0);
}

}  // namespace
}  // namespace sarathi
