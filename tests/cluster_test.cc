// Tests for multi-replica routing and the conversation workload generator.

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/stats.h"
#include "src/core/serving_system.h"
#include "src/simulator/cluster_simulator.h"
#include "src/workload/session_trace.h"

namespace sarathi {
namespace {

ClusterOptions SmallCluster(int replicas, RoutingPolicy routing) {
  Deployment deployment = MistralOnA100();
  ClusterOptions options;
  options.replica.model = deployment.model;
  options.replica.cluster = deployment.cluster;
  options.replica.parallel = deployment.parallel;
  options.replica.scheduler = SarathiConfig(512);
  options.num_replicas = replicas;
  options.routing = routing;
  return options;
}

TEST(ClusterTest, RoundRobinAlternates) {
  ClusterSimulator cluster(SmallCluster(3, RoutingPolicy::kRoundRobin));
  Trace trace = UniformTrace(9, 200, 5, 0.5);
  (void)cluster.Run(trace);
  const auto& assignment = cluster.last_assignment();
  ASSERT_EQ(assignment.size(), 9u);
  for (size_t i = 0; i < assignment.size(); ++i) {
    EXPECT_EQ(assignment[i], static_cast<int>(i % 3));
  }
}

TEST(ClusterTest, MergedMetricsPreserveEveryRequest) {
  ClusterSimulator cluster(SmallCluster(2, RoutingPolicy::kLeastOutstandingWork));
  TraceOptions trace_options;
  trace_options.num_requests = 40;
  trace_options.qps = 4.0;
  Trace trace = GenerateTrace(OpenChatShareGpt4(), trace_options);
  SimResult result = cluster.Run(trace);
  ASSERT_EQ(result.requests.size(), 40u);
  int64_t expected = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_TRUE(result.requests[i].completed());
    EXPECT_EQ(result.requests[i].id, trace.requests[i].id);
    expected += trace.requests[i].output_tokens;
  }
  EXPECT_EQ(result.total_output_tokens, expected);
}

TEST(ClusterTest, TwoReplicasRoughlyDoubleThroughput) {
  // Prefill-dominated burst (short decodes, so no per-request tail and no
  // decode-batching efficiency loss): makespan should drop ~2x with a second
  // replica.
  Trace trace = UniformTrace(64, 4096, 4, 0.0);
  SimResult one = ClusterSimulator(SmallCluster(1, RoutingPolicy::kRoundRobin)).Run(trace);
  SimResult two = ClusterSimulator(SmallCluster(2, RoutingPolicy::kRoundRobin)).Run(trace);
  EXPECT_LT(two.makespan_s, 0.65 * one.makespan_s);
  EXPECT_GT(two.makespan_s, 0.40 * one.makespan_s);
}

TEST(ClusterTest, LeastWorkBalancesSkewedSizes) {
  // Alternating huge/tiny requests: round-robin sends all the huge ones to
  // replica 0; least-outstanding-work splits them.
  Trace trace;
  trace.name = "skewed";
  for (int i = 0; i < 16; ++i) {
    Request r;
    r.id = i;
    r.arrival_time_s = 0.1 * i;
    r.prompt_tokens = (i % 2 == 0) ? 8000 : 32;
    r.output_tokens = (i % 2 == 0) ? 400 : 4;
    trace.requests.push_back(r);
  }
  ClusterSimulator rr(SmallCluster(2, RoutingPolicy::kRoundRobin));
  (void)rr.Run(trace);
  int rr_heavy_on_zero = 0;
  for (int i = 0; i < 16; i += 2) {
    rr_heavy_on_zero += rr.last_assignment()[static_cast<size_t>(i)] == 0 ? 1 : 0;
  }
  EXPECT_EQ(rr_heavy_on_zero, 8);  // All heavy requests pile onto replica 0.

  ClusterSimulator lw(SmallCluster(2, RoutingPolicy::kLeastOutstandingWork));
  (void)lw.Run(trace);
  int lw_heavy_on_zero = 0;
  for (int i = 0; i < 16; i += 2) {
    lw_heavy_on_zero += lw.last_assignment()[static_cast<size_t>(i)] == 0 ? 1 : 0;
  }
  EXPECT_GT(lw_heavy_on_zero, 1);
  EXPECT_LT(lw_heavy_on_zero, 7);  // Heavy work spread across replicas.
}

TEST(ClusterTest, SingleReplicaMatchesPlainSimulator) {
  ClusterOptions options = SmallCluster(1, RoutingPolicy::kRoundRobin);
  Trace trace = UniformTrace(10, 500, 8, 1.0);
  SimResult clustered = ClusterSimulator(options).Run(trace);
  SimResult plain = ReplicaSimulator(options.replica).Run(trace);
  EXPECT_DOUBLE_EQ(clustered.makespan_s, plain.makespan_s);
  EXPECT_DOUBLE_EQ(clustered.P99Tbt(), plain.P99Tbt());
}

// ---------- Conversation workload ----------

// The anonymous multi-turn workload: chat sessions with no shared system
// prompt, so each session's only structure is its own growing history.
MultiTurnChatOptions AnonymousChatOptions() {
  MultiTurnChatOptions options;
  options.system_prompt_tokens = 0;
  return options;
}

TEST(ConversationTest, PromptsGrowWithinAConversation) {
  MultiTurnChatOptions options = AnonymousChatOptions();
  options.num_sessions = 1;
  options.continue_probability = 0.95;
  options.seed = 5;
  Trace trace = GenerateMultiTurnChatTrace(options);
  ASSERT_GE(trace.size(), 2u);
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GT(trace.requests[i].prompt_tokens, trace.requests[i - 1].prompt_tokens);
    EXPECT_GT(trace.requests[i].arrival_time_s, trace.requests[i - 1].arrival_time_s);
    // The history is carried verbatim: this round's tokens begin with the
    // previous round's prompt and reply.
    const std::vector<int32_t>& previous = *trace.requests[i - 1].token_ids;
    const std::vector<int32_t>& current = *trace.requests[i].token_ids;
    ASSERT_GE(current.size(), previous.size());
    EXPECT_TRUE(std::equal(previous.begin(), previous.end(), current.begin())) << "round " << i;
  }
}

TEST(ConversationTest, ContextCapRespected) {
  MultiTurnChatOptions options = AnonymousChatOptions();
  options.num_sessions = 200;
  options.continue_probability = 0.9;
  options.max_context = 4096;
  Trace trace = GenerateMultiTurnChatTrace(options);
  for (const auto& r : trace.requests) {
    EXPECT_LE(r.total_tokens(), 4096);
  }
}

TEST(ConversationTest, SortedArrivalsAndSequentialIds) {
  MultiTurnChatOptions options = AnonymousChatOptions();
  options.num_sessions = 50;
  Trace trace = GenerateMultiTurnChatTrace(options);
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace.requests[i].arrival_time_s, trace.requests[i - 1].arrival_time_s);
    EXPECT_EQ(trace.requests[i].id, static_cast<int64_t>(i));
  }
}

TEST(ConversationTest, MultiTurnInflatesPromptVariance) {
  // The paper's observation: round-replay produces much higher prompt-length
  // variance than single-shot sampling of the same turn distribution.
  MultiTurnChatOptions options = AnonymousChatOptions();
  options.num_sessions = 400;
  options.continue_probability = 0.75;
  options.seed = 11;
  Trace multi = GenerateMultiTurnChatTrace(options);

  MultiTurnChatOptions single = options;
  single.continue_probability = 0.0;  // One round per conversation.
  Trace one_shot = GenerateMultiTurnChatTrace(single);

  Summary multi_prompts;
  for (const auto& r : multi.requests) {
    multi_prompts.Add(static_cast<double>(r.prompt_tokens));
  }
  Summary single_prompts;
  for (const auto& r : one_shot.requests) {
    single_prompts.Add(static_cast<double>(r.prompt_tokens));
  }
  EXPECT_GT(multi_prompts.StdDev(), 2.0 * single_prompts.StdDev());
}

TEST(ConversationTest, ServableEndToEnd) {
  MultiTurnChatOptions options = AnonymousChatOptions();
  options.num_sessions = 16;
  options.start_qps = 0.5;
  Trace trace = GenerateMultiTurnChatTrace(options);
  ServingSystem system(MistralOnA100(), SarathiConfig(512));
  SimResult result = system.Serve(trace);
  for (const auto& r : result.requests) {
    EXPECT_TRUE(r.completed());
  }
}

}  // namespace
}  // namespace sarathi
