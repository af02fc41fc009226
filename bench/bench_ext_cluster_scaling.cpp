// Extension: multi-replica scaling and routing policy.
//
// The paper measures per-replica capacity; production deployments multiply
// replicas behind a router. Two questions this bench answers with the
// cluster simulator: (a) does capacity scale linearly with replica count
// under Sarathi-Serve (it should — replicas share nothing), and (b) how much
// does work-aware routing matter under the multi-turn conversation workload,
// whose prompt sizes are highly skewed (§5: sharegpt4's "multi-round nature
// leads to high relative variance in the prompt lengths")?

#include "bench/bench_util.h"
#include "src/simulator/cluster_simulator.h"
#include "src/workload/session_trace.h"

using namespace sarathi;
using sarathi::bench::Header;

namespace {

ClusterOptions MakeCluster(int replicas, RoutingPolicy routing) {
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

}  // namespace

int main() {
  Header("Extension: replica scaling and routing (Mistral-7B replicas, Sarathi-512)",
         "(not a paper figure) Capacity should scale ~linearly with replicas; "
         "work-aware routing beats round-robin on skewed multi-turn traffic.");

  // (a) Capacity vs replica count.
  SloSpec slo = ServingSystem(MistralOnA100(), SarathiConfig(512)).Slo();
  DatasetSpec dataset = OpenChatShareGpt4();
  std::cout << "\n-- (a) capacity scaling (strict SLO " << Table::Num(slo.strict_p99_tbt_s, 3)
            << " s) --\n";
  Table scaling({"replicas", "capacity (qps)", "scaling vs 1"});
  double base_capacity = 0.0;
  for (int replicas : {1, 2, 4}) {
    ClusterOptions options = MakeCluster(replicas, RoutingPolicy::kLeastOutstandingWork);
    auto runner = [&options](const Trace& trace) {
      ClusterSimulator cluster(options);
      return cluster.Run(trace);
    };
    CapacityOptions capacity_options;
    capacity_options.dataset = dataset;
    capacity_options.tbt_slo_s = slo.strict_p99_tbt_s;
    // Scale the probe with the cluster so each replica sees a stream long
    // enough to reach steady state (a fixed-size probe splits into short
    // per-replica runs that never build queues, inflating capacity).
    capacity_options.num_requests = 192 * replicas;
    capacity_options.qps_ceiling = 256.0 * replicas;
    CapacityResult capacity = FindCapacity(runner, capacity_options);
    if (replicas == 1) {
      base_capacity = capacity.capacity_qps;
    }
    scaling.AddRow({Table::Int(replicas), Table::Num(capacity.capacity_qps, 2),
                    Table::Num(capacity.capacity_qps / base_capacity, 2) + "x"});
  }
  scaling.Print();

  // (b) Routing policy under skewed multi-turn conversations.
  std::cout << "\n-- (b) routing policy on multi-turn conversations (2 replicas) --\n";
  MultiTurnChatOptions conversation;
  conversation.num_sessions = 640;
  conversation.system_prompt_tokens = 0;
  // Offered request rate ~ start_qps * mean rounds (4): target ~80% of the
  // 2-replica capacity so queues form and routing decisions matter.
  conversation.start_qps = 1.9;
  conversation.mean_think_time_s = 15.0;
  conversation.continue_probability = 0.75;
  conversation.seed = 14;
  Trace trace = GenerateMultiTurnChatTrace(conversation);
  std::cout << "Trace: " << trace.Summary() << "\n";

  Table routing({"routing", "median TTFT (s)", "P99 TTFT (s)", "P99 TBT (s)"});
  for (RoutingPolicy policy :
       {RoutingPolicy::kRoundRobin, RoutingPolicy::kLeastOutstandingWork}) {
    ClusterSimulator cluster(MakeCluster(2, policy));
    SimResult result = cluster.Run(trace);
    Summary ttft = result.TtftSummary();
    routing.AddRow({std::string(RoutingPolicyName(policy)), Table::Num(ttft.Median(), 2),
                    Table::Num(ttft.Quantile(0.99), 2), Table::Num(result.P99Tbt(), 3)});
  }
  routing.Print();
  return 0;
}
