#include "perfbench/src/workloads.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "src/capacity/slo.h"
#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/core/serving_system.h"
#include "src/workload/dataset.h"
#include "src/workload/diurnal.h"
#include "src/workload/session_trace.h"

namespace perfbench {
namespace {

using sarathi::ClusterOptions;
using sarathi::Deployment;
using sarathi::Trace;

ClusterOptions BaseOptions(const Deployment& deployment) {
  ClusterOptions options;
  options.replica.model = deployment.model;
  options.replica.cluster = deployment.cluster;
  options.replica.parallel = deployment.parallel;
  options.replica.scheduler = sarathi::SarathiConfig(512);
  return options;
}

// replica_chat: one Mistral-7B/A100 replica, Sarathi tau=512, ShareGPT4
// lengths, Poisson arrivals at 2.5 qps (about 70% of long-run capacity).
constexpr int64_t kChatRequests = 8000;
constexpr double kChatQps = 2.5;

// cascade_fleet: 16 replicas in 4 failure domains under least-work routing,
// ShareGPT4 traffic at 1 qps per replica. The fault schedule is part of the
// workload's fixed scenario and --seed varies only the traffic: drawing the
// schedule from the traffic seed makes P99 TTFT and re-simulation
// amplification swing by more than 30% from seed to seed.
constexpr uint64_t kCascadeFaultSeed = 3;
constexpr int kCascadeReplicas = 16;
constexpr int64_t kCascadeRequests = 3000;
constexpr double kCascadeQps = 16.0;

// fleet_day: a diurnal day compressed into two simulated hours.
constexpr double kDayDurationS = 7200.0;
constexpr double kDayMeanQps = 12.0;

// sessions_prefix: chat sessions and agent loops sharing one Yi-34B TP2
// replica whose KV pool is capped so the prefix cache must evict.
constexpr int64_t kSessionChats = 96;
constexpr int64_t kSessionAgents = 48;
constexpr int64_t kSessionKvTokens = 50000;

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"replica_chat", "cascade_fleet", "fleet_day",
                                                 "sessions_prefix"};
  return names;
}

WorkloadConfig MakeWorkloadConfig(const std::string& name) {
  WorkloadConfig config;
  config.name = name;
  if (name == "replica_chat") {
    config.cluster = BaseOptions(sarathi::MistralOnA100());
    config.traces_per_run = 6;
    config.checked_slice = 100;
    config.observed_slice = 1500;
    config.capacity_probe_requests = kChatRequests;
  } else if (name == "cascade_fleet") {
    config.is_cluster = true;
    config.cluster = BaseOptions(sarathi::MistralOnA100());
    ClusterOptions& c = config.cluster;
    c.num_replicas = kCascadeReplicas;
    c.routing = sarathi::RoutingPolicy::kLeastOutstandingWork;
    c.jobs = 1;
    c.faults.seed = kCascadeFaultSeed;
    c.faults.mtbf_s = 200.0;
    c.faults.mttr_s = 10.0;
    c.faults.min_outage_s = 2.0;
    c.faults.num_domains = 4;
    c.faults.domain_mtbf_s = 200.0;
    c.faults.domain_mttr_s = 10.0;
    c.faults.min_domain_outage_s = 2.0;
    c.faults.domain_partition_fraction = 0.5;
    c.faults.request_timeout_probability = 0.3;
    c.faults.request_timeout_s = 30.0;
    c.timeout_retry_max = 2;
    c.timeout_retry_backoff_s = 1.0;
    config.checked_slice = 8;
    config.observed_slice = 1000;
    config.capacity_probe_requests = kChatRequests;
  } else if (name == "fleet_day") {
    config.is_cluster = true;
    config.cluster = BaseOptions(sarathi::MistralOnA100());
    ClusterOptions& c = config.cluster;
    c.num_replicas = 1000;
    c.routing = sarathi::RoutingPolicy::kRoundRobin;
    c.jobs = sarathi::ResolveJobs(0);
    c.autoscale.min_replicas = 4;
    c.autoscale.scale_out_queue_s = 0.25;
    c.autoscale.scale_in_queue_s = 0.05;
    c.autoscale.provisioning_lag_s = 10.0;
    c.autoscale.eval_interval_s = 5.0;
    c.autoscale.cooldown_s = 10.0;
    config.checked_slice = 100;
    config.observed_slice = 8000;
    config.capacity_probe_requests = kChatRequests;
  } else if (name == "sessions_prefix") {
    // Not Mistral: its sliding window silently downgrades kPagedCached to
    // kPaged, which would bypass the prefix cache entirely.
    config.cluster = BaseOptions(sarathi::YiOnA100Tp2());
    config.cluster.replica.allocator_kind = sarathi::AllocatorKind::kPagedCached;
    config.cluster.replica.kv_capacity_tokens = kSessionKvTokens;
    // P99 TTFT here rests on a few evicted long contexts per trace.
    config.traces_per_run = 8;
    config.checked_slice = 150;
    config.observed_slice = 250;
    config.capacity_probe_requests = 2000;
  } else {
    LOG(Fatal) << "unknown workload " << name;
  }
  return config;
}

Trace GenerateWorkloadTrace(const WorkloadConfig& config, uint64_t seed) {
  if (config.name == "replica_chat") {
    return sarathi::GenerateTrace(sarathi::OpenChatShareGpt4(),
                                  {kChatRequests, kChatQps, seed});
  }
  if (config.name == "cascade_fleet") {
    return sarathi::GenerateTrace(sarathi::OpenChatShareGpt4(),
                                  {kCascadeRequests, kCascadeQps, seed});
  }
  if (config.name == "fleet_day") {
    sarathi::DiurnalOptions day;
    day.mean_qps = kDayMeanQps;
    day.duration_s = kDayDurationS;
    day.period_s = kDayDurationS;
    day.peak_at_s = kDayDurationS / 2.0;
    day.peak_to_trough = 6.0;
    day.seed = seed;
    return sarathi::UniformDiurnalTrace(day, 512, 64);
  }
  CHECK(config.name == "sessions_prefix") << "unknown workload " << config.name;
  sarathi::MultiTurnChatOptions chat;
  chat.num_sessions = kSessionChats;
  chat.start_qps = 0.1;
  chat.seed = seed;
  sarathi::AgentLoopOptions agents;
  agents.num_agents = kSessionAgents;
  agents.start_qps = 0.2;
  // Scratchpads up to 16k tokens, evicted and recomputed, make P99 TTFT
  // swing by 3x from seed to seed.
  agents.max_context = 8192;
  agents.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  Trace trace = sarathi::GenerateMultiTurnChatTrace(chat);
  Trace loops = sarathi::GenerateAgentLoopTrace(agents);
  trace.name = "sessions_prefix";
  trace.requests.insert(trace.requests.end(), loops.requests.begin(), loops.requests.end());
  std::stable_sort(trace.requests.begin(), trace.requests.end(),
                   [](const sarathi::Request& a, const sarathi::Request& b) {
                     return a.arrival_time_s < b.arrival_time_s;
                   });
  for (size_t i = 0; i < trace.requests.size(); ++i) {
    trace.requests[i].id = static_cast<int64_t>(i);
  }
  return trace;
}

Trace LeadingSlice(const Trace& trace, int64_t n) {
  if (n >= static_cast<int64_t>(trace.size())) {
    return trace;
  }
  Trace slice;
  slice.name = trace.name;
  slice.requests.assign(trace.requests.begin(), trace.requests.begin() + n);
  return slice;
}

void AddSloPolicies(const WorkloadConfig& config, sarathi::SloMonitor* slo) {
  sarathi::IterationCostModel cost(config.replica().model, config.replica().cluster,
                                   config.replica().parallel);
  sarathi::SloPolicy ttft;
  ttft.name = "ttft";
  ttft.signal = sarathi::SloSignal::kTtft;
  ttft.threshold_s = kTtftLimitS;
  slo->AddPolicy(ttft);
  sarathi::SloPolicy tbt;
  tbt.name = "tbt";
  tbt.signal = sarathi::SloSignal::kTbt;
  tbt.threshold_s = sarathi::DeriveSlo(cost).strict_p99_tbt_s;
  slo->AddPolicy(tbt);
  sarathi::SloPolicy goodput;
  goodput.name = "goodput";
  goodput.signal = sarathi::SloSignal::kGoodput;
  slo->AddPolicy(goodput);
}

size_t RenderSinks(const Sinks& sinks) {
  std::ostringstream out;
  if (sinks.tracer != nullptr) {
    sinks.tracer->WriteChromeTraceJson(out);
  }
  if (sinks.metrics != nullptr) {
    sinks.metrics->WriteTimeSeriesCsv(out);
    sinks.metrics->WritePrometheus(out);
  }
  if (sinks.flight != nullptr) {
    sinks.flight->WriteChromeTraceJson(out);
  }
  if (sinks.slo != nullptr) {
    out << sinks.slo->RenderComplianceReport();
  }
  return out.str().size();
}

WorkloadSim::WorkloadSim(const WorkloadConfig& config, const Sinks& sinks) {
  ClusterOptions options = config.cluster;
  sarathi::SimulatorOptions& replica = options.replica;
  replica.tracer = sinks.tracer;
  replica.metrics = sinks.metrics;
  replica.flight = sinks.flight;
  replica.slo = sinks.slo;
  replica.checker = sinks.checker;
  if (config.is_cluster) {
    cluster_ = std::make_unique<sarathi::ClusterSimulator>(options);
  } else {
    replica_ = std::make_unique<sarathi::ReplicaSimulator>(replica);
  }
}

sarathi::SimResult WorkloadSim::Run(const Trace& trace) {
  return cluster_ != nullptr ? cluster_->Run(trace) : replica_->Run(trace);
}

int64_t WorkloadSim::SimulatedIterations() const {
  sarathi::CostCacheStats stats = cluster_ != nullptr ? cluster_->cost_cache_stats()
                                                      : replica_->cost_model().cache_stats();
  return stats.shape_hits + stats.shape_misses;
}

CountedRun RunCounted(const WorkloadConfig& config, const Trace& trace) {
  WorkloadSim sim(config, Sinks{});
  const int64_t before = sim.SimulatedIterations();
  CountedRun run;
  auto t0 = std::chrono::steady_clock::now();
  run.result = sim.Run(trace);
  run.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  run.simulated_iterations = sim.SimulatedIterations() - before;
  if (sim.cluster() != nullptr) {
    run.assignment = sim.cluster()->last_assignment();
  }
  return run;
}

}  // namespace perfbench
