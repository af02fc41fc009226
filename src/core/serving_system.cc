#include "src/core/serving_system.h"

namespace sarathi {

Deployment MistralOnA100() {
  Deployment d;
  d.model = Mistral7B();
  d.cluster = AzureNC96adsCluster();
  d.parallel = Tp(1);
  return d;
}

Deployment YiOnA100Tp2() {
  Deployment d;
  d.model = Yi34B();
  d.cluster = AzureNC96adsCluster();
  d.parallel = Tp(2);
  return d;
}

Deployment LlamaOnA40Tp4Pp2() {
  Deployment d;
  d.model = Llama2_70B();
  d.cluster = A40x8Cluster();
  // Eight A40s: 4-way TP within pairs of NVLinked GPUs, 2 pipeline stages.
  d.parallel = TpPp(4, 2);
  return d;
}

Deployment FalconOnA100Tp4Pp2() {
  Deployment d;
  d.model = Falcon180B();
  d.cluster = AzureNC96adsCluster();
  d.parallel = TpPp(4, 2);  // TP4 within a node, PP2 across Ethernet.
  return d;
}

Deployment FalconOnA100Tp8() {
  Deployment d;
  d.model = Falcon180B();
  d.cluster = AzureNC96adsCluster();
  d.parallel = Tp(8);  // Spans both nodes: all-reduces cross Ethernet.
  return d;
}

SchedulerConfig SarathiConfig(int64_t token_budget, int64_t max_batch_size) {
  SchedulerConfig config;
  config.policy = SchedulerPolicy::kSarathi;
  config.token_budget = token_budget;
  config.max_batch_size = max_batch_size;
  return config;
}

SchedulerConfig DynamicSarathiConfig(double tbt_slo_s, int64_t initial_budget,
                                     int64_t max_batch_size) {
  SchedulerConfig config = SarathiConfig(initial_budget, max_batch_size);
  config.dynamic_budget_tbt_slo_s = tbt_slo_s;
  return config;
}

SchedulerConfig VllmConfig(int64_t max_batch_size) {
  SchedulerConfig config;
  config.policy = SchedulerPolicy::kVllm;
  config.max_batch_size = max_batch_size;
  return config;
}

SchedulerConfig OrcaConfig(int64_t max_batch_size) {
  SchedulerConfig config;
  config.policy = SchedulerPolicy::kOrca;
  config.max_batch_size = max_batch_size;
  return config;
}

SchedulerConfig FasterTransformerConfig(int64_t max_batch_size) {
  SchedulerConfig config;
  config.policy = SchedulerPolicy::kFasterTransformer;
  config.max_batch_size = max_batch_size;
  return config;
}

ServingSystem::ServingSystem(const Deployment& deployment, const SchedulerConfig& scheduler)
    : deployment_(deployment), scheduler_(scheduler),
      cost_model_(deployment.model, deployment.cluster, deployment.parallel) {}

SimulatorOptions ServingSystem::MakeSimOptions(bool record_iterations) const {
  SimulatorOptions options;
  options.model = deployment_.model;
  options.cluster = deployment_.cluster;
  options.parallel = deployment_.parallel;
  options.scheduler = scheduler_;
  options.record_iterations = record_iterations;
  return options;
}

SimResult ServingSystem::Serve(const Trace& trace, bool record_iterations, Tracer* tracer,
                               MetricsRegistry* metrics, FlightRecorder* flight,
                               SloMonitor* slo, InvariantChecker* checker) const {
  SimulatorOptions options = MakeSimOptions(record_iterations);
  options.tracer = tracer;
  options.metrics = metrics;
  options.flight = flight;
  options.slo = slo;
  options.checker = checker;
  ReplicaSimulator simulator(options);
  return simulator.Run(trace);
}

SloSpec ServingSystem::Slo() const { return DeriveSlo(cost_model_); }

CapacityResult ServingSystem::MeasureCapacity(const DatasetSpec& dataset, double tbt_slo_s,
                                              int64_t num_requests, uint64_t seed,
                                              int jobs) const {
  CapacityOptions options;
  options.dataset = dataset;
  options.tbt_slo_s = tbt_slo_s;
  options.num_requests = num_requests;
  options.seed = seed;
  options.jobs = jobs;
  return FindCapacity(MakeSimOptions(false), options);
}

const IterationCostModel& ServingSystem::cost_model() const { return cost_model_; }

}  // namespace sarathi
