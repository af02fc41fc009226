// Public facade of the library.
//
// A ServingSystem binds a deployment (model + cluster + parallelism, Table 1
// presets provided) to a scheduling policy and exposes the three operations
// the examples and benches need: serve a trace, derive SLOs, and measure
// capacity. Lower layers remain usable directly for finer control.

#ifndef SRC_CORE_SERVING_SYSTEM_H_
#define SRC_CORE_SERVING_SYSTEM_H_

#include <string>

#include "src/capacity/capacity_search.h"
#include "src/capacity/slo.h"
#include "src/perfmodel/gpu_spec.h"
#include "src/perfmodel/model_spec.h"
#include "src/perfmodel/parallel_config.h"
#include "src/scheduler/scheduler.h"
#include "src/simulator/replica_simulator.h"
#include "src/workload/trace.h"

namespace sarathi {

// A model replica's hardware placement.
struct Deployment {
  ModelSpec model;
  ClusterSpec cluster;
  ParallelConfig parallel;

  std::string Name() const { return model.name + " (" + parallel.ToString() + ")"; }
};

// The paper's four evaluation deployments (Table 1) plus the Fig. 13
// cross-node TP-8 counterfactual.
Deployment MistralOnA100();          // Mistral-7B, 1x A100.
Deployment YiOnA100Tp2();            // Yi-34B, 2x A100, TP2.
Deployment LlamaOnA40Tp4Pp2();       // LLaMA2-70B, 8x A40, TP4-PP2.
Deployment FalconOnA100Tp4Pp2();     // Falcon-180B, 2 nodes x 4 A100, TP4-PP2.
Deployment FalconOnA100Tp8();        // Falcon-180B, TP8 spanning two nodes.

// Convenience scheduler configurations matching the paper's setups.
SchedulerConfig SarathiConfig(int64_t token_budget, int64_t max_batch_size = 128);
// Sarathi-Serve with the run-time adaptive token budget (§5.1 future work):
// the budget starts at `initial_budget` and tracks the given TBT target.
SchedulerConfig DynamicSarathiConfig(double tbt_slo_s, int64_t initial_budget = 512,
                                     int64_t max_batch_size = 128);
SchedulerConfig VllmConfig(int64_t max_batch_size = 128);
SchedulerConfig OrcaConfig(int64_t max_batch_size = 128);
SchedulerConfig FasterTransformerConfig(int64_t max_batch_size = 32);

class ServingSystem {
 public:
  ServingSystem(const Deployment& deployment, const SchedulerConfig& scheduler);

  // Serves the trace on the simulated replica. Optional observability sinks
  // (any may be null): the tracer collects request lifecycle spans and
  // iteration slices, the registry windowed time series, the flight recorder
  // a ring of recent events (auto-dumped on triggers), the SLO monitor
  // burn-rate alerts fed live from the run, and the invariant checker
  // violations of the paper's guarantees.
  SimResult Serve(const Trace& trace, bool record_iterations = false,
                  Tracer* tracer = nullptr, MetricsRegistry* metrics = nullptr,
                  FlightRecorder* flight = nullptr, SloMonitor* slo = nullptr,
                  InvariantChecker* checker = nullptr) const;

  // SLO thresholds for this deployment (Table 3 derivation).
  SloSpec Slo() const;

  // Max sustainable load under a P99-TBT target. `jobs` > 1 fans the QPS
  // probes across a thread pool (see CapacityOptions::jobs); the result is
  // deterministic for a given `jobs` value, and jobs = 1 is the serial search.
  CapacityResult MeasureCapacity(const DatasetSpec& dataset, double tbt_slo_s,
                                 int64_t num_requests = 256, uint64_t seed = 42,
                                 int jobs = 1) const;

  const Deployment& deployment() const { return deployment_; }
  const SchedulerConfig& scheduler_config() const { return scheduler_; }
  const IterationCostModel& cost_model() const;

 private:
  SimulatorOptions MakeSimOptions(bool record_iterations) const;

  Deployment deployment_;
  SchedulerConfig scheduler_;
  IterationCostModel cost_model_;
};

}  // namespace sarathi

#endif  // SRC_CORE_SERVING_SYSTEM_H_
