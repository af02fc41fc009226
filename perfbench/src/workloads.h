// The benchmark's workloads: deployment, simulator options and a
// seeded trace generator for each. Every workload is open-loop — arrival
// times are fixed in the trace before the run starts — and the program under
// test only ever sees the generated trace.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/flight_recorder.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/slo_monitor.h"
#include "src/obs/tracer.h"
#include "src/simulator/cluster_simulator.h"
#include "src/verify/invariant_checker.h"
#include "src/workload/trace.h"

namespace perfbench {

// The TTFT limit of sim_slo_attain_frac on every workload. The TBT limit is
// the deployment's strict SLO (DeriveSlo: 5x the reference decode
// iteration), 0.103 s for Mistral-7B on an A100 and 0.170 s for Yi-34B TP2.
constexpr double kTtftLimitS = 2.0;

struct WorkloadConfig {
  std::string name;
  // Cluster workloads run through ClusterSimulator with `cluster`; replica
  // workloads run `cluster.replica` through ReplicaSimulator.
  bool is_cluster = false;
  sarathi::ClusterOptions cluster;
  // Traces an end-to-end run draws from its seed. The simulated metrics are
  // medians over them and the host-time medians mix them, so a run's figures
  // do not hang on one trace's share of long requests or rare stalls.
  int traces_per_run = 4;
  // Leading requests simulated with an InvariantChecker attached.
  int64_t checked_slice = 0;
  // Leading requests simulated with the observability sinks attached.
  int64_t observed_slice = 0;
  // Requests per capacity-search probe.
  int64_t capacity_probe_requests = 0;

  const sarathi::SimulatorOptions& replica() const { return cluster.replica; }
};

// Names of every workload. BENCHMARK.json lists all but cascade_fleet, whose
// host time swings too much between runs for the run length the benchmark
// can afford; it stays runnable by hand.
const std::vector<std::string>& WorkloadNames();

// Configuration of workload `name` (which must be one of WorkloadNames()).
// fleet_day runs on every core; the others are single-threaded.
WorkloadConfig MakeWorkloadConfig(const std::string& name);

// The workload's trace for `seed`: the same seed always yields the same
// trace, request for request.
sarathi::Trace GenerateWorkloadTrace(const WorkloadConfig& config, uint64_t seed);

// The first `n` requests of `trace` (all of it when n >= size).
sarathi::Trace LeadingSlice(const sarathi::Trace& trace, int64_t n);

// Observability sinks attached to one run; any may be null. Outputs are
// rendered to memory by RenderSinks, never to disk.
struct Sinks {
  sarathi::Tracer* tracer = nullptr;
  sarathi::MetricsRegistry* metrics = nullptr;
  sarathi::FlightRecorder* flight = nullptr;
  sarathi::SloMonitor* slo = nullptr;
  sarathi::InvariantChecker* checker = nullptr;
};

// SLO monitor policies for the observed leg: interactive TTFT and TBT at
// the workload's limits plus goodput.
void AddSloPolicies(const WorkloadConfig& config, sarathi::SloMonitor* slo);

// Renders every attached sink's output (Chrome trace JSON, time series CSV,
// Prometheus page, flight dump, SLO report) into one string and returns its
// size, so the rendering work cannot be optimized away.
size_t RenderSinks(const Sinks& sinks);

// One constructed simulator, ready to run its trace. Construction is part of
// set-up; Run is the measured work.
class WorkloadSim {
 public:
  WorkloadSim(const WorkloadConfig& config, const Sinks& sinks);
  sarathi::SimResult Run(const sarathi::Trace& trace);
  // Iterations simulated so far, kept or discarded by a later re-simulation
  // round: each makes exactly one shape-cache lookup in the cost model (a
  // cluster sums the lookups of every model its replica runs use).
  int64_t SimulatedIterations() const;
  // Cluster workloads only (null otherwise).
  sarathi::ClusterSimulator* cluster() { return cluster_.get(); }

 private:
  std::unique_ptr<sarathi::ClusterSimulator> cluster_;
  std::unique_ptr<sarathi::ReplicaSimulator> replica_;
};

// One timed run of `trace`, with the iterations it simulated.
struct CountedRun {
  sarathi::SimResult result;
  int64_t simulated_iterations = 0;
  double wall_s = 0.0;
  // Initial routing assignment per request (cluster workloads; -1 = shed).
  std::vector<int> assignment;
};
CountedRun RunCounted(const WorkloadConfig& config, const sarathi::Trace& trace);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
