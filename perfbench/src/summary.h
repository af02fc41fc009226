// The simulated serving metrics a capacity or fleet study reads off a run,
// and the capacity search behind sim_capacity_qps.
#ifndef PERFBENCH_SRC_SUMMARY_H_
#define PERFBENCH_SRC_SUMMARY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/simulator/metrics.h"
#include "src/workload/trace.h"

namespace perfbench {

struct SimSummary {
  double ttft_p50_s = 0.0;
  double ttft_p99_s = 0.0;
  double tbt_p99_s = 0.0;
  double output_tok_per_s = 0.0;
  // Both fractions divide by requests attempted: failed, shed and timed-out
  // requests count as misses.
  double goodput_frac = 0.0;
  double slo_attain_frac = 0.0;
};

// Median of `values` (mean of the middle two for an even count; 0 if empty).
double Median(std::vector<double> values);

// The deployment's strict P99 TBT SLO (5x the reference decode iteration).
double StrictTbtSlo(const WorkloadConfig& config);

// Summarizes `result` for a trace of `attempted` requests. A request attains
// the SLO when it completed, its TTFT is at most `ttft_limit_s` and every gap
// between its tokens is at most `tbt_limit_s`.
SimSummary Summarize(const sarathi::SimResult& result, int64_t attempted, double ttft_limit_s,
                     double tbt_limit_s);

// Conservation check of a finished run: one record per attempted request,
// every record either completed or failed, and every completed request
// emitted between one and its requested number of tokens. Returns an empty
// string when the run is consistent, else the first problem found.
std::string CheckResult(const sarathi::SimResult& result, const sarathi::Trace& trace);

// The per-request telemetry (WriteRequestMetricsCsv) as one string: the
// byte stream two runs of the same trace must agree on.
std::string RequestTelemetry(const sarathi::SimResult& result);

// Highest Poisson rate, in requests per second, at which one replica of the
// workload's deployment serves the workload's request lengths (cycled from
// `traces`, token identity dropped) with P99 TBT within the strict SLO and no
// growing backlog: the median scheduling delay stays under 2 s both over the
// whole probe and over its last quarter of arrivals. Each probe simulates
// config.capacity_probe_requests requests; four probes run in parallel, and
// the answer is resolved to 1/125 of the doubling bracket it falls in.
double FindCapacityQps(const WorkloadConfig& config, const std::vector<sarathi::Trace>& traces,
                       uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SUMMARY_H_
