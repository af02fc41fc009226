#include "perfbench/src/summary.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "src/capacity/slo.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/simulator/replica_simulator.h"
#include "src/simulator/telemetry.h"

namespace perfbench {
namespace {

constexpr double kMaxSchedulingDelayS = 2.0;

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double StrictTbtSlo(const WorkloadConfig& config) {
  sarathi::IterationCostModel cost(config.replica().model, config.replica().cluster,
                                   config.replica().parallel);
  return sarathi::DeriveSlo(cost).strict_p99_tbt_s;
}

// The aggregations are the simulator's own (SimResult's summary methods), so
// their cost is part of what host_us_per_req measures.
SimSummary Summarize(const sarathi::SimResult& result, int64_t attempted, double ttft_limit_s,
                     double tbt_limit_s) {
  SimSummary summary;
  sarathi::Summary ttft = result.TtftSummary();
  if (!ttft.empty()) {
    summary.ttft_p50_s = ttft.Median();
    summary.ttft_p99_s = ttft.Quantile(0.99);
  }
  summary.tbt_p99_s = result.P99Tbt();
  summary.output_tok_per_s = result.OutputTokenThroughput();
  int64_t completed = 0;
  for (const sarathi::RequestMetrics& r : result.requests) {
    completed += r.completed() ? 1 : 0;
  }
  double denominator = static_cast<double>(std::max<int64_t>(attempted, 1));
  summary.goodput_frac = static_cast<double>(result.CountGood()) / denominator;
  // SloAttainment divides by completed requests; rescale to attempted.
  summary.slo_attain_frac = result.SloAttainment(ttft_limit_s, tbt_limit_s) *
                            static_cast<double>(completed) / denominator;
  return summary;
}

std::string CheckResult(const sarathi::SimResult& result, const sarathi::Trace& trace) {
  if (result.requests.size() != trace.size()) {
    std::ostringstream out;
    out << "result holds " << result.requests.size() << " request records for "
        << trace.size() << " requests";
    return out.str();
  }
  for (size_t i = 0; i < trace.size(); ++i) {
    const sarathi::RequestMetrics& r = result.requests[i];
    const sarathi::Request& request = trace.requests[i];
    std::ostringstream out;
    if (r.id != request.id) {
      out << "record " << i << " has id " << r.id << ", request has id " << request.id;
    } else if (r.completed() == r.failed()) {
      out << "request " << r.id << " is " << (r.completed() ? "both completed and failed"
                                                            : "neither completed nor failed");
    } else if (r.completed() &&
               (r.token_times_s.empty() ||
                static_cast<int64_t>(r.token_times_s.size()) > request.output_tokens)) {
      out << "request " << r.id << " completed with " << r.token_times_s.size()
          << " tokens of " << request.output_tokens;
    } else if (!std::is_sorted(r.token_times_s.begin(), r.token_times_s.end())) {
      out << "request " << r.id << " emitted tokens out of order";
    }
    if (!out.str().empty()) {
      return out.str();
    }
  }
  return "";
}

std::string RequestTelemetry(const sarathi::SimResult& result) {
  std::ostringstream out;
  sarathi::WriteRequestMetricsCsv(result, out);
  return out.str();
}

double FindCapacityQps(const WorkloadConfig& config, const std::vector<sarathi::Trace>& traces,
                       uint64_t seed) {
  sarathi::SimulatorOptions options = config.replica();
  options.allocator_kind = sarathi::AllocatorKind::kPolicyDefault;
  options.kv_capacity_tokens = 0;
  const double slo_s = StrictTbtSlo(config);
  std::vector<const sarathi::Request*> shapes;
  for (const sarathi::Trace& trace : traces) {
    for (const sarathi::Request& r : trace.requests) {
      shapes.push_back(&r);
    }
  }

  // 1 when a probe at `qps` is sustainable. Probes are independent
  // simulations and run in parallel; the answer does not depend on how.
  auto sustainable = [&](double qps) -> int {
    sarathi::Rng rng(seed ^ 0x5bd1e995ULL);
    sarathi::Trace probe;
    double clock = 0.0;
    for (int64_t i = 0; i < config.capacity_probe_requests; ++i) {
      const sarathi::Request& shape = *shapes[static_cast<size_t>(i) % shapes.size()];
      clock += rng.Exponential(qps);
      sarathi::Request r;
      r.id = i;
      r.arrival_time_s = clock;
      r.prompt_tokens = shape.prompt_tokens;
      r.output_tokens = shape.output_tokens;
      probe.requests.push_back(r);
    }
    sarathi::SimResult result = sarathi::ReplicaSimulator(options).Run(probe);
    if (result.P99Tbt() > slo_s) {
      return 0;
    }
    std::vector<double> delays;
    std::vector<double> tail_delays;
    for (size_t i = 0; i < result.requests.size(); ++i) {
      double delay = result.requests[i].SchedulingDelay();
      delays.push_back(delay);
      if (4 * i >= 3 * result.requests.size()) {
        tail_delays.push_back(delay);
      }
    }
    return Median(delays) <= kMaxSchedulingDelayS && Median(tail_delays) <= kMaxSchedulingDelayS
               ? 1
               : 0;
  };
  constexpr int kProbes = 4;
  auto probe_all = [&](const std::vector<double>& rates) {
    return sarathi::RunMany(kProbes, static_cast<int64_t>(rates.size()),
                            [&](int64_t i) { return sustainable(rates[static_cast<size_t>(i)]); });
  };

  // Bracket with doublings, four at a time; then shrink the bracket five-fold
  // per round with four evenly spaced interior probes.
  double lo = 0.0;
  double hi = 0.0;
  for (double base = 0.5; hi == 0.0; base *= 16.0) {
    if (base > 1024.0) {
      return lo;
    }
    std::vector<double> rates = {base, 2 * base, 4 * base, 8 * base};
    std::vector<int> ok = probe_all(rates);
    for (size_t i = 0; i < rates.size(); ++i) {
      if (!ok[i]) {
        hi = rates[i];
        break;
      }
      lo = rates[i];
    }
  }
  for (int round = 0; round < 3; ++round) {
    std::vector<double> rates;
    for (int i = 1; i <= kProbes; ++i) {
      rates.push_back(lo + (hi - lo) * i / (kProbes + 1));
    }
    std::vector<int> ok = probe_all(rates);
    double new_hi = hi;
    for (size_t i = 0; i < rates.size(); ++i) {
      if (!ok[i]) {
        new_hi = rates[i];
        break;
      }
      lo = rates[i];
    }
    hi = new_hi;
  }
  return lo;
}

}  // namespace perfbench
