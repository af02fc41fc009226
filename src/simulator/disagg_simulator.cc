#include "src/simulator/disagg_simulator.h"

#include <algorithm>
#include <vector>

#include "src/common/logging.h"

namespace sarathi {
namespace {

constexpr int64_t kMaxPrefillBatch = 8;
constexpr int64_t kMaxDecodeBatch = 128;
constexpr double kMigrationLatencyS = 10e-6;

// One pool's replica; KV paging keeps the defaults (16-token blocks, 1% watermark).
SimulatorOptions PoolOptions(const DisaggOptions& options, const ParallelConfig& parallel,
                             int64_t max_batch_size) {
  CHECK_EQ(parallel.pipeline_parallel, 1) << "disaggregated pools are not pipelined";
  SimulatorOptions pool;
  pool.model = options.model;
  pool.cluster = options.cluster;
  pool.parallel = parallel;
  pool.scheduler.policy = SchedulerPolicy::kVllm;
  pool.scheduler.max_batch_size = max_batch_size;
  pool.scheduler.max_prefill_tokens = options.max_prefill_tokens;
  return pool;
}

// A pool's copy of a request: shape and arrival only, since this deployment
// models no deadlines, QoS lanes or parallel sampling.
Request PoolRequest(const Request& request, double arrival_s, int64_t output_tokens) {
  Request copy;
  copy.id = request.id;
  copy.arrival_time_s = arrival_s;
  copy.prompt_tokens = request.prompt_tokens;
  copy.output_tokens = output_tokens;
  return copy;
}

}  // namespace

DisaggSimulator::DisaggSimulator(const DisaggOptions& options)
    : options_(options),
      prefill_(PoolOptions(options, options.prefill_parallel, kMaxPrefillBatch)),
      decode_(PoolOptions(options, options.decode_parallel, kMaxDecodeBatch)) {}

SimResult DisaggSimulator::Run(const Trace& trace) {
  // Prefill pool: every request stops at its first token.
  Trace prefill_trace;
  for (const Request& request : trace.requests) {
    prefill_trace.requests.push_back(PoolRequest(request, request.arrival_time_s, 1));
  }
  SimResult result = prefill_.Run(prefill_trace);

  // Migration link: hand-offs cross it one at a time in first-token order
  // (ties keep batch order, which is trace order under FIFO admission).
  std::vector<size_t> handoffs;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (trace.requests[i].output_tokens > 1) {
      handoffs.push_back(i);
    }
  }
  std::stable_sort(handoffs.begin(), handoffs.end(), [&result](size_t a, size_t b) {
    return result.requests[a].token_times_s.front() < result.requests[b].token_times_s.front();
  });
  Trace decode_trace;
  double link_free = 0.0;
  for (size_t i : handoffs) {
    const Request& request = trace.requests[i];
    double bytes = static_cast<double>(request.prompt_tokens) *
                   static_cast<double>(options_.model.KvBytesPerToken());
    double start = std::max(link_free, result.requests[i].token_times_s.front());
    link_free = start + bytes / options_.migration_bandwidth + kMigrationLatencyS;
    Request migrated = PoolRequest(request, link_free, request.output_tokens);
    migrated.restored_generated = 1;
    decode_trace.requests.push_back(migrated);
  }
  SimResult decode = decode_.Run(decode_trace);

  // Join: each handed-off request continues its prefill-pool timeline.
  for (size_t k = 0; k < handoffs.size(); ++k) {
    RequestMetrics& metrics = result.requests[handoffs[k]];
    const RequestMetrics& tail = decode.requests[k];
    metrics.token_times_s.insert(metrics.token_times_s.end(), tail.token_times_s.begin(),
                                 tail.token_times_s.end());
    metrics.completion_s = tail.completion_s;
    metrics.preemptions += tail.preemptions;
    metrics.wasted_tokens += tail.wasted_tokens;
  }

  double first_start = result.makespan_s;
  for (const RequestMetrics& metrics : result.requests) {
    first_start = std::min(first_start, metrics.first_scheduled_s);
  }
  result.scheduler_name = "disaggregated";
  result.stage_busy_s.push_back(decode.stage_busy_s[0]);
  result.num_iterations += decode.num_iterations;
  result.num_preemptions += decode.num_preemptions;
  result.total_output_tokens += decode.total_output_tokens;
  result.total_prefill_tokens += decode.total_prefill_tokens;
  result.peak_kv_blocks += decode.peak_kv_blocks;
  result.total_kv_blocks += decode.total_kv_blocks;
  result.total_flops += decode.total_flops;
  result.total_bytes += decode.total_bytes;
  result.peak_flops += decode.peak_flops;
  result.peak_bandwidth += decode.peak_bandwidth;
  result.makespan_s = std::max(result.makespan_s, decode.makespan_s);
  result.active_window_s = trace.size() == 0 ? 0.0 : result.makespan_s - first_start;
  return result;
}

}  // namespace sarathi
