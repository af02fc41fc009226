// Outside-in layer trace of one replica run.
//
// ReplayReplica re-drives ReplicaSimulator::Run's event loop from the
// benchmark's own code, calling the layers' public functions directly:
// Scheduler::Enqueue / Schedule / OnBatchComplete, SimulatedEngine::
// StageTimeAndTotals, PrefixCachingAllocator::PinPrefix. With `timed` set,
// every call is bracketed by steady_clock reads; without, only the loop as a
// whole is timed, which is the base trace.overhead_x compares the traced
// loop against. The scheduler's allocator is
// wrapped in a forwarding decorator that counts each operation and records
// the operation stream; the allocator's own time is then measured by
// replaying that stream in bulk on a fresh allocator (ReplayAllocatorOps),
// because clocking each of millions of one-line operations would distort the
// loop it measures.
//
// The replay covers the fault-free single-replica path: no outages, slowdowns,
// jitter, overload control, client deadlines, planned aborts, migrations or
// parallel sampling. A replay of anything else is refused, not approximated.
#ifndef PERFBENCH_SRC_LAYER_TRACE_H_
#define PERFBENCH_SRC_LAYER_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/memory/kv_allocator.h"
#include "src/simulator/replica_simulator.h"
#include "src/workload/trace.h"

namespace perfbench {

// The replay-loop call an allocator operation was issued from.
enum class OpPhase : uint8_t { kEnqueue = 0, kSchedule, kComplete, kPin, kLoop, kNumPhases };

enum class OpKind : uint8_t {
  kCanAdmit = 0,
  kCanAdmitSeq,
  kAdmit,
  kCanAppendToken,
  kAppendToken,
  kRelease,
  kReleaseFinished,
  kOnRequestDropped,
  kPinPrefix,
  kQuery,  // Occupancy introspection (utilization, used/total units, ...).
  kNumKinds,
};

// One recorded allocator operation. `arg` is the sequence id for id-only
// operations and an index into OpStream::args otherwise; `result` is the
// boolean outcome of a probe.
struct AllocatorOp {
  uint32_t arg = 0;
  OpKind kind = OpKind::kQuery;
  OpPhase phase = OpPhase::kLoop;
  uint8_t result = 0;
  uint8_t query = 0;  // Which introspection call, for kQuery.
};

struct OpArgs {
  int64_t id = 0;
  int64_t a = 0;  // prompt_len, or PinPrefix's prompt token count.
  int64_t b = 0;  // max_total_len, or PinPrefix's cached token count.
  const sarathi::Request* request = nullptr;  // PinPrefix's token source.
};

struct OpStream {
  std::vector<AllocatorOp> ops;
  std::vector<OpArgs> args;
  int64_t counts[static_cast<int>(OpKind::kNumKinds)] = {};

  int64_t count(OpKind kind) const { return counts[static_cast<int>(kind)]; }
};

// Summed wall time of each layer's calls during one timed replay.
struct LayerTimes {
  double loop_s = 0.0;      // The whole event loop.
  double enqueue_s = 0.0;   // Scheduler::Enqueue.
  double pin_s = 0.0;       // PrefixCachingAllocator::PinPrefix.
  double schedule_s = 0.0;  // Scheduler::Schedule.
  double complete_s = 0.0;  // ObserveIterationTime + OnBatchComplete + RecycleBatch.
  double cost_s = 0.0;      // SimulatedEngine::StageTimeAndTotals.
  int64_t enqueue_calls = 0;
  int64_t schedule_calls = 0;
  int64_t complete_calls = 0;
  int64_t cost_calls = 0;
  int64_t cost_cache_hits = 0;
  int64_t cost_cache_lookups = 0;
  int64_t batch_tokens = 0;  // Summed over scheduled batches.
  int64_t batch_seqs = 0;

  LayerTimes& operator+=(const LayerTimes& other);
};

struct ReplayOutput {
  sarathi::SimResult result;
  LayerTimes times;
  OpStream stream;
};

// Re-drives Run's loop over `trace` with `options`. Returns an empty string
// on success, else why the configuration cannot be replayed.
std::string ReplayReplica(const sarathi::SimulatorOptions& options, const sarathi::Trace& trace,
                          bool timed, ReplayOutput* out);

// Bulk replay of a recorded stream on a fresh allocator built from `options`
// exactly as Run builds it. Fills the summed time of the operations issued
// from each phase (and the total), and returns an empty string when every
// probe and PinPrefix returned what it returned in the recorded run.
struct AllocatorReplayTimes {
  double total_s = 0.0;
  double phase_s[static_cast<int>(OpPhase::kNumPhases)] = {};

  AllocatorReplayTimes& operator+=(const AllocatorReplayTimes& other);
};
std::string ReplayAllocatorOps(const sarathi::SimulatorOptions& options, const OpStream& stream,
                               AllocatorReplayTimes* times);

// Compares two runs of the same trace: iteration count, every request's
// token times, and the per-request telemetry. Empty when identical.
std::string CompareRuns(const sarathi::SimResult& expected, const sarathi::SimResult& actual);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYER_TRACE_H_
