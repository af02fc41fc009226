// Disaggregated prefill/decode serving (Splitwise, DistServe, TetriInfer —
// the paper's §6 "third category").
//
// Prompts run at full speed on a prefill replica; the KV cache then migrates
// to a decode replica that runs pure decode batches. Phase interference
// disappears by construction; the costs the paper raises are KV migration
// bandwidth, underused prefill-replica memory, and each GPU pinned to one
// phase. This makes the §6 comparison left as future work quantitative.
//
// Each pool is a vLLM ReplicaSimulator, so there is no second event loop:
// the prefill pool serves every request up to its first token, a serialized
// link carries the KV hand-offs in first-token order, and the decode pool
// adopts each one through Scheduler::AdoptMigrated (docs/simulator.md).
// One replica per pool (tensor-parallel at most) and one migration link.

#ifndef SRC_SIMULATOR_DISAGG_SIMULATOR_H_
#define SRC_SIMULATOR_DISAGG_SIMULATOR_H_

#include <cstdint>

#include "src/simulator/metrics.h"
#include "src/simulator/replica_simulator.h"
#include "src/workload/trace.h"

namespace sarathi {

struct DisaggOptions {
  ModelSpec model;
  ClusterSpec cluster;
  // Parallelism of each pool's single replica.
  ParallelConfig prefill_parallel;
  ParallelConfig decode_parallel;

  // Prefill batching: whole prompts (at most 8), coalesced up to this many
  // tokens. Decode batches hold at most 128 sequences.
  int64_t max_prefill_tokens = 16384;

  // KV migration link bandwidth (per-direction bytes/s; each transfer also
  // pays 10 us of latency). Splitwise-class deployments use InfiniBand
  // (~25 GB/s); intra-node NVLink designs are faster.
  double migration_bandwidth = 25e9;
};

class DisaggSimulator {
 public:
  explicit DisaggSimulator(const DisaggOptions& options);

  // Serves the trace to completion. In the returned SimResult,
  // stage_busy_s[0] is the prefill replica's busy time and stage_busy_s[1]
  // the decode replica's, so BubbleFraction() reads as pool idleness; the
  // other totals are summed over both pools.
  SimResult Run(const Trace& trace);

 private:
  DisaggOptions options_;
  ReplicaSimulator prefill_;
  ReplicaSimulator decode_;
};

}  // namespace sarathi

#endif  // SRC_SIMULATOR_DISAGG_SIMULATOR_H_
