// Time-domain execution engine.
//
// The replica simulator asks the engine how long a scheduled batch takes per
// pipeline stage. SimulatedEngine answers from the analytical roofline cost
// model (the GPU substitute per DESIGN.md). Value-domain execution (actual
// token generation) lives separately in engine/reference.

#ifndef SRC_ENGINE_EXECUTION_ENGINE_H_
#define SRC_ENGINE_EXECUTION_ENGINE_H_

#include <memory>

#include "src/perfmodel/iteration_cost.h"
#include "src/scheduler/batch.h"

namespace sarathi {

// Predicts execution time with the roofline cost model. The model may be
// shared with the caller (e.g. a cluster simulator reusing one memo cache
// across serial replica runs) — never across concurrently running engines.
// When `reuse_buffers` is set the per-call BatchWork shape is built into a
// reused scratch buffer, making steady-state StageTime calls allocation-free.
class SimulatedEngine {
 public:
  explicit SimulatedEngine(std::shared_ptr<IterationCostModel> cost_model,
                           bool reuse_buffers = true)
      : cost_model_(std::move(cost_model)), reuse_buffers_(reuse_buffers) {}

  // Pipeline depth: how many micro-batches can be in flight.
  int num_stages() const { return cost_model_->parallel().pipeline_parallel; }

  // Execution time of one pipeline stage for this batch.
  double StageTime(const ScheduledBatch& batch) const {
    if (!reuse_buffers_) {
      return cost_model_->StageCost(batch.ToBatchWork()).Total();
    }
    batch.FillBatchWork(&scratch_);
    return cost_model_->StageCost(scratch_).Total();
  }

  // Stage time plus the iteration's FLOP/byte accounting totals in a single
  // pass over the batch shape — the fast-path replacement for StageTime
  // followed by BatchFlopsAndBytes. Bit-identical to the separate calls.
  double StageTimeAndTotals(const ScheduledBatch& batch, double* flops, double* bytes) const {
    if (!reuse_buffers_) {
      return cost_model_->StageCostAndTotals(batch.ToBatchWork(), flops, bytes).Total();
    }
    batch.FillBatchWork(&scratch_);
    return cost_model_->StageCostAndTotals(scratch_, flops, bytes).Total();
  }

  const IterationCostModel& cost_model() const { return *cost_model_; }

 private:
  std::shared_ptr<IterationCostModel> cost_model_;
  bool reuse_buffers_ = true;
  mutable BatchWork scratch_;
};

}  // namespace sarathi

#endif  // SRC_ENGINE_EXECUTION_ENGINE_H_
