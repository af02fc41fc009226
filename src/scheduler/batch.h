// The unit of scheduling: one iteration's coalesced work items.

#ifndef SRC_SCHEDULER_BATCH_H_
#define SRC_SCHEDULER_BATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/perfmodel/iteration_cost.h"
#include "src/scheduler/request_state.h"

namespace sarathi {

// One request's slice of an iteration.
struct BatchItem {
  RequestState* request = nullptr;
  // Query tokens processed: a prefill chunk's size, or 1 for a decode.
  int64_t num_tokens = 0;
  bool is_decode = false;
  // Cost-model overrides for request-level (padded) batching systems: when
  // >= 0 they replace the actual token/context counts in the execution-time
  // estimate, modeling FasterTransformer's zero-padding waste (§2.5) without
  // corrupting logical progress.
  int64_t padded_tokens = -1;
  int64_t padded_context = -1;
};

struct ScheduledBatch {
  std::vector<BatchItem> items;

  bool empty() const { return items.empty(); }
  size_t size() const { return items.size(); }

  int64_t TotalTokens() const;
  int64_t NumDecodes() const;
  int64_t NumPrefillTokens() const;

  // Converts to the cost model's shape description, honoring padding
  // overrides. Context lengths are taken from the requests' current state, so
  // call this before applying completion.
  BatchWork ToBatchWork() const;

  // Allocation-free variant: refills `work` in place, reusing its capacity.
  void FillBatchWork(BatchWork* work) const;

  // Compact rendering like "3d+p(256)+p(512)" for schedule traces (Fig. 7).
  std::string Describe() const;
  // Describe() into `out` (replacing its contents), reusing its capacity.
  void DescribeTo(std::string* out) const;
};

}  // namespace sarathi

#endif  // SRC_SCHEDULER_BATCH_H_
