// Verification hook: the seam through which an invariant checker observes
// scheduler and allocator state transitions.
//
// Like the Tracer and MetricsRegistry, the hook rides on ObsHooks and is
// zero-cost when absent: every notification site guards on a null pointer.
// Unlike them it sees *semantic* events (a request was admitted, a KV
// sequence forked) rather than rendering-oriented ones, so a checker can
// maintain shadow state and cross-check it against the real components.
// The concrete implementation lives in src/verify/invariant_checker.h; this
// header stays in src/obs so the scheduler and memory layers can notify
// without depending on the verify library.

#ifndef SRC_OBS_VERIFY_HOOK_H_
#define SRC_OBS_VERIFY_HOOK_H_

#include <cstdint>
#include <string_view>

namespace sarathi {

class RequestState;

// Scheduler-side state transitions, emitted by the Scheduler base class so
// every policy is covered uniformly.
enum class SchedVerifyEvent {
  kEnqueue,        // Request joined the wait queue (arrival or crash-recompute).
  kAdmit,          // Queue head admitted into the running set (KV reserved).
  kAdopt,          // Forked sibling joined the running set post-prefill.
  kAdoptMigrated,  // Live-migrated request resumed decoding (KV restored, no recompute).
  kPreempt,        // Evicted for memory, reset for recomputation, re-queued.
  kAbort,          // Cancelled (deadline, crash drain, router re-route).
  kFinish,         // Completed all output tokens; KV released.
};

// KV-allocator-side transitions, emitted by both allocator implementations.
enum class KvVerifyEvent {
  kAdmit,    // Sequence admitted; memory reserved.
  kAppend,   // One token's KV appended.
  kFork,     // Child sequence created sharing the parent's blocks.
  kCow,      // A shared block was copy-on-written.
  kRelease,  // Sequence released; memory returned.
};

inline std::string_view KvVerifyEventName(KvVerifyEvent event) {
  switch (event) {
    case KvVerifyEvent::kAdmit:
      return "kv_admit";
    case KvVerifyEvent::kAppend:
      return "kv_append";
    case KvVerifyEvent::kFork:
      return "kv_fork";
    case KvVerifyEvent::kCow:
      return "kv_cow";
    case KvVerifyEvent::kRelease:
      return "kv_release";
  }
  return "unknown";
}

class VerifyHook {
 public:
  virtual ~VerifyHook() = default;

  virtual void OnSchedulerEvent(SchedVerifyEvent event, const RequestState* request) = 0;
  virtual void OnKvEvent(KvVerifyEvent event, int64_t seq_id) = 0;
  // A physical KV block's reference count changed (allocation, an added
  // reference, or a dropped one). Paged allocators emit it for every change,
  // including the prefix cache's pins, retention and eviction, which touch no
  // sequence's table, so a checker can audit exactly the blocks that moved.
  virtual void OnKvBlockRef(int64_t /*block*/) {}
};

}  // namespace sarathi

#endif  // SRC_OBS_VERIFY_HOOK_H_
