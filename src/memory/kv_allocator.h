// Admission-control interface over KV-cache memory.
//
// Schedulers consult an allocator to decide whether a new request can join
// the running batch (`can_allocate_request` in the paper's Algorithms 1-3)
// and to grow sequences as decodes append tokens. Two implementations exist:
// the vLLM-style paged manager (PagedBlockManager) and the Orca-style
// max-length reservation manager (ReservationAllocator) — the paper's
// explanation of Orca's small effective batch size (§5.1).

#ifndef SRC_MEMORY_KV_ALLOCATOR_H_
#define SRC_MEMORY_KV_ALLOCATOR_H_

#include <cstdint>
#include <string>
#include <vector>

namespace sarathi {

struct ObsHooks;

using SeqId = int64_t;

class KvAllocator {
 public:
  virtual ~KvAllocator() = default;

  // Observability: when set, implementations emit KV accounting events
  // (admit/release/copy-on-write instants and the blocks-in-use counter)
  // against the hook's driver-maintained clock. Null disables emission at the
  // cost of one branch per mutation.
  void set_obs(ObsHooks* obs) { obs_ = obs; }

  // Whether a request with `prompt_len` prompt tokens (and up to
  // `max_total_len` total tokens over its lifetime) can be admitted now.
  virtual bool CanAdmit(int64_t prompt_len, int64_t max_total_len) const = 0;

  // Sequence-aware admission probe. Identical to CanAdmit by default; a
  // prefix-caching allocator overrides it to credit blocks the sequence
  // already holds pinned from a prefix-cache hit (and blocks it could evict),
  // so a mostly-cached prompt admits under memory pressure that would reject
  // a cold one. Schedulers call this form when they know the sequence id.
  virtual bool CanAdmitSeq(SeqId /*id*/, int64_t prompt_len, int64_t max_total_len) const {
    return CanAdmit(prompt_len, max_total_len);
  }

  // Admits the sequence and reserves memory for its prompt. Must only be
  // called when CanAdmit (or CanAdmitSeq for the same id) returned true.
  virtual void Admit(SeqId id, int64_t prompt_len, int64_t max_total_len) = 0;

  // Whether one more token can be appended to the sequence.
  virtual bool CanAppendToken(SeqId id) const = 0;

  // Appends one generated token's KV entry.
  virtual void AppendToken(SeqId id) = 0;

  // Releases everything held by the sequence (finish or preemption).
  virtual void Release(SeqId id) = 0;

  // Terminal release for a sequence that finished normally. Identical to
  // Release by default; a prefix-caching allocator overrides it to retain the
  // sequence's full KV blocks in its radix index before dropping the
  // sequence's own references, so future requests sharing the prefix skip
  // recompute. Preemption keeps using plain Release (the blocks' contents are
  // also retained-eligible, but the simple policy is retain-on-finish only).
  virtual void ReleaseFinished(SeqId id) { Release(id); }

  // A request that was never admitted (still queued) is leaving the system —
  // abort, shed, crash drain. No-op by default; a prefix-caching allocator
  // releases any prefix pin the request acquired at enqueue. Also safe to
  // call after Release for admitted sequences (clears per-sequence cache
  // metadata).
  virtual void OnRequestDropped(SeqId /*id*/) {}

  // Allocation units currently held by a prefix cache (retained blocks that
  // no live sequence references exclusively). 0 for cache-less allocators.
  virtual int64_t cached_units() const { return 0; }

  // Occupancy introspection for metrics.
  virtual double Utilization() const = 0;

  // Allocation units currently in use and the total capacity, in the
  // allocator's own granularity: physical blocks for the paged manager,
  // reserved token slots for the reservation allocator. Drives the KV
  // high-water mark (peak used / total) in SimResult.
  virtual int64_t used_units() const = 0;
  virtual int64_t total_units() const = 0;

  // Number of sequences currently admitted (cross-checked by the invariant
  // checker against its own shadow set of live sequences).
  virtual int64_t num_sequences() const = 0;

  // Self-audit of internal bookkeeping: every block accounted for exactly
  // once (free list xor reference from a table), refcounts consistent,
  // per-sequence token/block arithmetic intact. Returns an empty string when
  // consistent, else a human-readable description of the first inconsistency
  // found. The paged pool grows lazily (its free list holds only released
  // blocks; fresh ids come from a high-water counter), so the audit is
  // O(high-water mark + table entries), and an id at or above the mark in a
  // table, the free list or the prefix index is itself a violation. Still
  // not for the serving path: the invariant checker runs it every
  // InvariantChecker::kFullAuditInterval-th checked iteration and at end of
  // run, and per batch audits only the blocks the batch touched.
  virtual std::string AuditInvariants() const = 0;

  // Prefix-cache structural self-audit: every cached block referenced exactly
  // once by the radix index (live sequences add their own references on top),
  // index chains intact, pins consistent. Empty string for cache-less
  // allocators and for a consistent cache; else the first inconsistency.
  virtual std::string AuditCache() const { return ""; }

 protected:
  ObsHooks* obs_ = nullptr;
};

}  // namespace sarathi

#endif  // SRC_MEMORY_KV_ALLOCATOR_H_
