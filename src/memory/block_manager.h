// PagedAttention-style KV-cache block manager.
//
// KV memory is carved into fixed-size blocks of `block_size` tokens. Each
// sequence owns a block table mapping its logical token positions to physical
// blocks; blocks are allocated on admission (covering the prompt) and one at
// a time as decodes cross block boundaries. A watermark keeps a sliver of
// blocks free so running decodes aren't starved the moment a prefill fills
// memory. Models with sliding-window attention (Mistral-7B) retain only the
// window's worth of blocks; older blocks are recycled in place.
//
// The pool is grown lazily: never-used block ids come from a high-water
// counter, and the free list holds only released blocks. Allocation pops the
// free list when it is non-empty and otherwise takes the next fresh id, which
// hands out exactly the ids an eagerly filled free stack [N-1 ... 0] would,
// while a run that touches few blocks pays only for those (per-block state
// grows to the high-water mark, not to num_blocks).
//
// Blocks are reference-counted, which enables PagedAttention's hallmark
// sharing: Fork() gives a child sequence the parent's table without copying
// any KV (parallel sampling / beam-search style divergence); writes to a
// shared block first go through copy-on-write (MakeWritable / the CowOps
// returned by AppendToken), with the actual data copy performed by the
// engine that owns the KV values.

#ifndef SRC_MEMORY_BLOCK_MANAGER_H_
#define SRC_MEMORY_BLOCK_MANAGER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/memory/kv_allocator.h"

namespace sarathi {

class PagedBlockManager : public KvAllocator {
 public:
  struct Options {
    int64_t num_blocks = 0;
    int64_t block_size = 16;  // Tokens per block (vLLM's default).
    // Fraction of blocks kept free when admitting new sequences.
    double watermark = 0.01;
    // Sliding-window span in tokens (0 = retain everything).
    int64_t sliding_window = 0;
  };

  explicit PagedBlockManager(const Options& options);

  // A copy-on-write event: the sequence's `block_index`-th table entry moved
  // from `old_block` to a fresh `new_block`; the engine must copy the KV
  // values before writing new entries into it.
  struct CowOp {
    int64_t block_index = 0;
    int64_t old_block = 0;
    int64_t new_block = 0;
  };

  // KvAllocator:
  bool CanAdmit(int64_t prompt_len, int64_t max_total_len) const override;
  void Admit(SeqId id, int64_t prompt_len, int64_t max_total_len) override;
  bool CanAppendToken(SeqId id) const override;
  void AppendToken(SeqId id) override;
  void Release(SeqId id) override;
  double Utilization() const override;
  int64_t used_units() const override { return used_blocks(); }
  int64_t total_units() const override { return options_.num_blocks; }
  int64_t num_sequences() const override { return static_cast<int64_t>(tables_.size()); }
  std::string AuditInvariants() const override;

  // ---- Sharing / copy-on-write ----

  // Whether a fork of `id` can be admitted (forking consumes no blocks, but
  // the child must be a new sequence).
  bool CanFork(SeqId id) const;
  // Creates `child` sharing every block of `parent` (refcounts bumped).
  void Fork(SeqId parent, SeqId child);
  // Ensures the block holding logical token `pos` is exclusively owned,
  // copy-on-writing it if shared. Returns the CoW op performed, if any.
  // Requires a free block when a copy is needed.
  std::optional<CowOp> MakeWritable(SeqId id, int64_t pos);
  // Like AppendToken, but also guarantees the written-to block is exclusive;
  // returns any CoW performed.
  std::optional<CowOp> AppendTokenCow(SeqId id);
  // CoW events performed implicitly by AppendToken() on forked sequences
  // since the last drain, in order. The engine that owns KV values must
  // apply the corresponding data copies before writing. Only ever non-empty
  // after Fork() has been used.
  std::vector<std::pair<SeqId, CowOp>> TakePendingCows();
  // Reference count of a physical block (diagnostics/tests); 0 for a block
  // at or above the high-water mark, which was never allocated.
  int32_t BlockRefCount(int64_t block) const;
  // References on `block` held outside every sequence's table: 0 for plain
  // paging; the index's own reference plus pending pins for the prefix cache.
  // A consistent pool has BlockRefCount == table references + CacheRefs.
  virtual int32_t CacheRefs(int64_t /*block*/) const { return 0; }

  // Blocks needed to hold `tokens` tokens (after window clamping).
  int64_t BlocksForTokens(int64_t tokens) const;

  int64_t num_blocks() const { return options_.num_blocks; }
  int64_t block_size() const { return options_.block_size; }
  // Released blocks plus the never-used ones above the high-water mark.
  int64_t free_blocks() const {
    return static_cast<int64_t>(free_list_.size()) + options_.num_blocks - high_water_blocks();
  }
  int64_t used_blocks() const { return options_.num_blocks - free_blocks(); }
  // Blocks ever allocated: ids below it have been handed out at least once,
  // ids at or above it never have. Per-block state is sized to it.
  int64_t high_water_blocks() const { return static_cast<int64_t>(refcount_.size()); }

  // The sequence's physical block table, in logical order.
  const std::vector<int64_t>& BlockTable(SeqId id) const;
  // Logical token count of the sequence.
  int64_t SequenceTokens(SeqId id) const;

 protected:
  // Internals are protected (not private) so PrefixCachingAllocator can layer
  // a radix index over the same block pool without duplicating the
  // refcount/free-list machinery.
  struct SequenceState {
    std::vector<int64_t> blocks;
    int64_t num_tokens = 0;
  };

  // Looks up a sequence's state, memoizing the last (id -> state) pair: the
  // scheduler's per-token hot path probes CanAppendToken and then AppendToken
  // for the same sequence back to back, so the memo removes most hash
  // lookups. unordered_map element addresses survive rehashing, so the memo
  // only needs invalidation when an entry can disappear (Release).
  SequenceState& FindState(SeqId id) const;
  // MakeWritable body for a state already in hand (AppendToken has it).
  std::optional<CowOp> MakeWritableAt(SequenceState& state, SeqId id, int64_t pos);

  int64_t AllocateBlock();
  // Takes one more reference on an allocated block.
  void AddBlockRef(int64_t block) {
    if (++refcount_[static_cast<size_t>(block)] == 2) {
      OnSoleReferenceChanged(block, /*sole=*/false);
    }
    if (obs_ != nullptr) {
      NotifyBlockRef(block);
    }
  }
  // Reports a refcount change of `block` to an attached verify hook.
  void NotifyBlockRef(int64_t block) const;
  // Drops one reference; the block returns to the free list at zero.
  void ReleaseBlockRef(int64_t block);
  // Called whenever a block's refcount crosses between 1 and 2, in either
  // direction (`sole` is true when it drops to 1). An index layered over the
  // pool tracks its reclaimable entries here instead of rescanning. Plain
  // paging only crosses 1 <-> 2 through Fork and releases of shared blocks,
  // never on a decode append to an exclusive block.
  virtual void OnSoleReferenceChanged(int64_t /*block*/, bool /*sole*/) {}
  // Full-audit building blocks, O(high-water mark + table entries). An id is
  // valid only below the high-water mark: CheckBlockId describes one that is
  // not ("" when valid). CountTableRefs checks every table's block arithmetic
  // and ids and counts its references per block into `expected` (sized to the
  // high-water mark). AuditRefcounts checks the free list's ids and that every
  // block's refcount equals `expected` (described as `sources`) and that it is
  // on the free list exactly when unreferenced. Each returns the first
  // inconsistency, or "".
  std::string CheckBlockId(int64_t block) const;
  std::string CountTableRefs(std::vector<int32_t>& expected) const;
  std::string AuditRefcounts(const std::vector<int32_t>& expected,
                             std::string_view sources) const;
  // Logical token position -> index into the sequence's block table.
  int64_t BlockIndexFor(int64_t pos) const;
  // Emits the blocks-in-use counter (when it changed) and an optional named
  // instant for this sequence. No-op without obs hooks.
  void EmitKvObs(const char* event, SeqId id);

  Options options_;
  mutable SeqId hot_id_ = 0;
  mutable SequenceState* hot_state_ = nullptr;
  int64_t last_emitted_used_ = -1;
  // Released blocks only, most recent on top; fresh ids come from the high-
  // water mark, refcount_.size(), which AllocateBlock grows one at a time.
  std::vector<int64_t> free_list_;
  std::vector<int32_t> refcount_;
  std::unordered_map<SeqId, SequenceState> tables_;
  std::vector<std::pair<SeqId, CowOp>> pending_cows_;
};

// Orca-style allocator: without paged memory, every admitted request reserves
// KV space for the model's maximum sequence length up front, so concurrency
// is capped at total_tokens / max_seq_len regardless of actual lengths.
class ReservationAllocator : public KvAllocator {
 public:
  ReservationAllocator(int64_t capacity_tokens, int64_t max_seq_len);

  bool CanAdmit(int64_t prompt_len, int64_t max_total_len) const override;
  void Admit(SeqId id, int64_t prompt_len, int64_t max_total_len) override;
  bool CanAppendToken(SeqId id) const override;
  void AppendToken(SeqId id) override;
  void Release(SeqId id) override;
  double Utilization() const override;
  // Units are reserved token slots: every admission pins max_seq_len worth.
  int64_t used_units() const override { return num_admitted() * max_seq_len_; }
  int64_t total_units() const override { return max_concurrent_ * max_seq_len_; }
  int64_t num_sequences() const override { return num_admitted(); }
  std::string AuditInvariants() const override;

  int64_t max_concurrent() const { return max_concurrent_; }
  int64_t num_admitted() const { return static_cast<int64_t>(admitted_.size()); }

 private:
  int64_t max_seq_len_;
  int64_t max_concurrent_;
  std::unordered_map<SeqId, int64_t> admitted_;  // id -> current tokens.
};

}  // namespace sarathi

#endif  // SRC_MEMORY_BLOCK_MANAGER_H_
