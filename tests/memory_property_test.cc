// Property-based test for PagedBlockManager: random interleavings of
// Admit / AppendToken / Fork / MakeWritable / Release against a small pool,
// with the allocator's own AuditInvariants() self-audit plus an independent
// token-count model checked after every operation. Catches refcount drift,
// free-list corruption, block leaks, and copy-on-write ops that reference
// dead sequences or out-of-range blocks — across many seeds. Every run also
// feeds an eager free-stack reference model: the lazily grown pool must hand
// out block ids in exactly the order an up-front [N-1 ... 0] stack would.

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/memory/block_manager.h"
#include "src/memory/prefix_cache.h"
#include "src/obs/obs_hooks.h"

namespace sarathi {

// Rewrites block ids the prefix cache holds, behind its self-audits' back.
class PrefixCacheCorrupter {
 public:
  explicit PrefixCacheCorrupter(PrefixCachingAllocator* cache) : cache_(cache) {}
  // Each setter returns the id it replaced, so a test can put it back.
  int64_t SetTableBlock(SeqId id, size_t index, int64_t block) {
    return std::exchange(cache_->tables_.at(id).blocks.at(index), block);
  }
  int64_t SetFreeBlock(size_t index, int64_t block) {
    return std::exchange(cache_->free_list_.at(index), block);
  }
  int64_t SetFirstCachedBlock(int64_t block) {
    return std::exchange(cache_->root_.children.begin()->second->block, block);
  }

 private:
  PrefixCachingAllocator* cache_;
};

namespace {

constexpr int64_t kNumBlocks = 32;
constexpr int64_t kBlockSize = 4;
constexpr int kOpsPerSeed = 1000;
constexpr uint64_t kNumSeeds = 25;

struct Model {
  // Independent mirror of each live sequence's logical token count.
  std::map<SeqId, int64_t> tokens;
};

// Picks a uniformly random live sequence, or nullopt when none exist.
std::optional<SeqId> PickLive(const Model& model, Rng& rng) {
  if (model.tokens.empty()) {
    return std::nullopt;
  }
  auto it = model.tokens.begin();
  std::advance(it, rng.UniformInt(0, static_cast<int64_t>(model.tokens.size()) - 1));
  return it->first;
}

// Reference model of the pool: a free stack filled with [N-1 ... 0] at
// construction, popped to allocate, pushed whenever a block's refcount falls
// to 0. Attached to a pool as its verify hook, it sees every
// refcount change and predicts each allocated id; the lazy pool must hand out
// exactly those.
class EagerFreeStack final : public VerifyHook {
 public:
  explicit EagerFreeStack(PagedBlockManager* pool)
      : pool_(pool), refcount_(static_cast<size_t>(pool->num_blocks()), 0) {
    for (int64_t b = pool->num_blocks() - 1; b >= 0; --b) {
      stack_.push_back(b);
    }
    hooks_.verify = this;
    pool->set_obs(&hooks_);
  }

  void OnSchedulerEvent(SchedVerifyEvent, const RequestState*) override {}
  void OnKvEvent(KvVerifyEvent, int64_t) override {}
  void OnKvBlockRef(int64_t block) override {
    int32_t now = pool_->BlockRefCount(block);
    int32_t& before = refcount_.at(static_cast<size_t>(block));
    if (before == 0 && now > 0) {  // Allocated.
      if (stack_.empty() || stack_.back() != block) {
        if (mismatch_.empty()) {
          mismatch_ = "allocated block " + std::to_string(block) + " but the eager stack has " +
                      (stack_.empty() ? std::string("nothing") : std::to_string(stack_.back())) +
                      " on top";
        }
        std::erase(stack_, block);
      } else {
        stack_.pop_back();
      }
    } else if (before > 0 && now == 0) {  // Released.
      stack_.push_back(block);
    }
    before = now;
  }

  // The first allocation that diverged from the eager order ("" if none).
  const std::string& mismatch() const { return mismatch_; }
  int64_t free_blocks() const { return static_cast<int64_t>(stack_.size()); }

 private:
  const PagedBlockManager* pool_;
  std::vector<int32_t> refcount_;
  std::vector<int64_t> stack_;
  std::string mismatch_;
  ObsHooks hooks_;
};

void CheckLazyPool(const PagedBlockManager& manager, const EagerFreeStack& reference,
                   uint64_t seed, int op) {
  ASSERT_EQ(reference.mismatch(), "") << "seed " << seed << " op " << op;
  ASSERT_EQ(manager.free_blocks(), reference.free_blocks())
      << "seed " << seed << " op " << op;
  ASSERT_LE(manager.high_water_blocks(), manager.num_blocks());
  for (int64_t b = manager.high_water_blocks(); b < manager.num_blocks(); ++b) {
    ASSERT_EQ(manager.BlockRefCount(b), 0) << "seed " << seed << " op " << op;
  }
}

void CheckConsistent(const PagedBlockManager& manager, const Model& model,
                     uint64_t seed, int op) {
  std::string audit = manager.AuditInvariants();
  ASSERT_EQ(audit, "") << "seed " << seed << " op " << op << ": " << audit;
  ASSERT_EQ(manager.num_sequences(), static_cast<int64_t>(model.tokens.size()))
      << "seed " << seed << " op " << op;
  int64_t expected_blocks = 0;
  for (const auto& [id, tokens] : model.tokens) {
    ASSERT_EQ(manager.SequenceTokens(id), tokens) << "seed " << seed << " op " << op;
    expected_blocks += manager.BlocksForTokens(tokens);
  }
  // Shared (forked) blocks make used <= sum of per-sequence needs.
  ASSERT_LE(manager.used_blocks(), expected_blocks) << "seed " << seed << " op " << op;
  ASSERT_EQ(manager.used_blocks() + manager.free_blocks(), kNumBlocks)
      << "seed " << seed << " op " << op;
}

void RunSeed(uint64_t seed, int64_t sliding_window) {
  PagedBlockManager::Options options;
  options.num_blocks = kNumBlocks;
  options.block_size = kBlockSize;
  options.watermark = 0.0;
  options.sliding_window = sliding_window;
  PagedBlockManager manager(options);
  EagerFreeStack reference(&manager);

  Rng rng(seed);
  Model model;
  SeqId next_id = 0;

  for (int op = 0; op < kOpsPerSeed; ++op) {
    switch (rng.UniformInt(0, 4)) {
      case 0: {  // Admit.
        int64_t prompt = rng.UniformInt(1, 3 * kBlockSize);
        int64_t max_total = prompt + rng.UniformInt(1, 8);
        if (manager.CanAdmit(prompt, max_total)) {
          SeqId id = next_id++;
          manager.Admit(id, prompt, max_total);
          model.tokens[id] = prompt;
        }
        break;
      }
      case 1: {  // AppendToken.
        auto id = PickLive(model, rng);
        if (id.has_value() && manager.CanAppendToken(*id)) {
          manager.AppendToken(*id);
          ++model.tokens[*id];
        }
        break;
      }
      case 2: {  // Fork.
        auto parent = PickLive(model, rng);
        if (parent.has_value() && manager.CanFork(*parent)) {
          SeqId child = next_id++;
          manager.Fork(*parent, child);
          model.tokens[child] = model.tokens[*parent];
        }
        break;
      }
      case 3: {  // MakeWritable at a random position.
        auto id = PickLive(model, rng);
        if (!id.has_value()) {
          break;
        }
        int64_t pos = rng.UniformInt(0, model.tokens[*id] - 1);
        const std::vector<int64_t>& table = manager.BlockTable(*id);
        // Mirror the manager's logical-position mapping: windowed sequences
        // wrap positions modulo the window-covering block span.
        int64_t index = pos / kBlockSize;
        if (sliding_window > 0) {
          int64_t cap_blocks = (sliding_window + 2 * kBlockSize - 1) / kBlockSize;
          index = (pos % (cap_blocks * kBlockSize)) / kBlockSize;
        }
        ASSERT_LT(index, static_cast<int64_t>(table.size()));
        int64_t block = table[static_cast<size_t>(index)];
        bool shared = manager.BlockRefCount(block) > 1;
        if (shared && manager.free_blocks() == 0) {
          break;  // A copy would need a free block.
        }
        std::optional<PagedBlockManager::CowOp> cow = manager.MakeWritable(*id, pos);
        ASSERT_EQ(cow.has_value(), shared) << "seed " << seed << " op " << op;
        if (cow.has_value()) {
          ASSERT_EQ(cow->old_block, block);
          ASSERT_GE(cow->new_block, 0);
          ASSERT_LT(cow->new_block, kNumBlocks);
          ASSERT_EQ(manager.BlockRefCount(cow->new_block), 1);
        }
        break;
      }
      case 4: {  // Release.
        auto id = PickLive(model, rng);
        if (id.has_value()) {
          manager.Release(*id);
          model.tokens.erase(*id);
        }
        break;
      }
    }
    // Implicit CoW ops performed by AppendToken on forked sequences must
    // reference live sequences and in-range, exclusively-owned new blocks.
    for (const auto& [id, cow] : manager.TakePendingCows()) {
      ASSERT_TRUE(model.tokens.contains(id)) << "seed " << seed << " op " << op;
      ASSERT_GE(cow.new_block, 0);
      ASSERT_LT(cow.new_block, kNumBlocks);
      ASSERT_EQ(manager.BlockRefCount(cow.new_block), 1);
    }
    CheckConsistent(manager, model, seed, op);
    CheckLazyPool(manager, reference, seed, op);
  }

  // Releasing everything must return the pool to pristine state: zero leaks.
  while (!model.tokens.empty()) {
    manager.Release(model.tokens.begin()->first);
    model.tokens.erase(model.tokens.begin());
  }
  ASSERT_EQ(manager.AuditInvariants(), "");
  ASSERT_EQ(manager.used_blocks(), 0);
  ASSERT_EQ(manager.free_blocks(), kNumBlocks);
  ASSERT_EQ(manager.num_sequences(), 0);
  CheckLazyPool(manager, reference, seed, kOpsPerSeed);
}

TEST(PagedBlockManagerPropertyTest, RandomOpsKeepInvariants) {
  for (uint64_t seed = 0; seed < kNumSeeds; ++seed) {
    RunSeed(seed, /*sliding_window=*/0);
  }
}

TEST(PagedBlockManagerPropertyTest, RandomOpsKeepInvariantsWithSlidingWindow) {
  for (uint64_t seed = 100; seed < 100 + kNumSeeds; ++seed) {
    RunSeed(seed, /*sliding_window=*/4 * kBlockSize);
  }
}

// ---------------------------------------------------------------------------
// PrefixCachingAllocator battery: random interleavings of the full cached
// lifecycle — pin-with-lookup, admit (consuming the pin), append, fork,
// preempt + recompute re-admission, finish-and-retain, drop-while-queued —
// against a pool small enough that retention keeps the allocator at the
// eviction watermark, so the LRU path runs on most admissions. Both
// self-audits (block conservation including the cached-chain ledger, and the
// radix-index structural audit) run after every operation, across >= 50
// seeds. Token ids are drawn from a tiny alphabet so block-sized chunks
// collide constantly: retention dedup, hash-collision rejection, and partial
// matches all get exercised, not just the clean hit path.
// ---------------------------------------------------------------------------

constexpr uint64_t kNumPrefixSeeds = 50;
constexpr int kPrefixOpsPerSeed = 600;
constexpr int32_t kAlphabet = 4;  // Tiny vocabulary: chunk collisions abound.

struct PendingSeq {
  std::shared_ptr<const std::vector<int32_t>> tokens;  // May be null.
  int64_t prompt = 0;
  int64_t max_total = 0;
};

struct CacheModel {
  std::map<SeqId, PendingSeq> pinned;     // PinPrefix'd, not yet admitted.
  std::map<SeqId, int64_t> admitted;      // Live in the manager -> token count.
  std::map<SeqId, PendingSeq> preempted;  // Released, awaiting recompute.
  // Token identity per non-terminal sequence (absent for anonymous requests
  // and fork children), mirroring the allocator's own registry.
  std::map<SeqId, std::shared_ptr<const std::vector<int32_t>>> identity;
  // Finished streams: later requests re-send prefixes of these (the
  // multi-turn pattern the cache exists for).
  std::vector<std::shared_ptr<const std::vector<int32_t>>> history;
};

std::optional<SeqId> PickAdmitted(const CacheModel& model, Rng& rng) {
  if (model.admitted.empty()) {
    return std::nullopt;
  }
  auto it = model.admitted.begin();
  std::advance(it,
               rng.UniformInt(0, static_cast<int64_t>(model.admitted.size()) - 1));
  return it->first;
}

void CheckCacheConsistent(const PrefixCachingAllocator& manager,
                          const CacheModel& model, uint64_t seed, int op) {
  std::string audit = manager.AuditInvariants();
  ASSERT_EQ(audit, "") << "seed " << seed << " op " << op << ": " << audit;
  audit = manager.AuditCache();
  ASSERT_EQ(audit, "") << "seed " << seed << " op " << op << ": " << audit;
  ASSERT_EQ(manager.used_blocks() + manager.free_blocks(), kNumBlocks)
      << "seed " << seed << " op " << op;
  ASSERT_EQ(manager.num_sequences(), static_cast<int64_t>(model.admitted.size()))
      << "seed " << seed << " op " << op;
  for (const auto& [id, tokens] : model.admitted) {
    ASSERT_EQ(manager.SequenceTokens(id), tokens) << "seed " << seed << " op " << op;
  }
  ASSERT_LE(manager.evictable_blocks(), manager.cached_blocks())
      << "seed " << seed << " op " << op;
  ASSERT_LE(manager.cached_blocks(), manager.stats().peak_cached_blocks)
      << "seed " << seed << " op " << op;
  ASSERT_LE(manager.stats().hits, manager.stats().lookups)
      << "seed " << seed << " op " << op;
}

void RunPrefixSeed(uint64_t seed) {
  PagedBlockManager::Options options;
  options.num_blocks = kNumBlocks;
  options.block_size = kBlockSize;
  options.watermark = 0.0;
  PrefixCachingAllocator manager(options);
  EagerFreeStack reference(&manager);

  Rng rng(seed);
  CacheModel model;
  SeqId next_id = 0;

  for (int op = 0; op < kPrefixOpsPerSeed; ++op) {
    switch (rng.UniformInt(0, 6)) {
      case 0: {  // Pin a new request (lookup happens here, before enqueue).
        SeqId id = next_id++;
        PendingSeq seq;
        seq.prompt = rng.UniformInt(1, 6 * kBlockSize);
        seq.max_total = seq.prompt + rng.UniformInt(1, 8);
        if (rng.UniformInt(0, 9) == 0) {
          // Anonymous request (no token identity): must behave exactly like
          // the plain paged path — lookup returns 0, retention is skipped.
          int64_t matched = manager.PinPrefix(id, nullptr, seq.prompt);
          ASSERT_EQ(matched, 0) << "seed " << seed << " op " << op;
        } else {
          auto tokens = std::make_shared<std::vector<int32_t>>();
          if (!model.history.empty() && rng.UniformInt(0, 2) > 0) {
            // Re-send a (possibly partial) prefix of a finished stream.
            const auto& base = *model.history[static_cast<size_t>(rng.UniformInt(
                0, static_cast<int64_t>(model.history.size()) - 1))];
            int64_t take = rng.UniformInt(
                0, std::min<int64_t>(static_cast<int64_t>(base.size()), seq.prompt));
            tokens->assign(base.begin(), base.begin() + take);
          }
          while (static_cast<int64_t>(tokens->size()) < seq.max_total) {
            tokens->push_back(static_cast<int32_t>(rng.UniformInt(0, kAlphabet - 1)));
          }
          seq.tokens = tokens;
          int64_t matched = manager.PinPrefix(id, seq.tokens, seq.prompt);
          ASSERT_GE(matched, 0) << "seed " << seed << " op " << op;
          ASSERT_LT(matched, seq.prompt) << "seed " << seed << " op " << op;
          ASSERT_EQ(matched % kBlockSize, 0) << "seed " << seed << " op " << op;
          ASSERT_EQ(manager.PinnedTokens(id), matched) << "seed " << seed << " op " << op;
          model.identity[id] = seq.tokens;
        }
        model.pinned[id] = std::move(seq);
        break;
      }
      case 1: {  // Admit a pinned request (consumes the pin) or a preempted
                 // one (recompute re-admission, no pin).
        auto* pool = rng.UniformInt(0, 1) == 0 && !model.preempted.empty()
                         ? &model.preempted
                         : &model.pinned;
        if (pool->empty()) pool = pool == &model.pinned ? &model.preempted : &model.pinned;
        if (pool->empty()) break;
        auto it = pool->begin();
        std::advance(it, rng.UniformInt(0, static_cast<int64_t>(pool->size()) - 1));
        SeqId id = it->first;
        PendingSeq seq = it->second;
        if (manager.CanAdmitSeq(id, seq.prompt, seq.max_total)) {
          manager.Admit(id, seq.prompt, seq.max_total);
          model.admitted[id] = seq.prompt;
          pool->erase(it);
        }
        break;
      }
      case 2: {  // Decode append (evicts a retained block when the pool is dry).
        auto id = PickAdmitted(model, rng);
        if (id.has_value() && manager.CanAppendToken(*id)) {
          manager.AppendToken(*id);
          ++model.admitted[*id];
        }
        break;
      }
      case 3: {  // Fork (parallel sampling child: shares blocks, no identity).
        auto parent = PickAdmitted(model, rng);
        if (parent.has_value() && manager.CanFork(*parent)) {
          SeqId child = next_id++;
          manager.Fork(*parent, child);
          model.admitted[child] = model.admitted[*parent];
        }
        break;
      }
      case 4: {  // Finish: retain full blocks in the radix index.
        auto id = PickAdmitted(model, rng);
        if (!id.has_value()) break;
        manager.ReleaseFinished(*id);
        model.admitted.erase(*id);
        auto identity = model.identity.find(*id);
        if (identity != model.identity.end()) {
          // Finished streams seed future shared-prefix draws (bounded pool).
          if (model.history.size() >= 16) model.history.erase(model.history.begin());
          model.history.push_back(identity->second);
          model.identity.erase(identity);
        }
        break;
      }
      case 5: {  // Drop while queued (shed/abort before admission).
        if (model.pinned.empty()) break;
        auto it = model.pinned.begin();
        std::advance(it,
                     rng.UniformInt(0, static_cast<int64_t>(model.pinned.size()) - 1));
        manager.OnRequestDropped(it->first);
        model.identity.erase(it->first);
        model.pinned.erase(it);
        break;
      }
      case 6: {  // Preempt: release blocks, keep identity for recompute.
        auto id = PickAdmitted(model, rng);
        if (!id.has_value()) break;
        PendingSeq seq;
        seq.prompt = model.admitted[*id];  // Recompute re-prefills everything.
        seq.max_total = seq.prompt + rng.UniformInt(1, 8);
        auto identity = model.identity.find(*id);
        if (identity != model.identity.end()) seq.tokens = identity->second;
        manager.Release(*id);
        model.admitted.erase(*id);
        model.preempted[*id] = seq;
        break;
      }
    }
    CheckCacheConsistent(manager, model, seed, op);
    CheckLazyPool(manager, reference, seed, op);
  }

  // Teardown mirrors end-of-run: drop every queued pin, finish every live
  // sequence (retaining), then drain the cache — the pool must come back
  // pristine, or blocks leaked into (or out of) the radix index.
  while (!model.pinned.empty()) {
    manager.OnRequestDropped(model.pinned.begin()->first);
    model.pinned.erase(model.pinned.begin());
  }
  while (!model.admitted.empty()) {
    manager.ReleaseFinished(model.admitted.begin()->first);
    model.admitted.erase(model.admitted.begin());
  }
  manager.DrainCache();
  ASSERT_EQ(manager.AuditInvariants(), "") << "seed " << seed;
  ASSERT_EQ(manager.AuditCache(), "") << "seed " << seed;
  ASSERT_EQ(manager.used_blocks(), 0) << "seed " << seed;
  ASSERT_EQ(manager.free_blocks(), kNumBlocks) << "seed " << seed;
  ASSERT_EQ(manager.cached_blocks(), 0) << "seed " << seed;
  ASSERT_EQ(manager.num_sequences(), 0) << "seed " << seed;
  CheckLazyPool(manager, reference, seed, kPrefixOpsPerSeed);
}

TEST(PrefixCachePropertyTest, RandomOpsKeepInvariants) {
  for (uint64_t seed = 0; seed < kNumPrefixSeeds; ++seed) {
    RunPrefixSeed(seed);
  }
}

// Directed: finishing a sequence and re-sending its exact stream matches the
// largest block multiple <= prompt - 1, and the hit admission only allocates
// the uncovered tail.
TEST(PrefixCachePropertyTest, RetainThenLookupRoundTrip) {
  PagedBlockManager::Options options;
  options.num_blocks = kNumBlocks;
  options.block_size = kBlockSize;
  options.watermark = 0.0;
  PrefixCachingAllocator manager(options);

  auto tokens = std::make_shared<std::vector<int32_t>>();
  for (int32_t i = 0; i < 20; ++i) tokens->push_back(i);
  const int64_t prompt = 17;  // 4 full blocks + 1; retention keeps 5 full
                              // blocks of the 20-token stream.
  ASSERT_EQ(manager.PinPrefix(0, tokens, prompt), 0);
  manager.Admit(0, prompt, 20);
  while (manager.SequenceTokens(0) < 20) manager.AppendToken(0);
  manager.ReleaseFinished(0);
  EXPECT_EQ(manager.cached_blocks(), 5);
  EXPECT_EQ(manager.used_blocks(), 5);

  // Same stream again: the match is capped at 16 = largest multiple of 4
  // <= prompt - 1, even though 20 tokens sit in the index.
  EXPECT_EQ(manager.PinPrefix(1, tokens, prompt), 16);
  int64_t free_before = manager.free_blocks();
  manager.Admit(1, prompt, 20);
  // Only the single uncovered block is fresh; the 4 matched blocks are shared.
  EXPECT_EQ(free_before - manager.free_blocks(), 1);
  EXPECT_EQ(manager.SequenceTokens(1), prompt);
  EXPECT_EQ(manager.AuditInvariants(), "");
  manager.ReleaseFinished(1);
  manager.DrainCache();
  EXPECT_EQ(manager.free_blocks(), kNumBlocks);
}

// Directed: retained blocks never starve decode — with the pool fully
// retained, admission and append both evict LRU leaves on demand.
TEST(PrefixCachePropertyTest, EvictionUnderPressureFreesRetainedBlocks) {
  PagedBlockManager::Options options;
  options.num_blocks = kNumBlocks;
  options.block_size = kBlockSize;
  options.watermark = 0.0;
  PrefixCachingAllocator manager(options);

  // Fill the whole pool with retained chains from distinct finished streams.
  SeqId id = 0;
  Rng rng(7);
  while (manager.free_blocks() >= 4) {
    auto tokens = std::make_shared<std::vector<int32_t>>();
    for (int i = 0; i < 16; ++i) {
      tokens->push_back(static_cast<int32_t>(rng.UniformInt(0, 1000000)));
    }
    SeqId seq = id++;
    ASSERT_EQ(manager.PinPrefix(seq, tokens, 16), 0);
    if (!manager.CanAdmitSeq(seq, 16, 16)) {
      manager.OnRequestDropped(seq);
      break;
    }
    manager.Admit(seq, 16, 16);
    manager.ReleaseFinished(seq);
  }
  ASSERT_GT(manager.cached_blocks(), 0);
  ASSERT_GT(manager.evictable_blocks(), 0);

  // A fresh admission that needs more than the free pool must still succeed
  // by evicting, and must leave both audits clean.
  int64_t evictions_before = manager.stats().evictions;
  ASSERT_TRUE(manager.CanAdmit(24, 32));
  SeqId fresh = id++;
  ASSERT_EQ(manager.PinPrefix(fresh, nullptr, 24), 0);
  manager.Admit(fresh, 24, 32);
  EXPECT_GT(manager.stats().evictions, evictions_before);
  EXPECT_EQ(manager.AuditInvariants(), "");
  EXPECT_EQ(manager.AuditCache(), "");

  // Decode append keeps evicting as the pool drains.
  while (manager.CanAppendToken(fresh) && manager.SequenceTokens(fresh) < 32) {
    manager.AppendToken(fresh);
    ASSERT_EQ(manager.AuditInvariants(), "");
  }
  manager.ReleaseFinished(fresh);
  manager.DrainCache();
  EXPECT_EQ(manager.free_blocks(), kNumBlocks);
  EXPECT_EQ(manager.AuditInvariants(), "");
}

// One-block token stream whose every id is `value` (distinct values give
// distinct chains).
std::shared_ptr<const std::vector<int32_t>> OneBlockStream(int32_t value) {
  return std::make_shared<std::vector<int32_t>>(kBlockSize, value);
}

// Pins, admits and finishes a one-block stream, so the index retains it as a
// one-node chain. Returns the chain's physical block.
int64_t RetainOneBlock(PrefixCachingAllocator& manager, SeqId id, int32_t value) {
  EXPECT_EQ(manager.PinPrefix(id, OneBlockStream(value), kBlockSize), 0);
  manager.Admit(id, kBlockSize, kBlockSize);
  int64_t block = manager.BlockTable(id)[0];
  manager.ReleaseFinished(id);
  return block;
}

// Admits an anonymous two-block request into a pool with exactly one free
// block, which forces exactly one eviction.
void ForceOneEviction(PrefixCachingAllocator& manager, SeqId id) {
  ASSERT_EQ(manager.free_blocks(), 1);
  int64_t evictions_before = manager.stats().evictions;
  ASSERT_EQ(manager.PinPrefix(id, nullptr, 2 * kBlockSize), 0);
  manager.Admit(id, 2 * kBlockSize, 2 * kBlockSize);
  EXPECT_EQ(manager.stats().evictions, evictions_before + 1);
  EXPECT_EQ(manager.AuditInvariants(), "");
  EXPECT_EQ(manager.AuditCache(), "");
}

// Directed: the victim is the evictable leaf with the oldest LRU stamp. (a) A
// re-pin touches a chain, so it outlives chains retained after it. (b) A
// chain that only becomes evictable late (a fork child held its block) keeps
// the stamp of its last touch, so it goes before a chain touched later; an
// LRU that appends re-entering leaves at the tail would evict the wrong one.
TEST(PrefixCachePropertyTest, EvictsLeastRecentlyTouchedLeafFirst) {
  PagedBlockManager::Options options;
  options.block_size = kBlockSize;
  options.watermark = 0.0;
  {
    options.num_blocks = 4;
    PrefixCachingAllocator manager(options);
    int64_t a = RetainOneBlock(manager, 0, 1);
    int64_t b = RetainOneBlock(manager, 1, 2);
    int64_t c = RetainOneBlock(manager, 2, 3);
    ASSERT_EQ(manager.evictable_blocks(), 3);
    // Re-pin A (its block plus one prompt token, so the block matches), then
    // drop the pin: A is now the most recently touched chain.
    auto a_longer = std::make_shared<std::vector<int32_t>>(kBlockSize + 1, 1);
    ASSERT_EQ(manager.PinPrefix(3, a_longer, kBlockSize + 1), kBlockSize);
    EXPECT_EQ(manager.evictable_blocks(), 2);
    manager.OnRequestDropped(3);
    EXPECT_EQ(manager.evictable_blocks(), 3);
    ForceOneEviction(manager, 4);
    EXPECT_EQ(manager.BlockTable(4)[0], b) << "B's block went to the new request";
    EXPECT_EQ(manager.BlockRefCount(a), 1);
    EXPECT_EQ(manager.BlockRefCount(c), 1);
    EXPECT_EQ(manager.cached_blocks(), 2);
  }
  {
    options.num_blocks = 3;
    PrefixCachingAllocator manager(options);
    ASSERT_EQ(manager.PinPrefix(0, OneBlockStream(1), kBlockSize), 0);
    manager.Admit(0, kBlockSize, kBlockSize);
    int64_t x = manager.BlockTable(0)[0];
    manager.Fork(0, 1);
    manager.ReleaseFinished(0);  // X retained; the child still maps it.
    EXPECT_EQ(manager.evictable_blocks(), 0);
    int64_t y = RetainOneBlock(manager, 2, 2);
    EXPECT_EQ(manager.evictable_blocks(), 1);
    manager.Release(1);  // X becomes evictable with its older stamp.
    EXPECT_EQ(manager.evictable_blocks(), 2);
    ForceOneEviction(manager, 3);
    EXPECT_EQ(manager.BlockTable(3)[0], x) << "X's block went to the new request";
    EXPECT_EQ(manager.BlockRefCount(y), 1);
    EXPECT_EQ(manager.cached_blocks(), 1);
  }
}

// ---------------------------------------------------------------------------
// Lazy pool: block ids come from a high-water counter, the free list holds
// only released blocks, and per-block state exists only below the mark.
// ---------------------------------------------------------------------------

PagedBlockManager::Options SmallPool() {
  PagedBlockManager::Options options;
  options.num_blocks = kNumBlocks;
  options.block_size = kBlockSize;
  options.watermark = 0.0;
  return options;
}

TEST(LazyPoolTest, EveryBlockIsAccountedForFromConstruction) {
  PagedBlockManager plain(SmallPool());
  PrefixCachingAllocator cached(SmallPool());
  for (const PagedBlockManager* pool : {static_cast<const PagedBlockManager*>(&plain),
                                        static_cast<const PagedBlockManager*>(&cached)}) {
    EXPECT_EQ(pool->high_water_blocks(), 0);
    EXPECT_EQ(pool->free_blocks(), kNumBlocks);
    EXPECT_EQ(pool->used_blocks(), 0);
    EXPECT_EQ(pool->free_blocks() + pool->used_blocks(), kNumBlocks);
    EXPECT_EQ(pool->BlockRefCount(0), 0);
    EXPECT_EQ(pool->BlockRefCount(kNumBlocks - 1), 0);
    EXPECT_EQ(pool->AuditInvariants(), "");
    EXPECT_EQ(pool->AuditCache(), "");
  }
}

TEST(LazyPoolTest, ReleasedBlocksAreReusedBeforeFreshOnes) {
  PagedBlockManager pool(SmallPool());
  pool.Admit(0, 2 * kBlockSize, 2 * kBlockSize);
  pool.Admit(1, kBlockSize, kBlockSize);
  EXPECT_EQ(pool.BlockTable(0), (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(pool.BlockTable(1), (std::vector<int64_t>{2}));
  EXPECT_EQ(pool.high_water_blocks(), 3);
  EXPECT_EQ(pool.BlockRefCount(3), 0);  // Never allocated.
  pool.Release(0);  // Pushes 0 then 1: 1 is on top.
  EXPECT_EQ(pool.free_blocks() + pool.used_blocks(), kNumBlocks);
  pool.Admit(2, 3 * kBlockSize, 3 * kBlockSize);
  EXPECT_EQ(pool.BlockTable(2), (std::vector<int64_t>{1, 0, 3}));
  EXPECT_EQ(pool.high_water_blocks(), 4);
  EXPECT_EQ(pool.free_blocks(), kNumBlocks - 4);
  EXPECT_EQ(pool.AuditInvariants(), "");
}

// Plain pool whose table and free-list ids can be rewritten.
class CorruptiblePool : public PagedBlockManager {
 public:
  using PagedBlockManager::PagedBlockManager;
  int64_t SetTableBlock(SeqId id, size_t index, int64_t block) {
    return std::exchange(tables_.at(id).blocks.at(index), block);
  }
  int64_t SetFreeBlock(size_t index, int64_t block) {
    return std::exchange(free_list_.at(index), block);
  }
};

// Writes `bad` through `set` (which returns the old id), expects `audit` to
// report `want`, then restores the old id and expects a clean audit.
template <typename Set, typename Audit>
void ExpectFlagged(Set set, Audit audit, int64_t bad, const std::string& want) {
  int64_t old = set(bad);
  std::string verdict = audit();
  EXPECT_NE(verdict.find(want), std::string::npos) << "id " << bad << ": " << verdict;
  set(old);
  EXPECT_EQ(audit(), "");
}

TEST(LazyPoolTest, AuditFlagsIdsAtOrAboveTheHighWaterMark) {
  {
    CorruptiblePool pool(SmallPool());
    pool.Admit(0, 2 * kBlockSize, 2 * kBlockSize);
    pool.Admit(1, kBlockSize, kBlockSize);
    pool.Release(1);  // The free list holds block 2.
    ASSERT_EQ(pool.high_water_blocks(), 3);
    auto audit = [&] { return pool.AuditInvariants(); };
    for (int64_t bad : {int64_t{3}, kNumBlocks - 1}) {
      std::string id = "block id " + std::to_string(bad) + " outside [0, 3)";
      ExpectFlagged([&](int64_t b) { return pool.SetTableBlock(0, 1, b); }, audit, bad,
                    "seq 0: " + id);
      ExpectFlagged([&](int64_t b) { return pool.SetFreeBlock(0, b); }, audit, bad,
                    "free list holds " + id);
    }
  }
  {
    PrefixCachingAllocator cache(SmallPool());
    auto stream = std::make_shared<std::vector<int32_t>>(kBlockSize, 7);
    ASSERT_EQ(cache.PinPrefix(0, stream, kBlockSize), 0);
    cache.Admit(0, kBlockSize, kBlockSize);
    cache.ReleaseFinished(0);  // Block 0 stays cached.
    ASSERT_EQ(cache.PinPrefix(1, nullptr, 2 * kBlockSize), 0);
    cache.Admit(1, 2 * kBlockSize, 2 * kBlockSize);  // Blocks 1 and 2.
    ASSERT_EQ(cache.PinPrefix(2, nullptr, kBlockSize), 0);
    cache.Admit(2, kBlockSize, kBlockSize);
    cache.Release(2);  // The free list holds block 3.
    ASSERT_EQ(cache.high_water_blocks(), 4);
    ASSERT_EQ(cache.cached_blocks(), 1);
    PrefixCacheCorrupter corrupt(&cache);
    auto audit = [&] { return cache.AuditInvariants(); };
    for (int64_t bad : {int64_t{4}, kNumBlocks - 1}) {
      std::string id = "block id " + std::to_string(bad) + " outside [0, 4)";
      ExpectFlagged([&](int64_t b) { return corrupt.SetTableBlock(1, 0, b); }, audit, bad,
                    "seq 1: " + id);
      ExpectFlagged([&](int64_t b) { return corrupt.SetFreeBlock(0, b); }, audit, bad,
                    "free list holds " + id);
      ExpectFlagged([&](int64_t b) { return corrupt.SetFirstCachedBlock(b); }, audit, bad,
                    "maps block 0 to the node of " + id);
      ExpectFlagged([&](int64_t b) { return corrupt.SetFirstCachedBlock(b); },
                    [&] { return cache.AuditCache(); }, bad, "cached node holds " + id);
    }
  }
}

}  // namespace
}  // namespace sarathi
