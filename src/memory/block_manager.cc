#include "src/memory/block_manager.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include "src/common/logging.h"
#include "src/obs/obs_hooks.h"

namespace sarathi {

namespace {

constexpr char kKvCategory[] = "kv";

// Verify-hook notification shared by both allocators; one branch when no
// checker is attached.
void NotifyKv(ObsHooks* obs, KvVerifyEvent event, SeqId id) {
  if (obs != nullptr && obs->verify != nullptr) {
    obs->verify->OnKvEvent(event, id);
  }
}

}  // namespace

void PagedBlockManager::NotifyBlockRef(int64_t block) const {
  if (obs_ != nullptr && obs_->verify != nullptr) {
    obs_->verify->OnKvBlockRef(block);
  }
}

void PagedBlockManager::EmitKvObs(const char* event, SeqId id) {
  if (obs_ == nullptr) {
    return;
  }
  if (Tracer* tracer = obs_->tracer) {
    if (used_blocks() != last_emitted_used_) {
      tracer->Counter(kKvCategory, "kv_blocks_in_use", obs_->now_s,
                      static_cast<double>(used_blocks()));
    }
    if (event != nullptr) {
      tracer->InstantNow(kKvCategory, event, {Arg("seq", id), Arg("used_blocks", used_blocks())});
    }
  }
  if (obs_->metrics != nullptr && used_blocks() != last_emitted_used_) {
    obs_->metrics->SetGauge("kv_blocks_in_use", obs_->now_s,
                            static_cast<double>(used_blocks()));
  }
  last_emitted_used_ = used_blocks();
}

PagedBlockManager::PagedBlockManager(const Options& options) : options_(options) {
  CHECK_GT(options_.num_blocks, 0);
  CHECK_GT(options_.block_size, 0);
  CHECK_GE(options_.watermark, 0.0);
  CHECK_LT(options_.watermark, 1.0);
  // The pool starts empty of per-block state: AllocateBlock grows it.
}

std::string PagedBlockManager::CheckBlockId(int64_t block) const {
  if (block >= 0 && block < high_water_blocks()) {
    return "";
  }
  std::ostringstream out;
  out << "block id " << block << " outside [0, " << high_water_blocks()
      << "), the blocks ever allocated (pool of " << options_.num_blocks << ")";
  return out.str();
}

int64_t PagedBlockManager::BlocksForTokens(int64_t tokens) const {
  if (options_.sliding_window > 0) {
    // A windowed sequence cycles within window-covering blocks; one extra
    // block absorbs the partially-overwritten boundary.
    int64_t cap = options_.sliding_window + options_.block_size;
    tokens = std::min(tokens, cap);
  }
  return (tokens + options_.block_size - 1) / options_.block_size;
}

int64_t PagedBlockManager::BlockIndexFor(int64_t pos) const {
  CHECK_GE(pos, 0);
  if (options_.sliding_window > 0) {
    int64_t cap_tokens = options_.sliding_window + options_.block_size;
    int64_t cap_blocks = (cap_tokens + options_.block_size - 1) / options_.block_size;
    int64_t window_slots = cap_blocks * options_.block_size;
    pos %= window_slots;
  }
  return pos / options_.block_size;
}

bool PagedBlockManager::CanAdmit(int64_t prompt_len, int64_t /*max_total_len*/) const {
  int64_t needed = BlocksForTokens(prompt_len);
  auto watermark_blocks =
      static_cast<int64_t>(std::ceil(options_.watermark * static_cast<double>(options_.num_blocks)));
  return free_blocks() - needed >= watermark_blocks;
}

void PagedBlockManager::Admit(SeqId id, int64_t prompt_len, int64_t max_total_len) {
  CHECK(!tables_.contains(id)) << "sequence " << id << " already admitted";
  CHECK(CanAdmit(prompt_len, max_total_len));
  SequenceState state;
  int64_t needed = BlocksForTokens(prompt_len);
  // Reserve table capacity for the sequence's full lifetime so decode-time
  // AppendToken block growth never reallocates the table.
  state.blocks.reserve(
      static_cast<size_t>(std::max(needed, BlocksForTokens(max_total_len))));
  for (int64_t i = 0; i < needed; ++i) {
    state.blocks.push_back(AllocateBlock());
  }
  state.num_tokens = prompt_len;
  tables_.emplace(id, std::move(state));
  NotifyKv(obs_, KvVerifyEvent::kAdmit, id);
  EmitKvObs("kv_admit", id);
}

PagedBlockManager::SequenceState& PagedBlockManager::FindState(SeqId id) const {
  if (hot_state_ != nullptr && hot_id_ == id) {
    return *hot_state_;
  }
  auto it = tables_.find(id);
  CHECK(it != tables_.end()) << "unknown sequence " << id;
  hot_id_ = id;
  hot_state_ = const_cast<SequenceState*>(&it->second);
  return *hot_state_;
}

bool PagedBlockManager::CanAppendToken(SeqId id) const {
  const SequenceState& state = FindState(id);
  int64_t needed = BlocksForTokens(state.num_tokens + 1);
  if (needed > static_cast<int64_t>(state.blocks.size())) {
    return free_blocks() > 0;
  }
  // The token lands in an existing block — but if that block is shared with
  // a forked sibling, the write copy-on-writes it and needs a free block.
  int64_t block = state.blocks[static_cast<size_t>(BlockIndexFor(state.num_tokens))];
  return refcount_[static_cast<size_t>(block)] == 1 || free_blocks() > 0;
}

void PagedBlockManager::AppendToken(SeqId id) {
  SequenceState& state = FindState(id);
  int64_t needed = BlocksForTokens(state.num_tokens + 1);
  if (needed > static_cast<int64_t>(state.blocks.size())) {
    CHECK_GT(free_blocks(), 0) << "AppendToken without a free block";
    state.blocks.push_back(AllocateBlock());
  } else {
    // Writing into an existing block requires exclusive ownership; forked
    // sequences copy-on-write here, and the event is queued for the engine
    // to apply the data copy (TakePendingCows).
    std::optional<CowOp> cow = MakeWritableAt(state, id, state.num_tokens);
    if (cow.has_value()) {
      pending_cows_.emplace_back(id, *cow);
    }
  }
  ++state.num_tokens;
  NotifyKv(obs_, KvVerifyEvent::kAppend, id);
  EmitKvObs(nullptr, id);  // Counter only; per-token instants would flood.
}

std::vector<std::pair<SeqId, PagedBlockManager::CowOp>> PagedBlockManager::TakePendingCows() {
  std::vector<std::pair<SeqId, CowOp>> taken;
  taken.swap(pending_cows_);
  return taken;
}

std::optional<PagedBlockManager::CowOp> PagedBlockManager::AppendTokenCow(SeqId id) {
  SequenceState& state = FindState(id);
  int64_t needed = BlocksForTokens(state.num_tokens + 1);
  std::optional<CowOp> cow;
  if (needed > static_cast<int64_t>(state.blocks.size())) {
    CHECK_GT(free_blocks(), 0) << "AppendTokenCow without a free block";
    state.blocks.push_back(AllocateBlock());
  } else {
    cow = MakeWritableAt(state, id, state.num_tokens);
  }
  ++state.num_tokens;
  NotifyKv(obs_, KvVerifyEvent::kAppend, id);
  return cow;
}

std::optional<PagedBlockManager::CowOp> PagedBlockManager::MakeWritable(SeqId id, int64_t pos) {
  return MakeWritableAt(FindState(id), id, pos);
}

std::optional<PagedBlockManager::CowOp> PagedBlockManager::MakeWritableAt(SequenceState& state,
                                                                          SeqId id, int64_t pos) {
  int64_t index = BlockIndexFor(pos);
  CHECK_LT(index, static_cast<int64_t>(state.blocks.size()))
      << "position " << pos << " not covered";
  int64_t block = state.blocks[static_cast<size_t>(index)];
  if (refcount_[static_cast<size_t>(block)] == 1) {
    return std::nullopt;
  }
  CHECK_GT(free_blocks(), 0) << "copy-on-write without a free block";
  int64_t fresh = AllocateBlock();
  ReleaseBlockRef(block);
  state.blocks[static_cast<size_t>(index)] = fresh;
  NotifyKv(obs_, KvVerifyEvent::kCow, id);
  return CowOp{index, block, fresh};
}

bool PagedBlockManager::CanFork(SeqId id) const {
  return tables_.contains(id);
}

void PagedBlockManager::Fork(SeqId parent, SeqId child) {
  auto it = tables_.find(parent);
  CHECK(it != tables_.end()) << "unknown sequence " << parent;
  CHECK(!tables_.contains(child)) << "sequence " << child << " already admitted";
  SequenceState copy = it->second;
  for (int64_t block : copy.blocks) {
    AddBlockRef(block);
  }
  tables_.emplace(child, std::move(copy));
  NotifyKv(obs_, KvVerifyEvent::kFork, child);
  EmitKvObs("kv_fork", child);
}

void PagedBlockManager::Release(SeqId id) {
  auto it = tables_.find(id);
  CHECK(it != tables_.end()) << "unknown sequence " << id;
  for (int64_t block : it->second.blocks) {
    ReleaseBlockRef(block);
  }
  tables_.erase(it);
  // The erased entry may be the memoized one; drop it unconditionally.
  hot_state_ = nullptr;
  NotifyKv(obs_, KvVerifyEvent::kRelease, id);
  EmitKvObs("kv_release", id);
}

double PagedBlockManager::Utilization() const {
  return static_cast<double>(used_blocks()) / static_cast<double>(options_.num_blocks);
}

const std::vector<int64_t>& PagedBlockManager::BlockTable(SeqId id) const {
  return FindState(id).blocks;
}

int64_t PagedBlockManager::SequenceTokens(SeqId id) const {
  return FindState(id).num_tokens;
}

std::string PagedBlockManager::AuditInvariants() const {
  std::vector<int32_t> expected;
  std::string audit = CountTableRefs(expected);
  return audit.empty() ? AuditRefcounts(expected, "table references") : audit;
}

std::string PagedBlockManager::CountTableRefs(std::vector<int32_t>& expected) const {
  std::ostringstream out;
  expected.assign(refcount_.size(), 0);
  for (const auto& [id, state] : tables_) {
    int64_t needed = BlocksForTokens(state.num_tokens);
    if (static_cast<int64_t>(state.blocks.size()) != needed) {
      out << "seq " << id << ": " << state.num_tokens << " tokens need " << needed
          << " blocks but the table holds " << state.blocks.size();
      return out.str();
    }
    for (int64_t block : state.blocks) {
      if (std::string bad = CheckBlockId(block); !bad.empty()) {
        out << "seq " << id << ": " << bad;
        return out.str();
      }
      ++expected[static_cast<size_t>(block)];
    }
  }
  return "";
}

std::string PagedBlockManager::AuditRefcounts(const std::vector<int32_t>& expected,
                                              std::string_view sources) const {
  std::ostringstream out;
  std::vector<bool> on_free_list(refcount_.size(), false);
  for (int64_t block : free_list_) {
    if (std::string bad = CheckBlockId(block); !bad.empty()) {
      return "free list holds " + bad;
    }
    if (on_free_list[static_cast<size_t>(block)]) {
      out << "block " << block << " appears twice on the free list";
      return out.str();
    }
    on_free_list[static_cast<size_t>(block)] = true;
  }
  for (size_t i = 0; i < refcount_.size(); ++i) {
    if (refcount_[i] != expected[i]) {
      out << "block " << i << ": refcount " << refcount_[i] << " but " << expected[i] << ' '
          << sources << (expected[i] == 0 ? " (leaked block)" : "");
      return out.str();
    }
    if ((refcount_[i] == 0) != on_free_list[i]) {
      out << "block " << i << ": refcount " << refcount_[i]
          << (on_free_list[i] ? " yet on the free list" : " yet missing from the free list");
      return out.str();
    }
  }
  // used + free == total follows: every block below the high-water mark is
  // either referenced (used) or on the free list, never both, and every block
  // at or above it is free.
  return "";
}

int32_t PagedBlockManager::BlockRefCount(int64_t block) const {
  CHECK_GE(block, 0);
  CHECK_LT(block, options_.num_blocks);
  return block < high_water_blocks() ? refcount_[static_cast<size_t>(block)] : 0;
}

int64_t PagedBlockManager::AllocateBlock() {
  int64_t block;
  if (!free_list_.empty()) {
    block = free_list_.back();
    free_list_.pop_back();
    CHECK_EQ(refcount_[static_cast<size_t>(block)], 0);
    refcount_[static_cast<size_t>(block)] = 1;
  } else {
    // No released block: take the lowest never-used id, the one an eager
    // free stack would have on top.
    block = high_water_blocks();
    CHECK_LT(block, options_.num_blocks) << "out of KV blocks";
    refcount_.push_back(1);
  }
  NotifyBlockRef(block);
  return block;
}

void PagedBlockManager::ReleaseBlockRef(int64_t block) {
  CHECK_GE(block, 0);
  CHECK_LT(block, high_water_blocks());
  int32_t& count = refcount_[static_cast<size_t>(block)];
  CHECK_GT(count, 0);
  if (--count == 0) {
    free_list_.push_back(block);
  } else if (count == 1) {
    OnSoleReferenceChanged(block, /*sole=*/true);
  }
  NotifyBlockRef(block);
}

ReservationAllocator::ReservationAllocator(int64_t capacity_tokens, int64_t max_seq_len)
    : max_seq_len_(max_seq_len), max_concurrent_(capacity_tokens / max_seq_len) {
  CHECK_GT(max_seq_len_, 0);
  CHECK_GT(max_concurrent_, 0) << "KV capacity below one max-length sequence";
}

bool ReservationAllocator::CanAdmit(int64_t prompt_len, int64_t max_total_len) const {
  if (prompt_len > max_seq_len_ || max_total_len > max_seq_len_) {
    return false;
  }
  return num_admitted() < max_concurrent_;
}

void ReservationAllocator::Admit(SeqId id, int64_t prompt_len, int64_t max_total_len) {
  CHECK(CanAdmit(prompt_len, max_total_len));
  CHECK(!admitted_.contains(id)) << "sequence " << id << " already admitted";
  admitted_.emplace(id, prompt_len);
  NotifyKv(obs_, KvVerifyEvent::kAdmit, id);
  if (obs_ != nullptr && obs_->metrics != nullptr) {
    obs_->metrics->SetGauge("kv_blocks_in_use", obs_->now_s, static_cast<double>(used_units()));
  }
}

bool ReservationAllocator::CanAppendToken(SeqId id) const {
  auto it = admitted_.find(id);
  CHECK(it != admitted_.end()) << "unknown sequence " << id;
  return it->second < max_seq_len_;
}

void ReservationAllocator::AppendToken(SeqId id) {
  auto it = admitted_.find(id);
  CHECK(it != admitted_.end()) << "unknown sequence " << id;
  CHECK_LT(it->second, max_seq_len_);
  ++it->second;
  NotifyKv(obs_, KvVerifyEvent::kAppend, id);
}

void ReservationAllocator::Release(SeqId id) {
  CHECK_EQ(admitted_.erase(id), 1u) << "unknown sequence " << id;
  NotifyKv(obs_, KvVerifyEvent::kRelease, id);
  if (obs_ != nullptr && obs_->metrics != nullptr) {
    obs_->metrics->SetGauge("kv_blocks_in_use", obs_->now_s, static_cast<double>(used_units()));
  }
}

double ReservationAllocator::Utilization() const {
  return static_cast<double>(num_admitted()) / static_cast<double>(max_concurrent_);
}

std::string ReservationAllocator::AuditInvariants() const {
  std::ostringstream out;
  if (num_admitted() > max_concurrent_) {
    out << num_admitted() << " sequences admitted but capacity reserves only "
        << max_concurrent_;
    return out.str();
  }
  for (const auto& [id, tokens] : admitted_) {
    if (tokens < 0 || tokens > max_seq_len_) {
      out << "seq " << id << ": " << tokens << " tokens outside [0, " << max_seq_len_
          << "] reservation";
      return out.str();
    }
  }
  return "";
}

}  // namespace sarathi
