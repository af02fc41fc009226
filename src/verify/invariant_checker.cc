#include "src/verify/invariant_checker.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/common/logging.h"
#include "src/memory/block_manager.h"
#include "src/scheduler/request_state.h"

namespace sarathi {

std::string_view InvariantName(Invariant invariant) {
  switch (invariant) {
    case Invariant::kTokenBudget:
      return "token_budget";
    case Invariant::kStallFree:
      return "stall_free";
    case Invariant::kTokenConservation:
      return "token_conservation";
    case Invariant::kKvConservation:
      return "kv_conservation";
    case Invariant::kClockMonotonic:
      return "clock_monotonic";
    case Invariant::kBatchSanity:
      return "batch_sanity";
    case Invariant::kMigrationConservation:
      return "migration_conservation";
    case Invariant::kNoStarvation:
      return "no_starvation";
    case Invariant::kPrefixCache:
      return "prefix_cache";
    case Invariant::kPartitionConservation:
      return "partition_conservation";
  }
  return "unknown";
}

std::string Violation::Render() const {
  std::ostringstream out;
  out << "[" << InvariantName(invariant) << "] run=" << run << " iteration=" << iteration;
  if (request_id >= 0) {
    out << " request=" << request_id;
  }
  out << ": " << message;
  return out.str();
}

InvariantChecker::InvariantChecker() : InvariantChecker(Options()) {}

InvariantChecker::InvariantChecker(Options options) : options_(options) {
  CHECK_GE(options_.max_violations, 0);
}

void InvariantChecker::AddViolation(Invariant invariant, int64_t request_id,
                                    std::string message) {
  Violation violation;
  violation.invariant = invariant;
  violation.run = run_label_;
  violation.iteration = iteration_;
  violation.request_id = request_id;
  violation.message = std::move(message);
  ++total_violations_;
  if (flight_ != nullptr) {
    // Dump the flight ring before a fatal abort can tear the process down;
    // the events preceding the violation are the record worth keeping.
    flight_->Trigger("invariant_violation",
                     std::max(last_schedule_s_, last_apply_s_));
  }
  if (options_.fatal) {
    LOG(Fatal) << "invariant violation: " << violation.Render();
  }
  if (static_cast<int64_t>(violations_.size()) < options_.max_violations) {
    violations_.push_back(std::move(violation));
  }
}

void InvariantChecker::MergeFrom(const InvariantChecker& other) {
  for (const Violation& violation : other.violations_) {
    if (static_cast<int64_t>(violations_.size()) < options_.max_violations) {
      violations_.push_back(violation);
    }
  }
  total_violations_ += other.total_violations_;
  total_iterations_ += other.total_iterations_;
  runs_ += other.runs_;
  if (!other.run_label_.empty()) {
    // Adopt the last run label so violations recorded after the merge (e.g.
    // partition-reconcile checks driven from the router) are tagged exactly
    // as a serial run would have tagged them.
    run_label_ = other.run_label_;
  }
}

void InvariantChecker::CheckPartitionReconcile(const PartitionReconcile& reconcile) {
  const int64_t id = reconcile.request_id;
  // Exactly one completion: whenever both attempts ran to completion, the
  // losing one's completion must have been suppressed before delivery.
  if (reconcile.loser_completed && !reconcile.loser_suppressed) {
    AddViolation(Invariant::kPartitionConservation, id,
                 "duplicate completion: losing attempt finished but was not suppressed");
  }
  // Delivery deferral: a far-side winner's output cannot reach the client
  // strictly inside the partition window — the link was down.
  if (reconcile.winner_far) {
    for (double t : reconcile.delivered_token_times_s) {
      if (t > reconcile.partition_begin_s && t < reconcile.partition_end_s) {
        std::ostringstream out;
        out << "token delivered at " << t << " inside partition window ["
            << reconcile.partition_begin_s << ", " << reconcile.partition_end_s << ")";
        AddViolation(Invariant::kPartitionConservation, id, out.str());
        break;
      }
    }
  }
  // Conservation: the client sees the winning attempt's stream, token for
  // token — nothing lost, nothing double-delivered from merging the two
  // attempts.
  if (reconcile.delivered_token_times_s.size() != reconcile.winner_token_times_s.size()) {
    std::ostringstream out;
    out << "delivered " << reconcile.delivered_token_times_s.size()
        << " tokens but the winning attempt produced "
        << reconcile.winner_token_times_s.size();
    AddViolation(Invariant::kPartitionConservation, id, out.str());
  } else {
    for (size_t i = 0; i < reconcile.delivered_token_times_s.size(); ++i) {
      if (reconcile.delivered_token_times_s[i] != reconcile.winner_token_times_s[i]) {
        std::ostringstream out;
        out << "delivered token " << i << " at " << reconcile.delivered_token_times_s[i]
            << " but the winner emitted it at " << reconcile.winner_token_times_s[i];
        AddViolation(Invariant::kPartitionConservation, id, out.str());
        break;
      }
    }
  }
  if (reconcile.output_tokens > 0 &&
      static_cast<int64_t>(reconcile.delivered_token_times_s.size()) >
          reconcile.output_tokens) {
    std::ostringstream out;
    out << "delivered " << reconcile.delivered_token_times_s.size()
        << " tokens for a request of " << reconcile.output_tokens;
    AddViolation(Invariant::kPartitionConservation, id, out.str());
  }
  for (size_t i = 1; i < reconcile.delivered_token_times_s.size(); ++i) {
    if (reconcile.delivered_token_times_s[i] < reconcile.delivered_token_times_s[i - 1]) {
      std::ostringstream out;
      out << "delivered stream not monotone: token " << i << " at "
          << reconcile.delivered_token_times_s[i] << " precedes token " << i - 1 << " at "
          << reconcile.delivered_token_times_s[i - 1];
      AddViolation(Invariant::kPartitionConservation, id, out.str());
      break;
    }
  }
  if (reconcile.delivered_completion_s > 0.0 &&
      !reconcile.delivered_token_times_s.empty() &&
      reconcile.delivered_completion_s < reconcile.delivered_token_times_s.back()) {
    std::ostringstream out;
    out << "completion delivered at " << reconcile.delivered_completion_s
        << " before the last token at " << reconcile.delivered_token_times_s.back();
    AddViolation(Invariant::kPartitionConservation, id, out.str());
  }
}

void InvariantChecker::BeginRun(const Scheduler* scheduler, const KvAllocator* allocator,
                                std::string label) {
  CHECK(scheduler != nullptr);
  CHECK(allocator != nullptr);
  scheduler_ = scheduler;
  allocator_ = allocator;
  run_label_ = std::move(label);
  iteration_ = 0;
  last_schedule_s_ = 0.0;
  last_apply_s_ = 0.0;
  any_scheduled_ = false;
  any_applied_ = false;
  shadows_.clear();
  waiting_batch_.clear();
  enqueue_counter_ = 0;
  live_kv_.clear();
  // The mirror starts from an empty pool: the driver attaches the checker to
  // a fresh allocator. Its per-block arrays grow with the blocks the run
  // touches (TouchBlock), like the allocator's own state.
  paged_ = dynamic_cast<const PagedBlockManager*>(allocator);
  table_refs_.clear();
  touched_.clear();
  referenced_.clear();
  touched_blocks_.clear();
  referenced_blocks_ = 0;
  ++runs_;
}

bool InvariantChecker::InPool(int64_t block) const {
  return block >= 0 && block < paged_->num_blocks();
}

void InvariantChecker::TouchBlock(int64_t block) {
  auto i = static_cast<size_t>(block);
  if (i >= touched_.size()) {
    table_refs_.resize(i + 1, 0);
    touched_.resize(i + 1, 0);
    referenced_.resize(i + 1, 0);
  }
  if (touched_[i] == 0) {
    touched_[i] = 1;
    touched_blocks_.push_back(block);
  }
}

void InvariantChecker::OnKvBlockRef(int64_t block) {
  if (paged_ != nullptr && InPool(block)) {
    TouchBlock(block);
  }
}

void InvariantChecker::SyncTable(int64_t id, std::vector<int64_t>& mirror, size_t from) {
  const std::vector<int64_t>& table = paged_->BlockTable(id);
  int64_t tokens = paged_->SequenceTokens(id);
  int64_t needed = paged_->BlocksForTokens(tokens);
  if (static_cast<int64_t>(table.size()) != needed) {
    std::ostringstream out;
    out << "seq " << id << ": " << tokens << " tokens need " << needed
        << " blocks but the table holds " << table.size();
    AddViolation(Invariant::kKvConservation, id, out.str());
  }
  // Entries past the old mirror start as "no block", so growth adds
  // references and shrinkage drops them.
  mirror.resize(std::max(table.size(), mirror.size()), -1);
  for (size_t i = std::min(from, mirror.size()); i < mirror.size(); ++i) {
    int64_t new_block = i < table.size() ? table[i] : -1;
    if (i < table.size() && !InPool(new_block)) {
      std::ostringstream out;
      out << "seq " << id << ": block id " << new_block << " out of range [0, "
          << paged_->num_blocks() << ")";
      AddViolation(Invariant::kKvConservation, id, out.str());
    }
    int64_t old_block = mirror[i];
    if (old_block == new_block) {
      continue;
    }
    mirror[i] = new_block;
    if (InPool(old_block)) {
      --table_refs_[static_cast<size_t>(old_block)];
      TouchBlock(old_block);
    }
    if (InPool(new_block)) {
      TouchBlock(new_block);  // Grows the arrays to cover the block.
      ++table_refs_[static_cast<size_t>(new_block)];
    }
  }
  mirror.resize(table.size());
}

void InvariantChecker::AuditKv(const char* where) {
  if (paged_ != nullptr) {
    // Every block whose refcount or mirrored table references moved since the
    // last audit point: its refcount must equal the references the mirror
    // and the allocator's cache account for.
    for (int64_t block : touched_blocks_) {
      auto i = static_cast<size_t>(block);
      touched_[i] = 0;
      int32_t refcount = paged_->BlockRefCount(block);
      int32_t cache_refs = paged_->CacheRefs(block);
      if (refcount != table_refs_[i] + cache_refs) {
        std::ostringstream out;
        out << "after " << where << ": block " << block << ": refcount " << refcount
            << " but " << table_refs_[i] + cache_refs << " references (" << table_refs_[i]
            << " table + " << cache_refs << " index/pin)"
            << (table_refs_[i] + cache_refs == 0 ? " (leaked block)" : "");
        AddViolation(Invariant::kKvConservation, -1, out.str());
      }
      uint8_t referenced = refcount > 0 ? 1 : 0;
      referenced_blocks_ += referenced - referenced_[i];
      referenced_[i] = referenced;
    }
    touched_blocks_.clear();
    if (referenced_blocks_ + paged_->free_blocks() != paged_->num_blocks()) {
      std::ostringstream out;
      out << "after " << where << ": " << referenced_blocks_ << " referenced + "
          << paged_->free_blocks() << " free blocks != " << paged_->num_blocks() << " total";
      AddViolation(Invariant::kKvConservation, -1, out.str());
    }
  } else if (allocator_->used_units() > allocator_->total_units()) {
    std::ostringstream out;
    out << "after " << where << ": " << allocator_->used_units() << " units used of "
        << allocator_->total_units();
    AddViolation(Invariant::kKvConservation, -1, out.str());
  }
  int64_t observed = allocator_->num_sequences();
  auto expected = static_cast<int64_t>(live_kv_.size());
  if (observed != expected) {
    std::ostringstream out;
    out << "after " << where << ": allocator holds " << observed << " sequences but "
        << expected << " were admitted/forked and not released";
    AddViolation(Invariant::kKvConservation, -1, out.str());
  }
}

void InvariantChecker::AuditKvFull(const char* where) {
  std::string audit = allocator_->AuditInvariants();
  if (!audit.empty()) {
    AddViolation(Invariant::kKvConservation, -1,
                 std::string("allocator audit failed after ") + where + ": " + audit);
  }
  // Structural self-audit of the radix prefix cache (empty string for
  // allocators without one): retained chains intact, no block cached twice,
  // no eviction of a block a live sequence or pin still maps.
  std::string cache_audit = allocator_->AuditCache();
  if (!cache_audit.empty()) {
    AddViolation(Invariant::kPrefixCache, -1,
                 std::string("prefix-cache audit failed after ") + where + ": " + cache_audit);
  }
}

void InvariantChecker::CheckBatchSanity(const ScheduledBatch& batch) {
  for (const auto& item : batch.items) {
    if (item.request == nullptr) {
      AddViolation(Invariant::kBatchSanity, -1, "batch item with null request");
      continue;
    }
    const RequestState* request = item.request;
    auto it = shadows_.find(request);
    if (it == shadows_.end()) {
      AddViolation(Invariant::kBatchSanity, request->id(),
                   "scheduled without ever being enqueued or adopted");
      continue;
    }
    Shadow& shadow = it->second;
    if (shadow.scheduled_iteration == iteration_) {
      AddViolation(Invariant::kBatchSanity, request->id(),
                   "request appears twice in one batch");
      continue;
    }
    shadow.scheduled_iteration = iteration_;
    if (shadow.closed) {
      AddViolation(Invariant::kBatchSanity, request->id(),
                   "scheduled after finishing or aborting");
    }
    if (shadow.in_flight) {
      AddViolation(Invariant::kBatchSanity, request->id(),
                   "scheduled while still inside an in-flight batch");
    }
    if (item.is_decode) {
      if (item.num_tokens != 1) {
        std::ostringstream out;
        out << "decode item carries " << item.num_tokens << " tokens, expected 1";
        AddViolation(Invariant::kBatchSanity, request->id(), out.str());
      }
      if (!request->prefill_complete()) {
        std::ostringstream out;
        out << "decode scheduled with prefill incomplete (" << request->prefill_done()
            << "/" << request->prefill_target() << " tokens)";
        AddViolation(Invariant::kBatchSanity, request->id(), out.str());
      }
    } else {
      if (item.num_tokens <= 0 || item.num_tokens > request->remaining_prefill()) {
        std::ostringstream out;
        out << "prefill chunk of " << item.num_tokens << " tokens, expected 1.."
            << request->remaining_prefill();
        AddViolation(Invariant::kBatchSanity, request->id(), out.str());
      }
    }
    shadow.in_flight = true;
  }
}

void InvariantChecker::CheckTokenBudget(const ScheduledBatch& batch) {
  SchedulerGuarantees guarantees = scheduler_->guarantees();
  if (guarantees.token_budget < 0 || batch.NumPrefillTokens() == 0) {
    return;  // No promise, or a decode-only batch (decodes pack unconditionally).
  }
  if (batch.TotalTokens() > guarantees.token_budget) {
    std::ostringstream out;
    out << "batch carries " << batch.TotalTokens() << " tokens ("
        << batch.NumPrefillTokens() << " prefill + " << batch.NumDecodes()
        << " decode) with prefill work, but the declared token budget is "
        << guarantees.token_budget;
    AddViolation(Invariant::kTokenBudget, -1, out.str());
  }
}

void InvariantChecker::CheckStallFree(const ScheduledBatch& batch) {
  SchedulerGuarantees guarantees = scheduler_->guarantees();
  if (!guarantees.stall_free || batch.NumPrefillTokens() == 0) {
    return;
  }
  // A decode may legitimately be skipped when batch slots or KV memory ran
  // out; only flag skips with slots and memory to spare.
  if (static_cast<int64_t>(batch.items.size()) >= scheduler_->config().max_batch_size) {
    return;
  }
  if (allocator_->total_units() - allocator_->used_units() <= 0) {
    return;
  }
  for (const RequestState* request : scheduler_->running()) {
    if (request->locked() || !request->prefill_complete() || request->finished()) {
      continue;
    }
    // CheckBatchSanity stamped every shadow this batch carries.
    auto it = shadows_.find(request);
    if (it == shadows_.end() || it->second.scheduled_iteration != iteration_) {
      std::ostringstream out;
      out << "running decode-ready request skipped while the batch carries "
          << batch.NumPrefillTokens() << " prefill tokens, "
          << batch.items.size() << "/" << scheduler_->config().max_batch_size
          << " batch slots used and " << allocator_->total_units() - allocator_->used_units()
          << " KV units free (generation stall, §4.2)";
      AddViolation(Invariant::kStallFree, request->id(), out.str());
    }
  }
}

void InvariantChecker::OnBatchScheduled(const ScheduledBatch& batch, double now_s) {
  CHECK(scheduler_ != nullptr) << "OnBatchScheduled before BeginRun";
  ++iteration_;
  ++total_iterations_;
  if (any_scheduled_ && now_s < last_schedule_s_) {
    std::ostringstream out;
    out << "schedule time moved backwards: " << now_s << "s after " << last_schedule_s_
        << "s";
    AddViolation(Invariant::kClockMonotonic, -1, out.str());
  }
  last_schedule_s_ = now_s;
  any_scheduled_ = true;
  CheckBatchSanity(batch);
  CheckTokenBudget(batch);
  CheckStallFree(batch);
  AuditKv("schedule");
  if (iteration_ % kFullAuditInterval == 0) {
    AuditKvFull("schedule");
  }
}

void InvariantChecker::OnBatchApplied(const ScheduledBatch& batch, double exit_s) {
  CHECK(scheduler_ != nullptr) << "OnBatchApplied before BeginRun";
  if (any_applied_ && exit_s < last_apply_s_) {
    std::ostringstream out;
    out << "batch exit time moved backwards: " << exit_s << "s after " << last_apply_s_
        << "s";
    AddViolation(Invariant::kClockMonotonic, -1, out.str());
  }
  last_apply_s_ = exit_s;
  any_applied_ = true;
  for (const auto& item : batch.items) {
    const RequestState* request = item.request;
    auto it = shadows_.find(request);
    if (it == shadows_.end()) {
      AddViolation(Invariant::kTokenConservation, request->id(),
                   "batch applied for an untracked request");
      continue;
    }
    Shadow& shadow = it->second;
    if (!shadow.in_flight) {
      AddViolation(Invariant::kBatchSanity, request->id(),
                   "batch applied but was never scheduled (or applied twice)");
    }
    shadow.in_flight = false;
    if (item.is_decode) {
      ++shadow.generated;
    } else {
      shadow.prefill_done += item.num_tokens;
      if (shadow.prefill_done > shadow.prefill_target) {
        std::ostringstream out;
        out << "prefill progressed to " << shadow.prefill_done << " of a "
            << shadow.prefill_target << "-token target";
        AddViolation(Invariant::kTokenConservation, request->id(), out.str());
      }
      if (shadow.prefill_done == shadow.prefill_target) {
        ++shadow.generated;  // The final chunk's iteration emits token one.
      }
    }
    if (request->prefill_done() != shadow.prefill_done ||
        request->generated() != shadow.generated) {
      std::ostringstream out;
      out << "progress diverged from scheduled work: expected prefill "
          << shadow.prefill_done << "/" << shadow.prefill_target << " and "
          << shadow.generated << " generated, observed prefill " << request->prefill_done()
          << "/" << request->prefill_target() << " and " << request->generated()
          << " generated";
      AddViolation(Invariant::kTokenConservation, request->id(), out.str());
      // Re-sync so one divergence doesn't cascade into a violation per batch.
      shadow.prefill_target = request->prefill_target();
      shadow.prefill_done = request->prefill_done();
      shadow.generated = request->generated();
    }
  }
  AuditKv("apply");
}

void InvariantChecker::OnBatchDiscarded(const ScheduledBatch& batch) {
  CHECK(scheduler_ != nullptr) << "OnBatchDiscarded before BeginRun";
  for (const auto& item : batch.items) {
    auto it = shadows_.find(item.request);
    if (it == shadows_.end()) {
      continue;
    }
    if (!it->second.in_flight) {
      AddViolation(Invariant::kBatchSanity, item.request->id(),
                   "discarded batch was never scheduled");
    }
    it->second.in_flight = false;
  }
}

void InvariantChecker::OnSchedulerEvent(SchedVerifyEvent event, const RequestState* request) {
  CHECK(request != nullptr);
  int64_t id = request->id();
  switch (event) {
    case SchedVerifyEvent::kEnqueue: {
      auto [it, inserted] = shadows_.try_emplace(request);
      Shadow& shadow = it->second;
      // A prefix-cache hit legitimately starts prefill at the matched
      // boundary; anything beyond cached_prefill() is unexplained progress.
      if (request->prefill_done() != request->cached_prefill()) {
        std::ostringstream out;
        out << "enqueued with prefill already at " << request->prefill_done()
            << " tokens, of which only " << request->cached_prefill()
            << " are prefix-cache served";
        AddViolation(Invariant::kTokenConservation, id, out.str());
      }
      if (request->prefill_target() != request->prompt_tokens() + request->generated()) {
        std::ostringstream out;
        out << "enqueued with prefill target " << request->prefill_target()
            << ", expected prompt " << request->prompt_tokens() << " + generated "
            << request->generated() << " (recompute must rebuild generated context)";
        AddViolation(Invariant::kTokenConservation, id, out.str());
      }
      if (!inserted) {
        // Crash-recompute re-enqueue: generation must have been preserved.
        if (shadow.in_flight) {
          AddViolation(Invariant::kBatchSanity, id, "re-enqueued while inside an in-flight batch");
        }
        if (request->generated() != shadow.generated) {
          std::ostringstream out;
          out << "re-enqueued with " << request->generated() << " generated tokens, "
              << shadow.generated << " were emitted";
          AddViolation(Invariant::kTokenConservation, id, out.str());
        }
      }
      shadow.id = id;
      shadow.prompt_tokens = request->prompt_tokens();
      shadow.prefill_target = request->prefill_target();
      shadow.prefill_done = request->prefill_done();
      shadow.generated = request->generated();
      shadow.in_flight = false;
      shadow.closed = false;
      shadow.batch_lane = request->qos() == QosClass::kBatch;
      shadow.arrival_s = request->arrival_time_s();
      shadow.waiting = true;
      shadow.enqueue_seq = ++enqueue_counter_;
      IndexWaiting(shadow);
      break;
    }
    case SchedVerifyEvent::kAdmit: {
      auto it = shadows_.find(request);
      if (it == shadows_.end()) {
        AddViolation(Invariant::kBatchSanity, id, "admitted without being enqueued");
        break;
      }
      Shadow& shadow = it->second;
      if (shadow.closed) {
        AddViolation(Invariant::kBatchSanity, id, "admitted after finishing or aborting");
      }
      shadow.waiting = false;
      IndexWaiting(shadow);
      CheckNoStarvation(request, shadow);
      break;
    }
    case SchedVerifyEvent::kAdopt: {
      // Forked sibling: joins post-prefill with the parent's progress.
      Shadow& shadow = shadows_[request];
      shadow.id = id;
      shadow.prompt_tokens = request->prompt_tokens();
      shadow.prefill_target = request->prefill_target();
      shadow.prefill_done = request->prefill_done();
      shadow.generated = request->generated();
      shadow.in_flight = false;
      shadow.closed = false;
      shadow.batch_lane = request->qos() == QosClass::kBatch;
      shadow.arrival_s = request->arrival_time_s();
      shadow.waiting = false;
      IndexWaiting(shadow);
      if (!request->prefill_complete()) {
        AddViolation(Invariant::kBatchSanity, id, "adopted with prefill incomplete");
      }
      break;
    }
    case SchedVerifyEvent::kAdoptMigrated: {
      // Live-migrated request: the transferred KV must cover the whole prompt
      // and every generated token, and adoption must not schedule recompute.
      Shadow& shadow = shadows_[request];
      shadow.id = id;
      shadow.prompt_tokens = request->prompt_tokens();
      shadow.prefill_target = request->prefill_target();
      shadow.prefill_done = request->prefill_done();
      shadow.generated = request->generated();
      shadow.in_flight = false;
      shadow.closed = false;
      shadow.migrated_in = true;
      shadow.batch_lane = request->qos() == QosClass::kBatch;
      shadow.arrival_s = request->arrival_time_s();
      shadow.waiting = false;
      IndexWaiting(shadow);
      if (!request->prefill_complete()) {
        AddViolation(Invariant::kMigrationConservation, id,
                     "migrated request adopted with prefill incomplete — the transfer "
                     "must carry the whole prompt KV");
      }
      if (request->generated() <= 0) {
        AddViolation(Invariant::kMigrationConservation, id,
                     "migrated request adopted with zero generated tokens — only "
                     "decoding requests are migrated");
      }
      if (request->generated() >= request->output_tokens()) {
        std::ostringstream out;
        out << "migrated request adopted with generation already complete ("
            << request->generated() << "/" << request->output_tokens() << ")";
        AddViolation(Invariant::kMigrationConservation, id, out.str());
      }
      if (request->prefill_target() != request->prompt_tokens()) {
        std::ostringstream out;
        out << "migrated request adopted with prefill target " << request->prefill_target()
            << " != prompt " << request->prompt_tokens()
            << " — a live migration must not recompute generated context";
        AddViolation(Invariant::kMigrationConservation, id, out.str());
      }
      break;
    }
    case SchedVerifyEvent::kPreempt: {
      auto it = shadows_.find(request);
      if (it == shadows_.end()) {
        AddViolation(Invariant::kBatchSanity, id, "preempted untracked request");
        break;
      }
      Shadow& shadow = it->second;
      if (shadow.in_flight) {
        AddViolation(Invariant::kBatchSanity, id, "preempted while inside an in-flight batch");
      }
      if (request->prefill_done() != 0 ||
          request->prefill_target() != shadow.prompt_tokens + shadow.generated) {
        std::ostringstream out;
        out << "preemption-recompute state wrong: prefill " << request->prefill_done()
            << "/" << request->prefill_target() << ", expected 0/"
            << shadow.prompt_tokens + shadow.generated << " (prompt "
            << shadow.prompt_tokens << " + " << shadow.generated << " generated)";
        AddViolation(Invariant::kTokenConservation, id, out.str());
      }
      shadow.prefill_target = request->prefill_target();
      shadow.prefill_done = 0;
      // A memory-pressure preemption of a migrated-in request is a legitimate
      // recompute; it just forfeits the no-recompute property going forward.
      shadow.migrated_in = false;
      shadow.waiting = true;  // Back at the queue front for re-admission.
      IndexWaiting(shadow);
      break;
    }
    case SchedVerifyEvent::kAbort: {
      auto it = shadows_.find(request);
      if (it == shadows_.end()) {
        AddViolation(Invariant::kBatchSanity, id, "aborted untracked request");
        break;
      }
      if (it->second.in_flight) {
        AddViolation(Invariant::kBatchSanity, id, "aborted while inside an in-flight batch");
      }
      it->second.closed = true;
      it->second.waiting = false;
      IndexWaiting(it->second);
      // KV-clean abort: by the time the scheduler reports an abort (overload
      // shed, CoDel drop, timeout, drain), the request's KV must already be
      // released — the per-request form of the end-of-run zero-leak gate.
      if (live_kv_.contains(id)) {
        AddViolation(Invariant::kKvConservation, id,
                     "aborted request still holds a live KV sequence (shed leak)");
      }
      break;
    }
    case SchedVerifyEvent::kFinish: {
      auto it = shadows_.find(request);
      if (it == shadows_.end()) {
        AddViolation(Invariant::kBatchSanity, id, "finished untracked request");
        break;
      }
      if (!request->finished()) {
        std::ostringstream out;
        out << "finish with output incomplete: " << request->generated() << "/"
            << request->output_tokens() << " tokens generated, prefill "
            << request->prefill_done() << "/" << request->prefill_target();
        AddViolation(Invariant::kTokenConservation, id, out.str());
      }
      it->second.closed = true;
      it->second.waiting = false;
      IndexWaiting(it->second);
      break;
    }
  }
}

void InvariantChecker::IndexWaiting(Shadow& shadow) {
  if (shadow.indexed) {
    waiting_batch_.erase(shadow.index_it);
    shadow.indexed = false;
  }
  if (shadow.waiting && shadow.batch_lane && !shadow.closed) {
    shadow.index_it = waiting_batch_.emplace(shadow.arrival_s, &shadow);
    shadow.indexed = true;
  }
}

void InvariantChecker::CheckNoStarvation(const RequestState* request, const Shadow& shadow) {
  double aging_s = scheduler_->guarantees().batch_aging_s;
  if (aging_s < 0.0 || shadow.batch_lane) {
    return;  // No promise declared, or a batch-lane admission (never a jump).
  }
  if (request->preemptions() > 0) {
    return;  // Preemption re-queues at the front; re-admission is exempt.
  }
  // Waiting batch-lane requests in arrival order: only the prefix that had
  // already waited past the bound at this request's arrival can be jumped.
  for (const auto& [arrival_s, s] : waiting_batch_) {
    double waited_s = request->arrival_time_s() - arrival_s;
    if (waited_s <= aging_s) {
      break;
    }
    // Only requests enqueued before this one can be "jumped"; retry attempts
    // enqueue late with their original arrival stamp and don't count.
    if (s == &shadow || s->closed || s->enqueue_seq >= shadow.enqueue_seq) {
      continue;
    }
    std::ostringstream out;
    out << "interactive request admitted past batch-lane request " << s->id
        << " that had already waited " << waited_s
        << "s at this request's arrival, beyond the declared " << aging_s
        << "s aging bound";
    AddViolation(Invariant::kNoStarvation, request->id(), out.str());
  }
}

void InvariantChecker::OnKvEvent(KvVerifyEvent event, int64_t seq_id) {
  switch (event) {
    case KvVerifyEvent::kAdmit:
    case KvVerifyEvent::kFork: {
      auto [it, inserted] = live_kv_.try_emplace(seq_id);
      if (!inserted) {
        AddViolation(Invariant::kKvConservation, seq_id,
                     std::string(KvVerifyEventName(event)) +
                         " of a sequence that is already live");
      } else if (paged_ != nullptr) {
        SyncTable(seq_id, it->second, 0);
      }
      break;
    }
    case KvVerifyEvent::kRelease: {
      auto it = live_kv_.find(seq_id);
      if (it == live_kv_.end()) {
        AddViolation(Invariant::kKvConservation, seq_id,
                     "release of a sequence that was never admitted (double free?)");
        break;
      }
      for (int64_t block : it->second) {
        if (InPool(block)) {
          --table_refs_[static_cast<size_t>(block)];
          TouchBlock(block);
        }
      }
      live_kv_.erase(it);
      break;
    }
    case KvVerifyEvent::kAppend:
    case KvVerifyEvent::kCow: {
      auto it = live_kv_.find(seq_id);
      if (it == live_kv_.end()) {
        AddViolation(Invariant::kKvConservation, seq_id,
                     std::string(KvVerifyEventName(event)) + " on a dead sequence");
      } else if (paged_ != nullptr) {
        // An append only ever adds entries at the end; a copy-on-write swaps
        // one anywhere in the table.
        SyncTable(seq_id, it->second, event == KvVerifyEvent::kAppend ? it->second.size() : 0);
      }
      break;
    }
  }
}

void InvariantChecker::EndRun() {
  CHECK(scheduler_ != nullptr) << "EndRun before BeginRun";
  AuditKv("end of run");
  AuditKvFull("end of run");
  if (allocator_->num_sequences() != 0 || allocator_->used_units() != 0) {
    std::ostringstream out;
    out << "end of run with " << allocator_->num_sequences() << " sequences and "
        << allocator_->used_units() << "/" << allocator_->total_units()
        << " KV units still held (leak)";
    AddViolation(Invariant::kKvConservation, -1, out.str());
  }
  for (const auto& [request, shadow] : shadows_) {
    (void)request;
    if (shadow.in_flight) {
      AddViolation(Invariant::kBatchSanity, shadow.id,
                   "still inside an in-flight batch at end of run");
    }
    if (!shadow.closed) {
      std::ostringstream out;
      out << "neither finished nor aborted at end of run (prefill " << shadow.prefill_done
          << "/" << shadow.prefill_target << ", " << shadow.generated << " generated)";
      AddViolation(Invariant::kTokenConservation, shadow.id, out.str());
    }
  }
}

std::string InvariantChecker::Report() const {
  std::ostringstream out;
  out << "InvariantChecker: " << total_violations_ << " violation(s) across " << runs_
      << " run(s), " << total_iterations_ << " iteration(s) checked\n";
  if (total_violations_ == 0) {
    return out.str();
  }
  constexpr int kNumInvariants = 10;
  int64_t counts[kNumInvariants] = {};
  for (const Violation& violation : violations_) {
    ++counts[static_cast<int>(violation.invariant)];
  }
  for (int i = 0; i < kNumInvariants; ++i) {
    if (counts[i] > 0) {
      out << "  " << InvariantName(static_cast<Invariant>(i)) << ": " << counts[i] << "\n";
    }
  }
  if (total_violations_ > static_cast<int64_t>(violations_.size())) {
    out << "  (" << total_violations_ - static_cast<int64_t>(violations_.size())
        << " further violation(s) dropped past the cap)\n";
  }
  for (const Violation& violation : violations_) {
    out << violation.Render() << "\n";
  }
  return out.str();
}

}  // namespace sarathi
