#include "src/scheduler/scheduler.h"

#include <algorithm>

#include "src/common/logging.h"

namespace sarathi {

std::string_view SchedulerPolicyName(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kSarathi:
      return "sarathi";
    case SchedulerPolicy::kVllm:
      return "vllm";
    case SchedulerPolicy::kOrca:
      return "orca";
    case SchedulerPolicy::kFasterTransformer:
      return "faster_transformer";
    case SchedulerPolicy::kFastServe:
      return "fastserve";
    case SchedulerPolicy::kVtc:
      return "vtc";
  }
  return "unknown";
}

std::string_view OverloadLevelName(OverloadLevel level) {
  switch (level) {
    case OverloadLevel::kNormal:
      return "normal";
    case OverloadLevel::kThroughput:
      return "throughput";
    case OverloadLevel::kBrownout:
      return "brownout";
    case OverloadLevel::kShed:
      return "shed";
  }
  return "unknown";
}

Scheduler::Scheduler(const SchedulerConfig& config, KvAllocator* allocator)
    : config_(config), allocator_(allocator) {
  CHECK(allocator_ != nullptr);
  CHECK_GT(config_.max_batch_size, 0);
  spare_batch_items_.reserve(8);
}

ScheduledBatch Scheduler::NewBatch() {
  ScheduledBatch batch;
  if (!spare_batch_items_.empty()) {
    batch.items = std::move(spare_batch_items_.back());
    spare_batch_items_.pop_back();
    batch.items.clear();
  }
  return batch;
}

void Scheduler::RecycleBatch(ScheduledBatch&& batch) {
  if (batch.items.capacity() == 0 || spare_batch_items_.size() >= spare_batch_items_.capacity()) {
    return;
  }
  batch.items.clear();
  spare_batch_items_.push_back(std::move(batch.items));
}

const std::vector<RequestState*>& Scheduler::RunningSnapshot() {
  running_snapshot_.assign(running_.begin(), running_.end());
  return running_snapshot_;
}

void Scheduler::EmitSchedulerObs(const char* event, const RequestState* request) {
  if (obs_ == nullptr) {
    return;
  }
  if (Tracer* tracer = obs_->tracer) {
    if (event != nullptr && request != nullptr) {
      tracer->InstantNow("scheduler", event, {Arg("request", request->id())});
    }
  }
  if (obs_->metrics != nullptr) {
    obs_->metrics->SetGauge("queue_depth", obs_->now_s, static_cast<double>(queue_.size()));
    obs_->metrics->SetGauge("running_batch", obs_->now_s, static_cast<double>(running_.size()));
  }
}

void Scheduler::NotifyVerify(SchedVerifyEvent event, const RequestState* request) {
  if (obs_ != nullptr && obs_->verify != nullptr) {
    obs_->verify->OnSchedulerEvent(event, request);
  }
}

void Scheduler::Enqueue(RequestState* request) {
  CHECK(request != nullptr);
  CHECK(request->phase() == RequestPhase::kQueued);
  auto pos = queue_.end();
  if (config_.qos_lanes && request->qos() == QosClass::kInteractive) {
    // Walk back over batch-lane requests that have waited less than
    // batch_aging_s (judged at this request's arrival time). A batch request
    // that already aged past the bound — or any interactive request — stops
    // the walk, so FCFS order within a lane and the no-starvation promise
    // both hold.
    while (pos != queue_.begin()) {
      RequestState* other = *std::prev(pos);
      if (other->qos() == QosClass::kBatch &&
          request->arrival_time_s() - other->arrival_time_s() <= config_.batch_aging_s) {
        --pos;
      } else {
        break;
      }
    }
  }
  queue_.insert(pos, request);
  NotifyVerify(SchedVerifyEvent::kEnqueue, request);
  EmitSchedulerObs(nullptr, nullptr);  // Arrival instants live in the request span.
}

RequestState* Scheduler::OldestQueued() const {
  RequestState* oldest = nullptr;
  for (RequestState* request : queue_) {
    if (oldest == nullptr || request->arrival_time_s() < oldest->arrival_time_s()) {
      oldest = request;
    }
  }
  return oldest;
}

int64_t Scheduler::QueuedPrefillTokens() const {
  int64_t total = 0;
  for (const RequestState* request : queue_) {
    total += request->prefill_target() - request->prefill_done();
  }
  return total;
}

void Scheduler::AdoptRunning(RequestState* request) {
  CHECK(request != nullptr);
  CHECK(request->phase() == RequestPhase::kRunning);
  CHECK(request->prefill_complete()) << "forked sequences join post-prefill";
  running_.push_back(request);
  NotifyVerify(SchedVerifyEvent::kAdopt, request);
}

bool Scheduler::AdoptMigrated(RequestState* request) {
  CHECK(request != nullptr);
  CHECK(request->phase() == RequestPhase::kQueued);
  CHECK(request->prefill_complete()) << "live migration transfers a decoding request";
  CHECK_GT(request->generated(), 0);
  // The most recent emitted token's KV is not yet written (the destination
  // reserves its slot via PrepareDecodeSlot, exactly like a local decode).
  int64_t held_tokens = request->context_len() - 1;
  int64_t max_total = request->prefill_target() + request->output_tokens();
  if (!allocator_->CanAdmitSeq(request->id(), held_tokens, max_total)) {
    return false;
  }
  allocator_->Admit(request->id(), held_tokens, max_total);
  request->set_phase(RequestPhase::kRunning);
  running_.push_back(request);
  NotifyVerify(SchedVerifyEvent::kAdoptMigrated, request);
  EmitSchedulerObs("adopt_migrated", request);
  return true;
}

bool Scheduler::CanAdmitHead() const {
  if (queue_.empty()) {
    return false;
  }
  const RequestState* head = queue_.front();
  // The sequence-aware form credits blocks a prefix-cache pin already holds.
  return allocator_->CanAdmitSeq(head->id(), head->prefill_target(),
                                 head->prefill_target() + head->output_tokens());
}

RequestState* Scheduler::AdmitHead() {
  CHECK(!queue_.empty());
  RequestState* head = queue_.front();
  queue_.pop_front();
  allocator_->Admit(head->id(), head->prefill_target(),
                    head->prefill_target() + head->output_tokens());
  head->set_phase(RequestPhase::kRunning);
  running_.push_back(head);
  NotifyVerify(SchedVerifyEvent::kAdmit, head);
  EmitSchedulerObs("admit", head);
  return head;
}

bool Scheduler::PrepareDecodeSlot(RequestState* request, const ScheduledBatch& batch) {
  auto in_batch = [&batch](const RequestState* candidate) {
    for (const auto& item : batch.items) {
      if (item.request == candidate) {
        return true;
      }
    }
    return false;
  };
  while (!allocator_->CanAppendToken(request->id())) {
    // Victim: the latest-admitted running request that is neither locked,
    // already packed into the batch under construction, nor the request we
    // are trying to keep alive. Migrated-in requests are preempted only as a
    // last resort — recomputing one forfeits the KV transfer that paid for
    // its no-recompute property.
    RequestState* victim = nullptr;
    RequestState* migrated_victim = nullptr;
    for (auto it = running_.rbegin(); it != running_.rend(); ++it) {
      if (*it == request || (*it)->locked() || in_batch(*it)) {
        continue;
      }
      if ((*it)->migrated_in()) {
        if (migrated_victim == nullptr) {
          migrated_victim = *it;
        }
        continue;
      }
      victim = *it;
      break;
    }
    if (victim == nullptr) {
      victim = migrated_victim;
    }
    if (victim == nullptr) {
      return false;
    }
    Preempt(victim);
  }
  allocator_->AppendToken(request->id());
  return true;
}

bool Scheduler::Abort(RequestState* request) {
  CHECK(request != nullptr);
  auto qit = std::find(queue_.begin(), queue_.end(), request);
  if (qit != queue_.end()) {
    queue_.erase(qit);
    // A queued request was never admitted, but it may hold a prefix-cache
    // pin acquired at enqueue; the allocator releases it here.
    allocator_->OnRequestDropped(request->id());
    request->set_phase(RequestPhase::kFailed);
    ++abort_count_;
    NotifyVerify(SchedVerifyEvent::kAbort, request);
    EmitSchedulerObs("abort", request);
    return true;
  }
  auto rit = std::find(running_.begin(), running_.end(), request);
  if (rit == running_.end()) {
    return false;
  }
  CHECK(!request->locked()) << "cannot abort a request inside an in-flight batch";
  running_.erase(rit);
  allocator_->Release(request->id());
  allocator_->OnRequestDropped(request->id());
  request->set_phase(RequestPhase::kFailed);
  ++abort_count_;
  NotifyVerify(SchedVerifyEvent::kAbort, request);
  EmitSchedulerObs("abort", request);
  return true;
}

std::vector<RequestState*> Scheduler::DrainAll() {
  std::vector<RequestState*> aborted;
  while (!queue_.empty()) {
    RequestState* request = queue_.front();
    CHECK(Abort(request));
    aborted.push_back(request);
  }
  for (RequestState* request : RunningSnapshot()) {
    if (request->locked()) {
      continue;
    }
    CHECK(Abort(request));
    aborted.push_back(request);
  }
  return aborted;
}

void Scheduler::Preempt(RequestState* request) {
  auto it = std::find(running_.begin(), running_.end(), request);
  CHECK(it != running_.end());
  running_.erase(it);
  allocator_->Release(request->id());
  request->ResetForRecompute();
  queue_.push_front(request);
  ++preemption_count_;
  NotifyVerify(SchedVerifyEvent::kPreempt, request);
  if (obs_ != nullptr && obs_->metrics != nullptr) {
    obs_->metrics->AddCount("preemptions", obs_->now_s);
  }
  EmitSchedulerObs("preempt", request);
}

void Scheduler::FinishRequest(RequestState* request) {
  auto it = std::find(running_.begin(), running_.end(), request);
  CHECK(it != running_.end());
  running_.erase(it);
  // Terminal release: a prefix-caching allocator retains the finished
  // sequence's full blocks in its radix index before freeing the rest.
  allocator_->ReleaseFinished(request->id());
  request->set_phase(RequestPhase::kFinished);
  NotifyVerify(SchedVerifyEvent::kFinish, request);
  EmitSchedulerObs(nullptr, nullptr);  // Completion instants live in the request span.
}

void Scheduler::OnBatchComplete(const ScheduledBatch& batch) {
  for (const auto& item : batch.items) {
    RequestState* request = item.request;
    if (item.is_decode) {
      // The KV slot was already reserved by PrepareDecodeSlot at schedule
      // time; only the logical state advances here.
      request->AdvanceDecode();
    } else {
      request->AdvancePrefill(item.num_tokens);
    }
    if (request->finished()) {
      FinishRequest(request);
    }
  }
}

}  // namespace sarathi
