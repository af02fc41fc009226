// Tests for the runtime invariant checker (src/verify).
//
// Two angles: clean runs (replica and cluster simulations with the checker
// attached report zero violations) and injected bugs (a tampered batch or a
// skipped state transition is caught with an actionable message naming the
// run, iteration, and request). The tamper tests drive a scheduler directly,
// feeding the checker a corrupted view of what was scheduled or applied.

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/core/serving_system.h"
#include "src/memory/block_manager.h"
#include "src/memory/prefix_cache.h"
#include "src/scheduler/scheduler_factory.h"
#include "src/simulator/cluster_simulator.h"
#include "src/simulator/replica_simulator.h"
#include "src/verify/invariant_checker.h"
#include "src/workload/trace.h"

namespace sarathi {
namespace {

// A Sarathi scheduler on a paged allocator, wired to a checker, driven by
// hand: Step() runs one honest schedule/apply iteration; tests that want to
// lie to the checker call scheduler()/checker hooks themselves.
class Harness {
 public:
  explicit Harness(InvariantChecker* checker, int64_t token_budget = 128,
                   int64_t max_batch_size = 4)
      : checker_(checker) {
    PagedBlockManager::Options options;
    options.num_blocks = 256;
    options.block_size = 16;
    options.watermark = 0.0;
    allocator_ = std::make_unique<PagedBlockManager>(options);
    SchedulerConfig config;
    config.policy = SchedulerPolicy::kSarathi;
    config.token_budget = token_budget;
    config.max_batch_size = max_batch_size;
    scheduler_ = MakeScheduler(config, allocator_.get());
    obs_.verify = checker;
    scheduler_->set_obs(&obs_);
    allocator_->set_obs(&obs_);
    checker->BeginRun(scheduler_.get(), allocator_.get(), "harness");
  }

  RequestState* Add(int64_t prompt, int64_t output) {
    Request r;
    r.id = next_id_++;
    r.prompt_tokens = prompt;
    r.output_tokens = output;
    states_.push_back(std::make_unique<RequestState>(r));
    RequestState* state = states_.back().get();
    obs_.SetNow(now_);
    scheduler_->Enqueue(state);
    return state;
  }

  // One honest iteration; returns false when nothing was schedulable.
  bool Step() {
    ScheduledBatch batch = scheduler_->Schedule();
    if (batch.empty()) {
      return false;
    }
    checker_->OnBatchScheduled(batch, now_);
    now_ += 0.01;
    obs_.SetNow(now_);
    scheduler_->OnBatchComplete(batch);
    checker_->OnBatchApplied(batch, now_);
    return true;
  }

  Scheduler* scheduler() { return scheduler_.get(); }
  PagedBlockManager* allocator() { return allocator_.get(); }
  double now() const { return now_; }

 private:
  InvariantChecker* checker_;
  ObsHooks obs_;
  std::unique_ptr<PagedBlockManager> allocator_;
  std::unique_ptr<Scheduler> scheduler_;
  std::vector<std::unique_ptr<RequestState>> states_;
  int64_t next_id_ = 0;
  double now_ = 0.0;
};

bool HasInvariant(const InvariantChecker& checker, Invariant invariant) {
  return std::any_of(checker.violations().begin(), checker.violations().end(),
                     [&](const Violation& v) { return v.invariant == invariant; });
}

TEST(InvariantCheckerTest, CleanDirectDriveIsClean) {
  InvariantChecker checker;
  Harness h(&checker);
  h.Add(100, 8);
  h.Add(300, 4);
  h.Add(17, 12);
  while (h.Step()) {
  }
  EXPECT_FALSE(h.scheduler()->HasWork());
  checker.EndRun();
  EXPECT_TRUE(checker.ok()) << checker.Report();
  EXPECT_GT(checker.iterations_checked(), 0);
}

TEST(InvariantCheckerTest, TokenBudgetTamperIsCaught) {
  InvariantChecker checker;
  Harness h(&checker);
  h.Add(1024, 4);
  ScheduledBatch batch = h.scheduler()->Schedule();
  ASSERT_EQ(batch.size(), 1u);
  ASSERT_EQ(batch.TotalTokens(), 128);
  batch.items[0].num_tokens += 1;  // 129 tokens against a 128-token budget.
  checker.OnBatchScheduled(batch, 0.0);
  EXPECT_FALSE(checker.ok());
  ASSERT_TRUE(HasInvariant(checker, Invariant::kTokenBudget)) << checker.Report();
  const Violation& v = checker.violations().front();
  EXPECT_NE(v.message.find("129"), std::string::npos) << v.Render();
  EXPECT_NE(v.message.find("128"), std::string::npos) << v.Render();
  EXPECT_EQ(v.run, "harness");
  EXPECT_EQ(v.iteration, 1);
}

TEST(InvariantCheckerTest, DroppedDecodeIsCaughtAsStall) {
  InvariantChecker checker;
  Harness h(&checker);
  RequestState* small = h.Add(16, 8);
  h.Add(1024, 4);
  ASSERT_TRUE(h.Step());  // Prefills `small` fully plus the long prompt's head.
  ASSERT_TRUE(small->prefill_complete());
  ScheduledBatch batch = h.scheduler()->Schedule();
  ASSERT_GT(batch.NumDecodes(), 0);
  ASSERT_GT(batch.NumPrefillTokens(), 0);
  std::erase_if(batch.items, [&](const BatchItem& item) { return item.request == small; });
  checker.OnBatchScheduled(batch, h.now());
  EXPECT_TRUE(HasInvariant(checker, Invariant::kStallFree)) << checker.Report();
  bool found = false;
  for (const Violation& v : checker.violations()) {
    if (v.invariant == Invariant::kStallFree) {
      EXPECT_EQ(v.request_id, small->id());
      EXPECT_NE(v.message.find("stall"), std::string::npos) << v.Render();
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(InvariantCheckerTest, LostProgressIsCaught) {
  InvariantChecker checker;
  Harness h(&checker);
  h.Add(64, 4);
  ScheduledBatch batch = h.scheduler()->Schedule();
  ASSERT_FALSE(batch.empty());
  checker.OnBatchScheduled(batch, 0.0);
  // Report the batch as applied without actually applying it: the request's
  // observed progress stays behind the scheduled work.
  checker.OnBatchApplied(batch, 0.01);
  EXPECT_TRUE(HasInvariant(checker, Invariant::kTokenConservation)) << checker.Report();
  EXPECT_NE(checker.Report().find("diverged"), std::string::npos);
}

TEST(InvariantCheckerTest, DoubleScheduleIsCaught) {
  InvariantChecker checker;
  Harness h(&checker);
  h.Add(64, 4);
  ScheduledBatch batch = h.scheduler()->Schedule();
  ASSERT_FALSE(batch.empty());
  checker.OnBatchScheduled(batch, 0.0);
  checker.OnBatchScheduled(batch, 0.01);  // Same batch again, never applied.
  EXPECT_TRUE(HasInvariant(checker, Invariant::kBatchSanity)) << checker.Report();
  EXPECT_NE(checker.Report().find("in-flight"), std::string::npos);
}

TEST(InvariantCheckerTest, BackwardsClockIsCaught) {
  InvariantChecker checker;
  Harness h(&checker);
  h.Add(1024, 4);  // Multiple chunks, so two iterations exist.
  ScheduledBatch first = h.scheduler()->Schedule();
  checker.OnBatchScheduled(first, 1.0);
  h.scheduler()->OnBatchComplete(first);
  checker.OnBatchApplied(first, 1.1);
  ScheduledBatch second = h.scheduler()->Schedule();
  ASSERT_FALSE(second.empty());
  checker.OnBatchScheduled(second, 0.5);
  EXPECT_TRUE(HasInvariant(checker, Invariant::kClockMonotonic)) << checker.Report();
  EXPECT_NE(checker.Report().find("backwards"), std::string::npos);
}

TEST(InvariantCheckerTest, KvLeakAtEndOfRunIsCaught) {
  InvariantChecker checker;
  Harness h(&checker);
  h.allocator()->Admit(99, 8, 64);  // Never released.
  checker.EndRun();
  EXPECT_TRUE(HasInvariant(checker, Invariant::kKvConservation)) << checker.Report();
  EXPECT_NE(checker.Report().find("leak"), std::string::npos);
}

TEST(InvariantCheckerTest, DoubleFreeIsCaught) {
  InvariantChecker checker;
  Harness h(&checker);
  h.allocator()->Admit(7, 8, 64);
  h.allocator()->Release(7);
  // A second release of the same sequence would CHECK inside the allocator;
  // feed the event straight to the checker as a buggy allocator would.
  checker.OnKvEvent(KvVerifyEvent::kRelease, 7);
  EXPECT_TRUE(HasInvariant(checker, Invariant::kKvConservation)) << checker.Report();
  EXPECT_NE(checker.Report().find("double free"), std::string::npos);
}

TEST(InvariantCheckerTest, FatalModeAborts) {
  InvariantChecker::Options options;
  options.fatal = true;
  InvariantChecker checker(options);
  Harness h(&checker);
  h.Add(1024, 4);
  ScheduledBatch batch = h.scheduler()->Schedule();
  batch.items[0].num_tokens += 1;
  EXPECT_DEATH(checker.OnBatchScheduled(batch, 0.0), "invariant violation");
}

TEST(InvariantCheckerTest, ViolationCapKeepsCounting) {
  InvariantChecker::Options options;
  options.max_violations = 2;
  InvariantChecker checker(options);
  Harness h(&checker);
  for (int i = 0; i < 5; ++i) {
    checker.OnKvEvent(KvVerifyEvent::kRelease, 1000 + i);  // All double frees.
  }
  EXPECT_EQ(checker.total_violations(), 5);
  EXPECT_EQ(checker.violations().size(), 2u);
  EXPECT_NE(checker.Report().find("dropped"), std::string::npos);
}

TEST(InvariantCheckerTest, CleanReplicaSimulationIsClean) {
  Deployment deployment = MistralOnA100();
  InvariantChecker checker;
  SimulatorOptions options;
  options.model = deployment.model;
  options.cluster = deployment.cluster;
  options.parallel = deployment.parallel;
  options.scheduler = SarathiConfig(256, 8);
  options.kv_capacity_tokens = 4096;  // Tight: forces admission pressure.
  options.kv_max_seq_len = 1024;
  options.checker = &checker;
  ReplicaSimulator simulator(options);
  simulator.Run(UniformTrace(24, 192, 24, 0.02));
  EXPECT_TRUE(checker.ok()) << checker.Report();
  EXPECT_EQ(checker.runs_checked(), 1);
  EXPECT_GT(checker.iterations_checked(), 0);
}

// ---------- partition_conservation ----------

// A clean reconciliation record: the far-side attempt won, its stream was
// delivered verbatim with in-window emissions deferred to the heal, and the
// losing duplicate's completion was suppressed.
PartitionReconcile CleanReconcile() {
  PartitionReconcile reconcile;
  reconcile.request_id = 42;
  reconcile.partition_begin_s = 1.0;
  reconcile.partition_end_s = 3.0;
  reconcile.winner_far = true;
  reconcile.winner_token_times_s = {0.5, 3.0, 3.0, 3.5};
  reconcile.winner_completion_s = 3.5;
  reconcile.delivered_token_times_s = {0.5, 3.0, 3.0, 3.5};
  reconcile.delivered_completion_s = 3.5;
  reconcile.loser_completed = true;
  reconcile.loser_suppressed = true;
  reconcile.output_tokens = 4;
  return reconcile;
}

TEST(PartitionConservationTest, CleanReconcileRecordPasses) {
  InvariantChecker checker;
  checker.CheckPartitionReconcile(CleanReconcile());
  EXPECT_TRUE(checker.ok()) << checker.Report();
}

TEST(PartitionConservationTest, UnsuppressedDuplicateCompletionIsCaught) {
  InvariantChecker checker;
  PartitionReconcile reconcile = CleanReconcile();
  reconcile.loser_suppressed = false;  // Both attempts completed to the client.
  checker.CheckPartitionReconcile(reconcile);
  ASSERT_TRUE(HasInvariant(checker, Invariant::kPartitionConservation))
      << checker.Report();
  const Violation& v = checker.violations().front();
  EXPECT_EQ(v.request_id, 42);
  EXPECT_NE(v.message.find("duplicate completion"), std::string::npos) << v.Render();
}

TEST(PartitionConservationTest, DeliveryInsidePartitionWindowIsCaught) {
  InvariantChecker checker;
  PartitionReconcile reconcile = CleanReconcile();
  // A far-side token leaked to the client while the link was down.
  reconcile.winner_token_times_s[1] = 2.0;
  reconcile.delivered_token_times_s[1] = 2.0;
  checker.CheckPartitionReconcile(reconcile);
  ASSERT_TRUE(HasInvariant(checker, Invariant::kPartitionConservation))
      << checker.Report();
  EXPECT_NE(checker.Report().find("inside partition window"), std::string::npos);
}

TEST(PartitionConservationTest, LostTokensAreCaught) {
  InvariantChecker checker;
  PartitionReconcile reconcile = CleanReconcile();
  reconcile.delivered_token_times_s.pop_back();  // Merging dropped a token.
  checker.CheckPartitionReconcile(reconcile);
  ASSERT_TRUE(HasInvariant(checker, Invariant::kPartitionConservation))
      << checker.Report();
  EXPECT_NE(checker.Report().find("but the winning attempt produced"),
            std::string::npos);
}

TEST(PartitionConservationTest, RetimedTokensAreCaught) {
  InvariantChecker checker;
  PartitionReconcile reconcile = CleanReconcile();
  reconcile.delivered_token_times_s[3] = 3.6;  // Same count, wrong emission.
  reconcile.delivered_completion_s = 3.6;
  checker.CheckPartitionReconcile(reconcile);
  ASSERT_TRUE(HasInvariant(checker, Invariant::kPartitionConservation))
      << checker.Report();
  EXPECT_NE(checker.Report().find("but the winner emitted it at"), std::string::npos);
}

TEST(PartitionConservationTest, OverDeliveryIsCaught) {
  InvariantChecker checker;
  PartitionReconcile reconcile = CleanReconcile();
  reconcile.output_tokens = 3;  // Delivered 4 tokens for a 3-token request.
  checker.CheckPartitionReconcile(reconcile);
  ASSERT_TRUE(HasInvariant(checker, Invariant::kPartitionConservation))
      << checker.Report();
  EXPECT_NE(checker.Report().find("tokens for a request of"), std::string::npos);
}

TEST(PartitionConservationTest, NonMonotoneDeliveredStreamIsCaught) {
  InvariantChecker checker;
  PartitionReconcile reconcile = CleanReconcile();
  reconcile.winner_token_times_s = {0.5, 3.0, 2.9, 3.5};
  reconcile.delivered_token_times_s = reconcile.winner_token_times_s;
  reconcile.winner_far = false;  // Skip the deferral check; monotonicity fires.
  checker.CheckPartitionReconcile(reconcile);
  ASSERT_TRUE(HasInvariant(checker, Invariant::kPartitionConservation))
      << checker.Report();
  EXPECT_NE(checker.Report().find("not monotone"), std::string::npos);
}

TEST(PartitionConservationTest, CompletionBeforeLastTokenIsCaught) {
  InvariantChecker checker;
  PartitionReconcile reconcile = CleanReconcile();
  reconcile.delivered_completion_s = 3.2;  // Last token delivers at 3.5.
  reconcile.winner_completion_s = 3.2;
  checker.CheckPartitionReconcile(reconcile);
  ASSERT_TRUE(HasInvariant(checker, Invariant::kPartitionConservation))
      << checker.Report();
  EXPECT_NE(checker.Report().find("completion delivered at"), std::string::npos);
}

TEST(InvariantCheckerTest, CleanClusterPartitionRunIsClean) {
  Deployment deployment = MistralOnA100();
  InvariantChecker checker;
  ClusterOptions options;
  options.replica.model = deployment.model;
  options.replica.cluster = deployment.cluster;
  options.replica.parallel = deployment.parallel;
  options.replica.scheduler = SarathiConfig(256, 8);
  options.replica.kv_capacity_tokens = 4096;
  options.replica.kv_max_seq_len = 1024;
  options.replica.checker = &checker;
  options.num_replicas = 2;
  options.faults.seed = 9;
  options.faults.num_domains = 2;
  options.faults.domain_mtbf_s = 2.0;
  options.faults.domain_mttr_s = 3.0;
  options.faults.min_domain_outage_s = 1.0;
  options.faults.domain_partition_fraction = 1.0;
  ClusterSimulator simulator(options);
  SimResult result = simulator.Run(UniformTrace(24, 256, 64, 0.05));
  EXPECT_GT(result.num_partitions, 0);
  // Every reconciliation the router performed passed through
  // CheckPartitionReconcile; a clean run reports zero violations.
  EXPECT_TRUE(checker.ok()) << checker.Report();
  EXPECT_FALSE(HasInvariant(checker, Invariant::kPartitionConservation));
}

TEST(InvariantCheckerTest, CleanClusterRunWithFaultsIsClean) {
  Deployment deployment = MistralOnA100();
  InvariantChecker checker;
  ClusterOptions options;
  options.replica.model = deployment.model;
  options.replica.cluster = deployment.cluster;
  options.replica.parallel = deployment.parallel;
  options.replica.scheduler = SarathiConfig(256, 8);
  options.replica.kv_capacity_tokens = 4096;
  options.replica.kv_max_seq_len = 1024;
  options.replica.checker = &checker;
  options.num_replicas = 2;
  options.faults.seed = 7;
  options.faults.mtbf_s = 5.0;
  options.faults.mttr_s = 1.0;
  options.faults.min_outage_s = 0.25;
  options.faults.request_timeout_probability = 0.2;
  options.faults.request_timeout_s = 4.0;
  ClusterSimulator simulator(options);
  simulator.Run(UniformTrace(32, 160, 16, 0.05));
  EXPECT_TRUE(checker.ok()) << checker.Report();
  EXPECT_GE(checker.runs_checked(), 2);
}

// ---------- no_starvation ----------

// A buggy QoS scheduler, played by feeding the checker events directly: an
// interactive request is admitted while a batch-lane request that arrived
// more than batch_aging_s earlier still waits.
TEST(InvariantCheckerTest, InteractiveJumpPastAgedBatchRequestIsCaught) {
  PagedBlockManager::Options options;
  options.num_blocks = 64;
  PagedBlockManager allocator(options);
  SchedulerConfig config = SarathiConfig(256, 8);
  config.qos_lanes = true;
  config.batch_aging_s = 2.0;
  std::unique_ptr<Scheduler> scheduler = MakeScheduler(config, &allocator);
  InvariantChecker checker;
  checker.BeginRun(scheduler.get(), &allocator, "qos");

  auto make = [](int64_t id, double arrival_s, QosClass qos) {
    Request r;
    r.id = id;
    r.arrival_time_s = arrival_s;
    r.prompt_tokens = 32;
    r.output_tokens = 4;
    r.qos = qos;
    return std::make_unique<RequestState>(r);
  };
  auto aged = make(1, 0.0, QosClass::kBatch);      // Waits 5 s > 2 s bound.
  auto young = make(2, 4.0, QosClass::kBatch);     // Waits 1 s: may be jumped.
  auto jumper = make(3, 5.0, QosClass::kInteractive);
  auto retry = make(4, 0.5, QosClass::kBatch);     // Enqueued after the jumper.
  checker.OnSchedulerEvent(SchedVerifyEvent::kEnqueue, aged.get());
  checker.OnSchedulerEvent(SchedVerifyEvent::kEnqueue, young.get());
  checker.OnSchedulerEvent(SchedVerifyEvent::kEnqueue, jumper.get());
  checker.OnSchedulerEvent(SchedVerifyEvent::kEnqueue, retry.get());
  ASSERT_TRUE(checker.ok()) << checker.Report();
  checker.OnSchedulerEvent(SchedVerifyEvent::kAdmit, jumper.get());

  ASSERT_EQ(checker.total_violations(), 1) << checker.Report();
  const Violation& v = checker.violations().front();
  EXPECT_EQ(v.invariant, Invariant::kNoStarvation);
  EXPECT_EQ(v.request_id, 3);
  EXPECT_NE(v.message.find("batch-lane request 1 "), std::string::npos) << v.Render();
  EXPECT_NE(v.message.find("aging bound"), std::string::npos) << v.Render();

  // Once the aged request is admitted it no longer waits: a second jump
  // only bypasses requests within the bound or enqueued later.
  auto late = make(5, 5.5, QosClass::kInteractive);
  checker.OnSchedulerEvent(SchedVerifyEvent::kAdmit, aged.get());
  checker.OnSchedulerEvent(SchedVerifyEvent::kEnqueue, late.get());
  checker.OnSchedulerEvent(SchedVerifyEvent::kAdmit, late.get());
  EXPECT_EQ(checker.total_violations(), 2) << checker.Report();  // Jumped `retry`.
  EXPECT_NE(checker.violations().back().message.find("batch-lane request 4 "),
            std::string::npos)
      << checker.Report();
}

// ---------- incremental KV audit ----------

// Test-only allocator whose refcounts can be corrupted behind the checker's
// back (no notification), the way a buggy allocator would drift.
class CorruptibleBlockManager : public PagedBlockManager {
 public:
  using PagedBlockManager::PagedBlockManager;
  // Only blocks below the high-water mark have a refcount slot to corrupt.
  void CorruptRefcount(int64_t block, int32_t delta) {
    CHECK_GE(block, 0);
    CHECK_LT(block, high_water_blocks());
    refcount_[static_cast<size_t>(block)] += delta;
  }
};

// A checker bound to a bare allocator. Batch() closes one empty batch (an
// audit point) and reports whether the checker flagged anything in it.
class KvAuditRig {
 public:
  explicit KvAuditRig(PagedBlockManager* allocator) : allocator_(allocator) {
    scheduler_ = MakeScheduler(SarathiConfig(256, 8), allocator);
    obs_.verify = &checker_;
    allocator->set_obs(&obs_);
    checker_.BeginRun(scheduler_.get(), allocator, "kv");
  }

  bool Batch() {
    int64_t before = checker_.total_violations();
    checker_.OnBatchScheduled(ScheduledBatch(), now_);
    now_ += 0.001;
    return checker_.total_violations() > before;
  }

  // The verdict of the allocator's full self-audits right now.
  bool FullAuditFails() const {
    return !allocator_->AuditInvariants().empty() || !allocator_->AuditCache().empty();
  }

  InvariantChecker& checker() { return checker_; }

 private:
  PagedBlockManager* allocator_;
  InvariantChecker checker_;
  ObsHooks obs_;
  std::unique_ptr<Scheduler> scheduler_;
  double now_ = 0.0;
};

constexpr uint64_t kDiffSeeds = 100;
constexpr int kDiffOps = 300;

template <typename Map>
typename Map::iterator PickFrom(Map& map, Rng& rng) {
  auto it = map.begin();
  std::advance(it, rng.UniformInt(0, static_cast<int64_t>(map.size()) - 1));
  return it;
}

// Plain paging with fork, copy-on-write (explicit and on append) and, on odd
// seeds, a sliding window. Every few admissions the first block's refcount is
// corrupted: the admission touched it, so the same batch must be flagged by
// both audits; the corruption is then healed. Counts the corruptions.
void RunPagedDifferential(uint64_t seed, int* corruptions) {
  PagedBlockManager::Options options;
  options.num_blocks = 32;
  options.block_size = 4;
  options.watermark = 0.0;
  options.sliding_window = seed % 2 == 1 ? 16 : 0;
  CorruptibleBlockManager allocator(options);
  KvAuditRig rig(&allocator);
  Rng rng(seed);
  std::map<SeqId, bool> live;
  SeqId next_id = 0;
  for (int op = 0; op < kDiffOps; ++op) {
    bool corrupt = false;
    int kind = static_cast<int>(rng.UniformInt(0, 4));
    if (kind != 0 && live.empty()) {
      kind = 0;
    }
    switch (kind) {
      case 0: {
        int64_t prompt = rng.UniformInt(1, 12);
        if (allocator.CanAdmit(prompt, prompt + 8)) {
          allocator.Admit(next_id, prompt, prompt + 8);
          live[next_id] = true;
          if (rng.UniformInt(0, 9) == 0) {
            allocator.CorruptRefcount(allocator.BlockTable(next_id)[0], 1);
            corrupt = true;
          }
          ++next_id;
        }
        break;
      }
      case 1: {
        SeqId id = PickFrom(live, rng)->first;
        if (allocator.CanAppendToken(id)) {
          allocator.AppendToken(id);
          allocator.TakePendingCows();
        }
        break;
      }
      case 2: {
        SeqId parent = PickFrom(live, rng)->first;
        allocator.Fork(parent, next_id);
        live[next_id++] = true;
        break;
      }
      case 3: {
        SeqId id = PickFrom(live, rng)->first;
        int64_t pos = rng.UniformInt(0, allocator.SequenceTokens(id) - 1);
        if (allocator.free_blocks() > 0) {
          allocator.MakeWritable(id, pos);
        }
        break;
      }
      case 4: {
        auto it = PickFrom(live, rng);
        allocator.Release(it->first);
        live.erase(it);
        break;
      }
    }
    bool full_fails = rig.FullAuditFails();
    ASSERT_EQ(rig.Batch(), full_fails)
        << "seed " << seed << " op " << op << "\n" << rig.checker().Report();
    ASSERT_EQ(full_fails, corrupt) << "seed " << seed << " op " << op;
    if (corrupt) {
      ++*corruptions;
      allocator.CorruptRefcount(allocator.BlockTable(next_id - 1)[0], -1);
    }
  }
  for (const auto& [id, unused] : live) {
    allocator.Release(id);
  }
  int64_t flagged = rig.checker().total_violations();
  rig.checker().EndRun();
  EXPECT_EQ(rig.checker().total_violations(), flagged) << rig.checker().Report();
}

TEST(IncrementalKvAuditTest, MatchesFullAuditOnPagedAllocator) {
  int corruptions = 0;
  for (uint64_t seed = 0; seed < kDiffSeeds; ++seed) {
    RunPagedDifferential(seed, &corruptions);
    if (testing::Test::HasFatalFailure()) {
      return;
    }
  }
  EXPECT_GT(corruptions, 0);
}

// The prefix cache's full lifecycle: pin (lookup) before admission, admission
// transplanting the pin, decode appends that evict under pressure, forks,
// finish-time retention, preemption and pins dropped while queued. Counts the
// evictions.
void RunPrefixDifferential(uint64_t seed, int64_t* evictions) {
  PagedBlockManager::Options options;
  options.num_blocks = 32;
  options.block_size = 4;
  options.watermark = 0.0;
  PrefixCachingAllocator allocator(options);
  KvAuditRig rig(&allocator);
  Rng rng(seed);
  struct Pending {
    int64_t prompt = 0;
    std::shared_ptr<const std::vector<int32_t>> tokens;
  };
  std::map<SeqId, Pending> queued;  // Pinned or preempted, not admitted.
  std::map<SeqId, Pending> live;
  std::vector<std::shared_ptr<const std::vector<int32_t>>> history;
  SeqId next_id = 0;
  for (int op = 0; op < kDiffOps; ++op) {
    switch (rng.UniformInt(0, 6)) {
      case 0: {  // Arrival: pin the longest cached prefix.
        Pending p;
        p.prompt = rng.UniformInt(1, 24);
        auto tokens = std::make_shared<std::vector<int32_t>>();
        if (!history.empty() && rng.UniformInt(0, 2) > 0) {
          const auto& base = *history[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(history.size()) - 1))];
          tokens->assign(base.begin(),
                         base.begin() + std::min<int64_t>(static_cast<int64_t>(base.size()),
                                                          p.prompt));
        }
        while (static_cast<int64_t>(tokens->size()) < p.prompt + 8) {
          tokens->push_back(static_cast<int32_t>(rng.UniformInt(0, 3)));
        }
        p.tokens = tokens;
        allocator.PinPrefix(next_id, tokens, p.prompt);
        queued[next_id++] = p;
        break;
      }
      case 1: {  // Admission (a pinned arrival or a preempted recompute).
        if (queued.empty()) break;
        auto it = PickFrom(queued, rng);
        if (allocator.CanAdmitSeq(it->first, it->second.prompt, it->second.prompt + 8)) {
          allocator.Admit(it->first, it->second.prompt, it->second.prompt + 8);
          live[it->first] = it->second;
          queued.erase(it);
        }
        break;
      }
      case 2: {  // Decode append (evicts when the pool is dry).
        if (live.empty()) break;
        SeqId id = PickFrom(live, rng)->first;
        if (allocator.CanAppendToken(id)) {
          allocator.AppendToken(id);
          allocator.TakePendingCows();
        }
        break;
      }
      case 3: {  // Fork.
        if (live.empty()) break;
        auto parent = PickFrom(live, rng);
        allocator.Fork(parent->first, next_id);
        live[next_id++] = Pending{parent->second.prompt, nullptr};
        break;
      }
      case 4: {  // Finish: retain full blocks in the index.
        if (live.empty()) break;
        auto it = PickFrom(live, rng);
        if (it->second.tokens != nullptr) {
          history.push_back(it->second.tokens);
        }
        allocator.ReleaseFinished(it->first);
        live.erase(it);
        break;
      }
      case 5: {  // Dropped while queued: releases the pin.
        if (queued.empty()) break;
        auto it = PickFrom(queued, rng);
        allocator.OnRequestDropped(it->first);
        queued.erase(it);
        break;
      }
      case 6: {  // Preemption: blocks released, recompute queued.
        if (live.empty()) break;
        auto it = PickFrom(live, rng);
        Pending p{allocator.SequenceTokens(it->first), it->second.tokens};
        allocator.Release(it->first);
        queued[it->first] = p;
        live.erase(it);
        break;
      }
    }
    bool full_fails = rig.FullAuditFails();
    ASSERT_FALSE(full_fails) << "seed " << seed << " op " << op;
    ASSERT_FALSE(rig.Batch()) << "seed " << seed << " op " << op << "\n"
                              << rig.checker().Report();
  }
  for (const auto& [id, unused] : queued) {
    allocator.OnRequestDropped(id);
  }
  for (const auto& [id, unused] : live) {
    allocator.ReleaseFinished(id);
  }
  EXPECT_GT(allocator.stats().hits, 0) << "seed " << seed;
  *evictions += allocator.stats().evictions;
  allocator.DrainCache();
  rig.checker().EndRun();
  EXPECT_TRUE(rig.checker().ok()) << "seed " << seed << "\n" << rig.checker().Report();
}

TEST(IncrementalKvAuditTest, MatchesFullAuditOnPrefixCache) {
  int64_t evictions = 0;
  for (uint64_t seed = 0; seed < kDiffSeeds; ++seed) {
    RunPrefixDifferential(seed, &evictions);
    if (testing::Test::HasFatalFailure()) {
      return;
    }
  }
  EXPECT_GT(evictions, 0);
}

TEST(IncrementalKvAuditTest, CorruptTouchedBlockIsCaughtAtThatBatch) {
  PagedBlockManager::Options options;
  options.num_blocks = 64;
  CorruptibleBlockManager allocator(options);
  KvAuditRig rig(&allocator);
  allocator.Admit(1, 40, 64);
  ASSERT_FALSE(rig.Batch());
  allocator.Fork(1, 2);  // Touches every block of sequence 1.
  allocator.CorruptRefcount(allocator.BlockTable(1)[1], -1);
  EXPECT_TRUE(rig.Batch());
  ASSERT_TRUE(HasInvariant(rig.checker(), Invariant::kKvConservation));
  const Violation& v = rig.checker().violations().front();
  EXPECT_EQ(v.iteration, 2);
  EXPECT_NE(v.message.find("refcount 1 but 2 references"), std::string::npos) << v.Render();
}

TEST(IncrementalKvAuditTest, CorruptUntouchedBlockIsCaughtByThePeriodicScan) {
  PagedBlockManager::Options options;
  options.num_blocks = 64;
  CorruptibleBlockManager allocator(options);
  KvAuditRig rig(&allocator);
  allocator.Admit(1, 40, 64);
  ASSERT_FALSE(rig.Batch());
  allocator.CorruptRefcount(allocator.BlockTable(1)[0], 1);
  // No batch touches the block, so only the full scan sees it.
  for (int64_t i = 2; i < InvariantChecker::kFullAuditInterval; ++i) {
    ASSERT_FALSE(rig.Batch()) << "iteration " << i << "\n" << rig.checker().Report();
  }
  EXPECT_TRUE(rig.Batch());
  ASSERT_EQ(rig.checker().total_violations(), 1) << rig.checker().Report();
  const Violation& v = rig.checker().violations().front();
  EXPECT_EQ(v.iteration, InvariantChecker::kFullAuditInterval);
  EXPECT_NE(v.message.find("allocator audit failed"), std::string::npos) << v.Render();
}

TEST(IncrementalKvAuditTest, CorruptUntouchedBlockIsCaughtAtEndOfRun) {
  PagedBlockManager::Options options;
  options.num_blocks = 64;
  CorruptibleBlockManager allocator(options);
  KvAuditRig rig(&allocator);
  allocator.Admit(1, 40, 64);
  int64_t released = allocator.BlockTable(1)[1];
  ASSERT_FALSE(rig.Batch());
  allocator.Release(1);
  ASSERT_FALSE(rig.Batch());
  // A released block (below the high-water mark, so it has a refcount) that
  // nobody touches again.
  allocator.CorruptRefcount(released, 1);
  ASSERT_FALSE(rig.Batch());
  rig.checker().EndRun();
  ASSERT_EQ(rig.checker().total_violations(), 1) << rig.checker().Report();
  const Violation& v = rig.checker().violations().front();
  EXPECT_NE(v.message.find("after end of run"), std::string::npos) << v.Render();
  EXPECT_NE(v.message.find("leaked block"), std::string::npos) << v.Render();
}

}  // namespace
}  // namespace sarathi
