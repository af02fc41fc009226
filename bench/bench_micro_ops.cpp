// Micro-benchmarks of the library's hot paths (google-benchmark).
//
// These guard the simulator's own performance: cost-model evaluation and
// scheduler decisions run millions of times inside capacity searches, and the
// reference model's forward pass bounds the value-domain test budget.

#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "src/common/rng.h"
#include "src/engine/reference/tiny_model.h"
#include "src/memory/block_manager.h"
#include "src/memory/prefix_cache.h"
#include "src/perfmodel/iteration_cost.h"
#include "src/scheduler/sarathi_scheduler.h"
#include "src/workload/dataset.h"

namespace sarathi {
namespace {

void BM_IterationCostHybridBatch(benchmark::State& state) {
  IterationCostModel model(Yi34B(), AzureNC96adsCluster(), Tp(2));
  BatchWork work;
  for (int64_t i = 0; i < state.range(0); ++i) {
    work.sequences.push_back(SequenceWork::Decode(2048));
  }
  work.sequences.push_back(SequenceWork::PrefillChunk(4096, 512));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.IterationCost(work).Total());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IterationCostHybridBatch)->Arg(8)->Arg(32)->Arg(128);

void BM_BlockManagerChurn(benchmark::State& state) {
  PagedBlockManager::Options options;
  options.num_blocks = 1 << 16;
  options.block_size = 16;
  PagedBlockManager manager(options);
  int64_t id = 0;
  for (auto _ : state) {
    manager.Admit(id, 1024, 2048);
    for (int i = 0; i < 64; ++i) {
      manager.AppendToken(id);
    }
    manager.Release(id);
    ++id;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockManagerChurn);

// Decode appends on a KV pool that retained prefix chains have filled: every
// block-boundary crossing must evict the least-recently-touched cached leaf.
// A finished sequence's chain is retained in turn, so the pool stays full.
void BM_PrefixCacheAppendUnderPressure(benchmark::State& state) {
  constexpr int64_t kBlockSize = 16;
  constexpr int64_t kChainTokens = 4 * kBlockSize;
  constexpr int64_t kDecodeTokens = 64 * kBlockSize;
  PagedBlockManager::Options options;
  options.num_blocks = state.range(0);
  options.block_size = kBlockSize;
  options.watermark = 0.0;
  PrefixCachingAllocator manager(options);
  SeqId next_id = 0;
  // Admits a new sequence whose stream starts with its own id, so no two
  // chains share a node.
  auto admit = [&](int64_t prompt, int64_t total) {
    SeqId id = next_id++;
    auto tokens = std::make_shared<std::vector<int32_t>>(static_cast<size_t>(total), 0);
    (*tokens)[0] = static_cast<int32_t>(id);
    manager.PinPrefix(id, tokens, prompt);
    manager.Admit(id, prompt, total);
    return id;
  };
  while (manager.free_blocks() >= kChainTokens / kBlockSize) {
    manager.ReleaseFinished(admit(kChainTokens, kChainTokens));
  }
  SeqId decoding = admit(kBlockSize, kDecodeTokens);
  for (auto _ : state) {
    if (manager.SequenceTokens(decoding) == kDecodeTokens) {
      manager.ReleaseFinished(decoding);
      decoding = admit(kBlockSize, kDecodeTokens);
    }
    if (!manager.CanAppendToken(decoding)) {
      state.SkipWithError("decode append starved behind retained cache");
      break;
    }
    manager.AppendToken(decoding);
  }
  state.counters["evictions"] = static_cast<double>(manager.stats().evictions);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrefixCacheAppendUnderPressure)->Arg(1 << 12)->Arg(1 << 14);

void BM_SarathiSchedule(benchmark::State& state) {
  PagedBlockManager::Options options;
  options.num_blocks = 1 << 16;
  options.block_size = 16;
  PagedBlockManager manager(options);
  SchedulerConfig config;
  config.policy = SchedulerPolicy::kSarathi;
  config.token_budget = 512;
  config.max_batch_size = state.range(0);
  SarathiScheduler scheduler(config, &manager);

  std::vector<std::unique_ptr<RequestState>> requests;
  for (int64_t i = 0; i < state.range(0); ++i) {
    Request r;
    r.id = i;
    r.prompt_tokens = 512;
    r.output_tokens = 1 << 20;  // Effectively endless decodes.
    requests.push_back(std::make_unique<RequestState>(r));
    scheduler.Enqueue(requests.back().get());
  }
  // Drain prefills so the steady state is a full decode batch.
  for (int warm = 0; warm < 8; ++warm) {
    scheduler.OnBatchComplete(scheduler.Schedule());
  }
  for (auto _ : state) {
    ScheduledBatch batch = scheduler.Schedule();
    benchmark::DoNotOptimize(batch.TotalTokens());
    scheduler.OnBatchComplete(batch);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SarathiSchedule)->Arg(16)->Arg(64)->Arg(128);

void BM_TinyModelDecodeStep(benchmark::State& state) {
  TinyModelConfig config;
  TinyModel model(config);
  PagedBlockManager::Options options;
  options.num_blocks = 256;
  options.block_size = 16;
  PagedBlockManager manager(options);
  manager.Admit(1, 64, 0);
  KvStore store(KvStore::Options{256, 16, config.num_layers, config.kv_dim(), 0});
  Rng rng(1);
  std::vector<int32_t> prompt(64);
  for (auto& t : prompt) {
    t = static_cast<int32_t>(rng.UniformInt(0, config.vocab - 1));
  }
  (void)model.ForwardChunk(prompt, 0, manager.BlockTable(1), &store);
  std::vector<int32_t> token = {5};
  int64_t pos = 64;
  for (auto _ : state) {
    manager.AppendToken(1);
    benchmark::DoNotOptimize(model.ForwardChunk(token, pos, manager.BlockTable(1), &store));
    ++pos;
    if (pos >= 250 * 16) {
      state.PauseTiming();
      manager.Release(1);
      manager.Admit(1, 64, 0);
      pos = 64;
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TinyModelDecodeStep);

void BM_TraceSampling(benchmark::State& state) {
  DatasetSpec dataset = ArxivSummarization();
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleShape(dataset, rng).prompt_tokens);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSampling);

}  // namespace
}  // namespace sarathi

BENCHMARK_MAIN();
