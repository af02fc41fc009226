#include "src/perfmodel/iteration_cost.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/perfmodel/roofline.h"

namespace sarathi {

int64_t BatchWork::TotalTokens() const {
  int64_t total = 0;
  for (const auto& seq : sequences) {
    total += seq.num_tokens;
  }
  return total;
}

int64_t BatchWork::NumDecodes() const {
  int64_t n = 0;
  for (const auto& seq : sequences) {
    n += seq.is_decode ? 1 : 0;
  }
  return n;
}

int64_t BatchWork::NumPrefillChunks() const {
  return static_cast<int64_t>(sequences.size()) - NumDecodes();
}

CostBreakdown& CostBreakdown::operator+=(const CostBreakdown& rhs) {
  linear_s += rhs.linear_s;
  attention_s += rhs.attention_s;
  comm_s += rhs.comm_s;
  other_s += rhs.other_s;
  return *this;
}

CostBreakdown CostBreakdown::operator*(double scale) const {
  return CostBreakdown{linear_s * scale, attention_s * scale, comm_s * scale, other_s * scale};
}

IterationCostModel::IterationCostModel(ModelSpec model, ClusterSpec cluster,
                                       ParallelConfig parallel)
    : model_(std::move(model)), cluster_(std::move(cluster)), parallel_(parallel),
      comm_(cluster_) {
  CHECK_GE(parallel_.tensor_parallel, 1);
  CHECK_GE(parallel_.pipeline_parallel, 1);
  CHECK_EQ(model_.num_layers % parallel_.pipeline_parallel, 0)
      << "layers must divide evenly into pipeline stages";
  CHECK_EQ(model_.num_kv_heads % parallel_.tensor_parallel, 0)
      << "KV heads must shard evenly across tensor-parallel ranks";
  layers_per_stage_ = model_.num_layers / parallel_.pipeline_parallel;
}

void IterationCostModel::KvSpan(const SequenceWork& seq, double* avg_kv,
                                int64_t* kv_read) const {
  if (seq.num_tokens == 1) {
    // Decode fast path: a single token's average span is its own span
    // (bit-identical to the closed forms below with first == last).
    int64_t span = model_.AttentionSpan(seq.context_len);
    *avg_kv = static_cast<double>(span);
    *kv_read = span;
    return;
  }
  // Token i of the chunk (absolute position context_len + i) attends to
  // AttentionSpan(position) KV entries. The averages below are closed-form
  // sums of that span over the chunk.
  int64_t first = model_.AttentionSpan(seq.context_len);               // Span of first token.
  int64_t last = model_.AttentionSpan(seq.context_len + seq.num_tokens - 1);  // Span of last.
  int64_t window = model_.sliding_window;
  if (window <= 0 || last < window) {
    // Purely causal growth: spans form an arithmetic sequence.
    *avg_kv = 0.5 * static_cast<double>(first + last);
  } else if (first >= window) {
    *avg_kv = static_cast<double>(window);
  } else {
    // Spans grow from `first` to `window`, then saturate.
    int64_t grow = window - first + 1;
    grow = std::min(grow, seq.num_tokens);
    double grow_sum = 0.5 * static_cast<double>(first + window) * static_cast<double>(grow);
    double flat_sum = static_cast<double>(seq.num_tokens - grow) * static_cast<double>(window);
    *avg_kv = (grow_sum + flat_sum) / static_cast<double>(seq.num_tokens);
  }
  *kv_read = last;
}

void IterationCostModel::set_cache_enabled(bool enabled) {
  cache_enabled_ = enabled;
  if (!enabled) {
    ClearCache();
  }
}

void IterationCostModel::ClearCache() {
  linear_cache_.clear();
  shape_cache_.clear();
}

CostBreakdown IterationCostModel::LinearCost(int64_t tokens) const {
  if (!cache_enabled_) {
    return ComputeLinearCost(tokens);
  }
  auto it = linear_cache_.find(tokens);
  if (it != linear_cache_.end()) {
    ++stats_.linear_hits;
    return it->second;
  }
  ++stats_.linear_misses;
  return linear_cache_.emplace(tokens, ComputeLinearCost(tokens)).first->second;
}

CostBreakdown IterationCostModel::ComputeLinearCost(int64_t tokens) const {
  int64_t t = parallel_.tensor_parallel;
  const GpuSpec& gpu = cluster_.gpu;
  int64_t h = model_.hidden_size;
  int64_t dtype = model_.dtype_bytes;

  CostBreakdown cost;
  auto add = [&](int64_t k, int64_t m) {
    cost.linear_s += MatmulTime(tokens, k, m, dtype, gpu).Total();
  };
  // Fused QKV projection (sharded on the output dimension).
  add(h, (model_.q_dim() + 2 * model_.kv_dim()) / t);
  // Attention output projection (sharded on the input dimension).
  add(model_.q_dim() / t, h);
  // FFN: gate (if gated) + up, then down.
  add(h, model_.ffn_hidden_size / t);
  if (model_.gated_ffn) {
    add(h, model_.ffn_hidden_size / t);
  }
  add(model_.ffn_hidden_size / t, h);
  return cost;
}

CostBreakdown IterationCostModel::AttentionCost(const BatchWork& batch) const {
  int64_t t = parallel_.tensor_parallel;
  const GpuSpec& gpu = cluster_.gpu;
  int64_t q_dim_shard = model_.q_dim() / t;
  int64_t kv_dim_shard = model_.kv_dim() / t;

  CostBreakdown cost;
  // Decode steps batch into one paged-attention kernel: their math and memory
  // components aggregate before taking the roofline max.
  OpTime decode_agg;
  bool any_decode = false;
  for (const auto& seq : batch.sequences) {
    double avg_kv = 0.0;
    int64_t kv_read = 0;
    KvSpan(seq, &avg_kv, &kv_read);
    OpTime op = AttentionTime(seq.num_tokens, avg_kv, kv_read, q_dim_shard, kv_dim_shard,
                              model_.dtype_bytes, gpu);
    if (seq.is_decode) {
      decode_agg.math_s += op.math_s;
      decode_agg.memory_s += op.memory_s;
      decode_agg.overhead_s = gpu.kernel_overhead_s;
      any_decode = true;
    } else {
      // Each prefill chunk runs as its own (flash-attention) kernel.
      cost.attention_s += op.Total();
    }
  }
  if (any_decode) {
    cost.attention_s += decode_agg.Total();
  }
  return cost;
}

CostBreakdown IterationCostModel::HeadCost(int64_t sampled, int64_t total_tokens) const {
  const GpuSpec& gpu = cluster_.gpu;
  CostBreakdown cost;
  // Logits are computed only for positions that sample a token: every decode,
  // plus each prefill chunk's final position (cheap upper bound: one per
  // sequence).
  if (sampled == 0) {
    return cost;
  }
  cost.other_s += MatmulTime(sampled, model_.hidden_size,
                             model_.vocab_size / parallel_.tensor_parallel, model_.dtype_bytes,
                             gpu)
                      .Total();
  // Embedding lookup for all input tokens.
  cost.other_s += ElementwiseTime(total_tokens, model_.hidden_size, 2.0,
                                  model_.dtype_bytes, gpu)
                      .Total();
  return cost;
}

CostBreakdown IterationCostModel::TokenShapeCost(int64_t tokens, int64_t num_sequences) const {
  // The packed key reserves 20 bits for the sequence count; shapes outside
  // that range (never produced by real schedulers) bypass the cache.
  constexpr int64_t kMaxTokens = int64_t{1} << 43;
  constexpr int64_t kMaxSequences = int64_t{1} << 20;
  if (!cache_enabled_ || tokens >= kMaxTokens || num_sequences >= kMaxSequences) {
    return ComputeTokenShapeCost(tokens, num_sequences);
  }
  uint64_t key = (static_cast<uint64_t>(tokens) << 20) | static_cast<uint64_t>(num_sequences);
  auto it = shape_cache_.find(key);
  if (it != shape_cache_.end()) {
    ++stats_.shape_hits;
    return it->second;
  }
  ++stats_.shape_misses;
  return shape_cache_.emplace(key, ComputeTokenShapeCost(tokens, num_sequences)).first->second;
}

CostBreakdown IterationCostModel::ComputeTokenShapeCost(int64_t tokens,
                                                        int64_t num_sequences) const {
  const GpuSpec& gpu = cluster_.gpu;
  CostBreakdown cost = LinearCost(tokens);
  cost.other_s += ElementwiseTime(tokens, model_.hidden_size, 8.0, model_.dtype_bytes, gpu)
                      .Total();
  if (parallel_.tensor_parallel > 1) {
    int64_t bytes = tokens * model_.hidden_size * model_.dtype_bytes;
    cost.comm_s += 2.0 * comm_.AllReduceTime(bytes, parallel_.tensor_parallel);
  }
  cost = cost * static_cast<double>(layers_per_stage_);
  // Head/embedding work is attributed once per iteration; under PP we charge
  // it to every stage's budget evenly so stage times stay uniform.
  cost += HeadCost(num_sequences, tokens) * (1.0 / static_cast<double>(parallel_.pipeline_parallel));
  if (parallel_.pipeline_parallel > 1) {
    int64_t bytes = tokens * model_.hidden_size * model_.dtype_bytes;
    cost.comm_s += comm_.PipelineSendTime(bytes, parallel_.tensor_parallel);
  }
  return cost;
}

CostBreakdown IterationCostModel::StageCost(const BatchWork& batch) const {
  if (batch.sequences.empty()) {
    return {};
  }
  // Every non-attention component is a pure function of (tokens, sequences)
  // and comes from the memo; attention depends on each sequence's KV context,
  // whose key space grows with context length, so it is always recomputed —
  // this keeps cached and uncached results bit-identical and the cache bounded.
  CostBreakdown cost =
      TokenShapeCost(batch.TotalTokens(), static_cast<int64_t>(batch.sequences.size()));
  cost.attention_s += AttentionCost(batch).attention_s * static_cast<double>(layers_per_stage_);
  return cost;
}

CostBreakdown IterationCostModel::StageCostAndTotals(const BatchWork& batch, double* flops,
                                                     double* bytes) const {
  if (batch.sequences.empty()) {
    *flops = 0.0;
    *bytes = 0.0;
    return {};
  }
  int64_t total_tokens = batch.TotalTokens();
  CostBreakdown cost =
      TokenShapeCost(total_tokens, static_cast<int64_t>(batch.sequences.size()));

  // Attention roofline state, accumulated exactly as in AttentionCost.
  int64_t t = parallel_.tensor_parallel;
  const GpuSpec& gpu = cluster_.gpu;
  int64_t q_dim_shard = model_.q_dim() / t;
  int64_t kv_dim_shard = model_.kv_dim() / t;
  double attention_s = 0.0;
  OpTime decode_agg;
  bool any_decode = false;

  // Accounting state, accumulated exactly as in BatchFlopsAndBytes.
  const double layers = static_cast<double>(model_.num_layers);
  const double q_dim = static_cast<double>(model_.q_dim());
  const double kv_bytes_per_token = static_cast<double>(model_.KvBytesPerToken());
  double tokens = static_cast<double>(total_tokens);
  double f = 2.0 * tokens * layers * static_cast<double>(model_.ParamsPerLayer());
  double b = static_cast<double>(model_.WeightBytes());

  for (const auto& seq : batch.sequences) {
    double avg_kv = 0.0;
    int64_t kv_read = 0;
    KvSpan(seq, &avg_kv, &kv_read);
    OpTime op = AttentionTime(seq.num_tokens, avg_kv, kv_read, q_dim_shard, kv_dim_shard,
                              model_.dtype_bytes, gpu);
    if (seq.is_decode) {
      decode_agg.math_s += op.math_s;
      decode_agg.memory_s += op.memory_s;
      decode_agg.overhead_s = gpu.kernel_overhead_s;
      any_decode = true;
    } else {
      attention_s += op.Total();
    }
    f += 4.0 * static_cast<double>(seq.num_tokens) * avg_kv * q_dim * layers;
    b += static_cast<double>(kv_read) * kv_bytes_per_token;
  }
  if (any_decode) {
    attention_s += decode_agg.Total();
  }
  f += 2.0 * static_cast<double>(batch.sequences.size()) *
       static_cast<double>(model_.hidden_size) * static_cast<double>(model_.vocab_size);
  b += 12.0 * tokens * static_cast<double>(model_.hidden_size) *
       static_cast<double>(model_.dtype_bytes) * layers;

  cost.attention_s += attention_s * static_cast<double>(layers_per_stage_);
  *flops = f;
  *bytes = b;
  return cost;
}

CostBreakdown IterationCostModel::IterationCost(const BatchWork& batch) const {
  if (batch.sequences.empty()) {
    return {};
  }
  CostBreakdown cost = StageCost(batch) * static_cast<double>(parallel_.pipeline_parallel);
  return cost;
}

double IterationCostModel::LinearOpsTime(int64_t tokens) const {
  return LinearCost(tokens).linear_s * static_cast<double>(model_.num_layers);
}

double IterationCostModel::LinearArithmeticIntensity(int64_t tokens) const {
  int64_t t = parallel_.tensor_parallel;
  // Aggregate FLOPs and bytes over a layer's GEMMs on one shard.
  struct Shape {
    int64_t k;
    int64_t m;
  };
  std::vector<Shape> shapes = {
      {model_.hidden_size, (model_.q_dim() + 2 * model_.kv_dim()) / t},
      {model_.q_dim() / t, model_.hidden_size},
      {model_.hidden_size, model_.ffn_hidden_size / t},
      {model_.ffn_hidden_size / t, model_.hidden_size},
  };
  if (model_.gated_ffn) {
    shapes.push_back({model_.hidden_size, model_.ffn_hidden_size / t});
  }
  double flops = 0.0;
  double bytes = 0.0;
  for (const auto& s : shapes) {
    flops += 2.0 * static_cast<double>(tokens) * static_cast<double>(s.k) *
             static_cast<double>(s.m);
    bytes += (static_cast<double>(s.k) * static_cast<double>(s.m) +
              static_cast<double>(tokens) * static_cast<double>(s.k + s.m)) *
             static_cast<double>(model_.dtype_bytes);
  }
  return flops / bytes;
}

int64_t IterationCostModel::WeightBytesPerGpu() const {
  return model_.WeightBytes() / parallel_.num_gpus();
}

int64_t IterationCostModel::MaxKvTokens() const {
  double usable = static_cast<double>(cluster_.gpu.hbm_capacity_bytes) *
                  cluster_.memory_utilization;
  double free_bytes = usable - static_cast<double>(WeightBytesPerGpu());
  CHECK_GT(free_bytes, 0.0) << model_.name << " does not fit on " << parallel_.ToString();
  // Each GPU stores layers_per_stage / tp of the per-token KV footprint.
  double kv_per_token_per_gpu =
      static_cast<double>(layers_per_stage_) * 2.0 * static_cast<double>(model_.kv_dim()) *
      static_cast<double>(model_.dtype_bytes) / static_cast<double>(parallel_.tensor_parallel);
  return static_cast<int64_t>(free_bytes / kv_per_token_per_gpu);
}

double IterationCostModel::BatchFlops(const BatchWork& batch) const {
  double flops = 0.0;
  double bytes = 0.0;
  BatchFlopsAndBytes(batch, &flops, &bytes);
  return flops;
}

double IterationCostModel::BatchMemoryBytes(const BatchWork& batch) const {
  double flops = 0.0;
  double bytes = 0.0;
  BatchFlopsAndBytes(batch, &flops, &bytes);
  return bytes;
}

void IterationCostModel::BatchFlopsAndBytes(const BatchWork& batch, double* flops,
                                            double* bytes) const {
  // Per-model factors hoisted out of the sequence loop. Each accumulator sums
  // its terms in the same order as before the two accountings were fused, so
  // the results are bit-identical to the historical separate passes.
  const double layers = static_cast<double>(model_.num_layers);
  const double q_dim = static_cast<double>(model_.q_dim());
  const double kv_bytes_per_token = static_cast<double>(model_.KvBytesPerToken());
  double tokens = static_cast<double>(batch.TotalTokens());

  // Linear operators: 2 FLOPs per parameter per token, across all layers.
  double f = 2.0 * tokens * layers * static_cast<double>(model_.ParamsPerLayer());
  // Weights are streamed from HBM once per iteration, cluster-wide.
  double b = static_cast<double>(model_.WeightBytes());
  for (const auto& seq : batch.sequences) {
    double avg_kv = 0.0;
    int64_t kv_read = 0;
    KvSpan(seq, &avg_kv, &kv_read);
    // Attention: QK^T + AV per layer (4 * q * kv_span * q_dim).
    f += 4.0 * static_cast<double>(seq.num_tokens) * avg_kv * q_dim * layers;
    b += static_cast<double>(kv_read) * kv_bytes_per_token;
  }
  // LM head for the sampled positions.
  f += 2.0 * static_cast<double>(batch.sequences.size()) *
       static_cast<double>(model_.hidden_size) * static_cast<double>(model_.vocab_size);
  // Activation read/write traffic: ~8 elementwise passes per layer plus GEMM
  // activations, approximated as 12 embedding-width passes.
  b += 12.0 * tokens * static_cast<double>(model_.hidden_size) *
       static_cast<double>(model_.dtype_bytes) * layers;
  *flops = f;
  *bytes = b;
}

double IterationCostModel::ReferenceDecodeIterationTime() const {
  BatchWork batch;
  for (int i = 0; i < 32; ++i) {
    batch.sequences.push_back(SequenceWork::Decode(4096));
  }
  return IterationCost(batch).Total();
}

}  // namespace sarathi
