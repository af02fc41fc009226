#include "src/simulator/metrics.h"

#include <algorithm>

#include "src/common/logging.h"

namespace sarathi {

std::string_view FailureKindName(FailureKind kind) {
  switch (kind) {
    case FailureKind::kNone:
      return "none";
    case FailureKind::kTimeout:
      return "timeout";
    case FailureKind::kReplicaCrash:
      return "replica_crash";
    case FailureKind::kShed:
      return "shed";
    case FailureKind::kMigrated:
      return "migrated";
    case FailureKind::kDegradedDrain:
      return "degraded_drain";
    case FailureKind::kHedgeCancelled:
      return "hedge_cancelled";
  }
  return "unknown";
}

std::vector<double> RequestMetrics::TbtSamples() const {
  std::vector<double> samples;
  samples.reserve(NumTbtSamples());
  ForEachTbt([&](double gap) { samples.push_back(gap); });
  return samples;
}

Summary SimResult::TtftSummary() const {
  Summary summary;
  for (const auto& r : requests) {
    double ttft = r.Ttft();
    if (ttft >= 0.0) {
      summary.Add(ttft);
    }
  }
  return summary;
}

Summary SimResult::TbtSummary() const {
  Summary summary;
  for (const auto& r : requests) {
    r.ForEachTbt([&](double gap) { summary.Add(gap); });
  }
  return summary;
}

Summary SimResult::SchedulingDelaySummary() const {
  Summary summary;
  for (const auto& r : requests) {
    double delay = r.SchedulingDelay();
    if (delay >= 0.0) {
      summary.Add(delay);
    }
  }
  return summary;
}

Summary SimResult::LatencySummary() const {
  Summary summary;
  for (const auto& r : requests) {
    if (r.completed()) {
      summary.Add(r.completion_s - r.arrival_s);
    }
  }
  return summary;
}

double SimResult::P99Tbt() const {
  size_t total = 0;
  for (const auto& r : requests) {
    total += r.NumTbtSamples();
  }
  if (total == 0) {
    return 0.0;
  }
  std::vector<double> gaps;
  gaps.reserve(total);
  for (const auto& r : requests) {
    r.ForEachTbt([&](double gap) { gaps.push_back(gap); });
  }
  return SelectQuantile(gaps, 0.99);
}

double SimResult::MedianTtft() const {
  Summary summary = TtftSummary();
  return summary.empty() ? 0.0 : summary.Median();
}

double SimResult::MedianSchedulingDelay() const {
  Summary summary = SchedulingDelaySummary();
  return summary.empty() ? 0.0 : summary.Median();
}

double SimResult::BubbleFraction() const {
  if (stage_busy_s.empty() || active_window_s <= 0.0) {
    return 0.0;
  }
  double busy = 0.0;
  for (double b : stage_busy_s) {
    busy += b;
  }
  double capacity = active_window_s * static_cast<double>(stage_busy_s.size());
  return std::max(0.0, 1.0 - busy / capacity);
}

double SimResult::PeakKvUtilization() const {
  if (total_kv_blocks <= 0) {
    return 0.0;
  }
  return static_cast<double>(peak_kv_blocks) / static_cast<double>(total_kv_blocks);
}

double SimResult::OutputTokenThroughput() const {
  return makespan_s > 0.0 ? static_cast<double>(total_output_tokens) / makespan_s : 0.0;
}

int64_t SimResult::CountStalls(double threshold_s) const {
  int64_t stalls = 0;
  for (const auto& r : requests) {
    r.ForEachTbt([&](double tbt) { stalls += tbt > threshold_s ? 1 : 0; });
  }
  return stalls;
}

double SimResult::Mfu() const {
  if (makespan_s <= 0.0 || peak_flops <= 0.0) {
    return 0.0;
  }
  return total_flops / (makespan_s * peak_flops);
}

double SimResult::Mbu() const {
  if (makespan_s <= 0.0 || peak_bandwidth <= 0.0) {
    return 0.0;
  }
  return total_bytes / (makespan_s * peak_bandwidth);
}

int64_t SimResult::CountGood() const {
  int64_t good = 0;
  for (const auto& r : requests) {
    good += r.good() ? 1 : 0;
  }
  return good;
}

double SimResult::Goodput() const {
  return makespan_s > 0.0 ? static_cast<double>(CountGood()) / makespan_s : 0.0;
}

int64_t SimResult::CountFailed() const {
  int64_t failed = 0;
  for (const auto& r : requests) {
    failed += r.failed() ? 1 : 0;
  }
  return failed;
}

int64_t SimResult::CountFailed(FailureKind kind) const {
  int64_t failed = 0;
  for (const auto& r : requests) {
    failed += (r.failed() && r.failure == kind) ? 1 : 0;
  }
  return failed;
}

int64_t SimResult::TotalRetries() const {
  int64_t retries = 0;
  for (const auto& r : requests) {
    retries += r.retries;
  }
  return retries;
}

int64_t SimResult::WastedRecomputeTokens() const {
  int64_t wasted = 0;
  for (const auto& r : requests) {
    wasted += r.wasted_tokens;
  }
  return wasted;
}

double SimResult::SloAttainment(double ttft_slo_s, double tbt_slo_s) const {
  if (requests.empty()) {
    return 0.0;
  }
  int64_t attained = 0;
  int64_t completed = 0;
  for (const auto& r : requests) {
    if (!r.completed()) {
      continue;
    }
    ++completed;
    if (r.Ttft() > ttft_slo_s) {
      continue;
    }
    // Attained unless some gap between consecutive tokens exceeds the SLO.
    bool ok = std::adjacent_find(r.token_times_s.begin(), r.token_times_s.end(),
                                 [&](double prev, double next) {
                                   return next - prev > tbt_slo_s;
                                 }) == r.token_times_s.end();
    attained += ok ? 1 : 0;
  }
  return completed == 0 ? 0.0 : static_cast<double>(attained) / static_cast<double>(completed);
}

double SimResult::MaxTbt() const {
  double max_tbt = 0.0;
  for (const auto& r : requests) {
    r.ForEachTbt([&](double tbt) { max_tbt = std::max(max_tbt, tbt); });
  }
  return max_tbt;
}

}  // namespace sarathi
