#include "src/robustness/retry_budget.h"

#include <algorithm>

#include "src/common/logging.h"

namespace sarathi {
namespace {

// splitmix64: tiny, well-mixed, and stable across platforms — exactly what a
// replayable jitter source needs.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

RetryBudget::RetryBudget(double ratio, double burst)
    : ratio_(ratio), burst_(burst), balance_(ratio > 0.0 ? burst : 0.0) {
  CHECK(burst >= 0.0) << "retry-budget burst must be non-negative";
}

void RetryBudget::OnRequest(double now_s) {
  if (!enabled()) return;
  balance_ = std::min(burst_, balance_ + ratio_);
  EmitBalance(now_s);
}

bool RetryBudget::TryConsume(double now_s) {
  if (!enabled()) {
    ++consumed_;
    return true;
  }
  // Tolerance absorbs the drift from accumulating fractional credits (e.g.
  // ten 0.1 credits sum to 0.999...), so N admissions at ratio 1/N reliably
  // fund one retry.
  constexpr double kEps = 1e-9;
  if (balance_ < 1.0 - kEps) {
    ++denied_;
    if (obs_ != nullptr && now_s >= 0.0) {
      if (Tracer* tracer = obs_->tracer) {
        tracer->Instant("overload", "retry_denied", now_s, {Arg("balance", balance_)});
      }
      if (obs_->metrics != nullptr) {
        obs_->metrics->AddCount("retry_budget_denied", now_s);
      }
    }
    return false;
  }
  balance_ = std::max(0.0, balance_ - 1.0);
  ++consumed_;
  EmitBalance(now_s);
  return true;
}

void RetryBudget::EmitBalance(double now_s) {
  if (obs_ == nullptr || now_s < 0.0 || obs_->metrics == nullptr) {
    return;
  }
  obs_->metrics->SetGauge("retry_budget_balance", now_s, balance_);
}

double FullJitterBackoffS(double base_s, int attempt, int64_t request_id, uint64_t seed) {
  CHECK(base_s > 0.0) << "backoff base must be positive";
  CHECK(attempt >= 0);
  double ceiling = base_s * static_cast<double>(int64_t{1} << std::min(attempt, 30));
  uint64_t h = SplitMix64(seed ^ SplitMix64(static_cast<uint64_t>(request_id) ^
                                            (static_cast<uint64_t>(attempt) << 48)));
  // 53-bit mantissa draw in [0, 1).
  double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return ceiling * u;
}

}  // namespace sarathi
