#include "src/robustness/overload_controller.h"

#include <algorithm>

#include "src/common/logging.h"

namespace sarathi {

OverloadController::OverloadController(const OverloadControllerOptions& options)
    : options_(options) {
  CHECK(options_.exit_ratio > 0.0 && options_.exit_ratio <= 1.0)
      << "exit_ratio must be in (0, 1], got " << options_.exit_ratio;
  CHECK(options_.min_dwell_s >= 0.0) << "min_dwell_s must be non-negative";
}

OverloadLevel OverloadController::SignalLevel(const OverloadSignals& signals,
                                              double scale) const {
  auto rung = [&](double value, double throughput, double brownout, double shed) {
    if (value >= shed * scale) return OverloadLevel::kShed;
    if (value >= brownout * scale) return OverloadLevel::kBrownout;
    if (value >= throughput * scale) return OverloadLevel::kThroughput;
    return OverloadLevel::kNormal;
  };
  OverloadLevel level = rung(signals.queue_delay_s, options_.queue_delay_throughput_s,
                             options_.queue_delay_brownout_s, options_.queue_delay_shed_s);
  if (options_.tbt_slo_s > 0.0) {
    level = std::max(level, rung(signals.p99_tbt_s, options_.tbt_slo_s * options_.tbt_throughput_factor,
                                 options_.tbt_slo_s * options_.tbt_brownout_factor,
                                 options_.tbt_slo_s * options_.tbt_shed_factor));
  }
  level = std::max(level, rung(signals.kv_utilization, options_.kv_throughput,
                               options_.kv_brownout, options_.kv_shed));
  return level;
}

OverloadLevel OverloadController::Update(double now_s, const OverloadSignals& signals) {
  OverloadLevel enter = SignalLevel(signals, 1.0);
  if (enter > level_) {
    // Escalate immediately — overload is the failure mode we cannot sit on.
    level_ = enter;
    last_change_s_ = now_s;
    ++transitions_;
    ++escalations_;
    EmitTransition(now_s, /*escalation=*/true);
    return level_;
  }
  if (level_ == OverloadLevel::kNormal) {
    return level_;
  }
  // De-escalate one rung at a time, only after min_dwell_s at this level and
  // only once every signal has dropped below exit_ratio of the thresholds
  // that warrant the current level (hysteresis against flapping).
  OverloadLevel hold = SignalLevel(signals, options_.exit_ratio);
  if (hold >= level_ || now_s - last_change_s_ < options_.min_dwell_s) {
    return level_;
  }
  level_ = static_cast<OverloadLevel>(static_cast<int>(level_) - 1);
  last_change_s_ = now_s;
  ++transitions_;
  EmitTransition(now_s, /*escalation=*/false);
  return level_;
}

void OverloadController::EmitTransition(double now_s, bool escalation) {
  if (obs_ == nullptr) {
    return;
  }
  if (Tracer* tracer = obs_->tracer) {
    // Counter track: Perfetto renders the ladder as a step function.
    tracer->Counter("overload", "overload_rung", now_s,
                    static_cast<double>(static_cast<int>(level_)));
  }
  if (obs_->metrics != nullptr) {
    obs_->metrics->AddCount("overload_transitions", now_s);
    if (escalation) {
      obs_->metrics->AddCount("overload_escalations", now_s);
    }
  }
}

}  // namespace sarathi
