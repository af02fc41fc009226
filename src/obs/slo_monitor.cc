#include "src/obs/slo_monitor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/common/logging.h"

namespace sarathi {
namespace {

// Error budget; floored so target == 1 (zero tolerance) stays finite and any
// badness registers as an enormous burn instead of a division by zero.
double ErrorBudget(double target) { return std::max(1.0 - target, 1e-9); }

}  // namespace

const char* SloSignalName(SloSignal signal) {
  switch (signal) {
    case SloSignal::kTtft:
      return "ttft";
    case SloSignal::kTbt:
      return "tbt";
    case SloSignal::kGoodput:
      return "goodput";
  }
  return "unknown";
}

SloMonitor::SloMonitor(const Options& options) : options_(options) {
  CHECK_GT(options_.tick_s, 0.0);
  CHECK_GT(options_.max_alerts, 0);
  alerts_.reserve(static_cast<size_t>(options_.max_alerts));
}

int SloMonitor::AddPolicy(const SloPolicy& policy) {
  CHECK_GT(policy.fast_window_s, 0.0);
  CHECK_GE(policy.slow_window_s, policy.fast_window_s);
  CHECK_GT(policy.target, 0.0);
  PolicyState state;
  state.fast_ticks = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(policy.fast_window_s / options_.tick_s)));
  state.slow_ticks = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(policy.slow_window_s / options_.tick_s)));
  state.ring.resize(static_cast<size_t>(state.slow_ticks));
  policies_.push_back(policy);
  states_.push_back(std::move(state));
  return static_cast<int>(policies_.size()) - 1;
}

void SloMonitor::Bind(Tracer* tracer, MetricsRegistry* metrics, FlightRecorder* flight) {
  tracer_ = tracer;
  metrics_ = metrics;
  flight_ = flight;
}

void SloMonitor::RecordLatency(SloSignal signal, QosClass lane, double value_s,
                               double now_s) {
  for (size_t i = 0; i < policies_.size(); ++i) {
    const SloPolicy& policy = policies_[i];
    if (policy.signal != signal || !LaneMatches(policy, lane)) {
      continue;
    }
    RecordInto(static_cast<int>(i), /*good=*/value_s <= policy.threshold_s, now_s);
  }
}

void SloMonitor::RecordOutcome(QosClass lane, bool good, double now_s) {
  for (size_t i = 0; i < policies_.size(); ++i) {
    const SloPolicy& policy = policies_[i];
    if (policy.signal != SloSignal::kGoodput || !LaneMatches(policy, lane)) {
      continue;
    }
    RecordInto(static_cast<int>(i), good, now_s);
  }
}

void SloMonitor::AdvanceTo(double end_s) {
  for (size_t i = 0; i < policies_.size(); ++i) {
    Advance(static_cast<int>(i), end_s);
  }
}

void SloMonitor::RecordInto(int index, bool good, double now_s) {
  Advance(index, now_s);
  PolicyState& state = states_[static_cast<size_t>(index)];
  Bucket& bucket =
      state.ring[static_cast<size_t>(state.current_tick % state.slow_ticks)];
  if (good) {
    ++bucket.good;
    ++state.total_good;
  } else {
    ++bucket.bad;
    ++state.total_bad;
  }
}

void SloMonitor::Advance(int index, double now_s) {
  PolicyState& state = states_[static_cast<size_t>(index)];
  // Slightly out-of-order samples clamp into the current bucket rather than
  // rewriting history; bucket width dwarfs simulator event skew.
  int64_t target_tick =
      std::max<int64_t>(0, static_cast<int64_t>(now_s / options_.tick_s));
  if (target_tick <= state.current_tick) {
    return;
  }
  // The outgoing bucket is complete: evaluate the alert condition at its
  // closing boundary before any data ages out.
  Evaluate(index, static_cast<double>(state.current_tick + 1) * options_.tick_s);
  int64_t steps = target_tick - state.current_tick;
  if (steps >= state.slow_ticks) {
    // Gap longer than the slow window: everything ages out at once.
    std::fill(state.ring.begin(), state.ring.end(), Bucket());
  } else {
    for (int64_t tick = state.current_tick + 1; tick <= target_tick; ++tick) {
      state.ring[static_cast<size_t>(tick % state.slow_ticks)] = Bucket();
    }
  }
  state.current_tick = target_tick;
  // Re-evaluate after aging so a cleared condition drops the rising-edge
  // latch (otherwise one long burn could mask a later, separate one).
  Evaluate(index, static_cast<double>(target_tick) * options_.tick_s);
}

double SloMonitor::WindowBurn(const PolicyState& state, const SloPolicy& policy,
                              int64_t window_ticks) const {
  int64_t good = 0;
  int64_t bad = 0;
  int64_t first = std::max<int64_t>(0, state.current_tick - window_ticks + 1);
  for (int64_t tick = first; tick <= state.current_tick; ++tick) {
    const Bucket& bucket = state.ring[static_cast<size_t>(tick % state.slow_ticks)];
    good += bucket.good;
    bad += bucket.bad;
  }
  int64_t total = good + bad;
  if (total == 0) {
    return 0.0;
  }
  double bad_fraction = static_cast<double>(bad) / static_cast<double>(total);
  return bad_fraction / ErrorBudget(policy.target);
}

void SloMonitor::Evaluate(int index, double now_s) {
  PolicyState& state = states_[static_cast<size_t>(index)];
  const SloPolicy& policy = policies_[static_cast<size_t>(index)];
  double fast = WindowBurn(state, policy, state.fast_ticks);
  double slow = WindowBurn(state, policy, state.slow_ticks);
  bool firing = fast >= policy.fast_burn && slow >= policy.slow_burn;
  if (firing && !state.alerting) {
    EmitAlert(index, now_s, fast, slow);
  }
  state.alerting = firing;
}

void SloMonitor::EmitAlert(int index, double now_s, double fast, double slow) {
  PolicyState& state = states_[static_cast<size_t>(index)];
  const SloPolicy& policy = policies_[static_cast<size_t>(index)];
  ++state.alert_count;
  if (static_cast<int64_t>(alerts_.size()) < options_.max_alerts) {
    SloAlert alert;
    alert.policy = index;
    alert.name = policy.name;
    alert.time_s = now_s;
    alert.fast_burn = fast;
    alert.slow_burn = slow;
    alerts_.push_back(std::move(alert));
  } else {
    ++alerts_suppressed_;
  }
  if (tracer_ != nullptr) {
    tracer_->Instant("slo", "slo_burn_alert", now_s,
                     {Arg("policy", tracer_->Pool(policy.name)),
                      Arg("signal", SloSignalName(policy.signal)), Arg("fast_burn", fast),
                      Arg("slow_burn", slow)});
  }
  if (metrics_ != nullptr) {
    metrics_->AddCount("slo_alerts", now_s);
  }
  if (flight_ != nullptr) {
    // Status lands in flight->dump_status(); an alert path must not fail the run.
    flight_->Trigger("slo_burn_alert", now_s);
  }
}

double SloMonitor::BurnRate(int policy, double window_s) const {
  CHECK_GE(policy, 0);
  CHECK_LT(policy, static_cast<int>(policies_.size()));
  const PolicyState& state = states_[static_cast<size_t>(policy)];
  int64_t ticks = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(window_s / options_.tick_s)));
  ticks = std::min(ticks, state.slow_ticks);
  return WindowBurn(state, policies_[static_cast<size_t>(policy)], ticks);
}

std::vector<SloComplianceRow> SloMonitor::ComplianceReport() const {
  std::vector<SloComplianceRow> rows;
  rows.reserve(policies_.size());
  for (size_t i = 0; i < policies_.size(); ++i) {
    SloComplianceRow row;
    row.name = policies_[i].name;
    row.signal = policies_[i].signal;
    row.target = policies_[i].target;
    row.good = states_[i].total_good;
    row.bad = states_[i].total_bad;
    row.alerts = states_[i].alert_count;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string SloMonitor::RenderComplianceReport() const {
  if (policies_.empty()) {
    return "";
  }
  std::ostringstream out;
  out << "SLO compliance:\n";
  for (const SloComplianceRow& row : ComplianceReport()) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  %-24s %-8s target=%.4f attainment=%.4f good=%lld bad=%lld "
                  "alerts=%lld %s\n",
                  row.name.c_str(), SloSignalName(row.signal), row.target,
                  row.attainment(), static_cast<long long>(row.good),
                  static_cast<long long>(row.bad), static_cast<long long>(row.alerts),
                  row.met() ? "OK" : "VIOLATED");
    out << line;
  }
  return out.str();
}

Status SloMonitor::WriteAlertsCsv(const std::string& path) const {
  RETURN_IF_ERROR(EnsureParentDirectory(path));
  std::ofstream out(path);
  if (!out) {
    return InternalError("cannot open " + path + " for writing");
  }
  out << "policy,name,signal,time_s,fast_burn,slow_burn\n";
  for (const SloAlert& alert : alerts_) {
    const SloPolicy& policy = policies_[static_cast<size_t>(alert.policy)];
    char line[256];
    std::snprintf(line, sizeof(line), "%d,%s,%s,%.6f,%.6f,%.6f\n", alert.policy,
                  alert.name.c_str(), SloSignalName(policy.signal), alert.time_s,
                  alert.fast_burn, alert.slow_burn);
    out << line;
  }
  if (!out) {
    return InternalError("write failed for " + path);
  }
  return Status::Ok();
}

}  // namespace sarathi
