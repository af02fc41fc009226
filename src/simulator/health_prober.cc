#include "src/simulator/health_prober.h"

#include <limits>

#include "src/common/intervals.h"
#include "src/common/logging.h"

namespace sarathi {

std::string_view ReplicaHealthName(ReplicaHealth health) {
  switch (health) {
    case ReplicaHealth::kHealthy:
      return "healthy";
    case ReplicaHealth::kDegraded:
      return "degraded";
    case ReplicaHealth::kDown:
      return "down";
    case ReplicaHealth::kUnreachable:
      return "unreachable";
  }
  return "unknown";
}

HealthProber::HealthProber(int num_replicas, const ProberOptions& options)
    : options_(options), replicas_(static_cast<size_t>(num_replicas)) {
  CHECK_GT(num_replicas, 0);
  CHECK_GT(options_.probe_interval_s, 0.0);
  CHECK_GT(options_.ewma_alpha, 0.0);
  CHECK_LE(options_.ewma_alpha, 1.0);
  CHECK_GE(options_.degrade_threshold, options_.clear_threshold);
  CHECK_GE(options_.hysteresis_samples, 1);
  CHECK_GE(options_.unreachable_after_samples, 1);
}

void HealthProber::Transition(int replica, double t, ReplicaHealth to) {
  ReplicaState& state = replicas_[static_cast<size_t>(replica)];
  if (state.health == to) {
    return;
  }
  if (state.health == ReplicaHealth::kDegraded) {
    CHECK(!state.intervals.empty());
    state.intervals.back().end_s = t;
  }
  if (to == ReplicaHealth::kDegraded) {
    state.intervals.push_back(
        DetectedInterval{t, std::numeric_limits<double>::infinity()});
  }
  if (state.health == ReplicaHealth::kUnreachable) {
    CHECK(!state.unreachable.empty());
    state.unreachable.back().end_s = t;
  }
  if (to == ReplicaHealth::kUnreachable) {
    state.unreachable.push_back(
        DetectedInterval{t, std::numeric_limits<double>::infinity()});
  }
  transitions_.push_back(HealthTransition{replica, t, state.health, to});
  state.health = to;
  state.samples_above = 0;
  state.samples_below = 0;
  state.silent_samples = 0;
}

void HealthProber::Observe(int replica, double t, double latency_ratio) {
  ReplicaState& state = replicas_[static_cast<size_t>(replica)];
  if (state.health == ReplicaHealth::kDown ||
      state.health == ReplicaHealth::kUnreachable) {
    // First post-repair / post-rejoin sample: whatever the EWMA described no
    // longer exists (restart, or the regime on the far side of the
    // partition), so re-seed and classify from scratch. Carrying the stale
    // estimate across the gap is the EWMA wind-up bug: one pre-outage
    // degraded episode would re-trip the breaker within hysteresis_samples
    // of a perfectly healthy rejoin.
    Transition(replica, t, ReplicaHealth::kHealthy);
    state.warm = false;
  } else if (state.warm && options_.ewma_staleness_s > 0.0 &&
             t - state.last_sample_s > options_.ewma_staleness_s) {
    // Silent gap without an explicit down/unreachable verdict: same
    // staleness argument, opt-in via ewma_staleness_s.
    state.warm = false;
  }
  state.silent_samples = 0;
  state.last_sample_s = t;
  if (!state.warm) {
    state.ewma = latency_ratio;
    state.warm = true;
  } else {
    state.ewma = options_.ewma_alpha * latency_ratio + (1.0 - options_.ewma_alpha) * state.ewma;
  }
  if (state.health == ReplicaHealth::kHealthy) {
    if (state.ewma >= options_.degrade_threshold) {
      if (++state.samples_above >= options_.hysteresis_samples) {
        Transition(replica, t, ReplicaHealth::kDegraded);
      }
    } else {
      state.samples_above = 0;
    }
  } else if (state.health == ReplicaHealth::kDegraded) {
    if (state.ewma <= options_.clear_threshold) {
      if (++state.samples_below >= options_.hysteresis_samples) {
        Transition(replica, t, ReplicaHealth::kHealthy);
      }
    } else {
      state.samples_below = 0;
    }
  }
}

void HealthProber::ObserveSilence(int replica, double t) {
  ReplicaState& state = replicas_[static_cast<size_t>(replica)];
  if (state.health == ReplicaHealth::kDown) {
    return;  // A crashed replica is expected to be silent.
  }
  if (state.health == ReplicaHealth::kUnreachable) {
    return;  // Continued silence sustains the verdict.
  }
  if (++state.silent_samples >= options_.unreachable_after_samples) {
    Transition(replica, t, ReplicaHealth::kUnreachable);
  }
}

void HealthProber::MarkDown(int replica, double t) {
  ReplicaState& state = replicas_[static_cast<size_t>(replica)];
  if (state.health != ReplicaHealth::kDown) {
    Transition(replica, t, ReplicaHealth::kDown);
  }
}

ReplicaHealth HealthProber::state(int replica) const {
  return replicas_[static_cast<size_t>(replica)].health;
}

double HealthProber::ewma(int replica) const {
  return replicas_[static_cast<size_t>(replica)].ewma;
}

const std::vector<DetectedInterval>& HealthProber::DegradedIntervals(int replica) const {
  return replicas_[static_cast<size_t>(replica)].intervals;
}

// Transition appends intervals in time order and closes each one before it
// opens the next, so they are sorted and disjoint.
bool HealthProber::DegradedAt(int replica, double t) const {
  return CoveringInterval(DegradedIntervals(replica), t, &DetectedInterval::begin_s,
                          &DetectedInterval::end_s) != nullptr;
}

const std::vector<DetectedInterval>& HealthProber::UnreachableIntervals(int replica) const {
  return replicas_[static_cast<size_t>(replica)].unreachable;
}

bool HealthProber::UnreachableAt(int replica, double t) const {
  return CoveringInterval(UnreachableIntervals(replica), t, &DetectedInterval::begin_s,
                          &DetectedInterval::end_s) != nullptr;
}

}  // namespace sarathi
