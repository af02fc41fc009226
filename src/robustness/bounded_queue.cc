#include "src/robustness/bounded_queue.h"

#include <cmath>

#include "src/common/logging.h"

namespace sarathi {

CoDelQueue::CoDelQueue(const CoDelOptions& options) : options_(options) {
  CHECK(options_.target_s > 0.0) << "CoDel target must be positive";
  CHECK(options_.interval_s > 0.0) << "CoDel interval must be positive";
}

double CoDelQueue::ControlLaw(double t) const {
  return t + options_.interval_s / std::sqrt(static_cast<double>(count_));
}

bool CoDelQueue::ShouldDrop(double head_delay_s, double now_s) {
  if (head_delay_s < options_.target_s) {
    // Delay recovered: leave the dropping state and forget the episode.
    first_above_time_s_ = 0.0;
    dropping_ = false;
    return false;
  }
  if (dropping_) {
    if (now_s < drop_next_s_) {
      return false;
    }
    ++count_;
    ++drops_;
    drop_next_s_ = ControlLaw(drop_next_s_);
    EmitDrop(head_delay_s, now_s);
    return true;
  }
  if (first_above_time_s_ == 0.0) {
    first_above_time_s_ = now_s + options_.interval_s;
    return false;
  }
  if (now_s < first_above_time_s_) {
    return false;
  }
  // Delay has been above target for a full interval: enter the dropping
  // state. Resume near the previous episode's drop rate if it ended recently
  // (the standard CoDel "count memory" that speeds re-convergence).
  dropping_ = true;
  int64_t delta = count_ - last_count_;
  count_ = delta > 1 ? delta : 1;
  last_count_ = count_;
  ++drops_;
  drop_next_s_ = ControlLaw(now_s);
  EmitDrop(head_delay_s, now_s);
  return true;
}

void CoDelQueue::EmitDrop(double head_delay_s, double now_s) {
  if (obs_ == nullptr) {
    return;
  }
  if (Tracer* tracer = obs_->tracer) {
    tracer->Instant("overload", "codel_head_drop", now_s,
                    {Arg("head_delay_s", head_delay_s), Arg("episode_drops", count_)});
  }
  if (obs_->metrics != nullptr) {
    obs_->metrics->AddCount("codel_head_drops", now_s);
  }
}

}  // namespace sarathi
