// Point lookup in a schedule of time intervals.
//
// Outage windows, partition windows, slowdown episodes, detected-health
// intervals and autoscaler provision windows are all kept as time-ordered,
// disjoint, half-open intervals [begin, end). CoveringInterval finds the one
// that covers a time, naming the interval type's two bounds by member pointer.

#ifndef SRC_COMMON_INTERVALS_H_
#define SRC_COMMON_INTERVALS_H_

#include <vector>

namespace sarathi {

// The interval of `intervals` with begin <= t < end, or null. `intervals` must
// be sorted by begin and disjoint; the scan stops at the first interval that
// begins after t.
template <typename Interval>
const Interval* CoveringInterval(const std::vector<Interval>& intervals, double t,
                                 double Interval::*begin, double Interval::*end) {
  for (const Interval& interval : intervals) {
    if (t < interval.*begin) {
      return nullptr;
    }
    if (t < interval.*end) {
      return &interval;
    }
  }
  return nullptr;
}

}  // namespace sarathi

#endif  // SRC_COMMON_INTERVALS_H_
