// The zero-cost-when-disabled observability hook threaded through the stack.
//
// A driver (replica simulator, reference server) owns one ObsHooks and hands
// a pointer to the components it drives — schedulers, the block manager —
// which have no clock of their own. The driver keeps `now_s` current; the
// components emit against it. Either pointer may be null, and instrumented
// code guards each emission site, so runs without observability pay only a
// null check.

#ifndef SRC_OBS_OBS_HOOKS_H_
#define SRC_OBS_OBS_HOOKS_H_

#include "src/obs/flight_recorder.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/tracer.h"
#include "src/obs/verify_hook.h"

namespace sarathi {

struct ObsHooks {
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
  // Invariant checker (src/verify); observes semantic scheduler/KV events.
  VerifyHook* verify = nullptr;
  // Always-on ring buffer; unlike the tracer it is allocation-free, so hot
  // paths may feed it even in steady state.
  FlightRecorder* flight = nullptr;
  double now_s = 0.0;

  bool active() const {
    return tracer != nullptr || metrics != nullptr || verify != nullptr ||
           flight != nullptr;
  }

  // Advances the shared clock (also mirrored into the tracer's clock).
  void SetNow(double t_s) {
    now_s = t_s;
    if (tracer != nullptr) {
      tracer->set_now(t_s);
    }
  }
};

}  // namespace sarathi

#endif  // SRC_OBS_OBS_HOOKS_H_
