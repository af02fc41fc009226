// Always-on flight recorder: a fixed-capacity ring buffer of trace events
// that is cheap enough to leave recording in every run.
//
// The Tracer is the full-fidelity recorder: it keeps every event of a run,
// so its buffer grows with the run. The flight recorder is its always-on
// sibling: the same plain-old-data event shape (category/name/arg-key
// fields are pointers to string literals, nothing copied), but in a ring
// preallocated at construction, so Record() is a struct write plus an index
// increment — zero allocations, ever, verified by the counting allocator in
// tests/allocation_test.cc.
//
// When something goes wrong — an invariant-checker violation, an SLO burn
// alert, an overload-ladder escalation to brownout/shed, a replica crash —
// the triggering component calls Trigger(), and the recorder dumps the last
// `capacity` events as Perfetto-loadable Chrome-trace JSON: a bounded,
// always-available record of what led up to the anomaly, like an aircraft
// flight recorder. Only the first trigger dumps (the interesting state is
// what preceded the *first* anomaly); later triggers are counted.

#ifndef SRC_OBS_FLIGHT_RECORDER_H_
#define SRC_OBS_FLIGHT_RECORDER_H_

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/obs/tracer.h"

namespace sarathi {

// One numeric annotation. `key` MUST point to storage that outlives the
// recorder (string literals in practice); nothing is copied.
struct FlightArg {
  const char* key = nullptr;
  double value = 0.0;
};

// One recorded event. POD: recording copies this struct and nothing else.
// `category` and `name` carry the same string-literal lifetime contract as
// FlightArg::key.
struct FlightEvent {
  static constexpr int kMaxArgs = 4;

  TracePhase phase = TracePhase::kInstant;
  const char* category = "";
  const char* name = "";
  double ts_s = 0.0;
  double dur_s = 0.0;  // kComplete only.
  int pid = 0;
  int tid = 0;
  int64_t id = -1;  // kAsyncBegin/kAsyncEnd span key.
  FlightArg args[kMaxArgs];
  int num_args = 0;
};

class FlightRecorder {
 public:
  struct Options {
    // Ring capacity in events; the dump carries at most this many events
    // preceding the trigger.
    int64_t capacity = 4096;
    // Auto-dump target: the first Trigger() writes the ring as Chrome-trace
    // JSON here. Empty disables auto-dump (tests dump explicitly).
    std::string dump_path;
  };

  FlightRecorder() : FlightRecorder(Options()) {}
  explicit FlightRecorder(const Options& options);

  // ---- Recording (allocation-free; see the header comment) ----
  // All strings must be literals (or otherwise outlive the recorder).

  void RecordInstant(const char* category, const char* name, double ts_s, int pid,
                     std::initializer_list<FlightArg> args = {});
  void RecordComplete(const char* category, const char* name, double start_s, double dur_s,
                      int pid, int tid, std::initializer_list<FlightArg> args = {});
  void RecordCounter(const char* category, const char* name, double ts_s, int pid,
                     double value);

  // Fires the recorder: records a "trigger" instant carrying `reason`, and on
  // the FIRST trigger writes the ring to Options::dump_path (when set).
  // Returns the dump status (Ok when nothing was written).
  Status Trigger(const char* reason, double ts_s, int pid = 0);

  // ---- Introspection ----

  int64_t capacity() const { return static_cast<int64_t>(ring_.size()); }
  // Events currently held (<= capacity).
  int64_t size() const { return std::min(written_, capacity()); }
  // Total events ever recorded; size() == capacity once this exceeds it.
  int64_t total_recorded() const { return written_; }
  int64_t triggers() const { return triggers_; }
  // Reason of the first trigger ("" before any).
  const char* trigger_reason() const { return trigger_reason_; }
  // Whether the auto-dump was attempted and its outcome.
  bool dumped() const { return dumped_; }
  const Status& dump_status() const { return dump_status_; }

  // Oldest-to-newest snapshot of the ring (test/report helper; allocates).
  std::vector<FlightEvent> Snapshot() const;

  // ---- Export ----

  // Chrome trace-event JSON ({"traceEvents": [...]}, microsecond timestamps),
  // oldest event first, same dialect as Tracer::WriteChromeTraceJson so the
  // dump loads in Perfetto and validates with the same parsers.
  void WriteChromeTraceJson(std::ostream& out) const;
  Status WriteChromeTraceFile(const std::string& path) const;

 private:
  FlightEvent& NextSlot();
  void CopyArgs(FlightEvent* event, std::initializer_list<FlightArg> args);

  std::vector<FlightEvent> ring_;  // Preallocated at construction, never grows.
  int64_t written_ = 0;            // Next slot = written_ % capacity.
  std::string dump_path_;
  int64_t triggers_ = 0;
  const char* trigger_reason_ = "";
  bool dumped_ = false;
  Status dump_status_ = Status::Ok();
};

}  // namespace sarathi

#endif  // SRC_OBS_FLIGHT_RECORDER_H_
