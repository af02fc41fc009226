#include "src/obs/flight_recorder.h"

#include <algorithm>
#include <fstream>

#include "src/common/logging.h"

namespace sarathi {

FlightRecorder::FlightRecorder(const Options& options) : dump_path_(options.dump_path) {
  CHECK_GT(options.capacity, 0);
  ring_.resize(static_cast<size_t>(options.capacity));
}

FlightEvent& FlightRecorder::NextSlot() {
  FlightEvent& slot = ring_[static_cast<size_t>(written_ % capacity())];
  ++written_;
  slot = FlightEvent();
  return slot;
}

void FlightRecorder::CopyArgs(FlightEvent* event, std::initializer_list<FlightArg> args) {
  for (const FlightArg& arg : args) {
    if (event->num_args >= FlightEvent::kMaxArgs) {
      break;
    }
    event->args[event->num_args++] = arg;
  }
}

void FlightRecorder::RecordInstant(const char* category, const char* name, double ts_s,
                                   int pid, std::initializer_list<FlightArg> args) {
  FlightEvent& event = NextSlot();
  event.phase = TracePhase::kInstant;
  event.category = category;
  event.name = name;
  event.ts_s = ts_s;
  event.pid = pid;
  CopyArgs(&event, args);
}

void FlightRecorder::RecordComplete(const char* category, const char* name, double start_s,
                                    double dur_s, int pid, int tid,
                                    std::initializer_list<FlightArg> args) {
  FlightEvent& event = NextSlot();
  event.phase = TracePhase::kComplete;
  event.category = category;
  event.name = name;
  event.ts_s = start_s;
  event.dur_s = dur_s;
  event.pid = pid;
  event.tid = tid;
  CopyArgs(&event, args);
}

void FlightRecorder::RecordCounter(const char* category, const char* name, double ts_s,
                                   int pid, double value) {
  FlightEvent& event = NextSlot();
  event.phase = TracePhase::kCounter;
  event.category = category;
  event.name = name;
  event.ts_s = ts_s;
  event.pid = pid;
  // Counter value rides in args[0] so the ring stays one struct shape.
  event.args[0] = FlightArg{"value", value};
  event.num_args = 1;
}

Status FlightRecorder::Trigger(const char* reason, double ts_s, int pid) {
  RecordInstant("flight", "trigger", ts_s, pid, {{"trigger", 1.0}});
  // The reason string must be a literal like every other recorded string; it
  // is also surfaced through trigger_reason() for reports.
  FlightEvent& event = ring_[static_cast<size_t>((written_ - 1) % capacity())];
  event.name = reason;
  ++triggers_;
  if (triggers_ > 1) {
    return Status::Ok();
  }
  trigger_reason_ = reason;
  if (dump_path_.empty()) {
    return Status::Ok();
  }
  dumped_ = true;
  dump_status_ = WriteChromeTraceFile(dump_path_);
  if (!dump_status_.ok()) {
    LOG(Warning) << "flight-recorder dump failed: " << dump_status_.message();
  }
  return dump_status_;
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  std::vector<FlightEvent> events;
  events.reserve(static_cast<size_t>(size()));
  int64_t n = size();
  int64_t start = written_ - n;
  for (int64_t i = 0; i < n; ++i) {
    events.push_back(ring_[static_cast<size_t>((start + i) % capacity())]);
  }
  return events;
}

void FlightRecorder::WriteChromeTraceJson(std::ostream& out) const {
  ChromeTraceWriter writer(out);
  int64_t n = size();
  int64_t start = written_ - n;
  for (int64_t i = 0; i < n; ++i) {
    const FlightEvent& event = ring_[static_cast<size_t>((start + i) % capacity())];
    writer.BeginEvent(event.phase, event.pid, event.tid, event.ts_s, event.name, event.category,
                      event.dur_s, event.id);
    for (int a = 0; a < event.num_args; ++a) {
      writer.NumberArg(event.args[a].key, event.args[a].value);
    }
    writer.EndEvent();
  }
  writer.Finish();
}

Status FlightRecorder::WriteChromeTraceFile(const std::string& path) const {
  RETURN_IF_ERROR(EnsureParentDirectory(path));
  std::ofstream out(path);
  if (!out) {
    return InternalError("cannot open " + path + " for writing");
  }
  WriteChromeTraceJson(out);
  if (!out) {
    return InternalError("write failed for " + path);
  }
  return Status::Ok();
}

}  // namespace sarathi
