#include "src/obs/tracer.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <utility>

#include "src/common/logging.h"

namespace sarathi {
namespace {

// Pool chunk size; a longer string gets a chunk of its own.
constexpr size_t kPoolChunkBytes = 16 * 1024;
// Rendered JSON is handed to the stream in chunks of about this size.
constexpr size_t kJsonFlushBytes = 256 * 1024;
// Upper bound on the bytes one number or integer renders to.
constexpr size_t kNumberRoom = 32;

bool NeedsJsonEscape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

char* WriteLiteral(char* p, std::string_view literal) {
  std::memcpy(p, literal.data(), literal.size());
  return p + literal.size();
}

char* WriteInteger(char* p, int64_t value) {
  return std::to_chars(p, p + kNumberRoom, value).ptr;
}

char* WriteJsonNumber(char* p, double value) {
  if (!std::isfinite(value)) {
    value = 0.0;
  }
  // Fast path: "%.12g" prints an integer below 1e12 in magnitude as its
  // digits (its exponent is under the precision), except -0 which keeps its
  // sign. Token counts, ids and KV block counts all take this path.
  if (value > -1e12 && value < 1e12) {
    const int64_t integer = static_cast<int64_t>(value);
    if (static_cast<double>(integer) == value && (integer != 0 || !std::signbit(value))) {
      return WriteInteger(p, integer);
    }
  }
  return std::to_chars(p, p + kNumberRoom, value, std::chars_format::general, 12).ptr;
}

// Worst case: every byte becomes a six-byte \u00XX escape.
size_t EscapedRoom(std::string_view value) { return 6 * value.size(); }

char* WriteJsonEscaped(char* p, std::string_view value) {
  size_t clean = 0;
  while (clean < value.size() && !NeedsJsonEscape(value[clean])) {
    ++clean;
  }
  std::memcpy(p, value.data(), clean);
  p += clean;
  for (char c : value.substr(clean)) {
    switch (c) {
      case '"':
        p = WriteLiteral(p, "\\\"");
        break;
      case '\\':
        p = WriteLiteral(p, "\\\\");
        break;
      case '\n':
        p = WriteLiteral(p, "\\n");
        break;
      case '\r':
        p = WriteLiteral(p, "\\r");
        break;
      case '\t':
        p = WriteLiteral(p, "\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          p = WriteLiteral(p, "\\u00");
          *p++ = kHex[(c >> 4) & 0xf];
          *p++ = kHex[c & 0xf];
        } else {
          *p++ = c;
        }
    }
  }
  return p;
}

}  // namespace

std::string JsonEscape(std::string_view value) {
  std::string escaped(EscapedRoom(value), '\0');
  escaped.resize(static_cast<size_t>(WriteJsonEscaped(escaped.data(), value) - escaped.data()));
  return escaped;
}

ChromeTraceWriter::ChromeTraceWriter(std::ostream& out)
    : out_(out),
      buffer_(std::make_unique_for_overwrite<char[]>(kJsonFlushBytes)),
      capacity_(kJsonFlushBytes) {
  Commit(WriteLiteral(Room(64), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
}

char* ChromeTraceWriter::Room(size_t n) {
  if (size_ + n > capacity_) {
    out_.write(buffer_.get(), static_cast<std::streamsize>(size_));
    size_ = 0;
    if (n > capacity_) {
      buffer_ = std::make_unique_for_overwrite<char[]>(n);
      capacity_ = n;
    }
  }
  return buffer_.get() + size_;
}

void ChromeTraceWriter::BeginEvent(TracePhase phase, int pid, int tid, double ts_s,
                                   const char* name, const char* category, double dur_s,
                                   int64_t id) {
  const std::string_view name_view(name);
  const std::string_view category_view(category);
  char* p = Room(128 + 4 * kNumberRoom + EscapedRoom(name_view) + EscapedRoom(category_view));
  p = WriteLiteral(p, first_event_ ? "\n{\"ph\":\"" : ",\n{\"ph\":\"");
  first_event_ = false;
  first_arg_ = true;
  *p++ = static_cast<char>(phase);
  p = WriteLiteral(p, "\",\"pid\":");
  p = WriteInteger(p, pid);
  p = WriteLiteral(p, ",\"tid\":");
  p = WriteInteger(p, tid);
  p = WriteLiteral(p, ",\"ts\":");
  p = WriteJsonNumber(p, ts_s * 1e6);
  p = WriteLiteral(p, ",\"name\":\"");
  p = WriteJsonEscaped(p, name_view);
  *p++ = '"';
  if (!category_view.empty()) {
    p = WriteLiteral(p, ",\"cat\":\"");
    p = WriteJsonEscaped(p, category_view);
    *p++ = '"';
  }
  switch (phase) {
    case TracePhase::kComplete:
      p = WriteLiteral(p, ",\"dur\":");
      p = WriteJsonNumber(p, dur_s * 1e6);
      break;
    case TracePhase::kInstant:
      p = WriteLiteral(p, ",\"s\":\"t\"");  // Instant scoped to its thread track.
      break;
    case TracePhase::kAsyncBegin:
    case TracePhase::kAsyncEnd:
      p = WriteLiteral(p, ",\"id\":\"");
      p = WriteInteger(p, id);
      *p++ = '"';
      break;
    case TracePhase::kCounter:
    case TracePhase::kMetadata:
      break;
  }
  Commit(p);
}

char* ChromeTraceWriter::ArgKey(const char* key, size_t value_room) {
  const std::string_view key_view(key);
  char* p = Room(16 + EscapedRoom(key_view) + value_room);
  p = WriteLiteral(p, first_arg_ ? ",\"args\":{\"" : ",\"");
  first_arg_ = false;
  p = WriteJsonEscaped(p, key_view);
  return WriteLiteral(p, "\":");
}

void ChromeTraceWriter::NumberArg(const char* key, double value) {
  Commit(WriteJsonNumber(ArgKey(key, kNumberRoom), value));
}

void ChromeTraceWriter::TextArg(const char* key, const char* text) {
  const std::string_view text_view(text);
  char* p = ArgKey(key, 2 + EscapedRoom(text_view));
  *p++ = '"';
  p = WriteJsonEscaped(p, text_view);
  *p++ = '"';
  Commit(p);
}

void ChromeTraceWriter::EndEvent() {
  char* p = Room(2);
  if (!first_arg_) {
    *p++ = '}';
  }
  *p++ = '}';
  Commit(p);
}

void ChromeTraceWriter::Finish() {
  Commit(WriteLiteral(Room(8), "\n]}\n"));
  out_.write(buffer_.get(), static_cast<std::streamsize>(size_));
  size_ = 0;
}

Status EnsureParentDirectory(const std::string& path) {
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (parent.empty()) {
    return Status::Ok();
  }
  std::error_code ec;
  std::filesystem::create_directories(parent, ec);
  if (ec) {
    return InternalError("cannot create directory " + parent.string() + ": " + ec.message());
  }
  return Status::Ok();
}

const char* Tracer::Pool(std::string_view text) {
  const size_t need = text.size() + 1;
  if (need > pool_left_) {
    const size_t size = std::max(need, kPoolChunkBytes);
    pool_chunks_.push_back(std::make_unique_for_overwrite<char[]>(size));
    pool_next_ = pool_chunks_.back().get();
    pool_left_ = size;
  }
  char* copy = pool_next_;
  std::memcpy(copy, text.data(), text.size());
  copy[text.size()] = '\0';
  pool_next_ += need;
  pool_left_ -= need;
  return copy;
}

TraceEvent& Tracer::Record(TracePhase phase, const char* category, const char* name,
                           double ts_s, std::initializer_list<TraceArg> args) {
  TraceEvent& event = *new (events_.Extend(1)) TraceEvent();
  event.phase = phase;
  event.pid = default_pid_;
  event.category_cstr = category;
  event.name_cstr = name;
  event.ts_s = ts_s;
  if (args.size() > 0) {
    CHECK_LE(args.size(), size_t{UINT8_MAX});
    TraceArg* slots = args_.Extend(args.size());
    std::uninitialized_copy(args.begin(), args.end(), slots);
    event.arg_data = slots;
    event.num_args = static_cast<uint8_t>(args.size());
  }
  return event;
}

void Tracer::SetProcessName(int pid, std::string_view name) {
  Record(TracePhase::kMetadata, "", "process_name", 0.0, {Arg("name", Pool(name))}).pid = pid;
}

void Tracer::SetThreadName(int tid, std::string_view name) {
  Record(TracePhase::kMetadata, "", "thread_name", 0.0, {Arg("name", Pool(name))}).tid = tid;
}

void Tracer::Complete(const char* category, const char* name, double start_s, double dur_s,
                      int tid, std::initializer_list<TraceArg> args) {
  TraceEvent& event = Record(TracePhase::kComplete, category, name, start_s, args);
  event.dur_s = dur_s;
  event.tid = tid;
}

void Tracer::Instant(const char* category, const char* name, double ts_s,
                     std::initializer_list<TraceArg> args) {
  Record(TracePhase::kInstant, category, name, ts_s, args);
}

void Tracer::Counter(const char* category, const char* name, double ts_s, double value) {
  Record(TracePhase::kCounter, category, name, ts_s, {}).value = value;
}

void Tracer::AsyncBegin(const char* category, const char* name, int64_t id, double ts_s,
                        std::initializer_list<TraceArg> args) {
  Record(TracePhase::kAsyncBegin, category, name, ts_s, args).id = id;
}

void Tracer::AsyncEnd(const char* category, const char* name, int64_t id, double ts_s,
                      std::initializer_list<TraceArg> args) {
  Record(TracePhase::kAsyncEnd, category, name, ts_s, args).id = id;
}

void Tracer::Append(Tracer&& other) {
  events_.Splice(std::move(other.events_));
  args_.Splice(std::move(other.args_));
  // Chunks own the pooled bytes by pointer, so moving them keeps every
  // appended event's names valid; this tracer keeps filling its own chunk.
  pool_chunks_.insert(pool_chunks_.end(), std::make_move_iterator(other.pool_chunks_.begin()),
                      std::make_move_iterator(other.pool_chunks_.end()));
  other.Clear();
}

void Tracer::Clear() {
  events_.Clear();
  args_.Clear();
  pool_chunks_.clear();
  pool_next_ = nullptr;
  pool_left_ = 0;
}

std::vector<const TraceEvent*> Tracer::EventsWithPhase(TracePhase phase) const {
  std::vector<const TraceEvent*> matched;
  for (const TraceEvent& event : events_) {
    if (event.phase == phase) {
      matched.push_back(&event);
    }
  }
  return matched;
}

void Tracer::WriteChromeTraceJson(std::ostream& out) const {
  // Metadata first in recording order, then the rest by time, with equal
  // times in recording order (begin before end, begin before nested begin).
  // Recording order is nearly time order (a replica's 87k-event trace has
  // under 100 descents; a cluster trace is one run per replica), so the
  // ascending runs of recording order are merged pairwise: O(n log runs),
  // and stable, since each merge takes ties from the earlier run first. A
  // NaN time sorts as the 0 it prints as, which keeps the order strict.
  struct Key {
    double ts_s;
    const TraceEvent* event;
  };
  std::vector<Key> order;
  order.reserve(events_.size());
  for (const TraceEvent& event : events_) {
    if (event.phase == TracePhase::kMetadata) {
      order.push_back(Key{0.0, &event});
    }
  }
  const size_t num_metadata = order.size();
  std::vector<size_t> runs;  // Start of each ascending run, then the end.
  for (const TraceEvent& event : events_) {
    if (event.phase != TracePhase::kMetadata) {
      const Key key{std::isnan(event.ts_s) ? 0.0 : event.ts_s, &event};
      if (order.size() == num_metadata || key.ts_s < order.back().ts_s) {
        runs.push_back(order.size());
      }
      order.push_back(key);
    }
  }
  runs.push_back(order.size());
  std::vector<Key> merged(order.size());
  auto by_time = [](const Key& a, const Key& b) { return a.ts_s < b.ts_s; };
  while (runs.size() > 2) {
    std::vector<size_t> next;
    for (size_t r = 0; r + 1 < runs.size(); r += 2) {
      const auto first = order.begin() + static_cast<std::ptrdiff_t>(runs[r]);
      const auto middle = order.begin() + static_cast<std::ptrdiff_t>(runs[r + 1]);
      const auto last = r + 2 < runs.size()
                            ? order.begin() + static_cast<std::ptrdiff_t>(runs[r + 2])
                            : middle;
      std::merge(first, middle, middle, last,
                 merged.begin() + static_cast<std::ptrdiff_t>(runs[r]), by_time);
      next.push_back(runs[r]);
    }
    next.push_back(order.size());
    std::copy(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(num_metadata),
              merged.begin());
    order.swap(merged);
    runs.swap(next);
  }

  ChromeTraceWriter writer(out);
  for (const Key& key : order) {
    const TraceEvent& event = *key.event;
    const bool async =
        event.phase == TracePhase::kAsyncBegin || event.phase == TracePhase::kAsyncEnd;
    writer.BeginEvent(event.phase, event.pid, event.tid, event.ts_s, event.name_cstr,
                      event.category_cstr,
                      event.phase == TracePhase::kComplete ? event.dur_s : 0.0,
                      async ? event.id : 0);
    if (event.phase == TracePhase::kCounter) {
      writer.NumberArg("value", event.value);
    } else {
      for (const TraceArg& arg : event.args()) {
        if (arg.is_number()) {
          writer.NumberArg(arg.key, arg.number);
        } else {
          writer.TextArg(arg.key, arg.text);
        }
      }
    }
    writer.EndEvent();
  }
  writer.Finish();
}

Status Tracer::WriteChromeTraceFile(const std::string& path) const {
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

void Tracer::WriteSpanCsv(std::ostream& out) const {
  out << "pid,category,id,name,begin_s,end_s,duration_s\n";
  // Match begin/end pairs in event order; an end closes the most recent open
  // begin with the same (pid, category, id, name).
  struct OpenSpan {
    const TraceEvent* begin;
    bool closed = false;
    double end_s = -1.0;
  };
  std::vector<OpenSpan> spans;
  for (const TraceEvent& event : events_) {
    if (event.phase == TracePhase::kAsyncBegin) {
      spans.push_back(OpenSpan{&event});
    } else if (event.phase == TracePhase::kAsyncEnd) {
      for (auto it = spans.rbegin(); it != spans.rend(); ++it) {
        const TraceEvent& begin = *it->begin;
        if (!it->closed && begin.pid == event.pid && begin.id == event.id &&
            begin.category() == event.category() && begin.name() == event.name()) {
          it->closed = true;
          it->end_s = event.ts_s;
          break;
        }
      }
    }
  }
  for (const OpenSpan& span : spans) {
    const TraceEvent& begin = *span.begin;
    double duration = span.closed ? span.end_s - begin.ts_s : -1.0;
    out << begin.pid << ',' << begin.category() << ',' << begin.id << ',' << begin.name() << ','
        << begin.ts_s << ',' << (span.closed ? span.end_s : -1.0) << ',' << duration << '\n';
  }
}

Status Tracer::WriteSpanCsvFile(const std::string& path) const {
  RETURN_IF_ERROR(EnsureParentDirectory(path));
  std::ofstream out(path);
  if (!out) {
    return InternalError("cannot open " + path + " for writing");
  }
  WriteSpanCsv(out);
  if (!out) {
    return InternalError("write failed for " + path);
  }
  return Status::Ok();
}

}  // namespace sarathi
