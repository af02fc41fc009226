// Tests for the observability subsystem: tracer event recording and ordering,
// async span nesting, the disabled-tracer zero-allocation guarantee, Chrome
// trace JSON validity (checked with a minimal recursive-descent parser),
// span/time-series CSV shape and escaping round-trips, histogram percentiles,
// metric window semantics, telemetry directory creation, and the instrumented
// replica/cluster simulators.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/serving_system.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/inspect.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/slo_monitor.h"
#include "src/obs/tracer.h"
#include "src/simulator/cluster_simulator.h"
#include "src/simulator/replica_simulator.h"
#include "src/simulator/telemetry.h"
#include "src/workload/trace.h"

namespace sarathi {
namespace {

// ---- Minimal JSON validator (recursive descent, syntax only) ----

class MiniJsonParser {
 public:
  explicit MiniJsonParser(const std::string& text) : text_(text) {}

  bool Validate() {
    SkipWs();
    if (!ParseValue()) {
      return false;
    }
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool ParseValue() {
    if (pos_ >= text_.size()) {
      return false;
    }
    char c = text_[pos_];
    if (c == '{') {
      return ParseObject();
    }
    if (c == '[') {
      return ParseArray();
    }
    if (c == '"') {
      return ParseString();
    }
    if (c == 't') {
      return Literal("true");
    }
    if (c == 'f') {
      return Literal("false");
    }
    if (c == 'n') {
      return Literal("null");
    }
    return ParseNumber();
  }

  bool ParseObject() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!ParseString()) {
        return false;
      }
      SkipWs();
      if (Peek() != ':') {
        return false;
      }
      ++pos_;
      SkipWs();
      if (!ParseValue()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseArray() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!ParseValue()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseString() {
    if (Peek() != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // Raw control character: must be escaped.
      }
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) {
          return false;
        }
        char e = text_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() || !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool ParseNumber() {
    size_t start = pos_;
    if (Peek() == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start || (text_[start] == '-' && pos_ == start + 1)) {
      return false;
    }
    if (Peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) {
        return false;
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') {
        ++pos_;
      }
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) {
        return false;
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    return true;
  }

  bool Literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= text_.size() || text_[pos_] != *p) {
        return false;
      }
    }
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                                   text_[pos_] == '\r' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ---- Minimal RFC 4180 CSV parser (handles quoted commas/quotes/newlines) ----

std::vector<std::vector<std::string>> ParseCsv(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      row.push_back(field);
      field.clear();
    } else if (c == '\n') {
      row.push_back(field);
      field.clear();
      rows.push_back(row);
      row.clear();
    } else {
      field += c;
    }
  }
  if (!field.empty() || !row.empty()) {
    row.push_back(field);
    rows.push_back(row);
  }
  return rows;
}

std::string TestDir(const std::string& leaf) {
  std::string dir = ::testing::TempDir() + "sarathi_obs_test/" + leaf;
  std::filesystem::remove_all(dir);
  return dir;
}

// ---- Tracer ----

TEST(TracerTest, RecordsInOrderAndStampsFields) {
  Tracer tracer;
  tracer.set_default_pid(3);
  tracer.Instant("cat", "a", 3.0);
  tracer.Instant("cat", "b", 1.0);
  tracer.Counter("kv", "blocks", 2.0, 12.0);

  ASSERT_EQ(tracer.size(), 3u);
  std::vector<const TraceEvent*> events;
  for (const TraceEvent& event : tracer.events()) {
    events.push_back(&event);
  }
  EXPECT_EQ(events[0]->name(), "a");  // Recording order, not time order.
  EXPECT_EQ(events[1]->name(), "b");
  EXPECT_EQ(events[0]->pid, 3);
  EXPECT_EQ(events[2]->phase, TracePhase::kCounter);
  EXPECT_DOUBLE_EQ(events[2]->value, 12.0);

  auto instants = tracer.EventsWithPhase(TracePhase::kInstant);
  ASSERT_EQ(instants.size(), 2u);
  EXPECT_EQ(instants[0]->name(), "a");
}

TEST(TracerTest, ChromeJsonSortsByTimeAfterMetadata) {
  Tracer tracer;
  tracer.SetProcessName(0, "replica 0");
  tracer.Instant("cat", "late", 3.0);
  tracer.Instant("cat", "early", 1.0);
  std::ostringstream out;
  tracer.WriteChromeTraceJson(out);
  std::string json = out.str();

  size_t meta = json.find("process_name");
  size_t early = json.find("\"name\":\"early\"");
  size_t late = json.find("\"name\":\"late\"");
  ASSERT_NE(meta, std::string::npos);
  ASSERT_NE(early, std::string::npos);
  ASSERT_NE(late, std::string::npos);
  EXPECT_LT(meta, early);  // Metadata first.
  EXPECT_LT(early, late);  // Then ascending time, despite recording order.
}

TEST(TracerTest, ChromeJsonIsValidWithHostileStrings) {
  Tracer tracer;
  tracer.SetProcessName(0, "name with \"quotes\" and \\backslash\\");
  tracer.Complete("iteration", "line\nbreak,comma\ttab", 0.0, 0.5, 0,
                  {Arg("note", "a\"b\nc"), Arg("count", int64_t{3})});
  tracer.Instant("fault", "crash \x01 control", 1.0);
  tracer.AsyncBegin("request", "request", 42, 0.0, {Arg("prompt", 1024.0)});
  tracer.AsyncEnd("request", "request", 42, 2.0);
  tracer.Counter("kv", "blocks", 0.5, 7.0);

  std::ostringstream out;
  tracer.WriteChromeTraceJson(out);
  std::string json = out.str();
  EXPECT_TRUE(MiniJsonParser(json).Validate()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
}

TEST(TracerTest, JsonEscapeHandlesControlCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(TracerTest, SpanCsvNestsChildSpansInsideParent) {
  Tracer tracer;
  tracer.set_default_pid(1);
  tracer.AsyncBegin("request", "request", 7, 0.0);
  tracer.AsyncBegin("request", "queued", 7, 0.0);
  tracer.AsyncEnd("request", "queued", 7, 1.0);
  tracer.AsyncBegin("request", "prefill", 7, 1.0);
  tracer.AsyncEnd("request", "prefill", 7, 2.5);
  tracer.AsyncBegin("request", "decode", 7, 2.5);  // Left open deliberately.
  tracer.AsyncEnd("request", "request", 7, 4.0);

  std::ostringstream out;
  tracer.WriteSpanCsv(out);
  auto rows = ParseCsv(out.str());
  ASSERT_EQ(rows.size(), 5u);  // Header + 4 spans.
  EXPECT_EQ(rows[0][0], "pid");

  double parent_begin = -1.0;
  double parent_end = -1.0;
  bool saw_open_decode = false;
  for (size_t i = 1; i < rows.size(); ++i) {
    ASSERT_EQ(rows[i].size(), 7u);
    EXPECT_EQ(rows[i][0], "1");
    EXPECT_EQ(rows[i][2], "7");
    if (rows[i][3] == "request") {
      parent_begin = std::stod(rows[i][4]);
      parent_end = std::stod(rows[i][5]);
    }
    if (rows[i][3] == "decode") {
      saw_open_decode = true;
      EXPECT_EQ(rows[i][5], "-1");  // Unclosed span.
      EXPECT_EQ(rows[i][6], "-1");
    }
  }
  EXPECT_TRUE(saw_open_decode);
  EXPECT_DOUBLE_EQ(parent_begin, 0.0);
  EXPECT_DOUBLE_EQ(parent_end, 4.0);
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i][3] == "queued" || rows[i][3] == "prefill") {
      EXPECT_GE(std::stod(rows[i][4]), parent_begin);
      EXPECT_LE(std::stod(rows[i][5]), parent_end);
    }
  }
}

TEST(TracerTest, AppendMergesEventsVerbatim) {
  Tracer replica;
  replica.set_default_pid(2);
  replica.Instant("scheduler", "admit", 1.0);

  Tracer merged;
  merged.set_default_pid(9);  // Must not rewrite the appended event's pid.
  merged.Append(std::move(replica));
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged.events().begin()->pid, 2);
}

TEST(TracerTest, WriteFilesCreateParentDirectories) {
  std::string dir = TestDir("tracer_files");
  Tracer tracer;
  tracer.Instant("cat", "evt", 0.5);
  std::string json_path = dir + "/a/b/trace.json";
  std::string csv_path = dir + "/c/spans.csv";
  ASSERT_TRUE(tracer.WriteChromeTraceFile(json_path).ok());
  ASSERT_TRUE(tracer.WriteSpanCsvFile(csv_path).ok());
  EXPECT_TRUE(std::filesystem::exists(json_path));
  EXPECT_TRUE(std::filesystem::exists(csv_path));
}

TEST(TracerTest, WriteFileFailsWhenParentIsAFile) {
  std::string dir = TestDir("tracer_blocked");
  std::filesystem::create_directories(dir);
  std::string blocker = dir + "/file";
  std::ofstream(blocker) << "x";
  Tracer tracer;
  tracer.Instant("cat", "evt", 0.5);
  Status status = tracer.WriteChromeTraceFile(blocker + "/trace.json");
  EXPECT_FALSE(status.ok());
}

// ---- Chrome-trace writer parity ----
//
// Reference model: the ostream + snprintf("%.12g") writer the tracer and the
// flight recorder used before they rendered into one buffer with
// std::to_chars. The production writers must match it byte for byte.

std::string RefNumber(double value) {
  if (!std::isfinite(value)) {
    value = 0.0;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.12g", value);
  return buffer;
}

std::string RefEscape(const std::string& value) {
  std::string escaped;
  for (char c : value) {
    switch (c) {
      case '"':
        escaped += "\\\"";
        break;
      case '\\':
        escaped += "\\\\";
        break;
      case '\n':
        escaped += "\\n";
        break;
      case '\r':
        escaped += "\\r";
        break;
      case '\t':
        escaped += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          escaped += buffer;
        } else {
          escaped += c;
        }
    }
  }
  return escaped;
}

void RefEventHead(std::ostream& out, TracePhase phase, int pid, int tid, double ts_s,
                  const std::string& name, const std::string& category, double dur_s,
                  int64_t id) {
  out << "\n{\"ph\":\"" << static_cast<char>(phase) << "\",\"pid\":" << pid
      << ",\"tid\":" << tid << ",\"ts\":" << RefNumber(ts_s * 1e6);
  out << ",\"name\":\"" << RefEscape(name) << '"';
  if (!category.empty()) {
    out << ",\"cat\":\"" << RefEscape(category) << '"';
  }
  switch (phase) {
    case TracePhase::kComplete:
      out << ",\"dur\":" << RefNumber(dur_s * 1e6);
      break;
    case TracePhase::kInstant:
      out << ",\"s\":\"t\"";
      break;
    case TracePhase::kAsyncBegin:
    case TracePhase::kAsyncEnd:
      out << ",\"id\":\"" << id << '"';
      break;
    case TracePhase::kCounter:
    case TracePhase::kMetadata:
      break;
  }
}

std::string RefTracerJson(const Tracer& tracer) {
  std::vector<const TraceEvent*> ordered;
  for (const TraceEvent& event : tracer.events()) {
    if (event.phase == TracePhase::kMetadata) {
      ordered.push_back(&event);
    }
  }
  size_t num_metadata = ordered.size();
  for (const TraceEvent& event : tracer.events()) {
    if (event.phase != TracePhase::kMetadata) {
      ordered.push_back(&event);
    }
  }
  std::stable_sort(ordered.begin() + static_cast<long>(num_metadata), ordered.end(),
                   [](const TraceEvent* a, const TraceEvent* b) { return a->ts_s < b->ts_s; });
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < ordered.size(); ++i) {
    const TraceEvent& event = *ordered[i];
    if (i > 0) {
      out << ",";
    }
    const bool async =
        event.phase == TracePhase::kAsyncBegin || event.phase == TracePhase::kAsyncEnd;
    RefEventHead(out, event.phase, event.pid, event.tid, event.ts_s, std::string(event.name()),
                 std::string(event.category()),
                 event.phase == TracePhase::kComplete ? event.dur_s : 0.0, async ? event.id : 0);
    std::span<const TraceArg> args = event.args();
    if (event.phase == TracePhase::kCounter) {
      out << ",\"args\":{\"value\":" << RefNumber(event.value) << '}';
    } else if (!args.empty()) {
      out << ",\"args\":{";
      for (size_t a = 0; a < args.size(); ++a) {
        const TraceArg& arg = args[a];
        out << (a > 0 ? "," : "") << '"' << RefEscape(arg.key) << "\":";
        if (arg.is_number()) {
          out << RefNumber(arg.number);
        } else {
          out << '"' << RefEscape(arg.text) << '"';
        }
      }
      out << '}';
    }
    out << '}';
  }
  out << "\n]}\n";
  return out.str();
}

std::string RefFlightJson(const FlightRecorder& recorder) {
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  std::vector<FlightEvent> events = recorder.Snapshot();
  for (size_t i = 0; i < events.size(); ++i) {
    const FlightEvent& event = events[i];
    if (i > 0) {
      out << ',';
    }
    RefEventHead(out, event.phase, event.pid, event.tid, event.ts_s, event.name, event.category,
                 event.dur_s, event.id);
    if (event.num_args > 0) {
      out << ",\"args\":{";
      for (int a = 0; a < event.num_args; ++a) {
        out << (a > 0 ? "," : "") << '"' << RefEscape(event.args[a].key)
            << "\":" << RefNumber(event.args[a].value);
      }
      out << '}';
    }
    out << '}';
  }
  out << "\n]}\n";
  return out.str();
}

std::string TracerJson(const Tracer& tracer) {
  std::ostringstream out;
  tracer.WriteChromeTraceJson(out);
  return out.str();
}

// Values whose "%.12g" rendering has corner cases: exponent switch-over on
// both sides, rounding at the 12th digit, negative zero, subnormals, and the
// non-finite values JSON cannot carry (printed as 0).
const std::vector<double>& EdgeNumbers() {
  static const std::vector<double> values = {
      0.0,
      -0.0,
      1e-5,
      1e-4,
      0.0001234567890123,
      1e15,
      1e16,
      999999999999.5,
      123456789012.345,
      0.1,
      1.0 / 3.0,
      -2.5,
      42.0,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3.0,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
  };
  return values;
}

TEST(ChromeWriterParityTest, EdgeNumbersMatchPrintf) {
  Tracer tracer;
  for (double value : EdgeNumbers()) {
    tracer.Counter("kv", "blocks", 1.0, value);
    tracer.Complete("iteration", "slice", 2.0, value, 0, {Arg("n", value)});
    if (!std::isnan(value)) {
      tracer.Instant("cat", "at", value);
    }
  }
  EXPECT_EQ(TracerJson(tracer), RefTracerJson(tracer));
}

TEST(ChromeWriterParityTest, EscapingMatchesReference) {
  std::string every_byte;
  for (int c = 1; c < 256; ++c) {
    every_byte.push_back(static_cast<char>(c));
  }
  for (const std::string& value :
       {std::string(""), std::string("plain"), std::string("q\"uote"), std::string("back\\slash"),
        std::string("tab\there\r\n"), std::string("ctl\x01\x1f\x7f"), every_byte}) {
    EXPECT_EQ(JsonEscape(value), RefEscape(value));
  }
}

TEST(ChromeWriterParityTest, RandomTracesMatchReferenceWriter) {
  // Hostile names are pooled copies, so they also exercise Pool().
  const std::vector<std::string> hostile = {
      "plain", "", "with \"quotes\"", "back\\slash", "line\nbreak\ttab\r", "ctl \x01\x02\x1f",
      "utf8 \xc3\xa9", "p12(256)+p13(512)+4d"};
  const char* const literals[] = {"iteration", "request", "admit", "kv", "", "router"};
  std::mt19937_64 rng(20240517);
  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  for (int round = 0; round < 40; ++round) {
    Tracer tracer;
    auto text = [&]() -> const char* {
      return pick(2) == 0 ? literals[pick(std::size(literals))]
                          : tracer.Pool(hostile[pick(hostile.size())]);
    };
    auto number = [&]() -> double {
      if (pick(3) == 0) {
        return EdgeNumbers()[pick(EdgeNumbers().size())];
      }
      return std::ldexp(static_cast<double>(rng() % 2000001) - 1000000.0,
                        static_cast<int>(pick(80)) - 60);
    };
    // Few distinct times, so many events tie and must keep recording order;
    // infinities are valid sort keys that print as 0.
    auto time = [&]() -> double {
      switch (pick(4)) {
        case 0:
          return 0.001 * static_cast<double>(pick(5));
        case 1:
          return pick(20) == 0 ? std::numeric_limits<double>::infinity() : -0.0;
        default: {
          const double value = number();
          return std::isnan(value) ? 1.0 : std::abs(value) * 1e-9;
        }
      }
    };
    const int num_events = 1 + static_cast<int>(pick(300));
    for (int i = 0; i < num_events; ++i) {
      tracer.set_default_pid(static_cast<int>(pick(4)));
      TraceArg args[4];
      for (TraceArg& arg : args) {
        arg = pick(3) == 0 ? Arg(literals[pick(4)], text()) : Arg("n\"k", number());
      }
      const int kind = static_cast<int>(pick(7));
      auto emit = [&](std::initializer_list<TraceArg> list) {
        switch (kind) {
          case 0:
            tracer.SetProcessName(static_cast<int>(pick(4)), hostile[pick(hostile.size())]);
            break;
          case 1:
            tracer.SetThreadName(static_cast<int>(pick(3)), hostile[pick(hostile.size())]);
            break;
          case 2:
            tracer.Complete(text(), text(), time(), number(), static_cast<int>(pick(3)), list);
            break;
          case 3:
            tracer.Instant(text(), text(), time(), list);
            break;
          case 4:
            tracer.Counter(text(), text(), time(), number());
            break;
          case 5:
            tracer.AsyncBegin(text(), text(), static_cast<int64_t>(rng()), time(), list);
            break;
          default:
            tracer.AsyncEnd(text(), text(), -static_cast<int64_t>(pick(100)), time(), list);
            break;
        }
      };
      switch (pick(5)) {
        case 0:
          emit({});
          break;
        case 1:
          emit({args[0]});
          break;
        case 2:
          emit({args[0], args[1]});
          break;
        case 3:
          emit({args[0], args[1], args[2]});
          break;
        default:
          emit({args[0], args[1], args[2], args[3]});
          break;
      }
    }
    ASSERT_EQ(TracerJson(tracer), RefTracerJson(tracer)) << "round " << round;
  }
}

TEST(ChromeWriterParityTest, MetadataFirstAndTiesKeepRecordingOrder) {
  Tracer tracer;
  tracer.Instant("cat", "first", 1.0);
  tracer.AsyncBegin("request", "request", 7, 1.0);
  tracer.Instant("cat", "early", 0.5);
  tracer.SetProcessName(0, "replica 0");
  tracer.AsyncBegin("request", "queued", 7, 1.0);
  tracer.AsyncEnd("request", "queued", 7, 1.0);
  tracer.SetThreadName(0, "stage 0");
  tracer.Instant("cat", "last", 1.0);
  std::string json = TracerJson(tracer);
  EXPECT_EQ(json, RefTracerJson(tracer));
  std::vector<size_t> at;
  for (const char* needle :
       {"\"replica 0\"", "\"stage 0\"", "\"early\"", "\"first\"", "\"name\":\"request\"",
        "\"name\":\"queued\",\"cat\":\"request\",\"id\":\"7\"}",
        "\"ph\":\"e\",\"pid\":0,\"tid\":0,\"ts\":1000000,\"name\":\"queued\"", "\"last\""}) {
    at.push_back(json.find(needle));
    ASSERT_NE(at.back(), std::string::npos) << needle;
  }
  EXPECT_TRUE(std::is_sorted(at.begin(), at.end()));
}

TEST(ChromeWriterParityTest, WriterOutputSurvivesSmallFlushChunksAndAppend) {
  // Large enough that the writer flushes mid-stream, and merged from two
  // tracers so moved pool chunks must still hold their names.
  Tracer merged;
  merged.SetProcessName(2, "router");
  for (int r = 0; r < 2; ++r) {
    Tracer replica;
    replica.set_default_pid(r);
    replica.SetProcessName(r, "replica " + std::to_string(r));
    for (int i = 0; i < 20000; ++i) {
      std::string name = "p" + std::to_string(i) + "(" + std::to_string(i % 512) + ")";
      replica.Complete("iteration", replica.Pool(name), 0.01 * (i % 977), 0.005, 0,
                       {Arg("tokens", int64_t{i}), Arg("note", replica.Pool(name))});
    }
    merged.Append(std::move(replica));
    EXPECT_TRUE(replica.empty());
  }
  EXPECT_EQ(merged.size(), 40003u);
  EXPECT_EQ(TracerJson(merged), RefTracerJson(merged));
}

TEST(ChromeWriterParityTest, FlightDumpMatchesReferenceWriter) {
  FlightRecorder::Options options;
  options.capacity = 64;
  FlightRecorder recorder(options);
  std::mt19937_64 rng(7);
  const auto& edges = EdgeNumbers();
  for (int i = 0; i < 200; ++i) {
    double v = edges[rng() % edges.size()];
    double t = 0.25 * static_cast<double>(i);
    switch (rng() % 3) {
      case 0:
        recorder.RecordInstant("fault", "crash", t, 1, {{"q\"key", v}, {"x", 1e-5}});
        break;
      case 1:
        recorder.RecordComplete("iteration", "iteration", t, v, 0, 2, {{"tokens", v}});
        break;
      default:
        recorder.RecordCounter("kv", "blocks", v, 3, v);
        break;
    }
  }
  recorder.Trigger("replica_crash", 60.0);
  std::ostringstream out;
  recorder.WriteChromeTraceJson(out);
  EXPECT_EQ(out.str(), RefFlightJson(recorder));
}

// ---- LogHistogram ----

TEST(LogHistogramTest, PercentilesWithinBucketError) {
  LogHistogram hist;
  for (int i = 1; i <= 1000; ++i) {
    hist.Record(static_cast<double>(i));
  }
  EXPECT_EQ(hist.count(), 1000);
  EXPECT_DOUBLE_EQ(hist.Min(), 1.0);
  EXPECT_DOUBLE_EQ(hist.Max(), 1000.0);
  EXPECT_NEAR(hist.Mean(), 500.5, 1e-9);
  // Geometric buckets bound relative error (~7.5% at 32 buckets/decade).
  EXPECT_NEAR(hist.Quantile(0.5), 500.0, 0.1 * 500.0);
  EXPECT_NEAR(hist.Quantile(0.99), 990.0, 0.1 * 990.0);
  EXPECT_DOUBLE_EQ(hist.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(hist.Quantile(1.0), 1000.0);
}

TEST(LogHistogramTest, OutOfRangeSamplesClampButKeepExactExtremes) {
  LogHistogram hist(LogHistogram::Options{1e-3, 1e3, 16});
  hist.Record(1e-9);
  hist.Record(1e9);
  EXPECT_EQ(hist.count(), 2);
  EXPECT_DOUBLE_EQ(hist.Min(), 1e-9);
  EXPECT_DOUBLE_EQ(hist.Max(), 1e9);
  EXPECT_GE(hist.Quantile(0.1), 1e-9);
  EXPECT_LE(hist.Quantile(0.9), 1e9);
}

TEST(LogHistogramTest, MergeAddsCounts) {
  LogHistogram a;
  LogHistogram b;
  for (int i = 0; i < 100; ++i) {
    a.Record(0.01);
    b.Record(1.0);
  }
  a.MergeFrom(b);
  EXPECT_EQ(a.count(), 200);
  EXPECT_NEAR(a.Quantile(0.25), 0.01, 0.002);
  EXPECT_NEAR(a.Quantile(0.75), 1.0, 0.2);
}

TEST(LogHistogramTest, EmptyHistogramReturnsZero) {
  LogHistogram hist;
  EXPECT_TRUE(hist.empty());
  EXPECT_DOUBLE_EQ(hist.Quantile(0.99), 0.0);
  EXPECT_DOUBLE_EQ(hist.Mean(), 0.0);
}

// ---- MetricsRegistry ----

TEST(MetricsRegistryTest, CounterWindowsExportPerSecondRates) {
  MetricsRegistry registry(1.0);
  registry.AddCount("tokens", 0.2);
  registry.AddCount("tokens", 0.7);
  registry.AddCount("tokens", 1.5);
  registry.Finalize(2.0);

  EXPECT_DOUBLE_EQ(registry.CounterTotal("tokens"), 3.0);
  EXPECT_EQ(registry.NumWindows(), 2);

  std::ostringstream out;
  registry.WriteTimeSeriesCsv(out);
  auto rows = ParseCsv(out.str());
  ASSERT_EQ(rows.size(), 3u);
  ASSERT_EQ(rows[0].size(), 2u);
  EXPECT_EQ(rows[0][0], "window_start_s");
  EXPECT_EQ(rows[0][1], "tokens_per_s");
  EXPECT_DOUBLE_EQ(std::stod(rows[1][1]), 2.0);
  EXPECT_DOUBLE_EQ(std::stod(rows[2][1]), 1.0);
}

TEST(MetricsRegistryTest, GaugeWindowsExportTimeWeightedMeans) {
  MetricsRegistry registry(1.0);
  registry.SetGauge("depth", 0.0, 2.0);
  registry.SetGauge("depth", 0.5, 4.0);
  registry.Finalize(1.0);

  EXPECT_DOUBLE_EQ(registry.GaugeValue("depth"), 4.0);
  std::ostringstream out;
  registry.WriteTimeSeriesCsv(out);
  auto rows = ParseCsv(out.str());
  ASSERT_GE(rows.size(), 2u);
  // 2.0 held for half the window, 4.0 for the other half -> mean 3.0.
  EXPECT_NEAR(std::stod(rows[1][1]), 3.0, 1e-9);
}

TEST(MetricsRegistryTest, HistogramWindowsExportPercentileColumns) {
  MetricsRegistry registry(1.0);
  for (int i = 0; i < 50; ++i) {
    registry.Observe("tbt_s", 0.5, 0.02);
    registry.Observe("tbt_s", 1.5, 0.20);
  }
  registry.Finalize(2.0);

  std::ostringstream out;
  registry.WriteTimeSeriesCsv(out);
  auto rows = ParseCsv(out.str());
  ASSERT_EQ(rows.size(), 3u);
  ASSERT_EQ(rows[0].size(), 4u);
  EXPECT_EQ(rows[0][1], "tbt_s_p50");
  EXPECT_EQ(rows[0][2], "tbt_s_p99");
  EXPECT_EQ(rows[0][3], "tbt_s_count");
  EXPECT_NEAR(std::stod(rows[1][1]), 0.02, 0.005);
  EXPECT_NEAR(std::stod(rows[2][1]), 0.20, 0.05);
  EXPECT_DOUBLE_EQ(std::stod(rows[1][3]), 50.0);

  const LogHistogram* cumulative = registry.FindHistogram("tbt_s");
  ASSERT_NE(cumulative, nullptr);
  EXPECT_EQ(cumulative->count(), 100);
}

TEST(MetricsRegistryTest, MergeSumsCountersAndGaugeIntegrals) {
  MetricsRegistry a(1.0);
  MetricsRegistry b(1.0);
  a.AddCount("tokens", 0.5, 10.0);
  b.AddCount("tokens", 0.5, 5.0);
  a.SetGauge("depth", 0.0, 1.0);
  b.SetGauge("depth", 0.0, 2.0);
  a.Finalize(1.0);
  b.Finalize(1.0);
  a.MergeFrom(b);

  EXPECT_DOUBLE_EQ(a.CounterTotal("tokens"), 15.0);
  std::ostringstream out;
  a.WriteTimeSeriesCsv(out);
  auto rows = ParseCsv(out.str());
  ASSERT_GE(rows.size(), 2u);
  size_t depth_col = 0;
  for (size_t c = 0; c < rows[0].size(); ++c) {
    if (rows[0][c] == "depth") {
      depth_col = c;
    }
  }
  ASSERT_GT(depth_col, 0u);
  // Gauges merge additively: cluster-wide total depth 1 + 2 = 3.
  EXPECT_NEAR(std::stod(rows[1][depth_col]), 3.0, 1e-9);
}

TEST(MetricsRegistryTest, WriteTimeSeriesFileCreatesParentDirectories) {
  std::string dir = TestDir("registry_files");
  MetricsRegistry registry(1.0);
  registry.AddCount("x", 0.1);
  registry.Finalize(1.0);
  std::string path = dir + "/nested/ts.csv";
  ASSERT_TRUE(registry.WriteTimeSeriesFile(path).ok());
  EXPECT_TRUE(std::filesystem::exists(path));
}

// ---- CSV escaping ----

TEST(CsvEscapeTest, RoundTripsHostileFields) {
  std::vector<std::string> fields = {
      "plain",
      "with,comma",
      "with \"quotes\"",
      "line\nbreak",
      "crlf\r\nmix",
      "all,of\n\"them\"",
      "",
  };
  std::ostringstream out;
  for (size_t i = 0; i < fields.size(); ++i) {
    out << CsvEscape(fields[i]) << (i + 1 < fields.size() ? "," : "\n");
  }
  auto rows = ParseCsv(out.str());
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].size(), fields.size());
  for (size_t i = 0; i < fields.size(); ++i) {
    EXPECT_EQ(rows[0][i], fields[i]) << "field " << i;
  }
}

TEST(CsvEscapeTest, PlainFieldsPassThroughUnquoted) {
  EXPECT_EQ(CsvEscape("decode: 12 prefill: 3"), "decode: 12 prefill: 3");
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
}

// ---- Telemetry export ----

SimResult SmallRun(Tracer* tracer = nullptr, MetricsRegistry* metrics = nullptr,
                   bool record_iterations = true) {
  Deployment deployment = MistralOnA100();
  SimulatorOptions options;
  options.model = deployment.model;
  options.cluster = deployment.cluster;
  options.parallel = deployment.parallel;
  options.scheduler = SarathiConfig(512);
  options.record_iterations = record_iterations;
  options.tracer = tracer;
  options.metrics = metrics;
  Trace trace = UniformTrace(24, 600, 24, 0.05);
  return ReplicaSimulator(options).Run(trace);
}

TEST(TelemetryTest, ExportCreatesOutputDirectoryRecursively) {
  std::string dir = TestDir("telemetry_export") + "/deep/nested/run";
  SimResult result = SmallRun();
  ASSERT_TRUE(ExportTelemetry(result, dir, "t").ok());
  for (const char* suffix : {"iterations", "requests", "tbt", "aggregate"}) {
    EXPECT_TRUE(std::filesystem::exists(dir + "/t_" + suffix + ".csv")) << suffix;
  }
}

TEST(TelemetryTest, ExportPropagatesDirectoryCreationFailure) {
  std::string dir = TestDir("telemetry_blocked");
  std::filesystem::create_directories(dir);
  std::string blocker = dir + "/file";
  std::ofstream(blocker) << "x";
  SimResult result = SmallRun();
  Status status = ExportTelemetry(result, blocker + "/sub", "t");
  EXPECT_FALSE(status.ok());
}

TEST(TelemetryTest, AggregateReportsKvHighWaterMark) {
  SimResult result = SmallRun();
  EXPECT_GT(result.peak_kv_blocks, 0);
  EXPECT_GT(result.total_kv_blocks, 0);
  EXPECT_GT(result.PeakKvUtilization(), 0.0);
  EXPECT_LE(result.PeakKvUtilization(), 1.0);

  std::ostringstream out;
  WriteAggregateCsv(result, out);
  std::string csv = out.str();
  EXPECT_NE(csv.find("kv_peak_blocks_in_use,"), std::string::npos);
  EXPECT_NE(csv.find("kv_total_blocks,"), std::string::npos);
  EXPECT_NE(csv.find("kv_peak_utilization,"), std::string::npos);
}

// ---- Instrumented simulators ----

TEST(SimulatorObsTest, ReplicaRunEmitsSpansSlicesAndMetrics) {
  Tracer tracer;
  MetricsRegistry registry(0.5);
  SimResult result = SmallRun(&tracer, &registry);

  auto begins = tracer.EventsWithPhase(TracePhase::kAsyncBegin);
  auto ends = tracer.EventsWithPhase(TracePhase::kAsyncEnd);
  EXPECT_EQ(begins.size(), ends.size());  // Every span closes.

  // One top-level span per request, and every lifecycle phase appears.
  std::set<int64_t> span_ids;
  std::set<std::string> span_names;
  for (const TraceEvent* event : begins) {
    span_names.insert(std::string(event->name()));
    if (event->name() == "request") {
      span_ids.insert(event->id);
    }
  }
  EXPECT_EQ(span_ids.size(), result.requests.size());
  EXPECT_TRUE(span_names.count("queued"));
  EXPECT_TRUE(span_names.count("prefill"));
  EXPECT_TRUE(span_names.count("decode"));

  // One complete slice per iteration per pipeline stage (PP=1 here), inside
  // the active window.
  auto slices = tracer.EventsWithPhase(TracePhase::kComplete);
  int64_t iteration_slices = 0;
  for (const TraceEvent* event : slices) {
    if (event->category() == "iteration") {
      ++iteration_slices;
      EXPECT_GE(event->dur_s, 0.0);
      EXPECT_LE(event->ts_s + event->dur_s, result.makespan_s + 1e-9);
    }
  }
  EXPECT_EQ(iteration_slices, result.num_iterations);

  // The registry agrees with the end-of-run aggregates.
  EXPECT_DOUBLE_EQ(registry.CounterTotal("output_tokens"),
                   static_cast<double>(result.total_output_tokens));
  EXPECT_DOUBLE_EQ(registry.CounterTotal("arrivals"), 24.0);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("kv_blocks_in_use"), 0.0);  // All released.
  const LogHistogram* tbt = registry.FindHistogram("tbt_s");
  ASSERT_NE(tbt, nullptr);
  EXPECT_GT(tbt->count(), 0);

  std::ostringstream out;
  registry.WriteTimeSeriesCsv(out);
  std::string header = ParseCsv(out.str())[0].empty() ? "" : out.str().substr(0, out.str().find('\n'));
  for (const char* column : {"queue_depth", "running_batch", "kv_blocks_in_use",
                             "output_tokens_per_s", "tbt_s_p99"}) {
    EXPECT_NE(header.find(column), std::string::npos) << column;
  }
}

TEST(SimulatorObsTest, ObservedRunMatchesUninstrumentedRun) {
  SimResult plain = SmallRun();
  Tracer tracer;
  MetricsRegistry registry(1.0);
  SimResult observed = SmallRun(&tracer, &registry);
  EXPECT_DOUBLE_EQ(plain.makespan_s, observed.makespan_s);
  EXPECT_EQ(plain.total_output_tokens, observed.total_output_tokens);
  EXPECT_DOUBLE_EQ(plain.P99Tbt(), observed.P99Tbt());
  EXPECT_EQ(plain.num_iterations, observed.num_iterations);
}

TEST(SimulatorObsTest, DynamicBudgetEmitsTokenBudgetSeries) {
  Deployment deployment = MistralOnA100();
  SimulatorOptions options;
  options.model = deployment.model;
  options.cluster = deployment.cluster;
  options.parallel = deployment.parallel;
  // An unmeetable TBT target forces the controller to shrink the budget every
  // iteration until it pins at the floor.
  options.scheduler = SarathiConfig(512);
  options.scheduler.dynamic_budget_tbt_slo_s = 1e-4;
  Tracer tracer;
  MetricsRegistry registry(1.0);
  options.tracer = &tracer;
  options.metrics = &registry;
  Trace trace = UniformTrace(16, 800, 32, 0.05);
  ReplicaSimulator(options).Run(trace);

  EXPECT_DOUBLE_EQ(registry.GaugeValue("token_budget"),
                   static_cast<double>(options.scheduler.min_token_budget));
  bool saw_budget_counter = false;
  for (const TraceEvent& event : tracer.events()) {
    if (event.phase == TracePhase::kCounter && event.name() == "token_budget") {
      saw_budget_counter = true;
    }
  }
  EXPECT_TRUE(saw_budget_counter);
}

TEST(SimulatorObsTest, ClusterFaultRunTracesAllProcesses) {
  Deployment deployment = MistralOnA100();
  ClusterOptions cluster;
  cluster.replica.model = deployment.model;
  cluster.replica.cluster = deployment.cluster;
  cluster.replica.parallel = deployment.parallel;
  cluster.replica.scheduler = SarathiConfig(512);
  cluster.num_replicas = 3;
  cluster.faults.seed = 11;
  cluster.faults.mtbf_s = 6.0;
  cluster.faults.mttr_s = 2.0;
  cluster.faults.min_outage_s = 0.5;
  cluster.max_retries = 2;
  cluster.retry_backoff_s = 0.25;
  Tracer tracer;
  MetricsRegistry registry(1.0);
  cluster.replica.tracer = &tracer;
  cluster.replica.metrics = &registry;

  Trace trace = UniformTrace(60, 500, 20, 4.0);
  SimResult result = ClusterSimulator(cluster).Run(trace);
  ASSERT_GT(result.num_outages, 0);

  // Every replica contributed events under its own pid; outage slices and
  // crash instants match the merged outage count.
  std::set<int> pids;
  int64_t outage_slices = 0;
  int64_t crash_instants = 0;
  for (const TraceEvent& event : tracer.events()) {
    pids.insert(event.pid);
    if (event.phase == TracePhase::kComplete && event.name() == "outage") {
      ++outage_slices;
    }
    if (event.phase == TracePhase::kInstant && event.name() == "crash") {
      ++crash_instants;
    }
  }
  for (int r = 0; r < cluster.num_replicas; ++r) {
    EXPECT_TRUE(pids.count(r)) << "no events from replica " << r;
  }
  EXPECT_EQ(outage_slices, result.num_outages);
  EXPECT_EQ(crash_instants, result.num_outages);

  // Retries surfaced as router instants under pid == num_replicas.
  if (result.TotalRetries() > 0) {
    int64_t retry_instants = 0;
    for (const TraceEvent& event : tracer.events()) {
      if (event.phase == TracePhase::kInstant && event.name() == "retry") {
        EXPECT_EQ(event.pid, cluster.num_replicas);
        ++retry_instants;
      }
    }
    EXPECT_EQ(retry_instants, result.TotalRetries());
  }

  // Merged token counter covers surviving plus lost (crashed-attempt) tokens.
  EXPECT_DOUBLE_EQ(
      registry.CounterTotal("output_tokens"),
      static_cast<double>(result.total_output_tokens + result.lost_output_tokens));

  // The merged trace still exports valid JSON.
  std::ostringstream out;
  tracer.WriteChromeTraceJson(out);
  EXPECT_TRUE(MiniJsonParser(out.str()).Validate());
}

// ---- Flight recorder ----

TEST(FlightRecorderTest, RingWrapsKeepingNewestEvents) {
  FlightRecorder::Options options;
  options.capacity = 8;
  FlightRecorder recorder(options);
  for (int i = 0; i < 20; ++i) {
    recorder.RecordInstant("test", "tick", 0.1 * i, /*pid=*/0,
                           {{"i", static_cast<double>(i)}});
  }
  EXPECT_EQ(recorder.capacity(), 8);
  EXPECT_EQ(recorder.size(), 8);
  EXPECT_EQ(recorder.total_recorded(), 20);

  std::vector<FlightEvent> snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    // Oldest-to-newest: the 8 survivors are events 12..19.
    EXPECT_DOUBLE_EQ(snapshot[i].ts_s, 0.1 * (12 + i));
    ASSERT_EQ(snapshot[i].num_args, 1);
    EXPECT_DOUBLE_EQ(snapshot[i].args[0].value, static_cast<double>(12 + i));
  }
}

TEST(FlightRecorderTest, FirstTriggerAutoDumpsValidChromeTrace) {
  std::string dir = TestDir("flight_dump");
  FlightRecorder::Options options;
  options.capacity = 64;
  options.dump_path = dir + "/flight.json";
  FlightRecorder recorder(options);
  for (int i = 0; i < 10; ++i) {
    recorder.RecordInstant("scheduler", "admit", 0.1 * i, 0);
  }
  recorder.RecordComplete("iteration", "batch", 1.0, 0.05, 0, 1, {{"tokens", 256.0}});
  recorder.RecordCounter("kv", "blocks", 1.1, 0, 12.0);

  ASSERT_TRUE(recorder.Trigger("invariant_violation", 1.2).ok());
  EXPECT_EQ(recorder.triggers(), 1);
  EXPECT_STREQ(recorder.trigger_reason(), "invariant_violation");
  EXPECT_TRUE(recorder.dumped());
  EXPECT_TRUE(recorder.dump_status().ok());

  std::ifstream in(options.dump_path);
  ASSERT_TRUE(in.good()) << "auto-dump missing at " << options.dump_path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string json = buffer.str();
  EXPECT_TRUE(MiniJsonParser(json).Validate()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);

  // Every event recorded before the trigger is in the dump, ahead of the
  // trigger instant (the whole point of a flight recorder).
  size_t trigger_pos = json.find("invariant_violation");
  ASSERT_NE(trigger_pos, std::string::npos);
  int64_t admits = 0;
  for (size_t pos = json.find("admit"); pos != std::string::npos;
       pos = json.find("admit", pos + 1)) {
    EXPECT_LT(pos, trigger_pos);
    ++admits;
  }
  EXPECT_EQ(admits, 10);
  EXPECT_LT(json.find("\"ph\":\"X\""), trigger_pos);
  EXPECT_LT(json.find("\"ph\":\"C\""), trigger_pos);

  // Later triggers count but keep the first dump and reason.
  ASSERT_TRUE(recorder.Trigger("slo_burn_alert", 2.0).ok());
  EXPECT_EQ(recorder.triggers(), 2);
  EXPECT_STREQ(recorder.trigger_reason(), "invariant_violation");
}

TEST(FlightRecorderTest, TriggerWithoutDumpPathOnlyCounts) {
  FlightRecorder recorder;
  recorder.RecordInstant("test", "tick", 0.0, 0);
  ASSERT_TRUE(recorder.Trigger("overload_shed", 0.5).ok());
  EXPECT_EQ(recorder.triggers(), 1);
  EXPECT_FALSE(recorder.dumped());
  EXPECT_TRUE(recorder.dump_status().ok());

  // An explicit export still works and matches the tracer JSON dialect.
  std::ostringstream out;
  recorder.WriteChromeTraceJson(out);
  EXPECT_TRUE(MiniJsonParser(out.str()).Validate()) << out.str();
}

// ---- SLO monitor ----

SloPolicy TbtBurnPolicy() {
  SloPolicy policy;
  policy.name = "interactive-tbt";
  policy.signal = SloSignal::kTbt;
  policy.threshold_s = 0.1;
  policy.target = 0.9;
  policy.fast_window_s = 2.0;
  policy.slow_window_s = 6.0;
  policy.fast_burn = 6.0;
  policy.slow_burn = 3.0;
  return policy;
}

TEST(SloMonitorTest, SustainedBurnAlertsOnceOnRisingEdge) {
  SloMonitor monitor;
  int index = monitor.AddPolicy(TbtBurnPolicy());
  ASSERT_TRUE(monitor.enabled());

  // 10 seconds of all-bad samples at 10 Hz: burn = 1 / (1 - 0.9) = 10, above
  // both the fast (6x) and slow (3x) thresholds, but the condition only
  // crosses from quiet to firing once.
  for (int i = 0; i < 100; ++i) {
    monitor.RecordLatency(SloSignal::kTbt, QosClass::kInteractive, 0.5, 0.1 * i);
  }
  monitor.AdvanceTo(10.0);

  ASSERT_EQ(monitor.alerts().size(), 1u);
  const SloAlert& alert = monitor.alerts()[0];
  EXPECT_EQ(alert.policy, index);
  EXPECT_EQ(alert.name, "interactive-tbt");
  EXPECT_GE(alert.fast_burn, 6.0);
  EXPECT_GE(alert.slow_burn, 3.0);
  EXPECT_NEAR(monitor.BurnRate(index, 6.0), 10.0, 1e-9);

  std::vector<SloComplianceRow> report = monitor.ComplianceReport();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].good, 0);
  EXPECT_EQ(report[0].bad, 100);
  EXPECT_EQ(report[0].alerts, 1);
  EXPECT_FALSE(report[0].met());
  EXPECT_NE(monitor.RenderComplianceReport().find("VIOLATED"), std::string::npos);
}

TEST(SloMonitorTest, ShortBlipIsSuppressedByTheSlowWindow) {
  SloMonitor monitor;
  monitor.AddPolicy(TbtBurnPolicy());

  // One minute of healthy traffic at 10 Hz with a single 0.5 s bad burst:
  // the fast window spikes but the slow window never crosses 3x burn.
  for (int i = 0; i < 600; ++i) {
    double t = 0.1 * i;
    bool bad = t >= 30.0 && t < 30.5;
    monitor.RecordLatency(SloSignal::kTbt, QosClass::kInteractive, bad ? 0.5 : 0.01, t);
  }
  monitor.AdvanceTo(60.0);

  EXPECT_TRUE(monitor.alerts().empty());
  std::vector<SloComplianceRow> report = monitor.ComplianceReport();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].bad, 5);
  EXPECT_TRUE(report[0].met());  // 595/600 > 0.9.
}

TEST(SloMonitorTest, LaneFilterRoutesOnlyMatchingTraffic) {
  SloMonitor monitor;
  SloPolicy policy = TbtBurnPolicy();
  policy.all_lanes = false;
  policy.lane = QosClass::kInteractive;
  monitor.AddPolicy(policy);

  for (int i = 0; i < 50; ++i) {
    monitor.RecordLatency(SloSignal::kTbt, QosClass::kBatch, 0.5, 0.1 * i);
  }
  monitor.AdvanceTo(5.0);
  EXPECT_TRUE(monitor.alerts().empty());
  EXPECT_EQ(monitor.ComplianceReport()[0].total(), 0);
  EXPECT_TRUE(monitor.ComplianceReport()[0].met());  // Vacuously: no traffic.

  monitor.RecordLatency(SloSignal::kTbt, QosClass::kInteractive, 0.5, 5.1);
  EXPECT_EQ(monitor.ComplianceReport()[0].total(), 1);
}

TEST(SloMonitorTest, AlertsFanOutToTracerRegistryAndFlightRecorder) {
  Tracer tracer;
  MetricsRegistry registry(1.0);
  FlightRecorder flight;
  SloMonitor monitor;
  monitor.AddPolicy(TbtBurnPolicy());
  monitor.Bind(&tracer, &registry, &flight);

  for (int i = 0; i < 100; ++i) {
    monitor.RecordLatency(SloSignal::kTbt, QosClass::kInteractive, 0.5, 0.1 * i);
  }
  monitor.AdvanceTo(10.0);
  ASSERT_FALSE(monitor.alerts().empty());

  int64_t slo_instants = 0;
  for (const TraceEvent& event : tracer.events()) {
    if (event.phase == TracePhase::kInstant && event.name() == "slo_burn_alert") {
      EXPECT_EQ(event.category(), "slo");
      ++slo_instants;
    }
  }
  EXPECT_EQ(slo_instants, static_cast<int64_t>(monitor.alerts().size()));
  EXPECT_DOUBLE_EQ(registry.CounterTotal("slo_alerts"),
                   static_cast<double>(monitor.alerts().size()));
  EXPECT_GE(flight.triggers(), 1);
  EXPECT_STREQ(flight.trigger_reason(), "slo_burn_alert");
}

TEST(SloMonitorTest, GoodputPolicyUsesReportedOutcomes) {
  SloMonitor monitor;
  SloPolicy policy;
  policy.name = "goodput";
  policy.signal = SloSignal::kGoodput;
  policy.target = 0.5;
  monitor.AddPolicy(policy);

  for (int i = 0; i < 8; ++i) {
    monitor.RecordOutcome(QosClass::kInteractive, /*good=*/i % 2 == 0, 0.1 * i);
  }
  monitor.AdvanceTo(1.0);
  std::vector<SloComplianceRow> report = monitor.ComplianceReport();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].good, 4);
  EXPECT_EQ(report[0].bad, 4);
  EXPECT_TRUE(report[0].met());
}

TEST(SloMonitorTest, WriteAlertsCsvRoundTrips) {
  std::string dir = TestDir("slo_alerts");
  SloMonitor monitor;
  monitor.AddPolicy(TbtBurnPolicy());
  for (int i = 0; i < 100; ++i) {
    monitor.RecordLatency(SloSignal::kTbt, QosClass::kInteractive, 0.5, 0.1 * i);
  }
  monitor.AdvanceTo(10.0);
  ASSERT_FALSE(monitor.alerts().empty());

  std::string path = dir + "/alerts.csv";
  ASSERT_TRUE(monitor.WriteAlertsCsv(path).ok());
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto rows = ParseCsv(buffer.str());
  ASSERT_EQ(rows.size(), monitor.alerts().size() + 1);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"policy", "name", "signal", "time_s",
                                               "fast_burn", "slow_burn"}));
  EXPECT_EQ(rows[1][1], "interactive-tbt");
  EXPECT_EQ(rows[1][2], "tbt");
}

// ---- LogHistogram edge cases ----

TEST(LogHistogramTest, QuantileEndpointsClampToExactExtremes) {
  LogHistogram h;
  for (double v : {0.0013, 0.02, 0.3, 5.7}) {
    h.Record(v);
  }
  // Geometric interpolation stays inside the bucket, but q=0 and q=1 must
  // return the exact observed extremes, not bucket boundaries.
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 0.0013);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 5.7);
  EXPECT_DOUBLE_EQ(h.Min(), 0.0013);
  EXPECT_DOUBLE_EQ(h.Max(), 5.7);
}

TEST(LogHistogramTest, MergeFromEmptyIsANoOpAndIntoEmptyCopies) {
  LogHistogram populated;
  populated.Record(0.5);
  populated.Record(1.5);
  LogHistogram empty;

  populated.MergeFrom(empty);
  EXPECT_EQ(populated.count(), 2);
  EXPECT_DOUBLE_EQ(populated.sum(), 2.0);
  EXPECT_DOUBLE_EQ(populated.Min(), 0.5);
  EXPECT_DOUBLE_EQ(populated.Max(), 1.5);

  empty.MergeFrom(populated);
  EXPECT_EQ(empty.count(), 2);
  EXPECT_DOUBLE_EQ(empty.Min(), 0.5);
  EXPECT_DOUBLE_EQ(empty.Max(), 1.5);
  EXPECT_DOUBLE_EQ(empty.Quantile(0.99), populated.Quantile(0.99));
}

TEST(LogHistogramDeathTest, MergeFromMismatchedShapesDies) {
  LogHistogram standard;
  LogHistogram::Options narrow;
  narrow.min_value = 1e-3;
  narrow.max_value = 10.0;
  LogHistogram mismatched(narrow);
  EXPECT_DEATH(standard.MergeFrom(mismatched), "shapes differ");
}

// ---- Metrics registry: partial windows and Prometheus exposition ----

TEST(MetricsRegistryTest, PartialFinalWindowStillExportsPercentiles) {
  MetricsRegistry registry(1.0);
  registry.Observe("tbt_s", 0.1, 0.05);
  registry.Observe("tbt_s", 0.2, 0.08);
  registry.Observe("tbt_s", 0.3, 0.5);
  registry.Finalize(0.35);  // Run ends mid-window.
  EXPECT_EQ(registry.NumWindows(), 1);

  std::ostringstream out;
  registry.WriteTimeSeriesCsv(out);
  auto rows = ParseCsv(out.str());
  ASSERT_EQ(rows.size(), 2u);
  auto column = [&](const std::string& name) {
    for (size_t c = 0; c < rows[0].size(); ++c) {
      if (rows[0][c] == name) {
        return c;
      }
    }
    ADD_FAILURE() << "missing column " << name;
    return size_t{0};
  };
  EXPECT_EQ(rows[1][column("tbt_s_count")], "3");
  double p99 = std::stod(rows[1][column("tbt_s_p99")]);
  EXPECT_NEAR(p99, 0.5, 0.5 * 0.1);  // Within the log-bucket relative error.
}

TEST(MetricsRegistryTest, PrometheusExpositionIsTypedAndSanitized) {
  MetricsRegistry registry(1.0);
  registry.AddCount("output-tokens", 0.5, 128.0);  // Hyphen must sanitize.
  registry.SetGauge("queue_depth", 0.0, 3.0);
  registry.Observe("tbt_s", 0.2, 0.05);
  registry.Observe("tbt_s", 0.4, 0.1);
  registry.Finalize(1.0);

  std::ostringstream out;
  registry.WritePrometheus(out);
  std::string text = out.str();
  for (const char* needle :
       {"# TYPE sarathi_output_tokens_total counter", "sarathi_output_tokens_total 128",
        "# TYPE sarathi_queue_depth gauge", "sarathi_queue_depth 3",
        "# TYPE sarathi_tbt_s summary", "sarathi_tbt_s{quantile=\"0.5\"}",
        "sarathi_tbt_s{quantile=\"0.9\"}", "sarathi_tbt_s{quantile=\"0.99\"}",
        "sarathi_tbt_s_sum", "sarathi_tbt_s_count 2"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle << "\n" << text;
  }
  // Exposition lint: every line is either a TYPE comment or a sample, and
  // every family carries the sarathi_ prefix.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_TRUE(line.rfind("# TYPE sarathi_", 0) == 0 || line.rfind("sarathi_", 0) == 0)
        << line;
  }
}

// ---- Span-id regression: retry rounds must not collide ----

TEST(TracerTest, RetryRoundsGetDistinctSpanIds) {
  Deployment deployment = MistralOnA100();
  SimulatorOptions options;
  options.model = deployment.model;
  options.cluster = deployment.cluster;
  options.parallel = deployment.parallel;
  options.scheduler = SarathiConfig(512);
  Tracer tracer;
  options.tracer = &tracer;

  // Two attempts of the same requests on one tracer — exactly what a cluster
  // retry round produces. Before spans were keyed by (round, id), the second
  // attempt reused the first attempt's async-span ids and the merged trace
  // cross-matched begins and ends across attempts.
  Trace trace = UniformTrace(2, 400, 16, 0.0);
  ReplicaSimulator(options).Run(trace);
  for (Request& request : trace.requests) {
    request.retry_round = 1;
  }
  ReplicaSimulator(options).Run(trace);

  std::ostringstream out;
  tracer.WriteSpanCsv(out);
  auto rows = ParseCsv(out.str());
  ASSERT_GT(rows.size(), 1u);
  std::set<int64_t> request_span_ids;
  for (size_t i = 1; i < rows.size(); ++i) {
    ASSERT_EQ(rows[i].size(), 7u);
    EXPECT_GE(std::stod(rows[i][5]), 0.0) << "unclosed span " << rows[i][3];
    if (rows[i][3] == "request") {
      request_span_ids.insert(std::stoll(rows[i][2]));
    }
  }
  // Round 0 keeps raw request ids (existing traces stay byte-identical);
  // round 1 is offset by the stride, so four distinct lifecycles remain.
  EXPECT_EQ(request_span_ids.size(), 4u);
  EXPECT_TRUE(request_span_ids.count(0));
  EXPECT_TRUE(request_span_ids.count(1));
  EXPECT_TRUE(request_span_ids.count(SpanIdForAttempt(0, 1)));
  EXPECT_TRUE(request_span_ids.count(SpanIdForAttempt(1, 1)));

  // The merged trace is still valid Chrome JSON.
  std::ostringstream json;
  tracer.WriteChromeTraceJson(json);
  EXPECT_TRUE(MiniJsonParser(json.str()).Validate());
}

// ---- Post-hoc analysis (sarathi_inspect library) ----

TEST(InspectTest, SplitCsvLineHandlesQuotedFields) {
  EXPECT_EQ(SplitCsvLine("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitCsvLine("a,\"b,c\",\"d\"\"e\""),
            (std::vector<std::string>{"a", "b,c", "d\"e"}));
  EXPECT_EQ(SplitCsvLine(""), (std::vector<std::string>{""}));
  EXPECT_EQ(SplitCsvLine("x,"), (std::vector<std::string>{"x", ""}));
}

TEST(InspectTest, LoadersResolveColumnsByHeaderName) {
  std::string dir = TestDir("inspect_loader");
  ASSERT_TRUE(EnsureParentDirectory(dir + "/x").ok());
  std::ofstream out(dir + "/requests.csv");
  // Reordered columns plus an unknown extra one: loaders must key on names.
  out << "ttft_s,id,extra,arrival_s,latency_s,failure\n"
      << "1.25,7,ignored,0.5,3.5,none\n"
      << "0.0,8,ignored,0.6,-1,timeout\n";
  out.close();

  std::vector<RequestRow> rows;
  ASSERT_TRUE(LoadRequestsCsv(dir + "/requests.csv", &rows).ok());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].id, 7);
  EXPECT_DOUBLE_EQ(rows[0].arrival_s, 0.5);
  EXPECT_DOUBLE_EQ(rows[0].ttft_s, 1.25);
  EXPECT_TRUE(rows[0].completed());
  EXPECT_FALSE(rows[0].failed());
  EXPECT_FALSE(rows[1].completed());
  EXPECT_TRUE(rows[1].failed());

  // A file missing a required column is rejected, not misread.
  std::ofstream bad(dir + "/bad.csv");
  bad << "id,arrival_s\n1,0.0\n";
  bad.close();
  std::vector<RequestRow> ignored;
  EXPECT_FALSE(LoadRequestsCsv(dir + "/bad.csv", &ignored).ok());
}

TEST(InspectTest, BreakdownsPartitionLatencyAndFlagStalls) {
  RequestRow row;
  row.id = 1;
  row.arrival_s = 2.0;
  row.scheduling_delay_s = 0.5;
  row.ttft_s = 1.5;
  row.latency_s = 3.0;
  row.num_tokens = 4;
  std::vector<TbtRow> tbt = {{1, 1, 0.3}, {1, 2, 0.05}, {1, 3, 0.25}, {99, 1, 9.0}};

  std::vector<RequestBreakdown> breakdowns = ComputeBreakdowns({row}, tbt, 0.2);
  ASSERT_EQ(breakdowns.size(), 1u);
  const RequestBreakdown& b = breakdowns[0];
  EXPECT_TRUE(b.completed);
  EXPECT_DOUBLE_EQ(b.queued_s, 0.5);
  EXPECT_DOUBLE_EQ(b.prefill_s, 1.0);
  EXPECT_DOUBLE_EQ(b.decode_s, 1.5);
  EXPECT_DOUBLE_EQ(b.queued_s + b.prefill_s + b.decode_s, b.latency_s);
  EXPECT_EQ(b.stall_count, 2);  // Only this request's gaps above 0.2 s.
  EXPECT_DOUBLE_EQ(b.stall_s, 0.55);
}

TEST(InspectTest, TopKWorstOrdersByLatencyThenId) {
  std::vector<RequestBreakdown> breakdowns(4);
  breakdowns[0].id = 3;
  breakdowns[0].latency_s = 5.0;
  breakdowns[0].completed = true;
  breakdowns[1].id = 2;
  breakdowns[1].latency_s = 7.0;
  breakdowns[1].completed = true;
  breakdowns[2].id = 1;
  breakdowns[2].latency_s = 7.0;
  breakdowns[2].completed = true;
  breakdowns[3].id = 0;
  breakdowns[3].latency_s = 99.0;
  breakdowns[3].completed = false;  // Incomplete requests never rank.

  std::vector<RequestBreakdown> worst = TopKWorst(breakdowns, 2);
  ASSERT_EQ(worst.size(), 2u);
  EXPECT_EQ(worst[0].id, 1);  // Tie on latency breaks toward the lower id.
  EXPECT_EQ(worst[1].id, 2);
}

TEST(InspectTest, AttributeIterationsClassifiesBatchMix) {
  std::vector<IterationRow> iterations(4);
  iterations[0] = {0, 0.0, 0.4, 0.4, 256, 2, 254, "hybrid"};
  iterations[1] = {1, 0.4, 0.3, 0.7, 512, 0, 512, "prefill"};
  iterations[2] = {2, 0.9, 0.2, 1.1, 3, 3, 0, "decode"};
  iterations[3] = {3, 1.1, 0.1, 1.2, 0, 0, 0, "empty"};

  IterationAttribution a = AttributeIterations(iterations);
  EXPECT_EQ(a.iterations, 4);
  EXPECT_EQ(a.hybrid, 1);
  EXPECT_EQ(a.prefill_only, 1);
  EXPECT_EQ(a.decode_only, 1);
  EXPECT_EQ(a.empty, 1);
  EXPECT_DOUBLE_EQ(a.busy_s, 1.0);
  EXPECT_DOUBLE_EQ(a.span_s, 1.2);
  EXPECT_NEAR(a.bubble_s, 0.2, 1e-12);
  EXPECT_EQ(a.total_tokens, 771);
  EXPECT_EQ(a.prefill_tokens, 766);
  EXPECT_EQ(a.decode_tokens, 5);
  EXPECT_DOUBLE_EQ(a.max_stage_time_s, 0.4);
}

TEST(InspectTest, CheckSloCountsAttainmentPerSignal) {
  std::vector<RequestRow> requests(3);
  requests[0].id = 0;
  requests[0].ttft_s = 0.5;
  requests[0].latency_s = 2.0;
  requests[0].num_tokens = 8;
  requests[1].id = 1;
  requests[1].ttft_s = 3.0;  // TTFT miss.
  requests[1].latency_s = 5.0;
  requests[1].num_tokens = 8;
  requests[2].id = 2;  // Never completed: goodput-bad, skipped for TTFT.
  requests[2].num_tokens = 0;
  requests[2].failure = "timeout";
  std::vector<TbtRow> tbt = {{0, 1, 0.05}, {0, 2, 0.4}, {1, 1, 0.1}};

  std::vector<SloCheck> checks = CheckSlo(requests, tbt, 1.0, 0.2, 0.9);
  ASSERT_EQ(checks.size(), 3u);
  EXPECT_EQ(checks[0].name, "ttft");
  EXPECT_EQ(checks[0].good, 1);
  EXPECT_EQ(checks[0].bad, 1);
  EXPECT_EQ(checks[1].name, "tbt");
  EXPECT_EQ(checks[1].good, 2);
  EXPECT_EQ(checks[1].bad, 1);
  EXPECT_EQ(checks[2].name, "goodput");
  EXPECT_EQ(checks[2].good, 2);
  EXPECT_EQ(checks[2].bad, 1);
  EXPECT_FALSE(checks[0].met());
  EXPECT_NE(RenderSloCheckReport(checks).find("goodput"), std::string::npos);
}

TEST(InspectTest, ScanTraceJsonCountsPhases) {
  std::string dir = TestDir("inspect_scan");
  Tracer tracer;
  tracer.SetProcessName(0, "replica 0");
  tracer.Instant("scheduler", "admit", 0.5);
  tracer.Instant("fault", "crash", 2.5);
  tracer.Complete("iteration", "batch", 1.0, 0.25, 0);
  tracer.Counter("kv", "blocks", 1.5, 32.0);
  tracer.AsyncBegin("request", "request", 7, 0.25);
  tracer.AsyncEnd("request", "request", 7, 2.0);
  std::string path = dir + "/trace.json";
  ASSERT_TRUE(tracer.WriteChromeTraceFile(path).ok());

  TraceScan scan;
  ASSERT_TRUE(ScanTraceJson(path, &scan).ok());
  EXPECT_EQ(scan.events, 7);
  EXPECT_EQ(scan.metadata, 1);
  EXPECT_EQ(scan.instants, 2);
  EXPECT_EQ(scan.completes, 1);
  EXPECT_EQ(scan.counters, 1);
  EXPECT_EQ(scan.begins, 1);
  EXPECT_EQ(scan.ends, 1);
  EXPECT_NEAR(scan.max_ts_s, 2.5, 1e-9);
  EXPECT_NE(RenderTraceScan(scan).find("events"), std::string::npos);

  TraceScan rejected;
  std::ofstream not_a_trace(dir + "/nope.json");
  not_a_trace << "{\"foo\": 1}";
  not_a_trace.close();
  EXPECT_FALSE(ScanTraceJson(dir + "/nope.json", &rejected).ok());
}

TEST(InspectTest, EndToEndTelemetryRoundTrip) {
  std::string dir = TestDir("inspect_roundtrip");
  SimResult result = SmallRun();
  ASSERT_TRUE(ExportTelemetry(result, dir, "run").ok());

  std::vector<RequestRow> requests;
  std::vector<IterationRow> iterations;
  std::vector<TbtRow> tbt;
  ASSERT_TRUE(LoadRequestsCsv(dir + "/run_requests.csv", &requests).ok());
  ASSERT_TRUE(LoadIterationsCsv(dir + "/run_iterations.csv", &iterations).ok());
  ASSERT_TRUE(LoadTbtCsv(dir + "/run_tbt.csv", &tbt).ok());
  EXPECT_EQ(requests.size(), 24u);
  EXPECT_EQ(static_cast<int64_t>(iterations.size()), result.num_iterations);

  // The loaded breakdowns partition each completed request's latency.
  std::vector<RequestBreakdown> breakdowns = ComputeBreakdowns(requests, tbt, 0.2);
  ASSERT_EQ(breakdowns.size(), 24u);
  for (const RequestBreakdown& b : breakdowns) {
    ASSERT_TRUE(b.completed);
    EXPECT_NEAR(b.queued_s + b.prefill_s + b.decode_s, b.latency_s, 1e-6);
  }

  IterationAttribution attribution = AttributeIterations(iterations);
  EXPECT_EQ(attribution.iterations, result.num_iterations);
  EXPECT_GT(attribution.busy_s, 0.0);
  EXPECT_EQ(attribution.empty, 0);

  std::string report = RenderRequestReport(breakdowns, 5);
  EXPECT_NE(report.find("24 total, 24 completed"), std::string::npos) << report;
  EXPECT_NE(RenderIterationReport(attribution).find("Iterations:"), std::string::npos);
}

}  // namespace
}  // namespace sarathi
