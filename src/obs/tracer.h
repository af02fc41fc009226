// Structured event tracing for the simulators.
//
// The paper's implementation ships "an extensive telemetry system" (§4.4);
// this is its event-trace half: a low-overhead recorder of typed, timestamped
// events — request lifecycle spans, per-iteration batch slices, KV accounting,
// pipeline stage occupancy, and fault events — exportable as Chrome
// trace-event JSON (open in chrome://tracing or https://ui.perfetto.dev, with
// replicas rendered as processes and pipeline stages as tracks) and as a
// per-request span CSV.
//
// Overhead discipline: tracing is off when there is no tracer. Instrumented
// code holds a `Tracer*` that may be null and guards emission sites with
// `if (tracer != nullptr)` — the hook costs one branch when tracing is off.
//
// Events are plain-old-data, like the flight recorder's: categories, names
// and arg keys are `const char*` that the event does not own, and an event's
// args sit in one shared arg buffer, so recording an event copies two small
// structs and never allocates once the buffers have capacity. Name lifetime
// rule: every string handed to a recording method is either a string literal
// (static storage) or was returned by this tracer's Pool(), which copies it
// into an arena that lives as long as the tracer's events (and moves with
// them in Append).

#ifndef SRC_OBS_TRACER_H_
#define SRC_OBS_TRACER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/common/status.h"

namespace sarathi {

// Chrome trace-event phases this tracer emits.
enum class TracePhase : char {
  kComplete = 'X',    // A slice with a start and a duration (one track).
  kInstant = 'i',     // A point event.
  kCounter = 'C',     // A sampled counter series.
  kAsyncBegin = 'b',  // Start of an id-keyed span (request lifecycles).
  kAsyncEnd = 'e',    // End of an id-keyed span.
  kMetadata = 'M',    // Process/thread naming.
};

// One key/value annotation. Values are either text or a number; numbers stay
// numbers in the JSON so Perfetto can aggregate them. `key` is a literal;
// `text` is a literal or pooled string, null for a number.
struct TraceArg {
  const char* key = "";
  const char* text = nullptr;
  double number = 0.0;

  bool is_number() const { return text == nullptr; }
};

inline TraceArg Arg(const char* key, const char* text) { return TraceArg{key, text, 0.0}; }
inline TraceArg Arg(const char* key, double value) { return TraceArg{key, nullptr, value}; }
inline TraceArg Arg(const char* key, int64_t value) {
  return TraceArg{key, nullptr, static_cast<double>(value)};
}

// 56 bytes: a run records one per slice, span edge, counter sample and
// scheduler/KV instant, and the pages they fill are most of what recording
// costs.
struct TraceEvent {
  TracePhase phase = TracePhase::kInstant;
  uint8_t num_args = 0;
  int pid = 0;  // Process track: replica id (router = num_replicas).
  int tid = 0;  // Thread track: pipeline stage (see Tracer tid notes).
  const TraceArg* arg_data = nullptr;  // In the recording tracer; read through args().
  const char* category_cstr = "";     // Read through category().
  const char* name_cstr = "";         // Read through name().
  double ts_s = 0.0;                  // Event time, seconds since run start.
  // The one field of the phase: read only the member the phase names.
  union {
    double dur_s = 0.0;  // kComplete.
    int64_t id;          // kAsyncBegin/kAsyncEnd span key.
    double value;        // kCounter.
  };

  std::string_view category() const { return category_cstr; }
  std::string_view name() const { return name_cstr; }
  std::span<const TraceArg> args() const { return {arg_data, num_args}; }
};
static_assert(sizeof(TraceEvent) == 56);

// Append-only storage in fixed-size blocks, for a tracer's events and args.
// Growing never moves what is stored, so pointers to elements stay valid,
// and each block is small enough for the allocator to recycle from run to
// run. A run's trace is megabytes; a doubling vector would take each larger
// buffer fresh from the OS and pay a page fault per 4 KiB it touches, which
// costs more than recording the events. Blocks are raw storage that Extend's
// caller constructs into, so a tracer that records a few events (a replica
// that served nothing) touches a page, not a block. Splice moves another
// buffer's blocks over whole, which is how a cluster merges its replicas'
// traces without copying them.
template <typename T, size_t kBlockSize>
class TraceBuffer {
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>);

  struct FreeBlock {
    void operator()(T* block) const { std::allocator<T>().deallocate(block, kBlockSize); }
  };
  struct Block {
    std::unique_ptr<T, FreeBlock> data;
    size_t used = 0;
  };

 public:
  // Visits elements in the order they were added.
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    Iterator() = default;
    Iterator(const TraceBuffer* buffer, size_t block) : buffer_(buffer), block_(block) {
      SkipEmptyBlocks();
    }
    const T& operator*() const { return buffer_->blocks_[block_].data.get()[offset_]; }
    const T* operator->() const { return &**this; }
    Iterator& operator++() {
      ++offset_;
      SkipEmptyBlocks();
      return *this;
    }
    Iterator operator++(int) {
      Iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const Iterator& other) const {
      return block_ == other.block_ && offset_ == other.offset_;
    }

   private:
    void SkipEmptyBlocks() {
      while (block_ < buffer_->blocks_.size() && offset_ == buffer_->blocks_[block_].used) {
        ++block_;
        offset_ = 0;
      }
    }

    const TraceBuffer* buffer_ = nullptr;
    size_t block_ = 0;
    size_t offset_ = 0;
  };

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // Slots in allocated blocks; 0 until the first Extend.
  size_t capacity() const { return blocks_.size() * kBlockSize; }
  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, blocks_.size()); }

  // `n` (<= kBlockSize) contiguous unconstructed slots at the end, for the
  // caller to construct. When they do not fit in the current block they
  // start the next one.
  T* Extend(size_t n) {
    while (current_ < blocks_.size() && blocks_[current_].used + n > kBlockSize) {
      ++current_;
    }
    if (current_ == blocks_.size()) {
      blocks_.push_back(Block{std::unique_ptr<T, FreeBlock>(std::allocator<T>().allocate(kBlockSize))});
    }
    Block& block = blocks_[current_];
    T* slots = block.data.get() + block.used;
    block.used += n;
    size_ += n;
    return slots;
  }
  // Moves `other`'s elements to the end of this buffer by taking over its
  // blocks; nothing is copied, and `other` is left empty.
  void Splice(TraceBuffer&& other) {
    blocks_.resize(std::min(blocks_.size(), current_ + 1));  // Drops unused spares.
    for (Block& block : other.blocks_) {
      if (block.used > 0) {
        blocks_.push_back(std::move(block));
      }
    }
    current_ = blocks_.empty() ? 0 : blocks_.size() - 1;
    size_ += other.size_;
    other.Release();
  }
  // Empties the buffer, keeping its blocks for reuse.
  void Clear() {
    for (Block& block : blocks_) {
      block.used = 0;
    }
    current_ = 0;
    size_ = 0;
  }
  // Empties the buffer and frees its blocks.
  void Release() {
    blocks_.clear();
    current_ = 0;
    size_ = 0;
  }

 private:
  std::vector<Block> blocks_;
  size_t current_ = 0;  // The block Extend fills; every block after it is empty.
  size_t size_ = 0;
};

class Tracer {
 public:
  Tracer() = default;

  // Driver-maintained simulation clock, for instrumented components that have
  // no clock of their own (schedulers, the block manager).
  void set_now(double now_s) { now_s_ = now_s; }
  double now() const { return now_s_; }

  // Process id stamped on subsequently recorded events (the replica id; a
  // cluster run gives each replica its own tracer).
  void set_default_pid(int pid) { default_pid_ = pid; }
  int default_pid() const { return default_pid_; }

  // Copies `text` into the tracer's string pool and returns a NUL-terminated
  // copy that stays valid as long as this tracer's events (or those of the
  // tracer they are appended to).
  const char* Pool(std::string_view text);

  // ---- Recording ----
  // Strings follow the lifetime rule in the header comment.

  // Metadata naming a process or thread track; the name is pooled.
  void SetProcessName(int pid, std::string_view name);
  void SetThreadName(int tid, std::string_view name);

  // A slice on thread-track `tid` (pipeline stage) of the default process.
  void Complete(const char* category, const char* name, double start_s, double dur_s, int tid,
                std::initializer_list<TraceArg> args = {});
  void Instant(const char* category, const char* name, double ts_s,
               std::initializer_list<TraceArg> args = {});
  // Instant stamped with the driver clock (set_now).
  void InstantNow(const char* category, const char* name,
                  std::initializer_list<TraceArg> args = {}) {
    Instant(category, name, now_s_, args);
  }
  void Counter(const char* category, const char* name, double ts_s, double value);
  // Id-keyed span: begins/ends match on (pid, category, id); distinct names
  // under one id nest (request -> queued/prefill/decode).
  void AsyncBegin(const char* category, const char* name, int64_t id, double ts_s,
                  std::initializer_list<TraceArg> args = {});
  void AsyncEnd(const char* category, const char* name, int64_t id, double ts_s,
                std::initializer_list<TraceArg> args = {});

  // Moves another tracer's events, args and string pool to the end of this
  // one (cluster merge) without copying them, so every pointer into them
  // stays valid. `other` is left empty.
  void Append(Tracer&& other);
  // Drops every event and pooled string; keeps the event and arg buffers'
  // blocks.
  void Clear();

  // Events in recording order; the buffer's elements never move.
  using EventBuffer = TraceBuffer<TraceEvent, 1024>;
  const EventBuffer& events() const { return events_; }
  size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  // Events of one phase, in recording order (test/report helper).
  std::vector<const TraceEvent*> EventsWithPhase(TracePhase phase) const;

  // ---- Export ----

  // Chrome trace-event JSON: {"traceEvents": [...]} with timestamps in
  // microseconds, metadata first, then events sorted by time (ties keep
  // recording order).
  void WriteChromeTraceJson(std::ostream& out) const;
  // Writes the JSON to `path`, creating parent directories as needed.
  Status WriteChromeTraceFile(const std::string& path) const;

  // Per-request span CSV derived from the async events:
  //   pid,category,id,name,begin_s,end_s,duration_s
  // Spans still open at export get end_s = -1 and duration_s = -1.
  void WriteSpanCsv(std::ostream& out) const;
  Status WriteSpanCsvFile(const std::string& path) const;

 private:
  // Appends a default-pid event with `args` copied to the arg buffer.
  TraceEvent& Record(TracePhase phase, const char* category, const char* name, double ts_s,
                     std::initializer_list<TraceArg> args);

  double now_s_ = 0.0;
  int default_pid_ = 0;
  EventBuffer events_;
  // Each event's args are contiguous (one Extend); arg_data points here.
  TraceBuffer<TraceArg, 2048> args_;
  // String pool: fixed-size chunks that never move, so pooled pointers stay
  // valid while chunks are added or moved to another tracer.
  std::vector<std::unique_ptr<char[]>> pool_chunks_;
  char* pool_next_ = nullptr;
  size_t pool_left_ = 0;
};

// Creates every missing directory on the way to `path`'s parent. Shared by
// the trace/timeseries/telemetry writers.
Status EnsureParentDirectory(const std::string& path);

// JSON string escaping (quotes, backslashes, control characters).
std::string JsonEscape(std::string_view value);

// The Chrome-trace dialect both the Tracer and the FlightRecorder write:
//   {"displayTimeUnit":"ms","traceEvents":[
//   {"ph":..,"pid":..,"tid":..,"ts":..,"name":..[,"cat":..][,phase field][,"args":{..}]},
//   ...
//   ]}
// with times in microseconds. Numbers print as printf's "%.12g" would
// (std::to_chars; JSON has no inf/nan, so those print as 0) and strings are
// escaped as by JsonEscape. Events render into one buffer that is handed to
// the stream in large chunks.
class ChromeTraceWriter {
 public:
  // Writes the document header.
  explicit ChromeTraceWriter(std::ostream& out);
  ChromeTraceWriter(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;

  // Opens an event and writes its fields up to the args; the phase field is
  // "dur" (from `dur_s`, kComplete), "s" (kInstant) or "id" (`id`, async).
  void BeginEvent(TracePhase phase, int pid, int tid, double ts_s, const char* name,
                  const char* category, double dur_s, int64_t id);
  // One entry of the open event's "args" object.
  void NumberArg(const char* key, double value);
  void TextArg(const char* key, const char* text);
  void EndEvent();
  // Closes the document and writes what is left to the stream.
  void Finish();

 private:
  // Room for `n` more bytes at the cursor, flushing or growing the buffer.
  char* Room(size_t n);
  void Commit(char* end) { size_ = static_cast<size_t>(end - buffer_.get()); }
  char* ArgKey(const char* key, size_t value_room);

  std::ostream& out_;
  std::unique_ptr<char[]> buffer_;
  size_t capacity_ = 0;
  size_t size_ = 0;
  bool first_event_ = true;
  bool first_arg_ = true;
};

}  // namespace sarathi

#endif  // SRC_OBS_TRACER_H_
