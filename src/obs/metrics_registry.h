// Named metrics with windowed time-series sampling.
//
// The second half of the telemetry system (§4.4): where the tracer records
// individual events, the registry aggregates them into counters, gauges, and
// histograms — both cumulatively and per fixed time window — so throughput
// and latency can be plotted *over time* (queue depth, running batch size,
// KV blocks in use, tokens/s, rolling p99 TBT per window) instead of only as
// end-of-run aggregates.
//
// Window semantics (window w covers [w * window_s, (w+1) * window_s)):
//  - counter:   sum of deltas in the window, exported as a per-second rate.
//  - gauge:     time-weighted mean of the stepwise value over the window
//               (the last set value persists until the next set).
//  - histogram: per-window log-bucketed distribution, exported as p50/p99 and
//               sample count, plus one cumulative fine-grained histogram.
//
// MergeFrom adds registries element-wise (counters and gauge integrals sum,
// histogram buckets add), which is exactly the cluster semantics: per-replica
// queue depths merge into the cluster-wide total queue depth.

#ifndef SRC_OBS_METRICS_REGISTRY_H_
#define SRC_OBS_METRICS_REGISTRY_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace sarathi {

// Geometric-bucket histogram with quantile estimation: bucket boundaries grow
// by a constant factor, so relative error is bounded by the per-bucket growth
// (~7.5% at the default 32 buckets per decade). Out-of-range samples clamp to
// the end buckets; exact min/max are tracked separately.
class LogHistogram {
 public:
  struct Options {
    double min_value = 1e-6;
    double max_value = 1e5;
    int buckets_per_decade = 32;
  };

  LogHistogram() : LogHistogram(Options{}) {}
  explicit LogHistogram(const Options& options);

  void Record(double value);

  int64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double sum() const { return sum_; }
  double Mean() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0; }
  double Min() const { return count_ > 0 ? min_ : 0.0; }
  double Max() const { return count_ > 0 ? max_ : 0.0; }

  // q in [0, 1]; geometric interpolation inside the selected bucket, clamped
  // to the exact observed [min, max]. Returns 0 with no samples.
  double Quantile(double q) const;

  // Adds another histogram's buckets; shapes (options) must match.
  void MergeFrom(const LogHistogram& other);

  size_t num_buckets() const { return counts_.size(); }

 private:
  size_t BucketFor(double value) const;
  double BucketLo(size_t bucket) const;

  Options options_;
  double log_growth_;
  std::vector<int64_t> counts_;
  int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

class MetricsRegistry {
 public:
  explicit MetricsRegistry(double window_s = 1.0);

  double window_s() const { return window_s_; }

  // ---- Recording ----

  // Counter: monotonic accumulation (tokens emitted, preemptions, retries).
  void AddCount(const std::string& name, double t_s, double delta = 1.0);
  // Gauge: stepwise-constant signal sampled at state changes (queue depth,
  // running batch size, KV blocks in use).
  void SetGauge(const std::string& name, double t_s, double value);
  // Histogram sample (TBT, TTFT).
  void Observe(const std::string& name, double t_s, double sample);

  // Flushes gauge integrals up to `end_s` (call once, at end of run, with the
  // makespan). Without it the trailing gauge window is dropped.
  void Finalize(double end_s);

  // ---- Introspection ----

  double CounterTotal(const std::string& name) const;
  double GaugeValue(const std::string& name) const;  // Last set value.
  // Cumulative (whole-run) histogram; null when the name is unknown.
  const LogHistogram* FindHistogram(const std::string& name) const;
  size_t num_metrics() const { return metrics_.size(); }
  // Number of windows the time-series export will emit.
  int64_t NumWindows() const;

  // Element-wise addition of another registry (same window_s required).
  void MergeFrom(const MetricsRegistry& other);

  // ---- Export ----

  // Wide CSV, one row per window: `window_start_s` followed by one column per
  // metric in name order — `<name>_per_s` for counters (rate), `<name>` for
  // gauges (time-weighted mean), `<name>_p50`/`<name>_p99`/`<name>_count`
  // for histograms.
  void WriteTimeSeriesCsv(std::ostream& out) const;
  // Writes the CSV to `path`, creating parent directories as needed.
  Status WriteTimeSeriesFile(const std::string& path) const;

  // Prometheus text exposition (version 0.0.4) of the cumulative state — the
  // scrape seam for a future serving daemon. Names are prefixed `sarathi_`
  // and sanitized to [a-zA-Z0-9_:]; counters append `_total`, histograms
  // export as summaries (p50/p99 quantiles + `_sum` + `_count`).
  void WritePrometheus(std::ostream& out) const;
  Status WritePrometheusFile(const std::string& path) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Metric {
    Kind kind = Kind::kCounter;
    // Counter.
    double total = 0.0;
    std::vector<double> window_sum;
    // Gauge.
    double last_value = 0.0;
    double last_t = 0.0;
    bool has_value = false;
    std::vector<double> window_integral;
    // Histogram.
    LogHistogram cumulative;
    std::vector<LogHistogram> window_hist;
  };

  Metric& Fetch(const std::string& name, Kind kind);
  // Adds last_value * dt to the gauge integral over [metric.last_t, t_s).
  void AccumulateGauge(Metric* metric, double t_s);
  int64_t WindowIndex(double t_s) const;

  double window_s_;
  std::map<std::string, Metric> metrics_;  // Ordered: stable CSV columns.
};

}  // namespace sarathi

#endif  // SRC_OBS_METRICS_REGISTRY_H_
