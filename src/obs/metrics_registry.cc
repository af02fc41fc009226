#include "src/obs/metrics_registry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "src/common/logging.h"
#include "src/obs/tracer.h"

namespace sarathi {
namespace {

// Per-window histograms trade precision for footprint: a run can hold
// thousands of windows, so windows use ~15% buckets (8 per decade) over a
// narrower range than the single cumulative histogram.
LogHistogram::Options WindowHistOptions() {
  LogHistogram::Options options;
  options.min_value = 1e-5;
  options.max_value = 1e3;
  options.buckets_per_decade = 8;
  return options;
}

}  // namespace

LogHistogram::LogHistogram(const Options& options) : options_(options) {
  CHECK_GT(options_.min_value, 0.0);
  CHECK_GT(options_.max_value, options_.min_value);
  CHECK_GT(options_.buckets_per_decade, 0);
  log_growth_ = std::log(10.0) / static_cast<double>(options_.buckets_per_decade);
  double decades = std::log10(options_.max_value / options_.min_value);
  size_t spanned =
      static_cast<size_t>(std::ceil(decades * static_cast<double>(options_.buckets_per_decade)));
  // Bucket 0 holds underflow (value <= min); the last bucket absorbs overflow.
  counts_.assign(spanned + 2, 0);
}

size_t LogHistogram::BucketFor(double value) const {
  if (!(value > options_.min_value)) {
    return 0;  // Underflow (also NaN, which never compares greater).
  }
  double offset = std::log(value / options_.min_value) / log_growth_;
  size_t bucket = 1 + static_cast<size_t>(offset);
  return std::min(bucket, counts_.size() - 1);
}

double LogHistogram::BucketLo(size_t bucket) const {
  if (bucket == 0) {
    return 0.0;
  }
  return options_.min_value * std::exp(static_cast<double>(bucket - 1) * log_growth_);
}

void LogHistogram::Record(double value) {
  ++counts_[BucketFor(value)];
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

double LogHistogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  double target = q * static_cast<double>(count_);
  int64_t cumulative = 0;
  for (size_t b = 0; b < counts_.size(); ++b) {
    if (counts_[b] == 0) {
      continue;
    }
    cumulative += counts_[b];
    if (static_cast<double>(cumulative) >= target) {
      double in_bucket = target - static_cast<double>(cumulative - counts_[b]);
      double frac = std::clamp(in_bucket / static_cast<double>(counts_[b]), 0.0, 1.0);
      double estimate;
      if (b == 0) {
        estimate = options_.min_value;  // All underflow samples clamp below.
      } else {
        // Geometric interpolation within the bucket.
        estimate = BucketLo(b) * std::exp(frac * log_growth_);
      }
      return std::clamp(estimate, min_, max_);
    }
  }
  return max_;
}

void LogHistogram::MergeFrom(const LogHistogram& other) {
  CHECK_EQ(counts_.size(), other.counts_.size()) << "histogram shapes differ";
  if (other.count_ == 0) {
    return;
  }
  for (size_t b = 0; b < counts_.size(); ++b) {
    counts_[b] += other.counts_[b];
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

MetricsRegistry::MetricsRegistry(double window_s) : window_s_(window_s) {
  CHECK_GT(window_s_, 0.0);
}

int64_t MetricsRegistry::WindowIndex(double t_s) const {
  if (t_s <= 0.0) {
    return 0;
  }
  return static_cast<int64_t>(t_s / window_s_);
}

MetricsRegistry::Metric& MetricsRegistry::Fetch(const std::string& name, Kind kind) {
  auto [it, inserted] = metrics_.try_emplace(name);
  if (inserted) {
    it->second.kind = kind;
  } else {
    CHECK(it->second.kind == kind) << "metric '" << name << "' re-registered as another kind";
  }
  return it->second;
}

void MetricsRegistry::AddCount(const std::string& name, double t_s, double delta) {
  Metric& metric = Fetch(name, Kind::kCounter);
  metric.total += delta;
  size_t w = static_cast<size_t>(WindowIndex(t_s));
  if (metric.window_sum.size() <= w) {
    metric.window_sum.resize(w + 1, 0.0);
  }
  metric.window_sum[w] += delta;
}

void MetricsRegistry::AccumulateGauge(Metric* metric, double t_s) {
  if (!metric->has_value || t_s <= metric->last_t) {
    return;
  }
  double cursor = metric->last_t;
  while (cursor < t_s) {
    size_t w = static_cast<size_t>(WindowIndex(cursor));
    double window_end = static_cast<double>(w + 1) * window_s_;
    double segment_end = std::min(t_s, window_end);
    if (metric->window_integral.size() <= w) {
      metric->window_integral.resize(w + 1, 0.0);
    }
    metric->window_integral[w] += metric->last_value * (segment_end - cursor);
    cursor = segment_end;
  }
  metric->last_t = t_s;
}

void MetricsRegistry::SetGauge(const std::string& name, double t_s, double value) {
  Metric& metric = Fetch(name, Kind::kGauge);
  AccumulateGauge(&metric, t_s);
  if (!metric.has_value) {
    metric.has_value = true;
    metric.last_t = t_s;
  }
  metric.last_value = value;
}

void MetricsRegistry::Observe(const std::string& name, double t_s, double sample) {
  Metric& metric = Fetch(name, Kind::kHistogram);
  metric.cumulative.Record(sample);
  size_t w = static_cast<size_t>(WindowIndex(t_s));
  if (metric.window_hist.size() <= w) {
    metric.window_hist.resize(w + 1, LogHistogram(WindowHistOptions()));
  }
  metric.window_hist[w].Record(sample);
}

void MetricsRegistry::Finalize(double end_s) {
  for (auto& [name, metric] : metrics_) {
    if (metric.kind == Kind::kGauge) {
      AccumulateGauge(&metric, end_s);
    }
  }
}

double MetricsRegistry::CounterTotal(const std::string& name) const {
  auto it = metrics_.find(name);
  return it != metrics_.end() && it->second.kind == Kind::kCounter ? it->second.total : 0.0;
}

double MetricsRegistry::GaugeValue(const std::string& name) const {
  auto it = metrics_.find(name);
  return it != metrics_.end() && it->second.kind == Kind::kGauge ? it->second.last_value : 0.0;
}

const LogHistogram* MetricsRegistry::FindHistogram(const std::string& name) const {
  auto it = metrics_.find(name);
  if (it == metrics_.end() || it->second.kind != Kind::kHistogram) {
    return nullptr;
  }
  return &it->second.cumulative;
}

int64_t MetricsRegistry::NumWindows() const {
  size_t windows = 0;
  for (const auto& [name, metric] : metrics_) {
    windows = std::max(windows, metric.window_sum.size());
    windows = std::max(windows, metric.window_integral.size());
    windows = std::max(windows, metric.window_hist.size());
  }
  return static_cast<int64_t>(windows);
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  CHECK_EQ(window_s_, other.window_s_) << "cannot merge registries with different windows";
  for (const auto& [name, theirs] : other.metrics_) {
    Metric& ours = Fetch(name, theirs.kind);
    switch (theirs.kind) {
      case Kind::kCounter: {
        ours.total += theirs.total;
        if (ours.window_sum.size() < theirs.window_sum.size()) {
          ours.window_sum.resize(theirs.window_sum.size(), 0.0);
        }
        for (size_t w = 0; w < theirs.window_sum.size(); ++w) {
          ours.window_sum[w] += theirs.window_sum[w];
        }
        break;
      }
      case Kind::kGauge: {
        // Sum semantics: per-replica queue depths merge into the cluster
        // total. The merged "last value" is the sum of finals.
        if (ours.window_integral.size() < theirs.window_integral.size()) {
          ours.window_integral.resize(theirs.window_integral.size(), 0.0);
        }
        for (size_t w = 0; w < theirs.window_integral.size(); ++w) {
          ours.window_integral[w] += theirs.window_integral[w];
        }
        ours.last_value += theirs.last_value;
        ours.has_value |= theirs.has_value;
        break;
      }
      case Kind::kHistogram: {
        ours.cumulative.MergeFrom(theirs.cumulative);
        if (ours.window_hist.size() < theirs.window_hist.size()) {
          ours.window_hist.resize(theirs.window_hist.size(), LogHistogram(WindowHistOptions()));
        }
        for (size_t w = 0; w < theirs.window_hist.size(); ++w) {
          ours.window_hist[w].MergeFrom(theirs.window_hist[w]);
        }
        break;
      }
    }
  }
}

void MetricsRegistry::WriteTimeSeriesCsv(std::ostream& out) const {
  out << "window_start_s";
  for (const auto& [name, metric] : metrics_) {
    switch (metric.kind) {
      case Kind::kCounter:
        out << ',' << name << "_per_s";
        break;
      case Kind::kGauge:
        out << ',' << name;
        break;
      case Kind::kHistogram:
        out << ',' << name << "_p50," << name << "_p99," << name << "_count";
        break;
    }
  }
  out << '\n';
  int64_t windows = NumWindows();
  for (int64_t w = 0; w < windows; ++w) {
    size_t idx = static_cast<size_t>(w);
    out << static_cast<double>(w) * window_s_;
    for (const auto& [name, metric] : metrics_) {
      switch (metric.kind) {
        case Kind::kCounter: {
          double sum = idx < metric.window_sum.size() ? metric.window_sum[idx] : 0.0;
          out << ',' << sum / window_s_;
          break;
        }
        case Kind::kGauge: {
          double integral =
              idx < metric.window_integral.size() ? metric.window_integral[idx] : 0.0;
          out << ',' << integral / window_s_;
          break;
        }
        case Kind::kHistogram: {
          if (idx < metric.window_hist.size() && !metric.window_hist[idx].empty()) {
            const LogHistogram& h = metric.window_hist[idx];
            out << ',' << h.Quantile(0.5) << ',' << h.Quantile(0.99) << ',' << h.count();
          } else {
            out << ",0,0,0";
          }
          break;
        }
      }
    }
    out << '\n';
  }
}

namespace {

// Prometheus metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; our internal names
// are already close (snake_case), so sanitization just maps stragglers to _.
std::string PrometheusName(const std::string& name) {
  std::string out = "sarathi_" + name;
  for (char& c : out) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) {
      c = '_';
    }
  }
  return out;
}

void PrometheusValue(std::ostream& out, double value) {
  if (std::isnan(value)) {
    out << "NaN";
  } else if (std::isinf(value)) {
    out << (value > 0 ? "+Inf" : "-Inf");
  } else {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.12g", value);
    out << buffer;
  }
}

}  // namespace

void MetricsRegistry::WritePrometheus(std::ostream& out) const {
  for (const auto& [name, metric] : metrics_) {
    const std::string prom = PrometheusName(name);
    switch (metric.kind) {
      case Kind::kCounter: {
        out << "# TYPE " << prom << "_total counter\n" << prom << "_total ";
        PrometheusValue(out, metric.total);
        out << '\n';
        break;
      }
      case Kind::kGauge: {
        out << "# TYPE " << prom << " gauge\n" << prom << ' ';
        PrometheusValue(out, metric.last_value);
        out << '\n';
        break;
      }
      case Kind::kHistogram: {
        // Summary exposition: pre-computed quantiles from the cumulative
        // log-bucket histogram plus _sum/_count.
        const LogHistogram& h = metric.cumulative;
        out << "# TYPE " << prom << " summary\n";
        out << prom << "{quantile=\"0.5\"} ";
        PrometheusValue(out, h.Quantile(0.5));
        out << '\n' << prom << "{quantile=\"0.9\"} ";
        PrometheusValue(out, h.Quantile(0.9));
        out << '\n' << prom << "{quantile=\"0.99\"} ";
        PrometheusValue(out, h.Quantile(0.99));
        out << '\n' << prom << "_sum ";
        PrometheusValue(out, h.sum());
        out << '\n' << prom << "_count " << h.count() << '\n';
        break;
      }
    }
  }
}

Status MetricsRegistry::WritePrometheusFile(const std::string& path) const {
  RETURN_IF_ERROR(EnsureParentDirectory(path));
  std::ofstream out(path);
  if (!out) {
    return InternalError("cannot open " + path + " for writing");
  }
  WritePrometheus(out);
  if (!out) {
    return InternalError("write failed for " + path);
  }
  return Status::Ok();
}

Status MetricsRegistry::WriteTimeSeriesFile(const std::string& path) const {
  RETURN_IF_ERROR(EnsureParentDirectory(path));
  std::ofstream out(path);
  if (!out) {
    return InternalError("cannot open " + path + " for writing");
  }
  WriteTimeSeriesCsv(out);
  if (!out) {
    return InternalError("write failed for " + path);
  }
  return Status::Ok();
}

}  // namespace sarathi
