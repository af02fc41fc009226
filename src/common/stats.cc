#include "src/common/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/common/logging.h"

namespace sarathi {

void Summary::Add(double sample) {
  samples_.push_back(sample);
  sorted_valid_ = false;
}

void Summary::AddAll(const std::vector<double>& samples) {
  samples_.insert(samples_.end(), samples.begin(), samples.end());
  sorted_valid_ = false;
}

double Summary::Sum() const {
  double sum = 0.0;
  for (double s : samples_) {
    sum += s;
  }
  return sum;
}

double Summary::Mean() const {
  CHECK(!samples_.empty());
  return Sum() / static_cast<double>(samples_.size());
}

double Summary::StdDev() const {
  if (samples_.size() < 2) {
    return 0.0;
  }
  double mean = Mean();
  double ss = 0.0;
  for (double s : samples_) {
    ss += (s - mean) * (s - mean);
  }
  return std::sqrt(ss / static_cast<double>(samples_.size() - 1));
}

double Summary::Min() const {
  CHECK(!samples_.empty());
  return *std::min_element(samples_.begin(), samples_.end());
}

double Summary::Max() const {
  CHECK(!samples_.empty());
  return *std::max_element(samples_.begin(), samples_.end());
}

void Summary::EnsureSorted() const {
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

namespace {

// Linear interpolation between closest ranks: rank = q * (n - 1) falls
// between positions lo and hi = lo + 1 (clamped) of the sorted samples, at
// fraction `frac` past lo.
struct QuantileRank {
  size_t lo = 0;
  size_t hi = 0;
  double frac = 0.0;
};

QuantileRank RankOf(double q, size_t n) {
  CHECK_GT(n, 0u);
  CHECK_GE(q, 0.0);
  CHECK_LE(q, 1.0);
  double rank = q * static_cast<double>(n - 1);
  auto lo = static_cast<size_t>(rank);
  return {lo, std::min(lo + 1, n - 1), rank - static_cast<double>(lo)};
}

double Interpolate(double lo_value, double hi_value, double frac) {
  return lo_value + frac * (hi_value - lo_value);
}

}  // namespace

double Summary::Quantile(double q) const {
  QuantileRank rank = RankOf(q, samples_.size());
  EnsureSorted();
  if (sorted_.size() == 1) {
    return sorted_[0];
  }
  return Interpolate(sorted_[rank.lo], sorted_[rank.hi], rank.frac);
}

double SelectQuantile(std::span<double> samples, double q) {
  QuantileRank rank = RankOf(q, samples.size());
  if (samples.size() == 1) {
    return samples[0];
  }
  auto lo = samples.begin() + static_cast<std::ptrdiff_t>(rank.lo);
  std::nth_element(samples.begin(), lo, samples.end());
  // Everything after lo is >= *lo, so the tail's minimum is the next order
  // statistic.
  double hi_value = rank.hi == rank.lo ? *lo : *std::min_element(lo + 1, samples.end());
  return Interpolate(*lo, hi_value, rank.frac);
}

void RunningStats::Add(double sample) {
  if (count_ == 0) {
    min_ = sample;
    max_ = sample;
  } else {
    min_ = std::min(min_, sample);
    max_ = std::max(max_, sample);
  }
  ++count_;
  double delta = sample - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (sample - mean_);
}

double RunningStats::Variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::StdDev() const { return std::sqrt(Variance()); }

Histogram::Histogram(double lo, double hi, size_t num_buckets)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(num_buckets)), counts_(num_buckets) {
  CHECK_GT(hi, lo);
  CHECK_GT(num_buckets, 0u);
}

void Histogram::Add(double sample) {
  size_t index;
  if (sample < lo_) {
    index = 0;
  } else if (sample >= hi_) {
    index = counts_.size() - 1;
  } else {
    index = static_cast<size_t>((sample - lo_) / width_);
    index = std::min(index, counts_.size() - 1);
  }
  ++counts_[index];
  ++total_;
}

double Histogram::bucket_lo(size_t i) const { return lo_ + width_ * static_cast<double>(i); }

double Histogram::bucket_hi(size_t i) const { return lo_ + width_ * static_cast<double>(i + 1); }

std::string Histogram::ToString() const {
  int64_t max_count = 1;
  for (int64_t c : counts_) {
    max_count = std::max(max_count, c);
  }
  std::ostringstream out;
  for (size_t i = 0; i < counts_.size(); ++i) {
    int bar = static_cast<int>(40.0 * static_cast<double>(counts_[i]) /
                               static_cast<double>(max_count));
    out << "[" << bucket_lo(i) << ", " << bucket_hi(i) << ") " << counts_[i] << " "
        << std::string(static_cast<size_t>(bar), '#') << "\n";
  }
  return out.str();
}

}  // namespace sarathi
