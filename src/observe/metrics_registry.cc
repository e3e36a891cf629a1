#include "observe/metrics_registry.h"

#include <bit>

namespace navpath {

std::size_t Histogram::BucketIndex(std::uint64_t value) {
  if (value < kLinearLimit) return static_cast<std::size_t>(value);
  // For value >= 64: octave = index of the highest set bit; within the
  // octave, the top kSubBits bits below the leading bit select one of the
  // 32 sub-buckets.
  const int high = 63 - std::countl_zero(value);
  const std::uint64_t sub = (value >> (high - kSubBits)) - kSubCount;
  return static_cast<std::size_t>(
      kLinearLimit + (high - (kSubBits + 1)) * kSubCount + sub);
}

std::uint64_t Histogram::BucketUpperBound(std::size_t index) {
  if (index < kLinearLimit) return static_cast<std::uint64_t>(index);
  const std::size_t rel = index - kLinearLimit;
  const int high = static_cast<int>(rel / kSubCount) + kSubBits + 1;
  const std::uint64_t sub = rel % kSubCount + kSubCount;
  // Upper bound: last value whose top bits match this sub-bucket.
  const int shift = high - kSubBits;
  return (sub << shift) + ((1ull << shift) - 1);
}

void Histogram::Record(std::uint64_t value) { RecordN(value, 1); }

void Histogram::RecordN(std::uint64_t value, std::uint64_t count) {
  if (count == 0) return;
  const std::size_t index = BucketIndex(value);
  if (index >= buckets_.size()) buckets_.resize(index + 1, 0);
  buckets_[index] += count;
  count_ += count;
  sum_ += value * count;
  if (value < min_) min_ = value;
  if (value > max_) max_ = value;
}

double Histogram::Mean() const {
  if (count_ == 0) return 0;
  return static_cast<double>(sum_) / static_cast<double>(count_);
}

std::uint64_t Histogram::ValueAtQuantile(double q) const {
  if (count_ == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Rank of the target value, 1-based; q=0 still needs the first value.
  std::uint64_t rank =
      static_cast<std::uint64_t>(q * static_cast<double>(count_) + 0.5);
  if (rank < 1) rank = 1;
  if (rank > count_) rank = count_;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      const std::uint64_t bound = BucketUpperBound(i);
      return bound < max_ ? bound : max_;
    }
  }
  return max_;
}

void Histogram::Reset() {
  buckets_.clear();
  count_ = 0;
  sum_ = 0;
  min_ = std::numeric_limits<std::uint64_t>::max();
  max_ = 0;
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
}

HistogramSummary Summarize(const std::string& name, const Histogram& h) {
  HistogramSummary s;
  s.name = name;
  s.count = h.count();
  s.min = h.min();
  s.max = h.max();
  s.mean = h.Mean();
  s.p50 = h.ValueAtQuantile(0.50);
  s.p95 = h.ValueAtQuantile(0.95);
  s.p99 = h.ValueAtQuantile(0.99);
  return s;
}

std::uint64_t RegistrySnapshot::CounterOr(const std::string& name,
                                          std::uint64_t fallback) const {
  for (const auto& [counter, value] : counters) {
    if (counter == name) return value;
  }
  return fallback;
}

const HistogramSummary* RegistrySnapshot::FindHistogram(
    const std::string& name) const {
  for (const HistogramSummary& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

}  // namespace navpath
