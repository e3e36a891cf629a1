// HDR-style histograms and the by-name report of a driver's run.
//
// Drivers count in typed members (integers and Histograms) while they
// run and fill one RegistrySnapshot when the run ends; benchmarks and
// tests read it by name. Histograms answer quantile queries (p50/p95/p99
// of simulated latencies) with bounded memory. Everything here is
// measurement-side only — recording never touches the simulated clock, so
// instrumented and uninstrumented runs have identical simulated costs.
#ifndef NAVPATH_OBSERVE_METRICS_REGISTRY_H_
#define NAVPATH_OBSERVE_METRICS_REGISTRY_H_

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace navpath {

/// Log-linear histogram in the spirit of HdrHistogram: exact buckets for
/// values < 64, then 32 sub-buckets per power of two (relative error
/// ≤ 3.2%). Handles the full uint64 range; quantiles report the upper
/// bound of the containing bucket, so they are deterministic and never
/// underestimate.
class Histogram {
 public:
  void Record(std::uint64_t value);
  void RecordN(std::uint64_t value, std::uint64_t count);

  std::uint64_t count() const { return count_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }
  double Mean() const;

  /// Value at quantile q in [0, 1] (q=0.5 is the median). Returns the
  /// upper bound of the bucket containing the q-th recorded value.
  std::uint64_t ValueAtQuantile(double q) const;

  void Reset();
  void Merge(const Histogram& other);

 private:
  static constexpr int kSubBits = 5;
  static constexpr std::uint64_t kSubCount = 1ull << kSubBits;  // 32
  static constexpr std::uint64_t kLinearLimit = 2 * kSubCount;  // 64

  static std::size_t BucketIndex(std::uint64_t value);
  static std::uint64_t BucketUpperBound(std::size_t index);

  std::vector<std::uint64_t> buckets_;  // grown lazily
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

/// Point-in-time summary of one histogram (what benches serialize).
struct HistogramSummary {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  double mean = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p95 = 0;
  std::uint64_t p99 = 0;
};

/// A driver's report of one run, by metric name: counters and histogram
/// summaries, each listed in lexicographic name order.
struct RegistrySnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<HistogramSummary> histograms;

  /// Value of counter `name`, or `fallback` when the report has none.
  std::uint64_t CounterOr(const std::string& name,
                          std::uint64_t fallback = 0) const;
  /// Summary of histogram `name`, or nullptr when the report has none
  /// (a driver lists a histogram only if it recorded a value).
  const HistogramSummary* FindHistogram(const std::string& name) const;
};

HistogramSummary Summarize(const std::string& name, const Histogram& h);

}  // namespace navpath

#endif  // NAVPATH_OBSERVE_METRICS_REGISTRY_H_
