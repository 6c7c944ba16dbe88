// Lightweight metrics for the storage manager's service path.
//
// A MetricsRegistry names three instrument kinds: counters (monotonic event
// totals), gauges (last-written instantaneous values) and histograms
// (distribution summaries over power-of-two buckets). Components never hold
// registry state themselves; they emit trace events (src/obs/trace.h) and a
// MetricsSink folds the stream into a registry. The registry serializes to
// JSON so benches can drop a machine-readable metrics file next to their
// printed tables. Instruments are plain values: trace events are emitted
// only by the thread that runs the simulation (DESIGN.md section 12), so
// a registry has exactly one writer.

#ifndef VAFS_SRC_OBS_METRICS_H_
#define VAFS_SRC_OBS_METRICS_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>

namespace vafs {
namespace obs {

// Appends `text` JSON-escaped (quotes, backslashes, control characters) to
// `*out`, without surrounding quotes. Shared by the registry's ToJson and
// the exporters (src/obs/export.h).
void AppendJsonEscaped(std::string* out, const std::string& text);

// Monotonically increasing event total.
class Counter {
 public:
  void Increment(int64_t by = 1) { value_ += by; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

// Last-written instantaneous value.
class Gauge {
 public:
  void Set(double value) { value_ = value; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Distribution summary. Bucket 0 counts samples <= 1 (including negative
// ones — durations and counts are never negative, so bucket 0 absorbing
// them keeps a stray sign bug visible in the min rather than crashing);
// bucket i counts samples in (2^(i-1), 2^i]; the last bucket absorbs
// everything larger. Non-finite samples (NaN, +/-inf) are rejected and
// tallied in rejected(): a NaN would poison min/max for the histogram's
// whole lifetime, and an infinity would render unparsable JSON.
class Histogram {
 public:
  static constexpr int kBuckets = 40;

  void Record(double value);

  int64_t count() const { return count_; }
  // Non-finite samples dropped by Record.
  int64_t rejected() const { return rejected_; }
  double sum() const { return sum_; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double Mean() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0; }
  const std::array<int64_t, kBuckets>& buckets() const { return buckets_; }

  // Estimated p-quantile (p in [0, 1]) by linear interpolation inside the
  // power-of-two bucket holding the rank, clamped to the observed [min, max]
  // so the estimate never leaves the sampled range. 0 when empty.
  double Quantile(double p) const;

 private:
  int64_t count_ = 0;
  int64_t rejected_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::array<int64_t, kBuckets> buckets_{};
};

class MetricsRegistry {
 public:
  // Lookup-or-create by name. References stay valid for the registry's
  // lifetime (node-based map storage).
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  // Lookup without creating; nullptr when the instrument was never touched.
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;

  // Name-ordered visitation, for exporters that render every instrument.
  template <typename Fn>
  void ForEachCounter(Fn&& fn) const {
    for (const auto& [name, counter] : counters_) fn(name, counter);
  }
  template <typename Fn>
  void ForEachGauge(Fn&& fn) const {
    for (const auto& [name, gauge] : gauges_) fn(name, gauge);
  }
  template <typename Fn>
  void ForEachHistogram(Fn&& fn) const {
    for (const auto& [name, histogram] : histograms_) fn(name, histogram);
  }

  // Deterministic (name-sorted) JSON image of every instrument.
  std::string ToJson() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace obs
}  // namespace vafs

#endif  // VAFS_SRC_OBS_METRICS_H_
