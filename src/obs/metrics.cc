#include "src/obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace vafs {
namespace obs {

void Histogram::Record(double value) {
  if (!std::isfinite(value)) {
    // A NaN poisons min_/max_ (and every later comparison) for good; an
    // infinity survives into exported JSON where "inf" does not parse.
    ++rejected_;
    return;
  }
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  // Everything from 2^(kBuckets-1) up lands in the overflow bucket; testing
  // it first also keeps the float-to-integer cast below in range.
  constexpr double kOverflowEdge = static_cast<double>(uint64_t{1} << (kBuckets - 1));
  int bucket = 0;
  if (value >= kOverflowEdge) {
    bucket = kBuckets - 1;
  } else if (value > 1.0) {
    // ceil(value) in integers: below 2^39 the truncation is exact, and it
    // falls short of value exactly when value has a fractional part.
    const uint64_t whole = static_cast<uint64_t>(value);
    const uint64_t magnitude = whole - (static_cast<double>(whole) < value ? 0 : 1);
    bucket = std::min(kBuckets - 1, 64 - std::countl_zero(magnitude));
  }
  ++buckets_[static_cast<size_t>(bucket)];
}

double Histogram::Quantile(double p) const {
  if (count_ == 0) {
    return 0.0;
  }
  p = std::min(1.0, std::max(0.0, p));
  const double target_rank = p * static_cast<double>(count_);
  if (target_rank <= 0.0) {
    return min_;
  }
  int64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const int64_t in_bucket = buckets_[static_cast<size_t>(b)];
    if (in_bucket == 0) {
      continue;
    }
    if (static_cast<double>(seen + in_bucket) >= target_rank) {
      // The rank lands in this bucket: interpolate across its value range,
      // tightened to the observed extremes (bucket 0 has no lower edge, and
      // the overflow bucket no upper one).
      double lower = b == 0 ? min_ : std::ldexp(1.0, b - 1);
      double upper = b == kBuckets - 1 ? max_ : std::ldexp(1.0, b);
      lower = std::max(lower, min_);
      upper = std::min(upper, max_);
      if (upper < lower) {
        upper = lower;
      }
      const double fraction =
          (target_rank - static_cast<double>(seen)) / static_cast<double>(in_bucket);
      // At fraction 1.0 return `upper` exactly: `lower + (upper - lower)`
      // cancels catastrophically when the extremes differ by many orders
      // of magnitude.
      return fraction >= 1.0 ? upper : lower + (upper - lower) * fraction;
    }
    seen += in_bucket;
  }
  return max_;
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  auto it = counters_.find(name);
  return it != counters_.end() ? &it->second : nullptr;
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it != gauges_.end() ? &it->second : nullptr;
}

const Histogram* MetricsRegistry::FindHistogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it != histograms_.end() ? &it->second : nullptr;
}

void AppendJsonEscaped(std::string* out, const std::string& text) {
  for (char c : text) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", static_cast<unsigned char>(c));
          out->append(buffer);
        } else {
          out->push_back(c);
        }
    }
  }
}

namespace {

void AppendEscaped(std::string* out, const std::string& text) { AppendJsonEscaped(out, text); }

void AppendDouble(std::string* out, double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  out->append(buffer);
}

}  // namespace

std::string MetricsRegistry::ToJson() const {
  std::string json = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    json += first ? "\n" : ",\n";
    first = false;
    json += "    \"";
    AppendEscaped(&json, name);
    json += "\": " + std::to_string(counter.value());
  }
  json += first ? "},\n" : "\n  },\n";
  json += "  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    json += first ? "\n" : ",\n";
    first = false;
    json += "    \"";
    AppendEscaped(&json, name);
    json += "\": ";
    AppendDouble(&json, gauge.value());
  }
  json += first ? "},\n" : "\n  },\n";
  json += "  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    json += first ? "\n" : ",\n";
    first = false;
    json += "    \"";
    AppendEscaped(&json, name);
    json += "\": {\"count\": " + std::to_string(histogram.count());
    json += ", \"sum\": ";
    AppendDouble(&json, histogram.sum());
    json += ", \"min\": ";
    AppendDouble(&json, histogram.min());
    json += ", \"max\": ";
    AppendDouble(&json, histogram.max());
    json += ", \"mean\": ";
    AppendDouble(&json, histogram.Mean());
    json += ", \"p50\": ";
    AppendDouble(&json, histogram.Quantile(0.50));
    json += ", \"p95\": ";
    AppendDouble(&json, histogram.Quantile(0.95));
    json += ", \"p99\": ";
    AppendDouble(&json, histogram.Quantile(0.99));
    // Sparse buckets: [upper_bound, count] pairs for the occupied ones.
    json += ", \"buckets\": [";
    bool first_bucket = true;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      const int64_t in_bucket = histogram.buckets()[static_cast<size_t>(b)];
      if (in_bucket == 0) {
        continue;
      }
      if (!first_bucket) {
        json += ", ";
      }
      first_bucket = false;
      json += "[";
      AppendDouble(&json, std::ldexp(1.0, b));
      json += ", " + std::to_string(in_bucket) + "]";
    }
    json += "]}";
  }
  json += first ? "}\n" : "\n  }\n";
  json += "}\n";
  return json;
}

}  // namespace obs
}  // namespace vafs
