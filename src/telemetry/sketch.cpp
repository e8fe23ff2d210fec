#include "telemetry/sketch.hpp"

#include <algorithm>
#include <cmath>

namespace flexric::telemetry {

std::size_t QuantileSketch::bucket_of(double v) noexcept {
  if (!(v >= kMinValue)) return 0;  // negatives, zero, tiny values, NaN
  if (v >= kMaxValue) return kBuckets - 1;
  int e = 0;
  double m = std::frexp(v, &e);  // v = m * 2^e, m in [0.5, 1)
  int octave = e - 1;            // v in [2^octave, 2^(octave+1))
  int sub = static_cast<int>((m * 2.0 - 1.0) * kSub);
  if (sub >= kSub) sub = kSub - 1;
  return 1 +
         static_cast<std::size_t>(octave - kMinExp) * kSub +
         static_cast<std::size_t>(sub);
}

double QuantileSketch::bucket_value(std::size_t idx) noexcept {
  if (idx == 0) return 0.0;
  if (idx >= kBuckets - 1) return kMaxValue;
  std::size_t i = idx - 1;
  int octave = kMinExp + static_cast<int>(i) / kSub;
  int sub = static_cast<int>(i) % kSub;
  return std::ldexp(1.0 + (static_cast<double>(sub) + 0.5) / kSub, octave);
}

double QuantileSketch::quantile(double q) const noexcept {
  if (total_ == 0) return 0.0;
  if (!(q > 0.0)) q = 0.0;  // also maps NaN to 0
  if (q > 1.0) q = 1.0;
  std::uint64_t target =
      static_cast<std::uint64_t>(q * static_cast<double>(total_ - 1));
  std::uint64_t cum = 0;
  std::size_t last_nonzero = 0;
  for (std::size_t i = lo_; i < hi_; ++i) {
    if (counts_[i] == 0) continue;
    last_nonzero = i;
    cum += counts_[i];
    if (cum > target) return bucket_value(i);
  }
  // Reachable only when bucket saturation made sum(counts) < total_.
  return bucket_value(last_nonzero);
}

void QuantileSketch::assign(std::size_t lo, std::span<const std::uint16_t> counts,
                            std::uint64_t total) noexcept {
  clear();
  if (counts.empty() || lo + counts.size() > kBuckets) return;
  std::copy(counts.begin(), counts.end(), counts_.begin() + lo);
  total_ = total;
  lo_ = static_cast<std::uint16_t>(lo);
  hi_ = static_cast<std::uint16_t>(lo + counts.size());
}

}  // namespace flexric::telemetry
