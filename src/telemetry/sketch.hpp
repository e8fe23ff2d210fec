// Fixed-size quantile sketch for KPI rollups.
//
// Every downsampled rollup (see series.hpp) carries one of these so windowed
// queries can answer "p95 sojourn over the last 10 s" long after the raw
// samples were overwritten. The design constraints are bounded memory
// (rollup rings hold thousands of sketches) and lossless *mergeability*
// (tier cascading merges sketches; a merge must not add error), which rules
// out reservoir sampling. We use a log-bucketed histogram, the scheme behind
// HdrHistogram/DDSketch: deterministic, mergeable by bucket-count addition,
// and with a documented worst-case relative error.
//
// Bucket layout: values are non-negative KPIs. Each power-of-two octave
// [2^e, 2^(e+1)) is split into kSub linear sub-buckets; a quantile query
// reports the midpoint of the selected bucket, so the relative error is at
// most 1/(2*kSub) = kRelativeError. One underflow bucket collects
// v < kMinValue (reported as 0 — absolute error ≤ kMinValue) and one
// overflow bucket collects v ≥ kMaxValue (reported as kMaxValue, clamped).
// Counts saturate at 65535 per bucket; a rollup covers at most a few
// thousand 1 ms samples, far below saturation.
//
// The sketch tracks its occupied bucket range [lo, hi): KPIs such as CQI,
// MCS or PRB counts fill a few adjacent buckets, so merge, clear and
// quantile walk that range instead of all kBuckets, and the series' closed
// rollup rings keep only the range (series.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace flexric::telemetry {

class QuantileSketch {
 public:
  static constexpr int kSub = 4;       ///< sub-buckets per octave
  static constexpr int kMinExp = -8;   ///< lowest octave: [2^-8, 2^-7)
  static constexpr int kMaxExp = 55;   ///< highest octave: [2^55, 2^56)
  static constexpr double kMinValue = 1.0 / 256.0;           // 2^kMinExp
  static constexpr double kMaxValue = 72057594037927936.0;   // 2^(kMaxExp+1)
  /// Worst-case relative error of quantile() for values inside
  /// [kMinValue, kMaxValue): half a sub-bucket width.
  static constexpr double kRelativeError = 1.0 / (2.0 * kSub);
  static constexpr std::size_t kBuckets =
      2 + static_cast<std::size_t>(kMaxExp - kMinExp + 1) * kSub;

  void record(double v) noexcept {
    std::size_t i = bucket_of(v);
    bump(i, 1);
    total_++;
    widen(i, i + 1);
  }
  /// Bucket-wise merge (saturating); merging adds no quantile error and
  /// keeps the true total.
  void merge(const QuantileSketch& o) noexcept {
    for (std::size_t i = o.lo_; i < o.hi_; ++i) bump(i, o.counts_[i]);
    total_ += o.total_;
    widen(o.lo_, o.hi_);
  }
  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }
  /// q in [0,1], nearest-rank over buckets; midpoint of the selected
  /// bucket. Returns 0 when empty. NaN q is treated as 0.
  [[nodiscard]] double quantile(double q) const noexcept;
  void clear() noexcept {
    for (std::size_t i = lo_; i < hi_; ++i) counts_[i] = 0;
    total_ = 0;
    lo_ = kBuckets;
    hi_ = 0;
  }

  /// First bucket of the occupied range (0 when empty).
  [[nodiscard]] std::size_t lo() const noexcept { return hi_ > lo_ ? lo_ : 0; }
  /// Counts of the occupied range, first and last non-zero.
  [[nodiscard]] std::span<const std::uint16_t> occupied() const noexcept {
    if (hi_ <= lo_) return {};
    return {counts_.data() + lo_, static_cast<std::size_t>(hi_ - lo_)};
  }
  /// Replaces the contents with `counts` at buckets [lo, lo + size) and the
  /// true total `total` — the inverse of lo()/occupied()/count().
  void assign(std::size_t lo, std::span<const std::uint16_t> counts,
              std::uint64_t total) noexcept;

  /// Value -> bucket index (exposed for tests).
  static std::size_t bucket_of(double v) noexcept;
  /// Bucket index -> representative (midpoint) value.
  static double bucket_value(std::size_t idx) noexcept;

 private:
  void bump(std::size_t idx, std::uint32_t by) noexcept {
    std::uint32_t c = counts_[idx];
    counts_[idx] = static_cast<std::uint16_t>(
        c + by > 0xFFFF ? 0xFFFF : c + by);
  }
  /// Grows the occupied range to cover [lo, hi). An empty sketch's range
  /// (kBuckets, 0) leaves any range unchanged.
  void widen(std::size_t lo, std::size_t hi) noexcept {
    if (lo < lo_) lo_ = static_cast<std::uint16_t>(lo);
    if (hi > hi_) hi_ = static_cast<std::uint16_t>(hi);
  }
  std::uint64_t total_ = 0;  ///< true count, unaffected by saturation
  std::array<std::uint16_t, kBuckets> counts_{};
  // Occupied range [lo_, hi_); exactly (kBuckets, 0) while empty.
  std::uint16_t lo_ = kBuckets;
  std::uint16_t hi_ = 0;
};

}  // namespace flexric::telemetry
