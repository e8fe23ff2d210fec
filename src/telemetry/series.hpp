// One KPI time series: a raw ring buffer plus multi-resolution rollup rings.
//
// Layout (the "columnar ring-buffer" of the telemetry store):
//
//   raw    fixed-capacity ring of (timestamp, value) samples — the 1 ms
//          indication stream. Wrapping overwrites the oldest sample.
//   tier1  ring of 100 ms rollups (count/sum/min/max + quantile sketch).
//   tier2  ring of 1 s rollups, cascaded from tier1.
//
// Downsampling is *eager*: every append folds the sample into the open
// tier1 bucket; when a sample crosses a bucket boundary the bucket closes
// into the tier1 ring and merges into the open tier2 bucket. So by the time
// the raw ring wraps, the overwritten window already lives in tier1, and by
// the time tier1 wraps it lives in tier2 — old data degrades in resolution
// instead of vanishing. Every ring is sized at construction and never
// reallocates.
//
// Closed rollups are stored compactly: a 64-byte slot holds the scalar
// stats and the sketch's occupied bucket range, with up to eight counts
// inline. A wider range spills into a dense block from the ring's free
// list; blocks are allocated only when a ring holds more wide rollups at
// once than ever before, so a series grows only up to its reservation
// (one block per slot), and bytes_per_series() charges that reservation —
// the store-level memory accounting stays a fixed per-series upper bound.
// The open buckets stay dense Rollups, and queries expand slots back.
//
// Timestamps are expected non-decreasing (the indication stream is ordered
// per agent). A late sample still lands in the raw ring and is folded into
// the currently open rollup bucket rather than reopening a closed one.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/clock.hpp"
#include "telemetry/sketch.hpp"

namespace flexric::telemetry {

struct RawSample {
  Nanos t = 0;
  double v = 0.0;
};

/// One downsampled bucket: [t_start, t_start + tier width).
struct Rollup {
  Nanos t_start = 0;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  QuantileSketch sketch;

  void add(double v) noexcept {
    count++;
    sum += v;
    if (v < min) min = v;
    if (v > max) max = v;
    sketch.record(v);
  }
  void merge(const Rollup& o) noexcept {
    if (o.count == 0) return;
    count += o.count;
    sum += o.sum;
    if (o.min < min) min = o.min;
    if (o.max > max) max = o.max;
    sketch.merge(o.sketch);
  }
  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Ring capacities and rollup widths, shared by every series in a store.
struct SeriesLayout {
  std::size_t raw_capacity = 512;
  std::size_t tier1_capacity = 128;
  std::size_t tier2_capacity = 128;
  Nanos tier1_width = 100 * kMilli;
  Nanos tier2_width = kSecond;

  /// Bytes one series may own under this layout: the fixed TimeSeries
  /// object and ring payloads, with every rollup slot's spill block
  /// reserved. An upper bound of TimeSeries::heap_bytes(); the store
  /// multiplies it for its budget.
  [[nodiscard]] std::size_t bytes_per_series() const noexcept;
  /// Most heap blocks one series owns: the raw ring, two slot rings, two
  /// spill tables and one spill block per rollup slot.
  [[nodiscard]] std::size_t heap_blocks() const noexcept {
    return 5 + tier1_capacity + tier2_capacity;
  }
};

class TimeSeries {
 public:
  explicit TimeSeries(const SeriesLayout& layout);

  /// Record one sample. Named push (not append): the raw ring and rollup
  /// buckets are preallocated by the constructor — this never allocates,
  /// which the hotpath-alloc pass can see from the name alone. Rings wrap
  /// by compare-and-reset, and a sample inside the open tier-1 bucket skips
  /// the bucket-start division; late samples take the general path.
  void push(Nanos t, double v);

  [[nodiscard]] std::uint64_t total_samples() const noexcept {
    return total_samples_;
  }
  [[nodiscard]] std::size_t raw_count() const noexcept { return raw_size_; }
  /// Timestamp of the oldest sample still in the raw ring (0 when empty).
  [[nodiscard]] Nanos oldest_raw_t() const noexcept;
  [[nodiscard]] Nanos last_t() const noexcept { return last_t_; }

  /// Raw samples with t in [t0, t1), oldest first.
  [[nodiscard]] std::vector<RawSample> raw_range(Nanos t0, Nanos t1) const;
  /// The newest n raw samples, oldest first.
  [[nodiscard]] std::vector<RawSample> latest(std::size_t n) const;

  /// Closed rollups of tier 1 or 2 whose bucket start lies in [t0, t1),
  /// oldest first, followed by the open bucket if it also intersects.
  [[nodiscard]] std::vector<Rollup> rollup_range(int tier, Nanos t0,
                                                 Nanos t1) const;
  [[nodiscard]] std::size_t rollup_count(int tier) const noexcept;
  /// Bucket start of the oldest retained rollup of `tier`; 0 when none.
  [[nodiscard]] Nanos oldest_rollup_t(int tier) const noexcept;

  [[nodiscard]] const SeriesLayout& layout() const noexcept { return layout_; }
  /// Heap bytes this series owns now (object, rings, spill blocks; no
  /// allocator overhead). Never above layout().bytes_per_series().
  [[nodiscard]] std::size_t heap_bytes() const noexcept;
  /// Spill blocks both rollup rings hold, in use or free; at most
  /// tier1_capacity + tier2_capacity.
  [[nodiscard]] std::size_t spill_blocks() const noexcept {
    return tier1_.spill.size() + tier2_.spill.size();
  }

 private:
  friend struct SeriesLayout;
  static constexpr std::uint32_t kNoSpill = 0xFFFFFFFF;

  /// A closed rollup as a tier ring keeps it: the scalar stats and the
  /// sketch's occupied buckets [lo, lo + n), inline when n <= kInline, else
  /// in spill block `spill`. The sketch total is `count`.
  struct Slot {
    static constexpr std::size_t kInline = 8;
    Nanos t_start = 0;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::uint16_t lo = 0;
    std::uint16_t n = 0;
    std::uint32_t spill = kNoSpill;
    std::array<std::uint16_t, kInline> counts{};
  };
  static_assert(sizeof(Slot) == 64, "one cache line per closed rollup");

  /// Dense counts of one wide rollup; a free block links to the next.
  struct SpillBlock {
    std::array<std::uint16_t, QuantileSketch::kBuckets> counts;
    std::uint32_t next_free;
  };

  struct RollupRing {
    std::vector<Slot> slots;
    /// Every block this ring ever allocated; each is held by one slot or
    /// linked from free_head. Never more than slots.size().
    std::vector<std::unique_ptr<SpillBlock>> spill;
    std::uint32_t free_head = kNoSpill;
    std::size_t head = 0;  ///< index of the oldest entry
    std::size_t size = 0;
    void push(const Rollup& r);
    [[nodiscard]] Rollup expand(const Slot& s) const;
    std::uint32_t take_block();
    void grow_spill();
    [[nodiscard]] std::size_t heap_bytes() const noexcept;
  };

  void close_tier1();
  void close_tier2();

  // Everything push() touches comes first, so a sample inside the open
  // tier-1 bucket reads and writes two cache lines of this object (plus one
  // raw slot and one sketch bucket) instead of scattering across its whole
  // footprint.
  std::vector<RawSample> raw_;
  std::size_t raw_head_ = 0;
  std::size_t raw_size_ = 0;
  std::uint64_t total_samples_ = 0;
  Nanos last_t_ = 0;
  Nanos open1_end_ = 0;  ///< open1_.t_start + tier1 width (saturated)
  bool open1_active_ = false;
  bool open2_active_ = false;
  Rollup open1_{};

  SeriesLayout layout_;
  RollupRing tier1_;
  RollupRing tier2_;
  Rollup open2_{};
};

}  // namespace flexric::telemetry
