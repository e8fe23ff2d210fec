#include "telemetry/series.hpp"

#include <algorithm>
#include <span>

namespace flexric::telemetry {

namespace {

/// Floor division for bucket alignment (timestamps may legally be 0).
Nanos bucket_start(Nanos t, Nanos width) noexcept {
  Nanos q = t / width;
  if (t % width != 0 && t < 0) q--;
  return q * width;
}

/// Slot `head + i` of a ring of `cap` (head < cap, i <= cap): wraps by
/// compare-and-reset instead of a runtime division.
std::size_t ring_slot(std::size_t head, std::size_t i, std::size_t cap) {
  std::size_t at = head + i;
  return at >= cap ? at - cap : at;
}

/// Empties an open bucket for reuse from `t_start`. Clears only the
/// sketch's occupied range instead of assigning a whole fresh Rollup.
void reopen(Rollup& r, Nanos t_start) noexcept {
  r.t_start = t_start;
  r.count = 0;
  r.sum = 0.0;
  r.min = std::numeric_limits<double>::infinity();
  r.max = -std::numeric_limits<double>::infinity();
  r.sketch.clear();
}

}  // namespace

std::size_t SeriesLayout::bytes_per_series() const noexcept {
  using TS = TimeSeries;
  constexpr std::size_t kPerSlot = sizeof(TS::Slot) + sizeof(TS::SpillBlock) +
                                   sizeof(std::unique_ptr<TS::SpillBlock>);
  return sizeof(TimeSeries) + raw_capacity * sizeof(RawSample) +
         (tier1_capacity + tier2_capacity) * kPerSlot;
}

TimeSeries::TimeSeries(const SeriesLayout& layout) : layout_(layout) {
  raw_.resize(layout_.raw_capacity);
  tier1_.slots.resize(layout_.tier1_capacity);
  tier2_.slots.resize(layout_.tier2_capacity);
}

std::size_t TimeSeries::heap_bytes() const noexcept {
  return sizeof(TimeSeries) + raw_.capacity() * sizeof(RawSample) +
         tier1_.heap_bytes() + tier2_.heap_bytes();
}

std::size_t TimeSeries::RollupRing::heap_bytes() const noexcept {
  return slots.capacity() * sizeof(Slot) +
         spill.capacity() * sizeof(std::unique_ptr<SpillBlock>) +
         spill.size() * sizeof(SpillBlock);
}

void TimeSeries::RollupRing::push(const Rollup& r) {
  if (slots.empty()) return;
  std::size_t at = head;
  if (size < slots.size()) {
    at = ring_slot(head, size, slots.size());
    size++;
  } else if (++head == slots.size()) {
    head = 0;
  }
  Slot& s = slots[at];
  if (s.spill != kNoSpill) {  // the overwritten rollup's block is free again
    spill[s.spill]->next_free = free_head;
    free_head = s.spill;
    s.spill = kNoSpill;
  }
  s.t_start = r.t_start;
  s.count = r.count;
  s.sum = r.sum;
  s.min = r.min;
  s.max = r.max;
  std::span<const std::uint16_t> occ = r.sketch.occupied();
  s.lo = static_cast<std::uint16_t>(r.sketch.lo());
  s.n = static_cast<std::uint16_t>(occ.size());
  std::uint16_t* dst = s.counts.data();
  if (occ.size() > Slot::kInline) {
    s.spill = take_block();
    dst = spill[s.spill]->counts.data();
  }
  std::copy(occ.begin(), occ.end(), dst);
}

std::uint32_t TimeSeries::RollupRing::take_block() {
  if (free_head == kNoSpill) grow_spill();
  std::uint32_t id = free_head;
  free_head = spill[id]->next_free;
  return id;
}

// Runs only when the ring holds more wide rollups at once than ever before:
// at most slots.size() times, and the table is reserved to that bound.
// @coldpath spill-block growth, bounded by the slot count
void TimeSeries::RollupRing::grow_spill() {
  if (spill.empty()) spill.reserve(slots.size());
  spill.push_back(std::make_unique<SpillBlock>());
  spill.back()->next_free = free_head;
  free_head = static_cast<std::uint32_t>(spill.size() - 1);
}

Rollup TimeSeries::RollupRing::expand(const Slot& s) const {
  Rollup r;
  r.t_start = s.t_start;
  r.count = s.count;
  r.sum = s.sum;
  r.min = s.min;
  r.max = s.max;
  const std::uint16_t* counts =
      s.spill == kNoSpill ? s.counts.data() : spill[s.spill]->counts.data();
  r.sketch.assign(s.lo, {counts, s.n}, s.count);
  return r;
}

// @hotpath one call per ingested sample
void TimeSeries::push(Nanos t, double v) {
  if (!raw_.empty()) {
    if (raw_size_ < raw_.size()) {
      raw_[ring_slot(raw_head_, raw_size_, raw_.size())] = {t, v};
      raw_size_++;
    } else {
      raw_[raw_head_] = {t, v};
      if (++raw_head_ == raw_.size()) raw_head_ = 0;
    }
  }
  total_samples_++;
  last_t_ = t;

  // Common case: t falls inside the open tier-1 bucket, so its bucket start
  // is the open one's and no division is needed.
  if (open1_active_ && t >= open1_.t_start && t < open1_end_) {
    open1_.add(v);
    return;
  }
  Nanos b1 = bucket_start(t, layout_.tier1_width);
  if (open1_active_ && b1 > open1_.t_start) close_tier1();
  if (!open1_active_) {
    reopen(open1_, b1);
    open1_end_ = b1 > std::numeric_limits<Nanos>::max() - layout_.tier1_width
                     ? std::numeric_limits<Nanos>::max()
                     : b1 + layout_.tier1_width;
    open1_active_ = true;
  }
  open1_.add(v);
}

void TimeSeries::close_tier1() {
  tier1_.push(open1_);
  Nanos b2 = bucket_start(open1_.t_start, layout_.tier2_width);
  if (open2_active_ && b2 > open2_.t_start) close_tier2();
  if (!open2_active_) {
    reopen(open2_, b2);
    open2_active_ = true;
  }
  // Keep the tier2 bucket's aligned start: merge only folds in the stats.
  Nanos keep = open2_.t_start;
  open2_.merge(open1_);
  open2_.t_start = keep;
  open1_active_ = false;
}

void TimeSeries::close_tier2() {
  tier2_.push(open2_);
  open2_active_ = false;
}

Nanos TimeSeries::oldest_raw_t() const noexcept {
  if (raw_size_ == 0) return 0;
  return raw_[raw_head_].t;
}

std::vector<RawSample> TimeSeries::raw_range(Nanos t0, Nanos t1) const {
  std::vector<RawSample> out;
  for (std::size_t i = 0; i < raw_size_; ++i) {
    const RawSample& s = raw_[ring_slot(raw_head_, i, raw_.size())];
    if (s.t >= t0 && s.t < t1) out.push_back(s);
  }
  return out;
}

std::vector<RawSample> TimeSeries::latest(std::size_t n) const {
  std::size_t take = n < raw_size_ ? n : raw_size_;
  std::vector<RawSample> out;
  out.reserve(take);
  for (std::size_t i = raw_size_ - take; i < raw_size_; ++i)
    out.push_back(raw_[ring_slot(raw_head_, i, raw_.size())]);
  return out;
}

std::vector<Rollup> TimeSeries::rollup_range(int tier, Nanos t0,
                                             Nanos t1) const {
  std::vector<Rollup> out;
  const RollupRing& ring = tier == 1 ? tier1_ : tier2_;
  for (std::size_t i = 0; i < ring.size; ++i) {
    const Slot& s = ring.slots[ring_slot(ring.head, i, ring.slots.size())];
    if (s.t_start >= t0 && s.t_start < t1) out.push_back(ring.expand(s));
  }
  const Rollup& open = tier == 1 ? open1_ : open2_;
  bool open_active = tier == 1 ? open1_active_ : open2_active_;
  if (open_active && open.t_start >= t0 && open.t_start < t1)
    out.push_back(open);
  return out;
}

std::size_t TimeSeries::rollup_count(int tier) const noexcept {
  return tier == 1 ? tier1_.size : tier2_.size;
}

Nanos TimeSeries::oldest_rollup_t(int tier) const noexcept {
  const RollupRing& ring = tier == 1 ? tier1_ : tier2_;
  if (ring.size == 0) {
    const Rollup& open = tier == 1 ? open1_ : open2_;
    bool open_active = tier == 1 ? open1_active_ : open2_active_;
    return open_active ? open.t_start : 0;
  }
  return ring.slots[ring.head].t_start;
}

}  // namespace flexric::telemetry
