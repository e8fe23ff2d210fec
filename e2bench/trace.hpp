// Measurement primitives of the paced E2 benchmark: nearest-rank
// percentiles, fixed-size sample buffers, spans with self-time arithmetic, and
// the open-loop TTI pacer with its lateness ledger.
//
// Header-only and free of FlexRIC dependencies so test_trace.cpp can check
// the arithmetic without building the SDK.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace e2bench {

using Nanos = std::int64_t;

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// One percentile read off a sample set: the value and the sample count it
/// was read from.
struct Quantile {
  double value = 0.0;
  std::size_t count = 0;
};

/// Nearest-rank percentile (p in (0, 100]): the smallest sample such that at
/// least p% of the samples are <= it, i.e. the ceil(p/100 * n)-th smallest.
/// Reorders `v`. An empty set yields count 0.
template <typename T>
Quantile nearest_rank(std::vector<T>& v, double p) {
  Quantile q;
  q.count = v.size();
  if (v.empty()) return q;
  // Integer arithmetic in parts per million keeps ceil() exact for the
  // usual p50/p99 (0.99 * 100 is not exactly 99 in binary).
  const auto ppm = static_cast<std::uint64_t>(p * 10000.0 + 0.5);
  std::uint64_t rank = (ppm * v.size() + 999999) / 1000000;
  rank = std::clamp<std::uint64_t>(rank, 1, v.size());
  auto nth = v.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(v.begin(), nth, v.end());
  q.value = static_cast<double>(*nth);
  return q;
}

/// Plain median (mean of the middle pair for even counts); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Samples of one recorder, kept per second of the run. The buffer has a
/// fixed size and is written in full when constructed (before set-up), so
/// recording never allocates and its resident bytes are known: the peak
/// RSS the benchmark reports has them taken off. A second holds at most
/// `cap` samples; further ones are counted as overflow and not kept.
class Samples {
 public:
  Samples() = default;
  Samples(std::size_t seconds, std::size_t cap)
      : cap_(cap),
        n_(seconds, 0),
        data_(seconds * cap, std::numeric_limits<std::uint32_t>::max()) {}

  void add(std::size_t sec, std::uint32_t sample) {
    if (sec >= n_.size()) return;
    if (n_[sec] == cap_) {
      ++overflow_;
      return;
    }
    data_[sec * cap_ + n_[sec]++] = sample;
  }
  [[nodiscard]] std::size_t count(std::size_t sec) const noexcept {
    return sec < n_.size() ? n_[sec] : 0;
  }
  [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }
  [[nodiscard]] std::size_t bytes() const noexcept {
    return data_.size() * sizeof(std::uint32_t) +
           n_.size() * sizeof(std::size_t);
  }
  /// Appends the samples of seconds [lo, hi) to `out`.
  void append_to(std::vector<std::uint32_t>& out, std::size_t lo,
                 std::size_t hi) const {
    for (std::size_t s = lo; s < hi && s < n_.size(); ++s)
      out.insert(out.end(), data_.begin() + static_cast<std::ptrdiff_t>(s * cap_),
                 data_.begin() + static_cast<std::ptrdiff_t>(s * cap_ + n_[s]));
  }

 private:
  std::size_t cap_ = 0;
  std::vector<std::size_t> n_;
  std::vector<std::uint32_t> data_;
  std::uint64_t overflow_ = 0;
};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

constexpr std::uint32_t kNoParent = std::numeric_limits<std::uint32_t>::max();

/// One timed call into a layer. `parent` indexes the span that caused it in
/// the same buffer (kNoParent for roots). `id` ties together the spans of
/// one indication (agent, RAN function, sn) or one control transaction;
/// `arg` carries a per-span quantity such as bytes sent.
struct Span {
  std::uint16_t name = 0;
  std::uint32_t parent = kNoParent;
  Nanos start = 0;
  Nanos end = 0;
  std::uint64_t id = 0;
  std::uint32_t arg = 0;
};

/// Indication span id: (global agent, RAN function, sn) packed into 64 bits.
inline std::uint64_t ind_span_id(std::uint32_t agent, std::uint16_t fn,
                                 std::uint32_t sn) noexcept {
  return (static_cast<std::uint64_t>(agent & 0xFFFFu) << 48) |
         (static_cast<std::uint64_t>(fn) << 32) | sn;
}

/// Per-thread span store with an open-span stack, so a span opened inside
/// another on the same thread records it as its parent. Bounded: once full
/// it records nothing more and counts the spans it dropped.
class SpanBuffer {
 public:
  static constexpr std::uint32_t kDropped = kNoParent;

  explicit SpanBuffer(std::size_t capacity = 0) { spans_.reserve(capacity); }

  std::uint32_t open(std::uint16_t name, Nanos start, std::uint64_t id = 0) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      stack_.push_back(kDropped);
      return kDropped;
    }
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? kNoParent : stack_.back();
    s.start = start;
    s.end = start;
    s.id = id;
    const auto idx = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(s);
    stack_.push_back(idx);
    return idx;
  }
  void close(std::uint32_t idx, Nanos end, std::uint32_t arg = 0) {
    if (!stack_.empty()) stack_.pop_back();
    if (idx == kDropped || idx >= spans_.size()) return;
    spans_[idx].end = end;
    spans_[idx].arg = arg;
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  std::uint64_t dropped_ = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may overlap each other (a child
/// handed to another thread, or two children of one async parent), so the
/// covered part is the length of the union of the children's intervals,
/// clipped to the parent's own interval.
inline std::vector<Nanos> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<Nanos, Nanos>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent != kNoParent && s.parent < spans.size())
      kids[s.parent].emplace_back(s.start, s.end);
  std::vector<Nanos> out(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    const Nanos dur = std::max<Nanos>(0, p.end - p.start);
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    Nanos covered = 0;
    Nanos cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, p.start);
      hi = std::min(hi, p.end);
      if (hi <= lo) continue;
      if (!open || lo > cur_hi) {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = dur - covered;
  }
  return out;
}

/// Per-layer totals over a span set.
struct LayerTotals {
  std::uint64_t count = 0;
  Nanos total_ns = 0;
  Nanos self_ns = 0;
  std::uint64_t arg_sum = 0;
  [[nodiscard]] double mean_ns() const noexcept {
    return count ? static_cast<double>(total_ns) / static_cast<double>(count)
                 : 0.0;
  }
  [[nodiscard]] double self_mean_ns() const noexcept {
    return count ? static_cast<double>(self_ns) / static_cast<double>(count)
                 : 0.0;
  }
};

inline void accumulate_layers(const std::vector<Span>& spans,
                              std::vector<LayerTotals>& by_name) {
  const std::vector<Nanos> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.name >= by_name.size()) by_name.resize(s.name + 1u);
    LayerTotals& t = by_name[s.name];
    t.count++;
    t.total_ns += std::max<Nanos>(0, s.end - s.start);
    t.self_ns += self[i];
    t.arg_sum += s.arg;
  }
}

// ---------------------------------------------------------------------------
// Open-loop pacing
// ---------------------------------------------------------------------------

/// Open-loop TTI schedule: TTI k is due at start + k * period whatever
/// happened before it. A generator that stalls does not skip TTIs: it runs
/// the overdue ones back to back, each stamped with its own due time, and
/// the lateness ledger records how late each one began.
class Pacer {
 public:
  Pacer(Nanos start, Nanos period) : next_(start), period_(period) {}

  [[nodiscard]] Nanos next_due() const noexcept { return next_; }
  [[nodiscard]] std::uint64_t ttis() const noexcept { return ttis_; }

  /// The generator begins the next TTI at `now` (never before it is due).
  /// Returns that TTI's due time and books its lateness.
  Nanos begin(Nanos now) {
    const Nanos due = next_;
    const Nanos late = std::max<Nanos>(0, now - due);
    lateness_.push_back(static_cast<std::uint32_t>(
        std::min<Nanos>(late, std::numeric_limits<std::uint32_t>::max())));
    max_late_ = std::max(max_late_, late);
    next_ += period_;
    ++ttis_;
    return due;
  }
  /// Forget the lateness booked so far (end of warm-up).
  void reset_ledger() {
    lateness_.clear();
    max_late_ = 0;
  }
  [[nodiscard]] Quantile late_p99() const {
    std::vector<std::uint32_t> v = lateness_;
    return nearest_rank(v, 99.0);
  }
  [[nodiscard]] Nanos late_max() const noexcept { return max_late_; }
  [[nodiscard]] const std::vector<std::uint32_t>& lateness() const noexcept {
    return lateness_;
  }

 private:
  Nanos next_;
  Nanos period_;
  std::uint64_t ttis_ = 0;
  std::vector<std::uint32_t> lateness_;
  Nanos max_late_ = 0;
};

}  // namespace e2bench
