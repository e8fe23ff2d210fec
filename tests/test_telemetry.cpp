// Telemetry subsystem tests: quantile sketch error bounds, rollup-vs-naive
// recomputation properties, store budget/eviction, windowed queries, the
// ingestion adapter (decoded + raw wire modes), Monitor integration, and the
// northbound REST endpoints.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <limits>
#include <new>
#include <string_view>
#include <thread>

#include "agent/agent.hpp"
#include "common/rng.hpp"
#include "ctrl/json.hpp"
#include "ctrl/monitor.hpp"
#include "ctrl/rest.hpp"
#include "ctrl/telemetry_rest.hpp"
#include "e2sm/common.hpp"
#include "helpers.hpp"
#include "ran/functions.hpp"
#include "telemetry/ingest.hpp"
#include "telemetry/store.hpp"

// Allocation counting for the steady-state push test: this binary's global
// operator new bumps a per-thread counter.
namespace {
thread_local std::uint64_t t_allocs = 0;
void* counted_alloc(std::size_t n) {
  t_allocs++;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace flexric::telemetry {
namespace {

using test::pump;
using test::pump_until;

constexpr WireFormat kFmt = WireFormat::flat;

// ---------------------------------------------------------------------------
// QuantileSketch
// ---------------------------------------------------------------------------

TEST(Sketch, EmptyQuantileIsZero) {
  QuantileSketch s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.quantile(0.5), 0.0);
}

TEST(Sketch, BucketRoundTripWithinRelativeError) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.uniform(0.01, 1e6);
    if (v < QuantileSketch::kMinValue) continue;
    double rep = QuantileSketch::bucket_value(QuantileSketch::bucket_of(v));
    EXPECT_LE(std::abs(rep - v), v * QuantileSketch::kRelativeError + 1e-12)
        << "v=" << v;
  }
}

TEST(Sketch, SingleValueQuantiles) {
  QuantileSketch s;
  s.record(42.0);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_NEAR(s.quantile(q), 42.0, 42.0 * QuantileSketch::kRelativeError);
  }
}

TEST(Sketch, QuantileWithinErrorOfExact) {
  Rng rng(13);
  QuantileSketch s;
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) {
    double v = rng.uniform(1.0, 10000.0);
    values.push_back(v);
    s.record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.01, 0.25, 0.5, 0.75, 0.95, 0.99}) {
    double exact =
        values[static_cast<std::size_t>(q * (values.size() - 1))];
    EXPECT_NEAR(s.quantile(q), exact,
                exact * QuantileSketch::kRelativeError + 1e-9)
        << "q=" << q;
  }
}

TEST(Sketch, MergeEqualsRecordingEverything) {
  Rng rng(29);
  QuantileSketch a, b, all;
  for (int i = 0; i < 2000; ++i) {
    double v = rng.uniform(0.5, 500.0);
    all.record(v);
    (i % 2 == 0 ? a : b).record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(a.quantile(q), all.quantile(q)) << "q=" << q;
  }
}

TEST(Sketch, OutOfRangeValuesClampToEdgeBuckets) {
  QuantileSketch s;
  s.record(1e-9);   // underflow bucket -> reported as 0
  s.record(-5.0);   // negatives -> underflow bucket
  EXPECT_EQ(s.quantile(0.5), 0.0);
  QuantileSketch t;
  t.record(1e30);   // overflow bucket -> clamped to kMaxValue
  EXPECT_DOUBLE_EQ(t.quantile(0.5), QuantileSketch::kMaxValue);
}

TEST(Sketch, SaturatedBucketStillAnswers) {
  QuantileSketch s;
  for (int i = 0; i < 70000; ++i) s.record(8.0);  // u16 saturates at 65535
  EXPECT_EQ(s.count(), 70000u);
  EXPECT_NEAR(s.quantile(0.999), 8.0, 8.0 * QuantileSketch::kRelativeError);
}

TEST(Sketch, ClearResets) {
  QuantileSketch s;
  s.record(3.0);
  s.clear();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.quantile(0.5), 0.0);
}

// A merge adds the other sketch's true total, not its saturated counts.
TEST(Sketch, MergeIntoEmptyKeepsSaturatedCount) {
  QuantileSketch src;
  for (int i = 0; i < 70000; ++i) src.record(8.0);
  for (int i = 0; i < 10; ++i) src.record(1000.0);
  QuantileSketch dst;
  dst.merge(src);
  EXPECT_EQ(dst.count(), 70010u);
  for (double q : {0.0, 0.01, 0.5, 0.95, 0.99, 0.9999, 1.0})
    EXPECT_EQ(dst.quantile(q), src.quantile(q)) << "q=" << q;
}

TEST(Sketch, OccupiedRangeRoundTrips) {
  QuantileSketch s;
  EXPECT_TRUE(s.occupied().empty());
  s.record(3.0);
  s.record(-1.0);  // underflow bucket 0
  s.record(40.0);
  ASSERT_EQ(s.lo(), 0u);
  ASSERT_EQ(s.occupied().size(), QuantileSketch::bucket_of(40.0) + 1);
  EXPECT_NE(s.occupied().front(), 0u);
  EXPECT_NE(s.occupied().back(), 0u);
  QuantileSketch copy;
  copy.assign(s.lo(), s.occupied(), s.count());
  EXPECT_EQ(copy.count(), 3u);
  for (double q : {0.0, 0.5, 1.0}) EXPECT_EQ(copy.quantile(q), s.quantile(q));
  copy.clear();
  EXPECT_TRUE(copy.occupied().empty());
  EXPECT_EQ(copy.quantile(0.5), 0.0);
}

// ---------------------------------------------------------------------------
// TimeSeries: rollups exactly match naive recomputation
// ---------------------------------------------------------------------------

struct NaiveBucket {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<double> values;
};

NaiveBucket naive_window(const std::vector<RawSample>& log, Nanos t0,
                         Nanos t1) {
  NaiveBucket b;
  for (const auto& s : log) {
    if (s.t < t0 || s.t >= t1) continue;
    if (b.count == 0) {
      b.min = s.v;
      b.max = s.v;
    }
    b.count++;
    b.sum += s.v;
    b.min = std::min(b.min, s.v);
    b.max = std::max(b.max, s.v);
    b.values.push_back(s.v);
  }
  std::sort(b.values.begin(), b.values.end());
  return b;
}

double naive_quantile(const NaiveBucket& b, double q) {
  if (b.values.empty()) return 0.0;
  return b.values[static_cast<std::size_t>(q * (b.values.size() - 1))];
}

// The central property: every retained rollup (both tiers, closed and open)
// carries exactly the count/sum/min/max a naive recomputation over the full
// sample log produces, and its sketch quantiles are within the documented
// relative error of the exact quantiles. Integer-valued samples make the
// floating-point sums associativity-proof, so equality is exact.
TEST(TimeSeries, RollupsMatchNaiveRecomputation) {
  Rng rng(47);
  SeriesLayout layout;
  TimeSeries series(layout);
  std::vector<RawSample> log;
  Nanos t = 0;
  for (int i = 0; i < 5000; ++i) {
    t += kMilli;
    auto v = static_cast<double>(1 + rng.bounded(1000));
    series.push(t, v);
    log.push_back({t, v});
  }

  for (int tier : {1, 2}) {
    Nanos width = tier == 1 ? layout.tier1_width : layout.tier2_width;
    std::vector<Rollup> rollups =
        series.rollup_range(tier, 0, t + kSecond);
    ASSERT_FALSE(rollups.empty()) << "tier " << tier;
    for (const Rollup& r : rollups) {
      NaiveBucket n = naive_window(log, r.t_start, r.t_start + width);
      ASSERT_EQ(r.count, n.count) << "tier " << tier << " t=" << r.t_start;
      EXPECT_EQ(r.sum, n.sum) << "tier " << tier << " t=" << r.t_start;
      EXPECT_EQ(r.min, n.min);
      EXPECT_EQ(r.max, n.max);
      EXPECT_EQ(r.sketch.count(), n.count);
      for (double q : {0.5, 0.95, 0.99}) {
        double exact = naive_quantile(n, q);
        EXPECT_NEAR(r.sketch.quantile(q), exact,
                    exact * QuantileSketch::kRelativeError + 1e-9)
            << "tier " << tier << " q=" << q;
      }
    }
  }
}

TEST(TimeSeries, RawRingWrapsButRollupsRetainHistory) {
  SeriesLayout layout;
  layout.raw_capacity = 64;
  TimeSeries series(layout);
  for (int i = 0; i < 1000; ++i)
    series.push((i + 1) * kMilli, static_cast<double>(i));
  EXPECT_EQ(series.total_samples(), 1000u);
  EXPECT_EQ(series.raw_count(), 64u);
  // Raw retains only the tail...
  EXPECT_EQ(series.oldest_raw_t(), (1000 - 64 + 1) * kMilli);
  // ...but tier1 still covers the overwritten window.
  std::uint64_t rolled = 0;
  for (const Rollup& r : series.rollup_range(1, 0, 2 * kSecond))
    rolled += r.count;
  EXPECT_EQ(rolled, 1000u);
}

TEST(TimeSeries, CascadeDegradesTier1IntoTier2) {
  SeriesLayout layout;
  layout.tier1_capacity = 8;  // tier1 wraps quickly
  TimeSeries series(layout);
  // 30 s of samples at 10 ms: 3000 samples, 300 tier1 buckets, 30 tier2.
  for (int i = 0; i < 3000; ++i)
    series.push((i + 1) * 10 * kMilli, 1.0);
  EXPECT_EQ(series.rollup_count(1), 8u);
  EXPECT_EQ(series.rollup_count(2), 29u);  // 30th is the open bucket
  // Tier2 accounts for everything except the still-open tier1 bucket
  // (samples cascade on tier1 close, and the last sample opened a fresh
  // 100 ms bucket).
  std::uint64_t total = 0;
  for (const Rollup& r : series.rollup_range(2, 0, 31 * kSecond))
    total += r.count;
  EXPECT_EQ(total, 2999u);
  // One far-future sample closes the open buckets; now all 3000 earlier
  // samples are accounted for at tier2 resolution (the flush sample itself
  // sits in the new open tier1 bucket).
  series.push(40 * kSecond, 1.0);
  total = 0;
  for (const Rollup& r : series.rollup_range(2, 0, 41 * kSecond))
    total += r.count;
  EXPECT_EQ(total, 3000u);
}

TEST(TimeSeries, LatestReturnsNewestInOrder) {
  TimeSeries series{SeriesLayout{}};
  for (int i = 1; i <= 20; ++i)
    series.push(i * kMilli, static_cast<double>(i));
  auto tail = series.latest(3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].v, 18.0);
  EXPECT_EQ(tail[2].v, 20.0);
  EXPECT_EQ(series.latest(100).size(), 20u);
}

// ---------------------------------------------------------------------------
// TimeSeries: compact closed-rollup slots against a dense reference
// ---------------------------------------------------------------------------

Nanos floor_to(Nanos t, Nanos width) {
  Nanos q = t / width;
  if (t % width != 0 && t < 0) q--;
  return q * width;
}

/// TimeSeries' rollup cascade kept densely: every closed tier-1 and tier-2
/// Rollup is stored whole, as the rings stored them before slots were
/// compacted.
struct DenseTiers {
  explicit DenseTiers(const SeriesLayout& l) : layout(l) {}
  SeriesLayout layout;
  std::deque<Rollup> closed1, closed2;
  Rollup open1, open2;
  bool active1 = false;
  bool active2 = false;

  void push(Nanos t, double v) {
    Nanos b1 = floor_to(t, layout.tier1_width);
    if (active1 && b1 > open1.t_start) close1();
    if (!active1) {
      open1 = Rollup{};
      open1.t_start = b1;
      active1 = true;
    }
    open1.add(v);
  }
  static void keep(std::deque<Rollup>& ring, const Rollup& r,
                   std::size_t cap) {
    ring.push_back(r);
    if (ring.size() > cap) ring.pop_front();
  }
  void close1() {
    keep(closed1, open1, layout.tier1_capacity);
    Nanos b2 = floor_to(open1.t_start, layout.tier2_width);
    if (active2 && b2 > open2.t_start) {
      keep(closed2, open2, layout.tier2_capacity);
      active2 = false;
    }
    if (!active2) {
      open2 = Rollup{};
      open2.t_start = b2;
      active2 = true;
    }
    open2.merge(open1);
    active1 = false;
  }
  [[nodiscard]] std::vector<Rollup> tier(int n) const {
    const auto& closed = n == 1 ? closed1 : closed2;
    std::vector<Rollup> out(closed.begin(), closed.end());
    if (n == 1 ? active1 : active2) out.push_back(n == 1 ? open1 : open2);
    return out;
  }
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_rollups(const TimeSeries& series, const DenseTiers& ref,
                         const char* what) {
  for (int tier : {1, 2}) {
    std::vector<Rollup> got =
        series.rollup_range(tier, std::numeric_limits<Nanos>::min(),
                            std::numeric_limits<Nanos>::max());
    std::vector<Rollup> want = ref.tier(tier);
    ASSERT_EQ(got.size(), want.size()) << what << " tier " << tier;
    for (std::size_t i = 0; i < got.size(); ++i) {
      const Rollup& g = got[i];
      const Rollup& w = want[i];
      SCOPED_TRACE(testing::Message() << what << " tier " << tier << " #"
                                      << i << " t=" << w.t_start);
      ASSERT_EQ(g.t_start, w.t_start);
      EXPECT_EQ(g.count, w.count);
      EXPECT_TRUE(same_bits(g.sum, w.sum));
      EXPECT_TRUE(same_bits(g.min, w.min));
      EXPECT_TRUE(same_bits(g.max, w.max));
      EXPECT_EQ(g.sketch.count(), w.sketch.count());
      EXPECT_EQ(g.sketch.count(), g.count);
      for (double q : {0.0, 0.01, 0.5, 0.95, 0.99, 1.0})
        EXPECT_TRUE(same_bits(g.sketch.quantile(q), w.sketch.quantile(q)))
            << "q=" << q;
    }
  }
}

/// A value drawn to make rollups span many buckets: log-uniform over the
/// whole sketch range, plus zeros, negatives, NaN and values at or beyond
/// kMaxValue.
double wide_value(Rng& rng) {
  switch (rng.bounded(10)) {
    case 0:
      return 0.0;
    case 1:
      return -rng.uniform(0.0, 100.0);
    case 2:
      return std::numeric_limits<double>::quiet_NaN();
    case 3:
      return rng.chance(0.5) ? QuantileSketch::kMaxValue
                             : std::numeric_limits<double>::infinity();
    default:
      return std::exp2(rng.uniform(-10.0, 58.0));
  }
}

SeriesLayout small_rings() {
  SeriesLayout layout;
  layout.raw_capacity = 16;
  layout.tier1_capacity = 8;
  layout.tier2_capacity = 4;
  return layout;
}

TEST(TimeSeriesCompact, SlotsMatchDenseReference) {
  for (std::uint64_t seed : {3u, 17u, 101u, 4242u}) {
    Rng rng(seed);
    DenseTiers ref(small_rings());
    TimeSeries series(ref.layout);
    Nanos t = 0;
    for (int i = 0; i < 20000; ++i) {
      t += static_cast<Nanos>(1 + rng.bounded(3)) * kMilli;
      // Narrow runs (one KPI level) alternate with wide bursts.
      bool wide = (i / 500) % 2 == 1;
      double v = wide ? wide_value(rng) : static_cast<double>(rng.bounded(4));
      Nanos at = rng.chance(0.01) ? t - 150 * kMilli : t;  // late sample
      series.push(at, v);
      ref.push(at, v);
    }
    expect_same_rollups(series, ref, "wide");
  }
}

TEST(TimeSeriesCompact, SaturatedBucketsMatchDenseReference) {
  DenseTiers ref(small_rings());
  TimeSeries series(ref.layout);
  // 70,000 samples of one value inside one 100 ms bucket saturate its
  // count; a few spread values make the range spill.
  for (int rollup = 0; rollup < 12; ++rollup) {
    Nanos base = rollup * 100 * kMilli;
    for (int i = 0; i < 70000; ++i) {
      Nanos at = base + i * kMicro;
      double v = i % 10000 == 0 ? std::exp2(i / 10000) * 1000.0 : 8.0;
      series.push(at, v);
      ref.push(at, v);
    }
  }
  expect_same_rollups(series, ref, "saturated");
}

TEST(TimeSeriesCompact, SpillBlocksStayWithinSlotCountAcrossWraps) {
  SeriesLayout layout = small_rings();
  TimeSeries series(layout);
  Rng rng(9);
  // ~200 wraps of tier 1, ~50 of tier 2; every fourth second is narrow so
  // blocks go back to the free list and are reused.
  for (int i = 0; i < 200000; ++i) {
    Nanos t = (i + 1) * kMilli;
    bool narrow = (i / 1000) % 4 == 3;
    series.push(t, narrow ? 5.0 : wide_value(rng));
  }
  EXPECT_GT(series.spill_blocks(), 0u);
  EXPECT_LE(series.spill_blocks(),
            layout.tier1_capacity + layout.tier2_capacity);
}

TEST(TimeSeriesCompact, SteadyStateSpillingPushesDoNotAllocate) {
  SeriesLayout layout = small_rings();
  TimeSeries series(layout);
  Rng rng(23);
  Nanos t = 0;
  auto run = [&](int n) {
    for (int i = 0; i < n; ++i) {
      t += kMilli;
      series.push(t, wide_value(rng));
    }
  };
  run(20000);  // both rings full of spilled rollups: high-water reached
  ASSERT_EQ(series.spill_blocks(),
            layout.tier1_capacity + layout.tier2_capacity);
  std::uint64_t before = t_allocs;
  run(20000);
  EXPECT_EQ(t_allocs - before, 0u);
}

TEST(TimeSeriesCompact, HeapBytesStayWithinAccountedBytes) {
  SeriesLayout layout;  // default capacities
  TimeSeries narrow(layout);
  TimeSeries wide(layout);
  Rng rng(31);
  for (int i = 0; i < 200000; ++i) {
    Nanos t = (i + 1) * kMilli;
    narrow.push(t, 12.0);
    wide.push(t, wide_value(rng));
  }
  EXPECT_EQ(narrow.spill_blocks(), 0u);
  EXPECT_EQ(wide.spill_blocks(),
            layout.tier1_capacity + layout.tier2_capacity);
  EXPECT_LE(wide.heap_bytes(), layout.bytes_per_series());
  EXPECT_LT(narrow.heap_bytes() * 5, layout.bytes_per_series());
}

// ---------------------------------------------------------------------------
// TelemetryStore: budget, eviction, queries
// ---------------------------------------------------------------------------

StoreConfig small_store(std::size_t n_series) {
  StoreConfig cfg;
  cfg.layout.raw_capacity = 32;
  cfg.layout.tier1_capacity = 8;
  cfg.layout.tier2_capacity = 8;
  TelemetryStore probe(cfg);
  cfg.memory_budget =
      probe.memory_bytes() + n_series * probe.per_series_cost();
  return cfg;
}

SeriesKey key_of(AgentId agent, std::uint16_t rnti, Metric m) {
  return SeriesKey{agent, make_entity(rnti), m};
}

TEST(Store, MemoryNeverExceedsBudget) {
  TelemetryStore store(small_store(4));
  for (std::uint16_t rnti = 0; rnti < 50; ++rnti) {
    for (int i = 0; i < 10; ++i) {
      static_cast<void>(
          store.record(key_of(1, rnti, Metric::mac_cqi), i * kMilli, 1.0));
      ASSERT_LE(store.memory_bytes(), store.memory_budget());
    }
  }
  EXPECT_LE(store.num_series(), 4u);
  EXPECT_GT(store.evictions(), 0u);
  EXPECT_EQ(store.dropped_samples(), 0u);  // eviction admits every sample
}

TEST(Store, EvictsLeastRecentlyWritten) {
  TelemetryStore store(small_store(2));
  auto a = key_of(1, 100, Metric::mac_cqi);
  auto b = key_of(1, 101, Metric::mac_cqi);
  auto c = key_of(1, 102, Metric::mac_cqi);
  ASSERT_TRUE(store.record(a, kMilli, 1.0).is_ok());
  ASSERT_TRUE(store.record(b, 2 * kMilli, 1.0).is_ok());
  ASSERT_TRUE(store.record(c, 3 * kMilli, 1.0).is_ok());  // evicts a
  EXPECT_EQ(store.find(a), nullptr);
  EXPECT_NE(store.find(b), nullptr);
  EXPECT_NE(store.find(c), nullptr);
  EXPECT_EQ(store.evictions(), 1u);
}

TEST(Store, RejectsWhenEvictionDisabled) {
  StoreConfig cfg = small_store(2);
  cfg.evict_on_budget = false;
  TelemetryStore store(cfg);
  ASSERT_TRUE(store.record(key_of(1, 1, Metric::mac_cqi), 0, 1.0).is_ok());
  ASSERT_TRUE(store.record(key_of(1, 2, Metric::mac_cqi), 0, 1.0).is_ok());
  Status st = store.record(key_of(1, 3, Metric::mac_cqi), 0, 1.0);
  EXPECT_EQ(st.code(), Errc::capacity);
  EXPECT_EQ(store.num_series(), 2u);
  EXPECT_EQ(store.dropped_samples(), 1u);
  EXPECT_EQ(store.evictions(), 0u);
  // Existing series still accept samples.
  EXPECT_TRUE(store.record(key_of(1, 1, Metric::mac_cqi), kMilli, 2.0).is_ok());
}

TEST(StoreRow, RejectedSeriesLeavesTheRestOfTheRowRecorded) {
  StoreConfig cfg = small_store(2);
  cfg.evict_on_budget = false;
  TelemetryStore store(cfg);
  const std::uint32_t ent = make_entity(7);
  const MetricValue first[] = {{Metric::mac_cqi, 1.0},
                               {Metric::mac_mcs_dl, 2.0}};
  ASSERT_TRUE(store.record_row(1, ent, kMilli, first).is_ok());

  // bsr and bytes_dl would be new series over budget: both are dropped,
  // while cqi and mcs_dl (existing) record around them.
  const MetricValue second[] = {{Metric::mac_cqi, 10.0},
                                {Metric::mac_bsr, 11.0},
                                {Metric::mac_mcs_dl, 12.0},
                                {Metric::mac_bytes_dl, 13.0}};
  EXPECT_EQ(store.record_row(1, ent, 2 * kMilli, second).code(),
            Errc::capacity);
  EXPECT_EQ(store.dropped_samples(), 2u);
  EXPECT_EQ(store.total_samples(), 4u);
  EXPECT_EQ(store.num_series(), 2u);
  EXPECT_EQ(store.find(SeriesKey{1, ent, Metric::mac_bsr}), nullptr);
  auto cqi = store.latest(SeriesKey{1, ent, Metric::mac_cqi}, 1);
  ASSERT_TRUE(cqi.is_ok());
  EXPECT_EQ((*cqi)[0].v, 10.0);
  auto mcs = store.latest(SeriesKey{1, ent, Metric::mac_mcs_dl}, 1);
  ASSERT_TRUE(mcs.is_ok());
  EXPECT_EQ((*mcs)[0].v, 12.0);

  // A brand-new row that is rejected whole leaves nothing behind.
  EXPECT_EQ(store.record_row(2, ent, 3 * kMilli, first).code(),
            Errc::capacity);
  EXPECT_EQ(store.dropped_samples(), 4u);
  EXPECT_EQ(store.list_series().size(), 2u);
}

TEST(StoreRow, EvictionInsideTheRowBeingWrittenKeepsTheRow) {
  const MetricValue row[] = {
      {Metric::mac_cqi, 1.0},      {Metric::mac_mcs_dl, 2.0},
      {Metric::mac_prbs_dl, 3.0},  {Metric::mac_bytes_dl, 4.0},
      {Metric::mac_bytes_ul, 5.0}, {Metric::mac_bsr, 6.0}};
  for (std::size_t budget : {1u, 2u}) {
    TelemetryStore store(small_store(budget));
    const std::uint32_t ent = make_entity(9);
    // Each new series past the budget evicts an older one of this same row
    // (with a budget of 1 the row is empty between eviction and creation).
    ASSERT_TRUE(store.record_row(1, ent, kMilli, row).is_ok());
    EXPECT_EQ(store.num_series(), budget);
    EXPECT_EQ(store.evictions(), 6u - budget);
    EXPECT_EQ(store.total_samples(), 6u);
    EXPECT_EQ(store.dropped_samples(), 0u);
    auto infos = store.list_series();
    ASSERT_EQ(infos.size(), budget);
    EXPECT_EQ(infos.back().key.metric, Metric::mac_bsr);
    auto bsr = store.latest(SeriesKey{1, ent, Metric::mac_bsr}, 1);
    ASSERT_TRUE(bsr.is_ok());
    EXPECT_EQ((*bsr)[0].v, 6.0);
    // The row stays usable: a second write finds it and its series.
    ASSERT_TRUE(store.record_row(1, ent, 2 * kMilli,
                                 std::span(row).last(budget))
                    .is_ok());
    EXPECT_EQ(store.evictions(), 6u - budget);
    EXPECT_EQ(store.total_samples(), 6u + budget);
  }
}

TEST(StoreRow, EvictingARowsLastSeriesDropsTheRow) {
  TelemetryStore store(small_store(1));
  auto a = key_of(1, 100, Metric::mac_cqi);
  auto b = key_of(1, 101, Metric::mac_cqi);
  ASSERT_TRUE(store.record(a, kMilli, 1.0).is_ok());
  ASSERT_TRUE(store.record(b, 2 * kMilli, 2.0).is_ok());
  EXPECT_EQ(store.find(a), nullptr);
  ASSERT_EQ(store.list_series().size(), 1u);
  EXPECT_EQ(store.list_series()[0].key, b);
  ASSERT_TRUE(store.record(a, 3 * kMilli, 3.0).is_ok());
  EXPECT_EQ(store.find(b), nullptr);
  EXPECT_EQ(store.list_series()[0].key, a);
}

TEST(StoreRow, ListingIsInSeriesKeyOrder) {
  TelemetryStore store(StoreConfig{});
  // Rows and metrics arrive out of order; listings sort by
  // (agent, entity, metric) all the same.
  const MetricValue late[] = {{Metric::pdcp_rx_sdu_bytes, 1.0},
                              {Metric::rlc_tx_bytes, 2.0}};
  const MetricValue early[] = {{Metric::mac_bsr, 3.0},
                               {Metric::mac_cqi, 4.0}};
  ASSERT_TRUE(store.record_row(2, make_entity(5, 1), kMilli, late).is_ok());
  ASSERT_TRUE(store.record_row(2, make_entity(5), kMilli, early).is_ok());
  ASSERT_TRUE(store.record_row(1, make_entity(9, 2), kMilli, late).is_ok());
  ASSERT_TRUE(store.record_row(1, make_entity(3), kMilli, early).is_ok());
  auto infos = store.list_series();
  ASSERT_EQ(infos.size(), 8u);
  for (std::size_t i = 1; i < infos.size(); ++i)
    EXPECT_LT(infos[i - 1].key, infos[i].key) << "at " << i;
}

TEST(Store, UnknownSeriesIsNotFound) {
  TelemetryStore store(StoreConfig{});
  auto k = key_of(9, 9, Metric::rlc_tx_bytes);
  EXPECT_FALSE(store.raw_range(k, 0, kSecond).is_ok());
  EXPECT_FALSE(store.latest(k, 5).is_ok());
  EXPECT_FALSE(store.rollups(k, 1, 0, kSecond).is_ok());
  EXPECT_FALSE(store.window_aggregate(k, 0, kSecond).is_ok());
  EXPECT_EQ(store.raw_range(k, 0, kSecond).error().code, Errc::not_found);
}

TEST(Store, InvalidTierIsUnsupported) {
  TelemetryStore store(StoreConfig{});
  auto k = key_of(1, 1, Metric::mac_cqi);
  ASSERT_TRUE(store.record(k, kMilli, 1.0).is_ok());
  EXPECT_EQ(store.rollups(k, 3, 0, kSecond).error().code, Errc::unsupported);
}

TEST(Store, RawWindowAggregateIsExact) {
  TelemetryStore store(StoreConfig{});
  auto k = key_of(1, 7, Metric::rlc_sojourn_avg_ms);
  for (int i = 1; i <= 100; ++i)
    ASSERT_TRUE(store.record(k, i * kMilli, static_cast<double>(i)).is_ok());
  auto agg = store.window_aggregate(k, 0, kSecond, QuerySource::raw);
  ASSERT_TRUE(agg.is_ok());
  EXPECT_EQ(agg->source, QuerySource::raw);
  EXPECT_EQ(agg->count, 100u);
  EXPECT_EQ(agg->sum, 5050.0);
  EXPECT_EQ(agg->min, 1.0);
  EXPECT_EQ(agg->max, 100.0);
  EXPECT_DOUBLE_EQ(agg->mean, 50.5);
  EXPECT_EQ(agg->p50, 50.0);
  EXPECT_EQ(agg->p95, 95.0);
  EXPECT_EQ(agg->p99, 99.0);
}

TEST(Store, AutomaticSourcePicksResolutionByWindowAge) {
  StoreConfig cfg;
  cfg.layout.raw_capacity = 512;     // raw: last ~512 ms
  cfg.layout.tier1_capacity = 128;   // tier1: last ~12.8 s
  cfg.layout.tier2_capacity = 128;   // tier2: last ~128 s
  TelemetryStore store(cfg);
  auto k = key_of(1, 1, Metric::mac_bytes_dl);
  Nanos t = 0;
  for (int i = 0; i < 100000; ++i) {  // 100 s at 1 ms
    t += kMilli;
    ASSERT_TRUE(store.record(k, t, 1.0).is_ok());
  }
  // Recent window: raw still covers it.
  auto recent = store.window_aggregate(k, t - 100 * kMilli, t);
  ASSERT_TRUE(recent.is_ok());
  EXPECT_EQ(recent->source, QuerySource::raw);
  EXPECT_EQ(recent->count, 100u);
  // Mid-age window: raw wrapped, tier1 covers it.
  auto mid = store.window_aggregate(k, t - 10 * kSecond, t - 9 * kSecond);
  ASSERT_TRUE(mid.is_ok());
  EXPECT_EQ(mid->source, QuerySource::tier1);
  EXPECT_GT(mid->count, 0u);
  // Ancient window: only tier2 reaches back.
  auto old = store.window_aggregate(k, 0, kSecond);
  ASSERT_TRUE(old.is_ok());
  EXPECT_EQ(old->source, QuerySource::tier2);
  EXPECT_GT(old->count, 0u);
}

TEST(Store, ListSeriesReportsRetention) {
  TelemetryStore store(StoreConfig{});
  ASSERT_TRUE(
      store.record(key_of(1, 5, Metric::mac_cqi), kMilli, 10.0).is_ok());
  ASSERT_TRUE(
      store.record(key_of(2, 6, Metric::rlc_tx_bytes), kMilli, 20.0).is_ok());
  auto infos = store.list_series();
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_EQ(infos[0].key.agent, 1u);
  EXPECT_EQ(infos[0].total_samples, 1u);
  EXPECT_EQ(entity_rnti(infos[1].key.entity), 6);
}

TEST(Store, MetricNamesRoundTrip) {
  for (auto m : {Metric::mac_cqi, Metric::rlc_sojourn_max_ms,
                 Metric::pdcp_discarded_sdus}) {
    auto back = metric_from_name(metric_name(m));
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(*back, m);
  }
  EXPECT_FALSE(metric_from_name("bogus_metric").is_ok());
}

TEST(Store, DumpJsonIsValidAndBounded) {
  TelemetryStore store(StoreConfig{});
  auto k = key_of(3, 77, Metric::mac_prbs_dl);
  for (int i = 1; i <= 200; ++i)
    ASSERT_TRUE(store.record(k, i * kMilli, static_cast<double>(i)).is_ok());
  std::string dump = store.dump_json(/*max_raw_per_series=*/8);
  auto parsed = ctrl::Json::parse(dump);
  ASSERT_TRUE(parsed.is_ok()) << dump.substr(0, 200);
  const ctrl::Json& j = *parsed;
  EXPECT_EQ(j["num_series"].as_number(), 1.0);
  EXPECT_EQ(j["total_samples"].as_number(), 200.0);
  ASSERT_EQ(j["series"].as_array().size(), 1u);
  const ctrl::Json& s = j["series"].as_array()[0];
  EXPECT_EQ(s["metric"].as_string(), "mac_prbs_dl");
  EXPECT_EQ(s["raw"].as_array().size(), 8u);  // bounded tail
  // Newest sample last.
  EXPECT_EQ(s["raw"].as_array()[7].as_array()[1].as_number(), 200.0);
}

// ---------------------------------------------------------------------------
// Golden store streams: seeded MAC/RLC/PDCP report sequences pinned by hash.
// The expected values were recorded on the per-sample map index; any index
// behind the store must reproduce them bit for bit (series order, LRU
// victims, rejections, raw tails and rollups).
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, std::string_view s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct GoldenResult {
  std::uint64_t hash = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dropped = 0;
  std::uint64_t total = 0;
  std::uint64_t num_series = 0;
};

/// 3 agents x 8 UE slots at a 2 ms cadence for 3 s. Each slot is attached
/// three quarters of the time and rejoins under a fresh rnti; agent 1 sends
/// a late (150 ms old) report every 97 ticks. `budget_series` sizes the
/// budget in whole series through the store's own accounting (0: default
/// budget, which holds the whole stream).
GoldenResult run_golden(bool extended, std::size_t budget_series, bool evict) {
  StoreConfig cfg;
  cfg.layout.raw_capacity = 32;
  cfg.layout.tier1_capacity = 8;
  cfg.layout.tier2_capacity = 4;
  cfg.evict_on_budget = evict;
  if (budget_series != 0) {
    TelemetryStore probe(cfg);
    cfg.memory_budget =
        probe.memory_bytes() + budget_series * probe.per_series_cost();
  }
  TelemetryStore store(cfg);
  Ingest ingest(store, IngestConfig{.extended_metrics = extended});
  Rng rng(1234);
  for (int tick = 0; tick < 1500; ++tick) {
    for (AgentId agent = 0; agent < 3; ++agent) {
      Nanos t = tick * 2 * kMilli + static_cast<Nanos>(agent) * kMicro;
      if (agent == 1 && tick % 97 == 96) t -= 150 * kMilli;
      e2sm::mac::IndicationMsg mac;
      e2sm::rlc::IndicationMsg rlc;
      e2sm::pdcp::IndicationMsg pdcp;
      for (int u = 0; u < 8; ++u) {
        int phase = tick + 200 * u + 50 * static_cast<int>(agent);
        if (phase % 800 >= 600) continue;  // detached
        auto rnti = static_cast<std::uint16_t>(1000 + 32 * u + phase / 800);
        auto drb = static_cast<std::uint8_t>(1 + u % 2);
        e2sm::mac::UeStats ue;
        ue.rnti = rnti;
        ue.cqi = static_cast<std::uint8_t>(1 + rng.bounded(15));
        ue.mcs_dl = static_cast<std::uint8_t>(rng.bounded(29));
        ue.mcs_ul = static_cast<std::uint8_t>(rng.bounded(29));
        ue.prbs_dl = static_cast<std::uint32_t>(rng.bounded(106));
        ue.prbs_ul = static_cast<std::uint32_t>(rng.bounded(106));
        ue.bytes_dl = rng.bounded(150'000);
        ue.bytes_ul = rng.bounded(50'000);
        ue.bsr = static_cast<std::uint32_t>(rng.bounded(100'000));
        ue.phr_db = static_cast<std::int64_t>(rng.bounded(60)) - 20;
        ue.harq_retx = static_cast<std::uint32_t>(rng.bounded(4));
        mac.ues.push_back(ue);
        e2sm::rlc::BearerStats rb;
        rb.rnti = rnti;
        rb.drb_id = drb;
        rb.tx_bytes = rng.bounded(150'000);
        rb.rx_bytes = rng.bounded(150'000);
        rb.buffer_bytes = static_cast<std::uint32_t>(rng.bounded(60'000));
        rb.buffer_pkts = static_cast<std::uint32_t>(rng.bounded(50));
        rb.sojourn_avg_ms = rng.uniform(0.1, 4.0);
        rb.sojourn_max_ms = rb.sojourn_avg_ms + rng.uniform(0.0, 8.0);
        rb.retx_pdus = static_cast<std::uint32_t>(rng.bounded(5));
        rb.dropped_sdus = static_cast<std::uint32_t>(rng.bounded(3));
        rlc.bearers.push_back(rb);
        e2sm::pdcp::BearerStats pb;
        pb.rnti = rnti;
        pb.drb_id = drb;
        pb.tx_sdu_bytes = rng.bounded(150'000);
        pb.rx_sdu_bytes = rng.bounded(50'000);
        pb.tx_pdus = static_cast<std::uint32_t>(rng.bounded(100));
        pb.rx_pdus = static_cast<std::uint32_t>(rng.bounded(100));
        pb.discarded_sdus = static_cast<std::uint32_t>(rng.bounded(3));
        pdcp.bearers.push_back(pb);
      }
      ingest.mac(agent, t, mac);
      ingest.rlc(agent, t, rlc);
      ingest.pdcp(agent, t, pdcp);
    }
  }

  // The dump's byte fields are the accounting constants (they move with
  // the index's per-series overhead); everything from num_series on is
  // behaviour. The formula itself is checked here instead.
  EXPECT_EQ(store.memory_bytes(),
            TelemetryStore(cfg).memory_bytes() +
                store.num_series() * store.per_series_cost());
  std::string dump = store.dump_json(8);
  std::size_t from = dump.find("\"num_series\"");
  EXPECT_NE(from, std::string::npos);
  std::uint64_t h = fnv1a(0xcbf29ce484222325ULL, dump.substr(from));
  char buf[160];
  for (const SeriesInfo& info : store.list_series()) {
    for (int tier : {1, 2}) {
      auto rollups = store.rollups(info.key, tier,
                                   std::numeric_limits<Nanos>::min(),
                                   std::numeric_limits<Nanos>::max());
      EXPECT_TRUE(rollups.is_ok());
      if (!rollups.is_ok()) continue;
      for (const Rollup& r : *rollups) {
        std::snprintf(buf, sizeof(buf), "%lld %llu %.17g %.17g %.17g %.17g;",
                      static_cast<long long>(r.t_start),
                      static_cast<unsigned long long>(r.count), r.sum, r.min,
                      r.max, r.sketch.quantile(0.5));
        h = fnv1a(h, buf);
      }
    }
  }
  return {h, store.evictions(), store.dropped_samples(), store.total_samples(),
          store.num_series()};
}

struct GoldenCase {
  const char* name;
  bool extended;
  std::size_t budget_series;
  bool evict;
  GoldenResult want;
};

TEST(StoreGolden, SeededStreamsMatchRecordedState) {
  const GoldenCase cases[] = {
      {"core_generous", false, 0, true,
       {0x24851970bdd646e0ULL, 0, 0, 324000, 720}},
      {"extended_generous", true, 0, true,
       {0xab48d4bdea8f47cdULL, 0, 0, 621000, 1380}},
      {"core_churn_evict", false, 300, true,
       {0x280999729c9024ddULL, 420, 0, 324000, 300}},
      {"core_tight_evict", false, 100, true,
       {0x9e17d7bfb2e69458ULL, 323900, 0, 324000, 100}},
      {"extended_victim_in_row", true, 4, true,
       {0xe58848b6490a37edULL, 620996, 0, 621000, 4}},
      {"core_single_series", false, 1, true,
       {0x5657e9516f626127ULL, 323999, 0, 324000, 1}},
      {"core_tight_reject", false, 100, false,
       {0x968f1c02e15ac0d5ULL, 0, 284200, 39800, 100}},
      {"extended_tight_reject", true, 7, false,
       {0x05e357f0f614ae78ULL, 0, 616800, 4200, 7}},
  };
  for (const GoldenCase& c : cases) {
    GoldenResult got = run_golden(c.extended, c.budget_series, c.evict);
    EXPECT_EQ(got.hash, c.want.hash) << c.name;
    EXPECT_EQ(got.evictions, c.want.evictions) << c.name;
    EXPECT_EQ(got.dropped, c.want.dropped) << c.name;
    EXPECT_EQ(got.total, c.want.total) << c.name;
    EXPECT_EQ(got.num_series, c.want.num_series) << c.name;
  }
}

// ---------------------------------------------------------------------------
// Ingest adapter
// ---------------------------------------------------------------------------

e2sm::mac::IndicationMsg two_ue_mac() {
  e2sm::mac::IndicationMsg msg;
  e2sm::mac::UeStats ue;
  ue.rnti = 100;
  ue.cqi = 12;
  ue.bytes_dl = 1500;
  ue.bsr = 9000;
  msg.ues.push_back(ue);
  ue.rnti = 101;
  ue.cqi = 7;
  msg.ues.push_back(ue);
  return msg;
}

TEST(Ingest, DecodedMacPopulatesCoreSeries) {
  TelemetryStore store(StoreConfig{});
  Ingest ingest(store);
  ingest.mac(1, kMilli, two_ue_mac());
  // 6 core MAC metrics x 2 UEs.
  EXPECT_EQ(store.num_series(), 12u);
  auto latest = store.latest(key_of(1, 100, Metric::mac_cqi), 1);
  ASSERT_TRUE(latest.is_ok());
  ASSERT_EQ(latest->size(), 1u);
  EXPECT_EQ((*latest)[0].v, 12.0);
  EXPECT_EQ((*latest)[0].t, kMilli);
  EXPECT_EQ(ingest.samples_in(), 12u);
}

TEST(Ingest, ExtendedMetricsRecordFullSet) {
  TelemetryStore store(StoreConfig{});
  Ingest ingest(store, IngestConfig{.extended_metrics = true});
  ingest.mac(1, kMilli, two_ue_mac());
  EXPECT_EQ(store.num_series(), 20u);  // 10 MAC metrics x 2 UEs
}

TEST(Ingest, RlcAndPdcpKeyByBearer) {
  TelemetryStore store(StoreConfig{});
  Ingest ingest(store);
  e2sm::rlc::IndicationMsg rlc;
  e2sm::rlc::BearerStats b;
  b.rnti = 50;
  b.drb_id = 2;
  b.sojourn_avg_ms = 1.5;
  rlc.bearers.push_back(b);
  ingest.rlc(4, kMilli, rlc);
  auto latest = store.latest(
      SeriesKey{4, make_entity(50, 2), Metric::rlc_sojourn_avg_ms}, 1);
  ASSERT_TRUE(latest.is_ok());
  EXPECT_EQ((*latest)[0].v, 1.5);

  e2sm::pdcp::IndicationMsg pdcp;
  e2sm::pdcp::BearerStats p;
  p.rnti = 50;
  p.drb_id = 2;
  p.tx_sdu_bytes = 4096;
  pdcp.bearers.push_back(p);
  ingest.pdcp(4, 2 * kMilli, pdcp);
  auto tx = store.latest(
      SeriesKey{4, make_entity(50, 2), Metric::pdcp_tx_sdu_bytes}, 1);
  ASSERT_TRUE(tx.is_ok());
  EXPECT_EQ((*tx)[0].v, 4096.0);
}

TEST(Ingest, WireModeDecodesHeaderTimestampAndDispatches) {
  for (WireFormat fmt :
       {WireFormat::per, WireFormat::flat, WireFormat::proto}) {
    TelemetryStore store(StoreConfig{});
    Ingest ingest(store);
    e2sm::mac::IndicationHdr hdr;
    hdr.tstamp_ns = 5 * kMilli;
    hdr.cell_id = 1;
    Buffer hdr_b = e2sm::sm_encode(hdr, fmt);
    Buffer msg_b = e2sm::sm_encode(two_ue_mac(), fmt);
    Status st = ingest.wire(2, e2sm::mac::Sm::kId, hdr_b, msg_b, fmt);
    ASSERT_TRUE(st.is_ok()) << "fmt=" << static_cast<int>(fmt);
    auto latest = store.latest(key_of(2, 100, Metric::mac_cqi), 1);
    ASSERT_TRUE(latest.is_ok());
    EXPECT_EQ((*latest)[0].t, 5 * kMilli);  // header time, not arrival time
    EXPECT_EQ((*latest)[0].v, 12.0);
  }
}

TEST(Ingest, WireModeRejectsGarbageAndUnknownFn) {
  TelemetryStore store(StoreConfig{});
  Ingest ingest(store);
  Buffer junk{0xFF, 0x01, 0x02};
  EXPECT_FALSE(
      ingest.wire(1, e2sm::mac::Sm::kId, junk, junk, WireFormat::flat)
          .is_ok());
  EXPECT_GT(ingest.decode_errors(), 0u);

  e2sm::mac::IndicationHdr hdr;
  Buffer hdr_b = e2sm::sm_encode(hdr, kFmt);
  Status st = ingest.wire(1, /*fn_id=*/999, hdr_b, hdr_b, kFmt);
  EXPECT_EQ(st.code(), Errc::unsupported);
  EXPECT_EQ(store.num_series(), 0u);
}

// ---------------------------------------------------------------------------
// Monitor integration (both modes)
// ---------------------------------------------------------------------------

ran::CellConfig nr_cell() {
  ran::CellConfig cfg;
  cfg.rat = ran::Rat::nr;
  cfg.num_prbs = 106;
  cfg.default_mcs = 20;
  return cfg;
}

struct MonitorWorld {
  Reactor reactor;
  ran::BaseStation bs{nr_cell()};
  agent::E2Agent agent{reactor, {{1, 10, e2ap::NodeType::gnb}, kFmt}};
  ran::BsFunctionBundle bundle{bs, agent, kFmt};
  server::E2Server server{reactor, {21, kFmt}};
  Nanos now = 0;

  void connect() {
    auto [a_side, s_side] = LocalTransport::make_pair(reactor);
    server.attach(s_side);
    (void)agent.add_controller(a_side);
    test::pump_until(reactor,
                     [this] { return server.ran_db().num_agents() == 1; });
  }
  void run_ttis(int n) {
    for (int t = 0; t < n; ++t) {
      now += kMilli;
      bs.tick(now);
      bundle.on_tti(now);
      reactor.run_once(0);
    }
  }
};

TEST(MonitorTelemetry, DecodedModeFeedsStore) {
  MonitorWorld w;
  TelemetryStore store(StoreConfig{});
  Ingest ingest(store);
  ctrl::MonitorIApp::Config cfg{kFmt, 1};
  cfg.telemetry = &ingest;
  auto monitor = std::make_shared<ctrl::MonitorIApp>(cfg);
  w.server.add_iapp(monitor);
  w.connect();
  (void)w.bs.attach_ue({100, 1, 0, 15, 20});
  w.run_ttis(20);
  pump(w.reactor, 5);

  EXPECT_GT(store.num_series(), 0u);
  EXPECT_GT(store.total_samples(), 0u);
  // MAC series exist for the attached UE and carry header timestamps.
  bool found_mac = false;
  for (const auto& info : store.list_series()) {
    if (info.key.metric == Metric::mac_cqi &&
        entity_rnti(info.key.entity) == 100) {
      found_mac = true;
      EXPECT_GT(info.last_t, 0);
      EXPECT_GT(info.total_samples, 5u);
    }
  }
  EXPECT_TRUE(found_mac);
}

TEST(MonitorTelemetry, ZeroCopyModeFeedsStoreFromRawBytes) {
  MonitorWorld w;
  TelemetryStore store(StoreConfig{});
  Ingest ingest(store);
  ctrl::MonitorIApp::Config cfg{kFmt, 1};
  cfg.decode_payloads = false;  // FLAT zero-copy mode
  cfg.telemetry = &ingest;
  auto monitor = std::make_shared<ctrl::MonitorIApp>(cfg);
  w.server.add_iapp(monitor);
  w.connect();
  (void)w.bs.attach_ue({100, 1, 0, 15, 20});
  w.run_ttis(20);
  pump(w.reactor, 5);

  // The monitor kept only raw buffers, yet telemetry is populated.
  ASSERT_EQ(monitor->db().size(), 1u);
  EXPECT_TRUE(monitor->db().begin()->second.mac.empty());
  EXPECT_FALSE(monitor->db().begin()->second.raw.empty());
  EXPECT_GT(store.num_series(), 0u);
  EXPECT_GT(store.total_samples(), 0u);
  EXPECT_EQ(ingest.decode_errors(), 0u);
}

// ---------------------------------------------------------------------------
// Northbound REST
// ---------------------------------------------------------------------------

TEST(TelemetryRestApi, SeriesQueryAndDumpEndpoints) {
  Reactor reactor;
  TelemetryStore store(StoreConfig{});
  for (int i = 1; i <= 100; ++i)
    ASSERT_TRUE(store
                    .record(key_of(1, 42, Metric::mac_cqi), i * kMilli,
                            static_cast<double>(i))
                    .is_ok());
  ctrl::HttpServer http(reactor);
  ctrl::TelemetryRest rest(http, store);
  ASSERT_TRUE(http.listen(0).is_ok());
  std::uint16_t port = http.port();

  std::atomic<bool> done{false};
  ctrl::HttpResponse series_resp, agg_resp, raw_resp, bad_resp, dump_resp;
  std::thread client([&] {
    auto r1 = ctrl::HttpClient::request("127.0.0.1", port, "GET", "/series");
    if (r1) series_resp = *r1;
    auto r2 = ctrl::HttpClient::request(
        "127.0.0.1", port, "POST", "/query",
        R"({"agent":1,"rnti":42,"metric":"mac_cqi",)"
        R"("t0_ns":0,"t1_ns":1000000000,"kind":"aggregate"})");
    if (r2) agg_resp = *r2;
    auto r3 = ctrl::HttpClient::request(
        "127.0.0.1", port, "POST", "/query",
        R"({"agent":1,"rnti":42,"metric":"mac_cqi",)"
        R"("t0_ns":0,"t1_ns":1000000000,"kind":"raw"})");
    if (r3) raw_resp = *r3;
    auto r4 = ctrl::HttpClient::request(
        "127.0.0.1", port, "POST", "/query", R"({"metric":"nope"})");
    if (r4) bad_resp = *r4;
    auto r5 = ctrl::HttpClient::request("127.0.0.1", port, "GET", "/dump");
    if (r5) dump_resp = *r5;
    done = true;
  });
  pump_until(reactor, [&] { return done.load(); }, 20000);
  client.join();

  ASSERT_EQ(series_resp.code, 200);
  auto series = ctrl::Json::parse(series_resp.body);
  ASSERT_TRUE(series.is_ok());
  EXPECT_EQ((*series)["num_series"].as_number(), 1.0);
  ASSERT_EQ((*series)["series"].as_array().size(), 1u);
  EXPECT_EQ((*series)["series"].as_array()[0]["metric"].as_string(),
            "mac_cqi");

  ASSERT_EQ(agg_resp.code, 200);
  auto agg = ctrl::Json::parse(agg_resp.body);
  ASSERT_TRUE(agg.is_ok());
  EXPECT_EQ((*agg)["count"].as_number(), 100.0);
  EXPECT_EQ((*agg)["sum"].as_number(), 5050.0);
  EXPECT_EQ((*agg)["min"].as_number(), 1.0);
  EXPECT_EQ((*agg)["max"].as_number(), 100.0);

  ASSERT_EQ(raw_resp.code, 200);
  auto raw = ctrl::Json::parse(raw_resp.body);
  ASSERT_TRUE(raw.is_ok());
  EXPECT_EQ((*raw)["samples"].as_array().size(), 100u);

  EXPECT_EQ(bad_resp.code, 400);

  ASSERT_EQ(dump_resp.code, 200);
  auto dump = ctrl::Json::parse(dump_resp.body);
  ASSERT_TRUE(dump.is_ok());
  EXPECT_EQ((*dump)["num_series"].as_number(), 1.0);
}

TEST(TelemetryRestApi, QueryUnknownSeriesIs404) {
  Reactor reactor;
  TelemetryStore store(StoreConfig{});
  ctrl::HttpServer http(reactor);
  ctrl::TelemetryRest rest(http, store);
  ASSERT_TRUE(http.listen(0).is_ok());
  std::atomic<bool> done{false};
  int code = 0;
  std::thread client([&] {
    auto r = ctrl::HttpClient::request(
        "127.0.0.1", http.port(), "POST", "/query",
        R"({"agent":5,"rnti":5,"metric":"mac_cqi","t0_ns":0,"t1_ns":1})");
    if (r) code = r->code;
    done = true;
  });
  pump_until(reactor, [&] { return done.load(); }, 20000);
  client.join();
  EXPECT_EQ(code, 404);
}

// Error paths of the northbound API: every malformed request must come back
// as a clean JSON error with the right status code — never a hang, a crash,
// or a silent 200.
TEST(TelemetryRestApi, ErrorPathsReturnJsonErrors) {
  Reactor reactor;
  TelemetryStore store(StoreConfig{});
  for (int i = 1; i <= 10; ++i)
    ASSERT_TRUE(store
                    .record(key_of(1, 42, Metric::mac_cqi), i * kMilli,
                            static_cast<double>(i))
                    .is_ok());
  ctrl::HttpServer http(reactor);
  ctrl::TelemetryRest rest(http, store);
  ASSERT_TRUE(http.listen(0).is_ok());
  std::uint16_t port = http.port();

  constexpr const char* kSeriesQ =
      R"({"agent":1,"rnti":42,"metric":"mac_cqi","t0_ns":0,"t1_ns":1000000000)";
  std::atomic<bool> done{false};
  ctrl::HttpResponse bad_json, bad_kind, bad_source, bad_route, wrong_method,
      latest;
  std::thread client([&] {
    auto r1 = ctrl::HttpClient::request("127.0.0.1", port, "POST", "/query",
                                        "{not json");
    if (r1) bad_json = *r1;
    auto r2 = ctrl::HttpClient::request(
        "127.0.0.1", port, "POST", "/query",
        std::string(kSeriesQ) + R"(,"kind":"bogus"})");
    if (r2) bad_kind = *r2;
    auto r3 = ctrl::HttpClient::request(
        "127.0.0.1", port, "POST", "/query",
        std::string(kSeriesQ) + R"(,"kind":"aggregate","source":"bogus"})");
    if (r3) bad_source = *r3;
    auto r4 = ctrl::HttpClient::request("127.0.0.1", port, "GET", "/nope");
    if (r4) bad_route = *r4;
    auto r5 = ctrl::HttpClient::request("127.0.0.1", port, "GET", "/query");
    if (r5) wrong_method = *r5;
    auto r6 = ctrl::HttpClient::request(
        "127.0.0.1", port, "POST", "/query",
        std::string(kSeriesQ) + R"(,"kind":"latest","n":5})");
    if (r6) latest = *r6;
    done = true;
  });
  pump_until(reactor, [&] { return done.load(); }, 20000);
  client.join();

  // Each error body is itself parseable JSON carrying an "error" field.
  for (const auto* resp : {&bad_json, &bad_kind, &bad_source, &bad_route}) {
    auto body = ctrl::Json::parse(resp->body);
    ASSERT_TRUE(body.is_ok()) << resp->body;
    EXPECT_FALSE((*body)["error"].as_string().empty());
  }
  EXPECT_EQ(bad_json.code, 400);
  EXPECT_EQ(bad_kind.code, 400);
  EXPECT_EQ(bad_source.code, 400);
  EXPECT_EQ(bad_route.code, 404);
  EXPECT_EQ(wrong_method.code, 404);  // routes match on (method, path)

  // The "latest" kind round-trips with the documented shape.
  ASSERT_EQ(latest.code, 200);
  auto lj = ctrl::Json::parse(latest.body);
  ASSERT_TRUE(lj.is_ok());
  EXPECT_EQ((*lj)["metric"].as_string(), "mac_cqi");
  ASSERT_EQ((*lj)["samples"].as_array().size(), 5u);
  // The newest 5 samples in chronological order: values 6..10.
  EXPECT_EQ((*lj)["samples"].as_array()[0].as_array()[1].as_number(), 6.0);
  EXPECT_EQ((*lj)["samples"].as_array()[4].as_array()[1].as_number(), 10.0);
}

}  // namespace
}  // namespace flexric::telemetry
