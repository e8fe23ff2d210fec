// Telemetry time-series store: bounded-memory RAN KPI history.
//
// The paper's statistics iApp (§5.3) "saves incoming messages to an
// in-memory data structure" — but keeping only the latest sample per UE
// answers no question about the past, and keeping every sample is unbounded.
// This store is the middle ground the server library's RAN database (§4.2.2)
// needs at production scale: per-(agent, entity, metric) ring-buffer series
// with eager multi-resolution downsampling (series.hpp) under one global
// memory budget.
//
// Index: one row per (agent, entity) — a UE or a bearer — in a sorted flat
// vector; a row holds one slot per Metric, each slot a series allocated on
// first contact. An indication writes a whole UE/bearer row through
// record_row(), so ingest pays one index lookup per row instead of one per
// sample; a query is a row lookup plus a metric slot.
//
// Memory model: every series is accounted at
// SeriesLayout::bytes_per_series() + kSeriesOverhead bytes plus allocator
// overhead for each of its heap blocks, where bytes_per_series() reserves
// every rollup slot's spill block and the overhead is the worst-case index
// cost of a row that holds this series alone, so the accounted total
// sizeof(store) + series_count * per_series_cost is an upper bound of the
// heap the store owns and admission is a simple comparison. When creating a
// series would exceed the budget the store either evicts the
// least-recently-written series (evict_on_budget, the default — stale
// UEs/bearers age out) or rejects the sample with Errc::capacity. Samples
// for existing series are never dropped.
//
// All methods run on the reactor thread (single-threaded by the SDK's
// contract); queries return copies, so the caller owns the result.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/affinity.hpp"
#include "common/result.hpp"
#include "telemetry/series.hpp"

namespace flexric::telemetry {

using AgentId = std::uint32_t;  ///< matches server::AgentId

/// Metric identity. The names (metric_name) are the stable northbound
/// vocabulary used by the REST /series and /query endpoints.
enum class Metric : std::uint16_t {
  // MAC per-UE
  mac_cqi = 0,
  mac_mcs_dl,
  mac_mcs_ul,
  mac_prbs_dl,
  mac_prbs_ul,
  mac_bytes_dl,
  mac_bytes_ul,
  mac_bsr,
  mac_phr_db,
  mac_harq_retx,
  // RLC per-bearer
  rlc_tx_bytes,
  rlc_rx_bytes,
  rlc_buffer_bytes,
  rlc_buffer_pkts,
  rlc_sojourn_avg_ms,
  rlc_sojourn_max_ms,
  rlc_retx_pdus,
  rlc_dropped_sdus,
  // PDCP per-bearer
  pdcp_tx_sdu_bytes,
  pdcp_rx_sdu_bytes,
  pdcp_tx_pdus,
  pdcp_rx_pdus,
  pdcp_discarded_sdus,
};

/// Number of Metric values: the slot count of a store row.
inline constexpr std::size_t kNumMetrics =
    static_cast<std::size_t>(Metric::pdcp_discarded_sdus) + 1;

[[nodiscard]] const char* metric_name(Metric m) noexcept;
[[nodiscard]] Result<Metric> metric_from_name(std::string_view name);

/// Entity id: a UE (rnti, drb = 0) or a bearer (rnti, drb).
[[nodiscard]] constexpr std::uint32_t make_entity(std::uint16_t rnti,
                                                  std::uint8_t drb = 0) {
  return (static_cast<std::uint32_t>(rnti) << 8) | drb;
}
[[nodiscard]] constexpr std::uint16_t entity_rnti(std::uint32_t e) {
  return static_cast<std::uint16_t>(e >> 8);
}
[[nodiscard]] constexpr std::uint8_t entity_drb(std::uint32_t e) {
  return static_cast<std::uint8_t>(e & 0xFF);
}

struct SeriesKey {
  AgentId agent = 0;
  std::uint32_t entity = 0;
  Metric metric = Metric::mac_cqi;
  auto operator<=>(const SeriesKey&) const = default;
};

/// One sample of a row write: record_row() stores `v` in `metric`'s series.
struct MetricValue {
  Metric metric = Metric::mac_cqi;
  double v = 0.0;
};

struct StoreConfig {
  std::size_t memory_budget = 32u << 20;  ///< bytes, all series combined
  SeriesLayout layout;
  bool evict_on_budget = true;  ///< false: reject new series when full
};

struct SeriesInfo {
  SeriesKey key;
  std::uint64_t total_samples = 0;
  std::size_t raw_count = 0;
  std::size_t tier1_count = 0;
  std::size_t tier2_count = 0;
  Nanos oldest_raw_t = 0;
  Nanos last_t = 0;
};

/// Which resolution a windowed query reads from.
enum class QuerySource : std::uint8_t { automatic, raw, tier1, tier2 };

struct WindowAggregate {
  QuerySource source = QuerySource::raw;  ///< resolution actually used
  Nanos t0 = 0, t1 = 0;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  /// Exact (nearest-rank) when computed from raw; sketch-derived (within
  /// QuantileSketch::kRelativeError) when computed from rollups.
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
};

// @affine(reactor)
class TelemetryStore {
 public:
  explicit TelemetryStore(StoreConfig cfg);

  /// Ingest one sample at time `t` per value, all for the same (agent,
  /// entity) row, in span order (which is also the LRU write order). A
  /// value whose new series cannot be admitted under the budget (eviction
  /// off or unable to help) is dropped and counted in dropped_samples();
  /// the rest of the row is still recorded, and the call returns
  /// Errc::capacity.
  Status record_row(AgentId agent, std::uint32_t entity, Nanos t,
                    std::span<const MetricValue> values);
  /// One-sample row.
  Status record(const SeriesKey& key, Nanos t, double v) {
    const MetricValue one{key.metric, v};
    return record_row(key.agent, key.entity, t, {&one, 1});
  }

  // -- queries (Errc::not_found for unknown series) --
  [[nodiscard]] Result<std::vector<RawSample>> raw_range(const SeriesKey& key,
                                                         Nanos t0,
                                                         Nanos t1) const;
  [[nodiscard]] Result<std::vector<RawSample>> latest(const SeriesKey& key,
                                                      std::size_t n) const;
  [[nodiscard]] Result<std::vector<Rollup>> rollups(const SeriesKey& key,
                                                    int tier, Nanos t0,
                                                    Nanos t1) const;
  [[nodiscard]] Result<WindowAggregate> window_aggregate(
      const SeriesKey& key, Nanos t0, Nanos t1,
      QuerySource source = QuerySource::automatic) const;
  [[nodiscard]] std::vector<SeriesInfo> list_series() const;
  [[nodiscard]] const TimeSeries* find(const SeriesKey& key) const;

  // -- accounting --
  [[nodiscard]] std::size_t num_series() const noexcept { return series_; }
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return sizeof(*this) + series_ * per_series_cost_;
  }
  [[nodiscard]] std::size_t memory_budget() const noexcept {
    return cfg_.memory_budget;
  }
  [[nodiscard]] std::size_t per_series_cost() const noexcept {
    return per_series_cost_;
  }
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }
  [[nodiscard]] std::uint64_t dropped_samples() const noexcept {
    return dropped_;
  }
  [[nodiscard]] std::uint64_t total_samples() const noexcept {
    return total_samples_;
  }

  /// Flight recorder: bounded JSON snapshot of every series (info + the
  /// newest `max_raw_per_series` raw samples) for post-mortems.
  [[nodiscard]] std::string dump_json(std::size_t max_raw_per_series = 16)
      const;

 private:
  struct Entry {
    std::uint64_t last_write_seq = 0;  // first: shares push()'s hot lines
    TimeSeries series;
    explicit Entry(const SeriesLayout& l) : series(l) {}
  };
  /// Every series of one (agent, entity), one slot per Metric; `live` has
  /// bit m set when slot m holds a series.
  struct Row {
    std::array<std::unique_ptr<Entry>, kNumMetrics> slots;
    std::uint32_t live = 0;
  };
  struct RowKey {
    AgentId agent = 0;
    std::uint32_t entity = 0;
    auto operator<=>(const RowKey&) const = default;
  };
  struct RowSlot {
    RowKey key;
    std::unique_ptr<Row> row;
  };
  static_assert(kNumMetrics <= 32, "Row::live is a 32-bit mask");

  /// Allocator bookkeeping per heap block (one size word, 16-byte
  /// granularity).
  static constexpr std::size_t kHeapBlockOverhead = 16;
  /// Worst-case bytes a series costs beyond SeriesLayout::bytes_per_series()
  /// and its own heap blocks' allocator overhead: a row that holds only
  /// this series — its index slot (twice, for vector growth slack), the Row
  /// block and the Entry's own fields — plus the allocator overhead of the
  /// Row and the Entry.
  static constexpr std::size_t kSeriesOverhead =
      2 * sizeof(RowSlot) + sizeof(Row) +
      (sizeof(Entry) - sizeof(TimeSeries)) + 2 * kHeapBlockOverhead;

  /// Position of the first index slot whose key is not less than `key`.
  [[nodiscard]] std::size_t row_index(RowKey key) const noexcept;
  [[nodiscard]] Row* find_row(RowKey key) const noexcept;
  /// Evicts the least-recently-written series. Drops its row when that
  /// leaves it empty, unless it is `writing` (the row record_row holds).
  bool evict_one(const Row* writing);
  /// First-contact slow paths of record_row(): index insertion, and the
  /// eviction loop + series allocation (nullptr when the budget rejects
  /// the new series).
  Row* ensure_row(RowKey key);
  Entry* ensure_entry(Row& row, Metric m);
  void drop_row(RowKey key);

  /// Visits every series in SeriesKey order.
  template <typename Fn>
  void for_each_series(Fn&& fn) const {
    for (const RowSlot& r : rows_) {
      for (std::uint32_t live = r.row->live; live != 0; live &= live - 1) {
        auto m = static_cast<std::size_t>(std::countr_zero(live));
        fn(SeriesKey{r.key.agent, r.key.entity, static_cast<Metric>(m)},
           r.row->slots[m]->series);
      }
    }
  }

  StoreConfig cfg_;
  /// No Reactor reference here, so the stamp lazily binds to the first
  /// calling thread (check_or_bind); mutable because const queries check it.
  mutable ReactorAffinity affinity_;
  std::size_t per_series_cost_ = 0;
  /// Sorted by key: rows in (agent, entity) order, slots in Metric order —
  /// together the SeriesKey order every listing uses.
  std::vector<RowSlot> rows_;
  std::size_t series_ = 0;
  std::uint64_t write_seq_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t total_samples_ = 0;
};

}  // namespace flexric::telemetry
