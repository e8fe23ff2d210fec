// Telemetry store — ingest throughput and query latency.
//
// Not a paper figure: this bench sizes the telemetry subsystem against its
// acceptance targets. It drives the decoded ingest path (Ingest::mac/rlc/
// pdcp) with MAC + RLC + PDCP statistics at the paper's 1 ms export period
// (§5.3), scaling the number of reporting agents. Every tier ingests at
// least one million samples while checking after each tick that the store's
// accounted memory (an upper bound of its heap) never exceeds the
// configured budget. A separate leg runs with a budget deliberately too
// small for the working set to show eviction holding the bound. A
// whole-cell leg replays the e2bench asn_large_decode working set (4 agents
// x 32 UEs, 1536 series, one report per agent and SM every 2 ms) and
// reports the steady-state ingest cost in ns/sample and the heap bytes its
// series hold next to the accounted bytes_per_series(). Windowed-query latency
// is then measured on the populated store at each resolution (raw / tier1 /
// tier2 / automatic).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/clock.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "e2sm/mac_sm.hpp"
#include "e2sm/pdcp_sm.hpp"
#include "e2sm/rlc_sm.hpp"
#include "telemetry/ingest.hpp"
#include "telemetry/store.hpp"

using namespace flexric;
using namespace flexric::bench;

namespace {

constexpr int kUesPerAgent = 4;
constexpr std::uint8_t kDrbId = 1;
constexpr std::uint64_t kTargetSamples = 1'000'000;

// Core KPI set: 6 MAC metrics per UE, 4 RLC + 2 PDCP per bearer (one bearer
// per UE here), so each 1 ms tick yields 12 samples per UE per agent.
constexpr std::uint64_t kSamplesPerTickPerAgent = kUesPerAgent * 12;

struct AgentLoad {
  e2sm::mac::IndicationMsg mac;
  e2sm::rlc::IndicationMsg rlc;
  e2sm::pdcp::IndicationMsg pdcp;
};

AgentLoad make_load(int ues = kUesPerAgent) {
  AgentLoad load;
  for (int u = 0; u < ues; ++u) {
    auto rnti = static_cast<std::uint16_t>(100 + u);
    e2sm::mac::UeStats ue;
    ue.rnti = rnti;
    load.mac.ues.push_back(ue);
    e2sm::rlc::BearerStats rb;
    rb.rnti = rnti;
    rb.drb_id = kDrbId;
    load.rlc.bearers.push_back(rb);
    e2sm::pdcp::BearerStats pb;
    pb.rnti = rnti;
    pb.drb_id = kDrbId;
    load.pdcp.bearers.push_back(pb);
  }
  return load;
}

// Refresh the per-period counters the way a live DU would between exports.
void churn(Rng& rng, AgentLoad& load) {
  for (auto& ue : load.mac.ues) {
    ue.cqi = static_cast<std::uint8_t>(1 + rng.bounded(15));
    ue.mcs_dl = static_cast<std::uint8_t>(rng.bounded(29));
    ue.prbs_dl = static_cast<std::uint32_t>(rng.bounded(106));
    ue.bytes_dl = 1000 + rng.bounded(150'000);
    ue.bytes_ul = rng.bounded(50'000);
    ue.bsr = static_cast<std::uint32_t>(rng.bounded(100'000));
  }
  for (auto& b : load.rlc.bearers) {
    b.tx_bytes = 1000 + rng.bounded(150'000);
    b.buffer_bytes = static_cast<std::uint32_t>(rng.bounded(60'000));
    b.sojourn_avg_ms = rng.uniform(0.1, 4.0);
    b.sojourn_max_ms = b.sojourn_avg_ms + rng.uniform(0.0, 8.0);
  }
  for (auto& b : load.pdcp.bearers) {
    b.tx_sdu_bytes = 1000 + rng.bounded(150'000);
    b.rx_sdu_bytes = rng.bounded(50'000);
  }
}

struct IngestResult {
  std::uint64_t samples = 0;
  double samples_per_sec = 0.0;
  std::size_t max_memory = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dropped = 0;
  bool under_budget = true;
  Nanos last_t = 0;
};

IngestResult run_ingest(int agents, telemetry::TelemetryStore& store,
                        std::uint64_t target_samples) {
  telemetry::Ingest ingest(store);
  Rng rng(42);
  std::vector<AgentLoad> loads(static_cast<std::size_t>(agents), make_load());

  std::uint64_t ticks =
      target_samples / (kSamplesPerTickPerAgent * static_cast<std::uint64_t>(agents)) + 1;
  IngestResult res;
  Nanos wall0 = mono_now();
  for (std::uint64_t tick = 0; tick < ticks; ++tick) {
    Nanos t = static_cast<Nanos>(tick) * kMilli;
    for (int a = 0; a < agents; ++a) {
      auto& load = loads[static_cast<std::size_t>(a)];
      churn(rng, load);
      ingest.mac(static_cast<telemetry::AgentId>(a), t, load.mac);
      ingest.rlc(static_cast<telemetry::AgentId>(a), t, load.rlc);
      ingest.pdcp(static_cast<telemetry::AgentId>(a), t, load.pdcp);
    }
    std::size_t mem = store.memory_bytes();
    if (mem > res.max_memory) res.max_memory = mem;
    if (mem > store.memory_budget()) res.under_budget = false;
    res.last_t = t;
  }
  Nanos wall = mono_now() - wall0;
  res.samples = ingest.samples_in();
  res.samples_per_sec =
      wall > 0 ? static_cast<double>(res.samples) /
                     (static_cast<double>(wall) / static_cast<double>(kSecond))
               : 0.0;
  res.evictions = store.evictions();
  res.dropped = store.dropped_samples();
  return res;
}

/// Budget that holds `series` full series plus a little slack, derived from
/// the store's own accounting so the bench tracks layout changes.
std::size_t budget_for(std::size_t series) {
  telemetry::TelemetryStore probe{{}};
  return probe.memory_bytes() + (series + 2) * probe.per_series_cost();
}

/// Whole-cell leg: the asn_large_decode working set (4 agents x 32 UEs x 1
/// bearer, core KPI set = 1536 series) at a 2 ms report cadence. Series are
/// created during a warm-up pass; each timed rep then ingests 1000 ticks
/// and yields one ns/sample figure (ingest calls only, value churn
/// excluded).
struct WholeCell {
  std::vector<double> ns_per_sample;  ///< per rep, sorted
  double heap_bytes_per_series = 0.0;  ///< mean TimeSeries::heap_bytes()
  std::size_t accounted_bytes_per_series = 0;
};

WholeCell run_whole_cell(int reps) {
  constexpr int kAgents = 4;
  constexpr int kUes = 32;
  constexpr int kWarmTicks = 200;
  constexpr int kTicksPerRep = 1000;
  telemetry::StoreConfig cfg;
  cfg.memory_budget = budget_for(static_cast<std::size_t>(kAgents) * kUes * 12);
  telemetry::TelemetryStore store{cfg};
  telemetry::Ingest ingest(store);
  Rng rng(7);
  std::vector<AgentLoad> loads(kAgents, make_load(kUes));
  Nanos t = 0;
  auto tick = [&]() -> Nanos {
    t += 2 * kMilli;
    for (auto& load : loads) churn(rng, load);
    Nanos t0 = mono_now();
    for (int a = 0; a < kAgents; ++a) {
      const auto& load = loads[static_cast<std::size_t>(a)];
      auto agent = static_cast<telemetry::AgentId>(a);
      ingest.mac(agent, t, load.mac);
      ingest.rlc(agent, t, load.rlc);
      ingest.pdcp(agent, t, load.pdcp);
    }
    return mono_now() - t0;
  };
  for (int i = 0; i < kWarmTicks; ++i) tick();
  WholeCell out;
  for (int r = 0; r < reps; ++r) {
    std::uint64_t before = ingest.samples_in();
    Nanos spent = 0;
    for (int i = 0; i < kTicksPerRep; ++i) spent += tick();
    out.ns_per_sample.push_back(
        static_cast<double>(spent) /
        static_cast<double>(ingest.samples_in() - before));
  }
  std::sort(out.ns_per_sample.begin(), out.ns_per_sample.end());
  std::size_t heap = 0;
  std::vector<telemetry::SeriesInfo> all = store.list_series();
  for (const telemetry::SeriesInfo& info : all)
    heap += store.find(info.key)->heap_bytes();
  out.heap_bytes_per_series =
      static_cast<double>(heap) / static_cast<double>(all.size());
  out.accounted_bytes_per_series = cfg.layout.bytes_per_series();
  return out;
}

struct QueryStats {
  double mean_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

template <typename Fn>
QueryStats measure_query(int iters, Fn&& fn) {
  Histogram h;
  h.reserve(static_cast<std::size_t>(iters));
  for (int i = 0; i < iters; ++i) {
    Nanos t0 = mono_now();
    fn();
    h.record(static_cast<double>(mono_now() - t0) / static_cast<double>(kMicro));
  }
  return {h.mean(), h.quantile(0.95), h.quantile(0.99)};
}

}  // namespace

int main(int argc, char** argv) {
  banner("Telemetry store: ingest throughput and query latency",
         "1 ms MAC+RLC+PDCP statistics export (paper §5.3) into the "
         "bounded-memory KPI history");

  JsonWriter json("bench_telemetry");
  bool pass = true;

  // -- ingest throughput, scaled agent counts -------------------------------
  const int kAgentTiers[] = {1, 4, 16};
  const int kLargestTier = 16;
  Table ingest_table({"agents (4 UEs each)", "samples", "Msamples/s", "mem MB",
                      "budget MB", "evicted"});
  // The largest tier's store outlives the loop: the query-latency phase runs
  // against its populated series.
  telemetry::StoreConfig big_cfg;
  big_cfg.memory_budget =
      budget_for(static_cast<std::size_t>(kLargestTier) * kUesPerAgent * 12);
  telemetry::TelemetryStore store_big{big_cfg};
  Nanos query_last_t = 0;
  double worst_throughput = -1.0;
  for (int agents : kAgentTiers) {
    // 12 series per UE (6 MAC + 4 RLC + 2 PDCP).
    std::size_t series = static_cast<std::size_t>(agents) * kUesPerAgent * 12;
    telemetry::StoreConfig cfg;
    cfg.memory_budget = budget_for(series);
    telemetry::TelemetryStore tier_store{cfg};
    telemetry::TelemetryStore& store =
        agents == kLargestTier ? store_big : tier_store;
    IngestResult r = run_ingest(agents, store, kTargetSamples);
    if (agents == kLargestTier) query_last_t = r.last_t;
    pass = pass && r.under_budget && r.dropped == 0;
    if (worst_throughput < 0 || r.samples_per_sec < worst_throughput)
      worst_throughput = r.samples_per_sec;
    ingest_table.row(
        std::to_string(agents),
        {std::to_string(r.samples), fmt("%.2f", r.samples_per_sec / 1e6),
         fmt("%.2f", static_cast<double>(r.max_memory) / 1e6),
         fmt("%.2f", static_cast<double>(store.memory_budget()) / 1e6),
         std::to_string(r.evictions)});
    std::string prefix = "ingest_" + std::to_string(agents) + "_agents_";
    json.add(prefix + "samples", static_cast<double>(r.samples), "samples");
    json.add(prefix + "throughput", r.samples_per_sec, "samples/s");
    json.add(prefix + "max_memory", static_cast<double>(r.max_memory), "bytes");
    json.add(prefix + "budget", static_cast<double>(store.memory_budget()),
             "bytes");
  }
  note(pass ? "memory stayed under budget across every 1e6-sample ingest"
            : "FAIL: memory budget exceeded or samples dropped");
  if (worst_throughput < 1e5) {
    pass = false;
    note("FAIL: ingest throughput below the 1e5 samples/s acceptance floor");
  }

  // -- bounded memory under pressure: budget for half the working set -------
  {
    int agents = 8;
    std::size_t series = static_cast<std::size_t>(agents) * kUesPerAgent * 12;
    telemetry::StoreConfig cfg;
    cfg.memory_budget = budget_for(series / 2);
    telemetry::TelemetryStore store{cfg};
    IngestResult r = run_ingest(agents, store, kTargetSamples / 10);
    pass = pass && r.under_budget && r.evictions > 0;
    std::printf(
        "\n  tight budget (half the series): mem %.2f MB <= budget %.2f MB, "
        "%llu evictions\n",
        static_cast<double>(r.max_memory) / 1e6,
        static_cast<double>(store.memory_budget()) / 1e6,
        static_cast<unsigned long long>(r.evictions));
    json.add("tight_budget_max_memory", static_cast<double>(r.max_memory),
             "bytes");
    json.add("tight_budget_budget", static_cast<double>(store.memory_budget()),
             "bytes");
    json.add("tight_budget_evictions", static_cast<double>(r.evictions),
             "evictions");
  }

  // -- whole-cell working set (e2bench asn_large_decode) ---------------------
  {
    WholeCell cell = run_whole_cell(7);
    const std::vector<double>& ns = cell.ns_per_sample;
    double median = ns[ns.size() / 2];
    double q1 = ns[ns.size() / 4];
    double q3 = ns[(3 * ns.size()) / 4];
    std::printf(
        "\n  whole cell (4 agents x 32 UEs, 1536 series, 2 ms cadence): "
        "%.1f ns/sample median (IQR %.1f-%.1f, 7 reps), %.2f us per "
        "128-sample report\n"
        "  heap per series %.0f bytes (accounted bytes_per_series %zu)\n",
        median, q1, q3, median * 128.0 / 1000.0, cell.heap_bytes_per_series,
        cell.accounted_bytes_per_series);
    json.add("whole_cell_ns_per_sample", median, "ns");
    json.add("whole_cell_ns_per_sample_q1", q1, "ns");
    json.add("whole_cell_ns_per_sample_q3", q3, "ns");
    json.add("whole_cell_heap_bytes_per_series", cell.heap_bytes_per_series,
             "bytes");
    json.add("whole_cell_bytes_per_series",
             static_cast<double>(cell.accounted_bytes_per_series), "bytes");
  }

  // -- query latency on the populated 16-agent store ------------------------
  {
    const telemetry::TelemetryStore& qs = store_big;
    telemetry::SeriesKey key{0, telemetry::make_entity(100),
                             telemetry::Metric::mac_bytes_dl};
    Nanos end = query_last_t + kMilli;
    struct Leg {
      const char* label;
      const char* json_name;
      telemetry::QuerySource source;
      Nanos window;
    };
    const Leg legs[] = {
        {"aggregate raw (100 ms window)", "query_raw", telemetry::QuerySource::raw,
         100 * kMilli},
        {"aggregate tier1 (10 s window)", "query_tier1",
         telemetry::QuerySource::tier1, 10 * kSecond},
        {"aggregate tier2 (full range)", "query_tier2",
         telemetry::QuerySource::tier2, end},
        {"aggregate auto (full range)", "query_auto",
         telemetry::QuerySource::automatic, end},
    };
    std::printf("\n");
    Table query_table({"query (2000 iters)", "mean us", "p95 us", "p99 us"});
    double sink = 0.0;
    for (const Leg& leg : legs) {
      Nanos t0 = end - leg.window;
      if (t0 < 0) t0 = 0;
      QueryStats st = measure_query(2000, [&] {
        auto r = qs.window_aggregate(key, t0, end, leg.source);
        if (r.is_ok()) sink += r->mean;
      });
      query_table.row(leg.label, {fmt("%.2f", st.mean_us), fmt("%.2f", st.p95_us),
                                  fmt("%.2f", st.p99_us)});
      json.add(std::string(leg.json_name) + "_mean", st.mean_us, "us");
      json.add(std::string(leg.json_name) + "_p95", st.p95_us, "us");
    }
    QueryStats st = measure_query(2000, [&] {
      auto r = qs.latest(key, 32);
      if (r.is_ok()) sink += static_cast<double>(r->size());
    });
    query_table.row("latest 32 raw samples",
                    {fmt("%.2f", st.mean_us), fmt("%.2f", st.p95_us),
                     fmt("%.2f", st.p99_us)});
    json.add("query_latest32_mean", st.mean_us, "us");
    json.add("query_latest32_p95", st.p95_us, "us");
    if (sink < 0) std::printf("%f", sink);  // keep queries observable
  }

  note(pass ? "PASS: all telemetry acceptance targets met"
            : "FAIL: one or more acceptance targets missed");
  if (!json.write(json_path_from_args(argc, argv))) return 1;
  return pass ? 0 : 1;
}
