// Workload definitions of the paced E2 benchmark and the seeded generation
// of every input the program receives: agent identities, UE RNTI/CQI/MCS
// and the two NVS slice configurations each agent is toggled between.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "codec/wire.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "e2ap/messages.hpp"
#include "e2sm/slice_sm.hpp"
#include "server/sharding.hpp"

namespace e2bench {

using flexric::WireFormat;

struct Workload {
  const char* name;
  WireFormat fmt;           ///< E2AP and E2SM encoding
  std::uint32_t shards;     ///< 0 = plain E2Server, else ShardedE2Server
  int agents;
  int ues;                  ///< UEs per agent
  std::uint32_t report_ms;  ///< statistics report period
  /// iApp decodes whole-cell reports and feeds a TelemetryStore; otherwise
  /// it keeps the raw bytes of one-UE reports (one MAC/RLC/PDCP
  /// subscription per UE).
  bool decode_ingest;
  bool overload;            ///< server admission control on
  /// Closed control loop, one control outstanding per server thread; the
  /// next control also waits for this many indications delivered since the
  /// last one.
  int inds_per_ctrl;

  [[nodiscard]] bool per_ue() const noexcept { return !decode_ingest; }
  /// Sharded workloads add the home-side KPM fan-out xApp.
  [[nodiscard]] bool fanout() const noexcept { return shards > 0; }
  /// Indications each server thread receives per second.
  [[nodiscard]] std::size_t inds_per_thread_per_s() const noexcept {
    const auto subs = static_cast<std::size_t>(agents) * 3 *
                      static_cast<std::size_t>(per_ue() ? ues : 1) /
                      std::max<std::uint32_t>(shards, 1);
    return subs * 1000 / report_ms;
  }
};

// Why each workload exists is recorded next to it in BENCHMARK.json.
// Every workload spaces its controls by delivered reports (about 1k/s
// against 96k reports/s on fb_small_sharded, 2k/s against 6k/s on
// asn_large_decode, 2k/s against 48k/s on ctrl_slice_rtt, the workload
// with overload protection on): a control costs the server roughly
// ten FlatBuffers reports' worth of CPU, and an unspaced loop runs as fast
// as the round trip allows, so the control:report mix, and every
// per-report figure with it, would follow the host's speed (on
// asn_large_decode it swung from 5k to 17k controls/s between runs; on
// ctrl_slice_rtt it kept the server thread 60% busy on a quiet 4-vCPU Xeon
// VM and saturated it when the host ran at half speed).
// asn_large_decode reports every 2 ms: at 1 ms the server thread is ~85%
// busy (decode + telemetry ingest ~70 us per report on a 4-core Xeon VM),
// so its latency percentiles would measure queueing near saturation.
inline const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"fb_small_sharded", WireFormat::flat, 2, 4, 8, 1, false, false, 24},
      {"asn_large_decode", WireFormat::per, 0, 4, 32, 2, true, false, 2},
      {"ctrl_slice_rtt", WireFormat::flat, 0, 4, 4, 1, false, true, 8},
  };
  return w;
}

inline const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

struct UeSpec {
  std::uint16_t rnti = 0;
  std::uint8_t cqi = 15;
  std::uint8_t mcs = 28;
};

struct AgentSpec {
  flexric::e2ap::GlobalNodeId node;
  std::uint32_t cell_id = 0;
  std::uint64_t bs_seed = 1;
  std::vector<UeSpec> ues;
  std::vector<std::uint16_t> rntis;  ///< sorted
  flexric::e2sm::slice::CtrlMsg nvs[2];
};

inline flexric::e2sm::slice::CtrlMsg make_nvs(flexric::Rng& rng) {
  namespace sl = flexric::e2sm::slice;
  sl::CtrlMsg m;
  m.kind = sl::CtrlKind::add_mod;
  m.algo = sl::Algo::nvs;
  const double s1 = rng.uniform(0.2, 0.7);
  const double s2 = rng.uniform(0.05, 0.95 - s1);
  const char* labels[] = {"embb", "urllc"};
  const double shares[] = {s1, s2};
  for (std::uint32_t i = 0; i < 2; ++i) {
    sl::SliceConf c;
    c.id = i + 1;
    c.label = labels[i];
    c.ue_sched = static_cast<sl::UeSched>(rng.bounded(3));
    c.nvs.kind = sl::NvsKind::capacity;
    c.nvs.capacity_share = shares[i];
    m.slices.push_back(c);
  }
  return m;
}

/// Every input of one run, derived from the seed alone. In sharded
/// workloads node ids are redrawn until each shard homes the same number of
/// agents.
inline std::vector<AgentSpec> make_agents(const Workload& w,
                                          std::uint64_t seed) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a of the workload name
  for (const char* c = w.name; *c != '\0'; ++c)
    h = (h ^ static_cast<std::uint8_t>(*c)) * 0x100000001b3ULL;
  flexric::Rng rng(seed * 0x9E3779B97F4A7C15ULL + h);
  std::vector<AgentSpec> out;
  std::vector<int> per_shard(std::max<std::uint32_t>(w.shards, 1), 0);
  const int cap = w.agents / static_cast<int>(per_shard.size());
  std::set<std::uint32_t> nb_ids;
  while (static_cast<int>(out.size()) < w.agents) {
    AgentSpec a;
    a.node = {0x00F110u + static_cast<std::uint32_t>(rng.bounded(16)),
              1u + static_cast<std::uint32_t>(rng.bounded(1u << 20)),
              flexric::e2ap::NodeType::enb};
    if (!nb_ids.insert(a.node.nb_id).second) continue;
    if (w.shards > 0) {
      const std::uint32_t s = flexric::server::shard_of(a.node, w.shards);
      if (per_shard[s] >= cap) continue;
      per_shard[s]++;
    }
    a.cell_id = static_cast<std::uint32_t>(out.size());
    a.bs_seed = rng.next();
    std::set<std::uint16_t> rntis;
    while (static_cast<int>(rntis.size()) < w.ues)
      rntis.insert(static_cast<std::uint16_t>(100 + rng.bounded(60000)));
    for (std::uint16_t r : rntis) {
      UeSpec u;
      u.rnti = r;
      u.cqi = static_cast<std::uint8_t>(5 + rng.bounded(11));
      u.mcs = static_cast<std::uint8_t>(10 + rng.bounded(19));
      a.ues.push_back(u);
      a.rntis.push_back(r);
    }
    a.nvs[0] = make_nvs(rng);
    a.nvs[1] = make_nvs(rng);
    out.push_back(std::move(a));
  }
  return out;
}

}  // namespace e2bench
