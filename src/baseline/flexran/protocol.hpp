// FlexRAN baseline protocol (comparator for Figs. 6–8).
//
// Reproduces the design properties the paper attributes to FlexRAN [1]:
//   * custom south-bound protocol, tightly coupled to the RAT;
//   * Protobuf encoding (our proto codec), single-encoded (no E2AP/E2SM
//     double encoding — its advantage in Fig. 7b);
//   * statistics delivered periodically but consumed by POLLING: the
//     controller stores reports in a RIB and applications scan it every
//     millisecond (its disadvantage in §5.3);
//   * monolithic per-UE stats report (MAC+RLC+PDCP in one message).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "e2sm/common.hpp"

namespace flexric::baseline::flexran {

enum class MsgKind : std::uint8_t {
  hello = 0,        ///< agent -> controller: node announce
  hello_ack,        ///< controller -> agent
  stats_request,    ///< controller -> agent: start periodic reports
  stats_report,     ///< agent -> controller
  echo_request,     ///< controller -> agent (RTT probe)
  echo_reply,       ///< agent -> controller
  slice_config,     ///< controller -> agent (slice control)
};

/// Monolithic per-UE statistics (MAC + RLC + PDCP in one record, "covering
/// approximately the same data" as the FlexRIC stats SMs, §5.1).
struct UeStats {
  std::uint16_t rnti = 0;
  std::uint8_t cqi = 0;
  std::uint8_t mcs_dl = 0;
  std::uint32_t prbs_dl = 0;
  std::uint64_t mac_bytes_dl = 0;
  std::uint32_t bsr = 0;
  std::uint32_t rlc_buffer_bytes = 0;
  std::uint32_t rlc_buffer_pkts = 0;
  double rlc_sojourn_avg_ms = 0.0;
  std::uint64_t pdcp_tx_sdu_bytes = 0;
  std::uint32_t pdcp_tx_sdus = 0;
  std::uint32_t slice_id = 0;
  bool operator==(const UeStats&) const = default;
};

template <typename A>
void serde(A& a, UeStats& s) {
  a.u16(s.rnti);
  a.u8(s.cqi);
  a.u8(s.mcs_dl);
  a.u32(s.prbs_dl);
  a.u64(s.mac_bytes_dl);
  a.u32(s.bsr);
  a.u32(s.rlc_buffer_bytes);
  a.u32(s.rlc_buffer_pkts);
  a.f64(s.rlc_sojourn_avg_ms);
  a.u64(s.pdcp_tx_sdu_bytes);
  a.u32(s.pdcp_tx_sdus);
  a.u32(s.slice_id);
}

struct Hello {
  std::uint32_t bs_id = 0;
  std::string rat = "lte";
  std::uint32_t num_prbs = 25;
  bool operator==(const Hello&) const = default;
};

template <typename A>
void serde(A& a, Hello& h) {
  a.u32(h.bs_id);
  a.str(h.rat);
  a.u32(h.num_prbs);
}

struct StatsRequest {
  std::uint32_t period_ms = 1;
  bool operator==(const StatsRequest&) const = default;
};

template <typename A>
void serde(A& a, StatsRequest& r) {
  a.u32(r.period_ms);
}

struct StatsReport {
  std::uint32_t bs_id = 0;
  std::uint64_t tstamp_ns = 0;
  std::vector<UeStats> ues;
  bool operator==(const StatsReport&) const = default;
};

template <typename A>
void serde(A& a, StatsReport& r) {
  a.u32(r.bs_id);
  a.u64(r.tstamp_ns);
  a.vec(r.ues);
}

struct Echo {
  std::uint32_t seq = 0;
  std::uint64_t sent_ns = 0;
  Buffer payload;
  bool operator==(const Echo&) const = default;
};

template <typename A>
void serde(A& a, Echo& e) {
  a.u32(e.seq);
  a.u64(e.sent_ns);
  a.bytes(e.payload);
}

/// Framed protocol message: 1-byte kind + proto-encoded body.
Buffer encode_frame(MsgKind kind, BytesView body);
// @view_of(the wire buffer handed to decode_frame)
struct Frame {
  MsgKind kind;
  BytesView body;
};
Result<Frame> decode_frame(BytesView wire);

template <typename T>
Buffer encode_msg(MsgKind kind, const T& msg) {
  Buffer body = e2sm::sm_encode(msg, WireFormat::proto);
  return encode_frame(kind, body);
}

}  // namespace flexric::baseline::flexran
