#include "telemetry/ingest.hpp"

#include "e2sm/common.hpp"

namespace flexric::telemetry {

void Ingest::put(AgentId agent, std::uint32_t entity, Metric m, Nanos t,
                 double v) {
  const AgentId gid = (cfg_.agent_namespace << 24) | (agent & 0xFFFFFF);
  // Budget rejections are counted by the store (dropped_samples); ingestion
  // keeps going so one saturated series cannot stall the rest of the report.
  static_cast<void>(store_.record(SeriesKey{gid, entity, m}, t, v));
  samples_in_++;
}

void Ingest::mac(AgentId agent, Nanos t, const e2sm::mac::IndicationMsg& msg) {
  for (const e2sm::mac::UeStats& ue : msg.ues) {
    std::uint32_t ent = make_entity(ue.rnti);
    put(agent, ent, Metric::mac_cqi, t, ue.cqi);
    put(agent, ent, Metric::mac_mcs_dl, t, ue.mcs_dl);
    put(agent, ent, Metric::mac_prbs_dl, t, ue.prbs_dl);
    put(agent, ent, Metric::mac_bytes_dl, t,
        static_cast<double>(ue.bytes_dl));
    put(agent, ent, Metric::mac_bytes_ul, t,
        static_cast<double>(ue.bytes_ul));
    put(agent, ent, Metric::mac_bsr, t, ue.bsr);
    if (cfg_.extended_metrics) {
      put(agent, ent, Metric::mac_mcs_ul, t, ue.mcs_ul);
      put(agent, ent, Metric::mac_prbs_ul, t, ue.prbs_ul);
      put(agent, ent, Metric::mac_phr_db, t,
          static_cast<double>(ue.phr_db));
      put(agent, ent, Metric::mac_harq_retx, t, ue.harq_retx);
    }
  }
}

void Ingest::rlc(AgentId agent, Nanos t, const e2sm::rlc::IndicationMsg& msg) {
  for (const e2sm::rlc::BearerStats& b : msg.bearers) {
    std::uint32_t ent = make_entity(b.rnti, b.drb_id);
    put(agent, ent, Metric::rlc_tx_bytes, t, static_cast<double>(b.tx_bytes));
    put(agent, ent, Metric::rlc_buffer_bytes, t, b.buffer_bytes);
    put(agent, ent, Metric::rlc_sojourn_avg_ms, t, b.sojourn_avg_ms);
    put(agent, ent, Metric::rlc_sojourn_max_ms, t, b.sojourn_max_ms);
    if (cfg_.extended_metrics) {
      put(agent, ent, Metric::rlc_rx_bytes, t,
          static_cast<double>(b.rx_bytes));
      put(agent, ent, Metric::rlc_buffer_pkts, t, b.buffer_pkts);
      put(agent, ent, Metric::rlc_retx_pdus, t, b.retx_pdus);
      put(agent, ent, Metric::rlc_dropped_sdus, t, b.dropped_sdus);
    }
  }
}

void Ingest::pdcp(AgentId agent, Nanos t,
                  const e2sm::pdcp::IndicationMsg& msg) {
  for (const e2sm::pdcp::BearerStats& b : msg.bearers) {
    std::uint32_t ent = make_entity(b.rnti, b.drb_id);
    put(agent, ent, Metric::pdcp_tx_sdu_bytes, t,
        static_cast<double>(b.tx_sdu_bytes));
    put(agent, ent, Metric::pdcp_rx_sdu_bytes, t,
        static_cast<double>(b.rx_sdu_bytes));
    if (cfg_.extended_metrics) {
      put(agent, ent, Metric::pdcp_tx_pdus, t, b.tx_pdus);
      put(agent, ent, Metric::pdcp_rx_pdus, t, b.rx_pdus);
      put(agent, ent, Metric::pdcp_discarded_sdus, t, b.discarded_sdus);
    }
  }
}

Result<Nanos> Ingest::header_tstamp(BytesView header, WireFormat format) {
  // All statistics SM headers share the {tstamp_ns, cell_id} serde layout,
  // so the MAC decoder reads any of them.
  auto hdr = e2sm::sm_decode<e2sm::mac::IndicationHdr>(header, format);
  if (!hdr.is_ok()) return hdr.error();
  return static_cast<Nanos>(hdr->tstamp_ns);
}

Status Ingest::wire(AgentId agent, std::uint16_t fn_id, BytesView header,
                    BytesView message, WireFormat format) {
  auto t = header_tstamp(header, format);
  if (!t.is_ok()) {
    decode_errors_++;
    return t.status();
  }
  switch (fn_id) {
    case e2sm::mac::Sm::kId: {
      auto msg = e2sm::sm_decode<e2sm::mac::IndicationMsg>(message, format);
      if (!msg.is_ok()) {
        decode_errors_++;
        return msg.status();
      }
      mac(agent, *t, *msg);
      return Status::ok();
    }
    case e2sm::rlc::Sm::kId: {
      auto msg = e2sm::sm_decode<e2sm::rlc::IndicationMsg>(message, format);
      if (!msg.is_ok()) {
        decode_errors_++;
        return msg.status();
      }
      rlc(agent, *t, *msg);
      return Status::ok();
    }
    case e2sm::pdcp::Sm::kId: {
      auto msg = e2sm::sm_decode<e2sm::pdcp::IndicationMsg>(message, format);
      if (!msg.is_ok()) {
        decode_errors_++;
        return msg.status();
      }
      pdcp(agent, *t, *msg);
      return Status::ok();
    }
    default:
      return Status{Errc::unsupported, "no telemetry mapping for RAN fn"};
  }
}

}  // namespace flexric::telemetry
