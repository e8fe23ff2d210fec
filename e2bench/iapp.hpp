// The benchmark-owned iApp that runs on every server thread: it subscribes
// the statistics SMs, consumes indications the way MonitorIApp does (raw
// bytes in FlatBuffers mode, decode + telemetry ingest in ASN.1 mode),
// checks them, times their latency from the TTI at which they were due, and
// runs the slice-control loop.
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "e2sm/common.hpp"
#include "e2sm/mac_sm.hpp"
#include "e2sm/pdcp_sm.hpp"
#include "e2sm/rlc_sm.hpp"
#include "e2sm/slice_sm.hpp"
#include "server/server.hpp"
#include "server/sharding.hpp"
#include "telemetry/ingest.hpp"
#include "telemetry/store.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace e2bench {

using flexric::mono_now;
namespace e2ap = flexric::e2ap;
namespace e2sm = flexric::e2sm;

/// Span names; index into kSpanNames.
enum SpanName : std::uint16_t {
  kRanTick,
  kAgentTti,
  kTransportSend,
  kAgentCtrlHandle,
  kCtrlIapp,
  kE2smDecode,
  kTelemetryIngest,
  kSendControl,
  kHomePump,
  kNumSpanNames
};
inline constexpr const char* kSpanNames[kNumSpanNames] = {
    "ran.tick",   "agent.tti",          "transport.send",
    "agent.ctrl_handle", "ctrl.iapp",   "e2sm.decode",
    "telemetry.ingest",  "server.send_control", "home.pump"};

/// Traced runs time one call in this many: indications with
/// sn % kTraceEvery == 0, and every kTraceEvery-th control.
inline constexpr std::uint32_t kTraceEvery = 16;

/// State the farm thread shares with the server threads of one world.
struct Shared {
  std::atomic<bool> ctrl_on{false};
  std::atomic<bool> tracing{false};
  /// Start of measured second 0 (due-time axis); max() = not started.
  std::atomic<Nanos> t0{std::numeric_limits<Nanos>::max()};
  std::size_t seconds = 0;  ///< measured seconds
  std::atomic<int> agents_up{0};
  std::atomic<int> subs_ok{0};
  std::atomic<int> subs_failed{0};

  /// The measured second `t` falls in; SIZE_MAX outside the measurement.
  [[nodiscard]] std::size_t second_of(Nanos t) const noexcept {
    const Nanos start = t0.load(std::memory_order_relaxed);
    if (t < start) return SIZE_MAX;
    const auto s = static_cast<std::size_t>((t - start) / flexric::kSecond);
    return s < seconds ? s : SIZE_MAX;
  }
};

inline std::uint32_t clamp_ns(Nanos v) {
  return static_cast<std::uint32_t>(
      std::clamp<Nanos>(v, 0, std::numeric_limits<std::uint32_t>::max()));
}

/// Everything one server thread records. Written by that thread only; the
/// atomics are the few fields the farm polls while the run is live.
struct Rec {
  Samples ind_lat;   ///< due -> iApp callback entry, by due second
  Samples ctrl_rtt;  ///< send_control -> on_ack, by send second
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<int> ctrl_outstanding{0};
  std::uint64_t sn_errors = 0;
  std::uint64_t content_errors = 0;  ///< undecodable or wrong-RNTI reports
  std::uint64_t ctrl_attempted = 0;
  std::uint64_t ctrl_acked = 0;      ///< acked with outcome success
  std::uint64_t ctrl_bad = 0;        ///< acked, outcome not success
  std::uint64_t ctrl_failed = 0;     ///< refused, failed or expired
  std::uint64_t turns = 0;           ///< reactor turns that delivered work
  std::uint64_t turn_frames = 0;     ///< indications delivered in them
  SpanBuffer spans;
  std::uint64_t telemetry_samples = 0;
  std::uint64_t telemetry_decode_errors = 0;
  std::uint64_t telemetry_evictions = 0;
};

class BenchIApp final : public flexric::server::IApp {
 public:
  BenchIApp(const Workload& w, const std::vector<AgentSpec>& specs,
            Shared& sh, std::uint32_t shard, std::size_t inds_per_s,
            std::size_t ctrls_per_s, bool trace)
      : w_(w), specs_(specs), sh_(sh), shard_(shard) {
    rec_.ind_lat = Samples(sh.seconds, inds_per_s);
    rec_.ctrl_rtt = Samples(sh.seconds, ctrls_per_s);
    if (trace) rec_.spans = SpanBuffer(1u << 18);
    if (w.decode_ingest) {
      // Budget for the whole working set (12 core-KPI series per UE
      // bearer, twice over): an undersized store evicts on every sample,
      // which would measure LRU thrash instead of ingest.
      flexric::telemetry::StoreConfig sc;
      const auto series =
          static_cast<std::size_t>(w.agents) * static_cast<std::size_t>(w.ues) * 12;
      sc.memory_budget = 2 * series * sc.layout.bytes_per_series();
      store_ = std::make_unique<flexric::telemetry::TelemetryStore>(sc);
      flexric::telemetry::IngestConfig ic;
      ic.agent_namespace = shard;
      ingest_ = std::make_unique<flexric::telemetry::Ingest>(*store_, ic);
    }
  }

  [[nodiscard]] const char* name() const override { return "e2bench"; }

  void on_start(flexric::server::E2Server& s) override {
    server_ = &s;
    // Starts the control loop once the farm switches it on, and restarts
    // it after a refused send.
    s.reactor().add_timer(flexric::kMilli, [this] { control_tick(); });
  }

  void on_agent_connected(const flexric::server::AgentInfo& info) override {
    int spec = -1;
    for (std::size_t i = 0; i < specs_.size(); ++i)
      if (specs_[i].node == info.node) spec = static_cast<int>(i);
    if (spec < 0) return;
    agents_.push_back({info.id, spec});
    const AgentSpec& a = specs_[static_cast<std::size_t>(spec)];
    const std::uint16_t fns[] = {e2sm::mac::Sm::kId, e2sm::rlc::Sm::kId,
                                 e2sm::pdcp::Sm::kId};
    for (std::uint16_t fn : fns) {
      if (w_.per_ue()) {
        for (const UeSpec& u : a.ues) subscribe(info.id, spec, fn, u.rnti);
      } else {
        subscribe(info.id, spec, fn, 0);
      }
    }
    sh_.agents_up.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] Rec& rec() noexcept { return rec_; }
  [[nodiscard]] const Rec& rec() const noexcept { return rec_; }

  /// One subscription as the iApp tracks it.
  struct SubTrack {
    flexric::server::AgentId agent = 0;
    int spec = 0;
    std::uint16_t fn = 0;
    std::uint16_t rnti = 0;  ///< filtered UE; 0 = whole cell
    std::int64_t last_sn = -1;
    flexric::Buffer raw;     ///< FlatBuffers mode: the latest report
  };
  [[nodiscard]] const std::deque<SubTrack>& subs() const noexcept {
    return subs_;
  }

  /// Per agent spec index: the slice configuration last acknowledged
  /// (-1: none).
  [[nodiscard]] std::vector<std::pair<int, int>> last_acked() const {
    std::vector<std::pair<int, int>> out;
    for (const AgentRef& a : agents_) out.emplace_back(a.spec, a.last_acked);
    return out;
  }

 private:
  struct AgentRef {
    flexric::server::AgentId id = 0;
    int spec = 0;
    int toggle = 0;
    int last_acked = -1;
  };

  void subscribe(flexric::server::AgentId agent, int spec, std::uint16_t fn,
                 std::uint16_t rnti) {
    subs_.push_back({agent, spec, fn, rnti, -1, {}});
    SubTrack* st = &subs_.back();
    e2sm::EventTrigger trig{e2sm::TriggerKind::periodic, w_.report_ms};
    e2ap::Action action;
    action.id = 1;
    action.type = e2ap::ActionType::report;
    if (rnti != 0) {
      std::vector<std::uint16_t> filter{rnti};
      if (fn == e2sm::mac::Sm::kId)
        action.definition = e2sm::sm_encode(e2sm::mac::ActionDef{false, filter}, w_.fmt);
      else if (fn == e2sm::rlc::Sm::kId)
        action.definition = e2sm::sm_encode(e2sm::rlc::ActionDef{filter}, w_.fmt);
      else
        action.definition = e2sm::sm_encode(e2sm::pdcp::ActionDef{filter}, w_.fmt);
    }
    flexric::server::SubCallbacks cbs;
    cbs.on_response = [this](const e2ap::SubscriptionResponse&) {
      sh_.subs_ok.fetch_add(1, std::memory_order_relaxed);
    };
    cbs.on_failure = [this](const e2ap::SubscriptionFailure&) {
      sh_.subs_failed.fetch_add(1, std::memory_order_relaxed);
    };
    cbs.on_indication = [this, st](const e2ap::Indication& ind) {
      on_indication(*st, ind);
    };
    auto r = server_->subscribe(agent, fn, e2sm::sm_encode(trig, w_.fmt),
                                {action}, std::move(cbs));
    if (!r) sh_.subs_failed.fetch_add(1, std::memory_order_relaxed);
  }

  void on_indication(SubTrack& st, const e2ap::Indication& ind) {
    const Nanos arrive = mono_now();
    const bool tracing = sh_.tracing.load(std::memory_order_relaxed);
    const bool sampled = tracing && ind.sn % kTraceEvery == 0;
    const std::uint32_t gid =
        flexric::server::global_agent_id(shard_, st.agent);
    std::uint32_t span = SpanBuffer::kDropped;
    if (sampled)
      span = rec_.spans.open(kCtrlIapp, arrive,
                             ind_span_id(gid, st.fn, ind.sn));
    if (st.last_sn >= 0 && ind.sn != static_cast<std::uint32_t>(st.last_sn + 1))
      rec_.sn_errors++;
    st.last_sn = ind.sn;

    // MAC, RLC and PDCP headers share the {tstamp_ns, cell_id} layout.
    Nanos due = 0;
    if (auto hdr = e2sm::sm_decode<e2sm::mac::IndicationHdr>(ind.header, w_.fmt))
      due = static_cast<Nanos>(hdr->tstamp_ns);
    else
      rec_.content_errors++;

    if (w_.decode_ingest)
      decode_and_ingest(st, ind, due, sampled);
    else
      st.raw.assign(ind.message.begin(), ind.message.end());

    const std::size_t sec = sh_.second_of(due);
    if (sec != SIZE_MAX) rec_.ind_lat.add(sec, clamp_ns(arrive - due));
    rec_.delivered.store(rec_.delivered.load(std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
    if (tracing) {
      rec_.turn_frames++;
      if (!turn_marked_) {
        // Runs at the end of the current reactor turn: counts turns that
        // delivered at least one indication.
        turn_marked_ = true;
        server_->reactor().post([this] {
          turn_marked_ = false;
          rec_.turns++;
        });
      }
    }
    if (sampled) rec_.spans.close(span, mono_now());
    if (++inds_since_ctrl_ == w_.inds_per_ctrl) control_tick();
  }

  template <typename Msg>
  std::optional<Msg> timed_decode(const e2ap::Indication& ind, bool sampled) {
    const std::uint32_t s =
        sampled ? rec_.spans.open(kE2smDecode, mono_now()) : SpanBuffer::kDropped;
    auto m = e2sm::sm_decode<Msg>(ind.message, w_.fmt);
    if (sampled) rec_.spans.close(s, mono_now());
    if (!m) return std::nullopt;
    return std::move(*m);
  }

  bool rnti_known(const SubTrack& st, std::uint16_t rnti) const {
    const auto& r = specs_[static_cast<std::size_t>(st.spec)].rntis;
    return std::binary_search(r.begin(), r.end(), rnti);
  }

  void decode_and_ingest(const SubTrack& st, const e2ap::Indication& ind,
                         Nanos t, bool sampled) {
    const std::size_t n_ues =
        specs_[static_cast<std::size_t>(st.spec)].rntis.size();
    const std::uint32_t agent = st.agent;
    std::uint32_t s = SpanBuffer::kDropped;
    if (st.fn == e2sm::mac::Sm::kId) {
      auto m = timed_decode<e2sm::mac::IndicationMsg>(ind, sampled);
      if (!m || m->ues.size() != n_ues) return void(rec_.content_errors++);
      for (const auto& u : m->ues)
        if (!rnti_known(st, u.rnti)) rec_.content_errors++;
      if (sampled) s = rec_.spans.open(kTelemetryIngest, mono_now());
      ingest_->mac(agent, t, *m);
    } else if (st.fn == e2sm::rlc::Sm::kId) {
      auto m = timed_decode<e2sm::rlc::IndicationMsg>(ind, sampled);
      if (!m || m->bearers.size() < n_ues) return void(rec_.content_errors++);
      for (const auto& b : m->bearers)
        if (!rnti_known(st, b.rnti)) rec_.content_errors++;
      if (sampled) s = rec_.spans.open(kTelemetryIngest, mono_now());
      ingest_->rlc(agent, t, *m);
    } else {
      auto m = timed_decode<e2sm::pdcp::IndicationMsg>(ind, sampled);
      if (!m || m->bearers.size() < n_ues) return void(rec_.content_errors++);
      for (const auto& b : m->bearers)
        if (!rnti_known(st, b.rnti)) rec_.content_errors++;
      if (sampled) s = rec_.spans.open(kTelemetryIngest, mono_now());
      ingest_->pdcp(agent, t, *m);
    }
    if (sampled) rec_.spans.close(s, mono_now());
    rec_.telemetry_samples = ingest_->samples_in();
    rec_.telemetry_decode_errors = ingest_->decode_errors();
    rec_.telemetry_evictions = store_->evictions();
  }

  // -- slice control loop ---------------------------------------------------

  /// Closed loop with one control outstanding (see Workload::inds_per_ctrl).
  void control_tick() {
    if (rec_.ctrl_outstanding.load(std::memory_order_relaxed) != 0 ||
        inds_since_ctrl_ < w_.inds_per_ctrl ||
        !sh_.ctrl_on.load(std::memory_order_relaxed))
      return;
    send_control();
  }

  void send_control() {
    if (agents_.empty()) return;
    AgentRef& a = agents_[next_agent_++ % agents_.size()];
    const int which = a.toggle;
    a.toggle ^= 1;
    const std::uint64_t txn = rec_.ctrl_attempted++;
    const bool sampled = sh_.tracing.load(std::memory_order_relaxed) &&
                         txn % kTraceEvery == 0;
    const Nanos t0 = mono_now();
    const std::uint32_t span =
        sampled ? rec_.spans.open(kSendControl, t0, txn) : SpanBuffer::kDropped;
    flexric::server::CtrlCallbacks cbs;
    AgentRef* ap = &a;
    cbs.on_ack = [this, ap, which, t0](const e2ap::ControlAck& ack) {
      const Nanos t1 = mono_now();
      auto out = e2sm::sm_decode<e2sm::slice::CtrlOutcome>(ack.outcome, w_.fmt);
      if (out && out->success) {
        rec_.ctrl_acked++;
        ap->last_acked = which;
      } else {
        rec_.ctrl_bad++;
      }
      const std::size_t sec = sh_.second_of(t0);
      if (sec != SIZE_MAX) rec_.ctrl_rtt.add(sec, clamp_ns(t1 - t0));
      control_done();
    };
    cbs.on_failure = [this](const e2ap::ControlFailure&) {
      rec_.ctrl_failed++;
      control_done();
    };
    const auto& spec = specs_[static_cast<std::size_t>(a.spec)];
    flexric::Status st = server_->send_control(
        a.id, e2sm::slice::Sm::kId, flexric::Buffer{},
        e2sm::sm_encode(spec.nvs[which], w_.fmt), std::move(cbs), true);
    if (sampled) rec_.spans.close(span, mono_now());
    if (!st) {
      rec_.ctrl_failed++;
      return;
    }
    inds_since_ctrl_ = 0;
    rec_.ctrl_outstanding.store(1, std::memory_order_relaxed);
  }

  void control_done() {
    rec_.ctrl_outstanding.store(0, std::memory_order_relaxed);
    control_tick();
  }

  const Workload& w_;
  const std::vector<AgentSpec>& specs_;
  Shared& sh_;
  std::uint32_t shard_;
  std::deque<SubTrack> subs_;
  std::deque<AgentRef> agents_;  // stable: control callbacks point in
  std::size_t next_agent_ = 0;
  bool turn_marked_ = false;
  int inds_since_ctrl_ = 0;
  std::unique_ptr<flexric::telemetry::TelemetryStore> store_;
  std::unique_ptr<flexric::telemetry::Ingest> ingest_;
  Rec rec_;
};

}  // namespace e2bench
