// Paced open-loop E2 benchmark: agents report on a wall-clock TTI schedule,
// benchmark iApps consume the reports on the server threads, and a slice
// controller issues RIC Control. Prints one JSON object with the run's
// metrics and output checks; run.py is the command-line front end.
//
//   e2bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--spans <path>]
//
// Threads: the calling thread is the generator ("farm") hosting every
// BaseStation + E2Agent + BsFunctionBundle; the server runs on one thread,
// or on the shard threads of a ShardedE2Server.
#include <pthread.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <future>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "agent/agent.hpp"
#include "e2ap/codec.hpp"
#include "e2sm/kpm_sm.hpp"
#include "iapp.hpp"
#include "ran/base_station.hpp"
#include "ran/functions.hpp"
#include "server/server.hpp"
#include "server/sharded_server.hpp"
#include "trace.hpp"
#include "transport/shard_pool.hpp"
#include "transport/transport.hpp"
#include "workload.hpp"

// ---------------------------------------------------------------------------
// Allocation counting: this binary's global operator new bumps a per-thread
// counter. Single writer per counter, so a relaxed load + store suffices;
// other threads only read it.
// ---------------------------------------------------------------------------

namespace {
thread_local std::atomic<std::uint64_t> t_allocs{0};
inline void count_alloc() noexcept {
  t_allocs.store(t_allocs.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
}
const std::atomic<std::uint64_t>* this_thread_allocs() noexcept {
  return &t_allocs;
}
void* counted_alloc(std::size_t n) {
  count_alloc();
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

namespace e2bench {
namespace {

using flexric::Buffer;
using flexric::BytesView;
using flexric::kMilli;
using flexric::kSecond;
using flexric::MsgTransport;
using flexric::Reactor;
using flexric::Status;
using flexric::StreamId;
using flexric::thread_cpu_now;

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "e2bench: %s\n", why.c_str());
  std::exit(2);
}

Nanos clock_ns(clockid_t cid) {
  timespec ts{};
  clock_gettime(cid, &ts);
  return static_cast<Nanos>(ts.tv_sec) * kSecond + ts.tv_nsec;
}

/// Thread-identity handle other threads use to read a live thread's CPU
/// clock and allocation counter.
struct ThreadProbe {
  clockid_t cpu{};
  const std::atomic<std::uint64_t>* allocs = nullptr;
  static ThreadProbe self() {
    ThreadProbe p;
    pthread_getcpuclockid(pthread_self(), &p.cpu);
    p.allocs = this_thread_allocs();
    return p;
  }
  [[nodiscard]] Nanos cpu_ns() const { return clock_ns(cpu); }
  [[nodiscard]] std::uint64_t alloc_count() const {
    return allocs->load(std::memory_order_relaxed);
  }
};

// ---------------------------------------------------------------------------
// Agent-side transport decorator (traced run: send spans, frame capture,
// control-handler spans). Untraced it only forwards.
// ---------------------------------------------------------------------------

/// Indication frames kept for the traced run's E2AP peek/decode timing.
constexpr std::size_t kCaptureCap = 4096;

/// Farm-thread trace state.
struct FarmTrace {
  bool tracing = false;   ///< traced segment running
  bool sampling = false;  ///< inside a sampled TTI's on_tti group
  SpanBuffer spans;
  std::vector<Buffer> captured;  ///< indication frames for e2ap timing
  std::uint64_t controls = 0;  ///< control requests seen while tracing
};

class TracedTransport final : public MsgTransport {
 public:
  TracedTransport(std::shared_ptr<MsgTransport> inner, FarmTrace& ft,
                  WireFormat fmt)
      : inner_(std::move(inner)), ft_(ft), codec_(e2ap::codec_for(fmt)) {}

  Status send(BytesView msg, StreamId stream) override {
    if (!ft_.sampling) return inner_->send(msg, stream);
    const std::uint32_t s = ft_.spans.open(kTransportSend, mono_now());
    Status st = inner_->send(msg, stream);
    ft_.spans.close(s, mono_now(), static_cast<std::uint32_t>(msg.size()));
    if (ft_.captured.size() < kCaptureCap)
      ft_.captured.emplace_back(msg.begin(), msg.end());
    return st;
  }
  void set_on_message(MsgHandler h) override {
    inner_->set_on_message([this, h = std::move(h)](StreamId s, BytesView v) {
      if (!ft_.tracing) return h(s, v);
      auto type = codec_.peek_type(v);
      if (!type || *type != e2ap::MsgType::control_request ||
          ft_.controls++ % kTraceEvery != 0)
        return h(s, v);
      const std::uint32_t span = ft_.spans.open(kAgentCtrlHandle, mono_now());
      h(s, v);
      ft_.spans.close(span, mono_now());
    });
  }
  void set_on_close(CloseHandler h) override {
    inner_->set_on_close(std::move(h));
  }
  void close() override { inner_->close(); }
  [[nodiscard]] bool is_open() const noexcept override {
    return inner_->is_open();
  }
  [[nodiscard]] std::string peer_name() const override {
    return inner_->peer_name();
  }

 private:
  std::shared_ptr<MsgTransport> inner_;
  FarmTrace& ft_;
  const e2ap::Codec& codec_;
};

// ---------------------------------------------------------------------------
// Server side: a plain E2Server on its own thread, or a ShardedE2Server.
// ---------------------------------------------------------------------------

/// Shed and admission counters read after the server threads stopped.
struct ServerTotals {
  std::uint64_t server_shed = 0;    ///< rate + flood + queue + orphan
  std::uint64_t overload_shed = 0;  ///< rate + flood + queue
  std::uint64_t msgs_rx = 0;
  std::uint64_t queued = 0;         ///< frames offered to admission queues
  std::uint64_t fanout_shed = 0;
  std::uint64_t supervisor_shed = 0;
};

void add_stats(ServerTotals& t, const flexric::server::E2Server& s) {
  const auto& st = s.stats();
  t.overload_shed += st.rate_shed + st.flood_shed + st.queue_shed;
  t.server_shed += st.rate_shed + st.flood_shed + st.queue_shed +
                   st.orphan_indications;
  t.msgs_rx += st.msgs_rx;
  const auto& q = s.ingest_queue();
  t.queued += q.queue(flexric::overload::MsgClass::control).stats().offered.value +
              q.queue(flexric::overload::MsgClass::data).stats().offered.value;
}

class ServerSide {
 public:
  virtual ~ServerSide() = default;
  virtual std::uint16_t port_for(const e2ap::GlobalNodeId& node) = 0;
  /// Home-thread ring drain (sharded only). Returns items processed.
  virtual int pump_home() { return 0; }
  virtual bool directory_has(std::size_t) { return true; }
  /// Stop and join the server threads; totals are valid afterwards.
  virtual void stop() = 0;
  [[nodiscard]] virtual ServerTotals totals() const = 0;

  std::vector<std::shared_ptr<BenchIApp>> iapps;  ///< one per server thread
  std::vector<ThreadProbe> probes;                ///< one per server thread
};

flexric::server::OverloadConfig overload_config(const Workload& w) {
  flexric::server::OverloadConfig oc;
  if (!w.overload) return oc;
  oc.enabled = true;
  // Control transactions expire after a second: a control stuck behind
  // admission counts as failed instead of stalling the loop.
  oc.ctrl_deadline = kSecond;
  // Four times each agent's nominal rate: sheds nothing at nominal load.
  const int per_agent =
      (w.per_ue() ? w.ues : 1) * 3 * 1000 / static_cast<int>(w.report_ms);
  oc.data_rate = 4.0 * per_agent;
  oc.data_burst = 4.0 * per_agent;
  return oc;
}

class PlainServer final : public ServerSide {
 public:
  PlainServer(const Workload& w, std::shared_ptr<BenchIApp> app) : w_(w) {
    iapps.push_back(std::move(app));
    std::promise<std::pair<std::uint16_t, ThreadProbe>> ready;
    auto fut = ready.get_future();
    thread_ = std::thread(
        [this, p = std::move(ready)]() mutable { run(p); });
    auto [port, probe] = fut.get();
    port_ = port;
    probes.push_back(probe);
  }
  ~PlainServer() override { stop(); }
  PlainServer(const PlainServer&) = delete;
  PlainServer& operator=(const PlainServer&) = delete;

  std::uint16_t port_for(const e2ap::GlobalNodeId&) override { return port_; }
  void stop() override {
    if (!thread_.joinable()) return;
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }
  [[nodiscard]] ServerTotals totals() const override { return totals_; }

 private:
  void run(std::promise<std::pair<std::uint16_t, ThreadProbe>>& ready) {
    Reactor reactor;
    flexric::server::E2Server::Config cfg;
    cfg.e2ap_format = w_.fmt;
    cfg.overload = overload_config(w_);
    flexric::server::E2Server srv(reactor, cfg);
    srv.add_iapp(iapps[0]);
    if (!srv.listen(0)) die("server listen failed");
    ready.set_value({srv.port(), ThreadProbe::self()});
    while (!stop_.load(std::memory_order_acquire)) reactor.run_once(5);
    add_stats(totals_, srv);
  }

  const Workload& w_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  ServerTotals totals_;
  std::thread thread_;
};

/// Fan-out deliveries, recorded on the home (farm) thread.
struct FanoutRec {
  Samples lat;
  std::uint64_t delivered = 0;
  std::uint64_t errors = 0;
};

class ShardedServer final : public ServerSide {
 public:
  ShardedServer(const Workload& w, Shared& sh,
                const std::function<std::shared_ptr<BenchIApp>(std::uint32_t)>& make,
                FanoutRec& fan)
      : pool_(w.shards, flexric::ShardPool::Mode::threaded),
        ric_(pool_, config(w)) {
    iapps.resize(w.shards);
    ric_.add_iapp_factory([this, make](std::uint32_t s) {
      iapps[s] = make(s);
      return iapps[s];
    });
    if (w.fanout()) {
      e2sm::EventTrigger trig{e2sm::TriggerKind::periodic, w.report_ms};
      e2ap::Action action;
      action.id = 1;
      action.type = e2ap::ActionType::report;
      const WireFormat fmt = w.fmt;
      ric_.subscribe_fanout(
          e2sm::kpm::Sm::kId, e2sm::sm_encode(trig, fmt), {action},
          [&fan, &sh, fmt](const flexric::server::ShardedE2Server::FanoutIndication& f) {
            const Nanos now = mono_now();
            fan.delivered++;
            auto hdr = e2sm::sm_decode<e2sm::kpm::IndicationHdr>(f.ind.header, fmt);
            if (!hdr) return void(fan.errors++);
            const auto due = static_cast<Nanos>(hdr->tstamp_ns);
            const std::size_t sec = sh.second_of(due);
            if (sec != SIZE_MAX) fan.lat.add(sec, clamp_ns(now - due));
          });
    }
    if (!ric_.listen_all(0)) die("sharded listen failed");
    pool_.start();
    // Learn each shard thread's CPU clock and allocation counter.
    for (std::uint32_t s = 0; s < w.shards; ++s) {
      auto p = std::make_shared<std::promise<ThreadProbe>>();
      auto fut = p->get_future();
      if (!pool_.post(s, [p] { p->set_value(ThreadProbe::self()); }))
        die("shard post failed");
      probes.push_back(fut.get());
    }
  }
  ~ShardedServer() override { stop(); }
  ShardedServer(const ShardedServer&) = delete;
  ShardedServer& operator=(const ShardedServer&) = delete;

  std::uint16_t port_for(const e2ap::GlobalNodeId& node) override {
    return ric_.port(ric_.shard_for(node));
  }
  int pump_home() override { return ric_.pump_home(); }
  bool directory_has(std::size_t n) override {
    return ric_.directory().num_agents() == n;
  }
  void stop() override {
    if (!pool_.running()) return;
    // Let every shard's ledger publish timer fire after quiescence.
    const Nanos until = mono_now() + 3 * ShardedConfigPublish;
    while (mono_now() < until) (void)ric_.pump_home();
    pool_.stop();
    for (std::uint32_t s = 0; s < ric_.num_shards(); ++s)
      add_stats(totals_, ric_.shard_server(s));
    totals_.fanout_shed = ric_.global_ledger().fanout_shed;
    totals_.supervisor_shed = ric_.supervisor_shed();
    totals_.server_shed += totals_.supervisor_shed;
  }
  [[nodiscard]] ServerTotals totals() const override { return totals_; }

 private:
  static constexpr Nanos ShardedConfigPublish = 10 * kMilli;
  static flexric::server::ShardedConfig config(const Workload& w) {
    flexric::server::ShardedConfig cfg;
    cfg.server.e2ap_format = w.fmt;
    cfg.server.overload = overload_config(w);
    cfg.publish_period = ShardedConfigPublish;
    return cfg;
  }

  flexric::ShardPool pool_;
  flexric::server::ShardedE2Server ric_;
  ServerTotals totals_;
};


// ---------------------------------------------------------------------------
// The world of one run: server side, agent farm, pacing, measurement.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string spans_path;
};

/// Warm-up before the measured seconds: connections, caches and the
/// telemetry store's series settle.
constexpr Nanos kWarmup = kSecond;
/// Set-up is timed this many times per run (fresh worlds); the run reports
/// the median.
constexpr int kSetups = 31;
/// Farm-thread cost accumulators.
struct FarmCost {
  Nanos agent_cpu = 0;            ///< on_tti groups + agent reactor turns
  std::uint64_t agent_allocs = 0;
  Nanos pump_cpu = 0;             ///< pump_home calls
  std::uint64_t pumps = 0;
};

/// Counters read at every second boundary.
struct Snapshot {
  std::vector<Nanos> srv_cpu;
  std::vector<std::uint64_t> srv_allocs;
  FarmCost farm;
  std::uint64_t emitted = 0;
  std::uint64_t steal = 0;    ///< host steal, all CPUs, in jiffies
  std::uint64_t jiffies = 0;  ///< all CPU time, all CPUs, in jiffies
};

struct Pair {
  std::unique_ptr<flexric::ran::BaseStation> bs;
  std::unique_ptr<flexric::agent::E2Agent> agent;
  std::unique_ptr<flexric::ran::BsFunctionBundle> bundle;
};

std::uint64_t proc_stat_steal(std::uint64_t* total) {
  std::ifstream f("/proc/stat");
  std::string cpu;
  std::uint64_t v[10] = {};
  f >> cpu;
  for (auto& x : v) f >> x;
  *total = 0;
  for (auto x : v) *total += x;
  return v[7];
}

/// Peak resident set of the process so far, in bytes.
double peak_rss_bytes() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0;
  return 0.0;
}

/// Samples a second may hold: `per_s` expected, plus headroom.
std::size_t sample_cap(std::size_t per_s, std::size_t headroom_pct) {
  return per_s * (100 + headroom_pct) / 100 + 64;
}

class World {
 public:
  World(const Workload& w, const std::vector<AgentSpec>& specs,
        const Options& o, std::size_t seconds)
      : w_(w), specs_(specs), o_(o) {
    sh_.seconds = seconds;
    // Sample buffers are sized per second from the nominal rates: each
    // measured due-second holds exactly one report per subscription and
    // report period. Controls are keyed by their send time, so a burst of
    // deliveries after a stall can put more of them into one second.
    const std::size_t inds = w.inds_per_thread_per_s();
    const std::size_t ctrls =
        sample_cap(inds / static_cast<std::size_t>(w.inds_per_ctrl), 50);
    if (w.fanout())
      fan_.lat = Samples(seconds, sample_cap(specs.size() * 1000 / w.report_ms, 10));
    if (o.trace) {
      ft_.spans = SpanBuffer(1u << 18);
      ft_.captured.reserve(kCaptureCap);
    }
    auto make = [this, &w, &specs, &o, inds, ctrls](std::uint32_t shard) {
      return std::make_shared<BenchIApp>(w, specs, sh_, shard,
                                         sample_cap(inds, 10), ctrls, o.trace);
    };
    if (w.shards > 0)
      srv_ = std::make_unique<ShardedServer>(w, sh_, make, fan_);
    else
      srv_ = std::make_unique<PlainServer>(w, make(0));

    tfd_ = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
    if (tfd_ < 0) die("timerfd_create failed");
    if (!reactor_.add_fd(tfd_, EPOLLIN, [this](std::uint32_t) {
          std::uint64_t expirations = 0;
          (void)!::read(tfd_, &expirations, sizeof expirations);
          timer_fired_ = true;
        }))
      die("timerfd registration failed");
  }

  ~World() {
    pairs_.clear();  // agents close their connections first
    srv_.reset();
    reactor_.del_fd(tfd_);
    ::close(tfd_);
  }
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Dial every agent and wait until set-up is complete. Returns seconds
  /// from the first dial until every agent is known to the server side and
  /// every subscription is granted.
  double setup() {
    for (const AgentSpec& a : specs_) {
      Pair p;
      flexric::ran::CellConfig cell{flexric::ran::Rat::lte, a.cell_id, 25,
                                    kMilli, 28, false};
      p.bs = std::make_unique<flexric::ran::BaseStation>(cell, a.bs_seed);
      for (const UeSpec& u : a.ues)
        if (!p.bs->attach_ue({u.rnti, 1, 0, u.cqi, u.mcs}))
          die("attach_ue failed");
      pairs_.push_back(std::move(p));
    }
    const Nanos t0 = mono_now();
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      const AgentSpec& a = specs_[i];
      Pair& p = pairs_[i];
      auto conn = flexric::TcpTransport::connect(reactor_, "127.0.0.1",
                                                 srv_->port_for(a.node));
      if (!conn) die("agent dial failed");
      auto tx = std::make_shared<TracedTransport>(
          std::shared_ptr<MsgTransport>(std::move(*conn)), ft_, w_.fmt);
      p.agent = std::make_unique<flexric::agent::E2Agent>(
          reactor_, flexric::agent::E2Agent::Config{a.node, w_.fmt, {}});
      p.bundle = std::make_unique<flexric::ran::BsFunctionBundle>(
          *p.bs, *p.agent, w_.fmt);
      if (!p.agent->add_controller(std::shared_ptr<MsgTransport>(tx)))
        die("add_controller failed");
    }
    const Nanos limit = t0 + 20 * kSecond;
    while (!setup_done()) {
      reactor_.run_once(0);
      (void)srv_->pump_home();
      if (mono_now() > limit) die("set-up did not complete");
    }
    return static_cast<double>(mono_now() - t0) / kSecond;
  }

  /// Warm-up, then the measured seconds (tracing on from second
  /// `traced_from` on), then drain and stop the server.
  void measure(std::size_t traced_from) {
    const std::size_t seconds = sh_.seconds;
    pacer_ = Pacer(mono_now() + 2 * kMilli, kMilli);
    const Nanos t0 = pacer_.next_due() + kWarmup;
    sh_.t0.store(t0, std::memory_order_relaxed);
    sh_.ctrl_on.store(true, std::memory_order_relaxed);
    snaps_.resize(seconds + 1);
    std::size_t b = 0;  // next second boundary
    for (std::uint64_t k = 0;; ++k) {
      const Nanos due = pacer_.next_due();
      if (due >= t0 + static_cast<Nanos>(b) * kSecond) {
        snaps_[b] = snapshot();
        if (b == 0) pacer_.reset_ledger();
        if (o_.trace && b == traced_from) {
          ft_.tracing = true;
          sh_.tracing.store(true, std::memory_order_relaxed);
        }
        if (++b > seconds) break;
      }
      wait_until(due);
      pacer_.begin(mono_now());
      tti(due, k);
    }
    ft_.tracing = false;
    sh_.tracing.store(false, std::memory_order_relaxed);
    sh_.ctrl_on.store(false, std::memory_order_relaxed);
    drain();
    // Read before the report makes any copies of the samples; the sample
    // buffers were written in full before set-up and are taken off.
    rss_mb_ = (peak_rss_bytes() - static_cast<double>(recording_bytes())) /
              (1024.0 * 1024.0);
  }

  // -- read-out after measure() --
  [[nodiscard]] const Workload& workload() const noexcept { return w_; }
  [[nodiscard]] const std::vector<Snapshot>& snaps() const noexcept {
    return snaps_;
  }
  [[nodiscard]] ServerSide& server() noexcept { return *srv_; }
  [[nodiscard]] const FanoutRec& fanout() const noexcept { return fan_; }
  [[nodiscard]] const FarmTrace& farm_trace() const noexcept { return ft_; }
  [[nodiscard]] const Pacer& pacer() const noexcept { return pacer_; }
  /// Share of all CPU time the host stole over seconds [lo, hi), in %.
  [[nodiscard]] double steal_pct(std::size_t lo, std::size_t hi) const {
    const Snapshot& a = snaps_[lo];
    const Snapshot& b = snaps_[hi];
    return b.jiffies > a.jiffies ? 100.0 * static_cast<double>(b.steal - a.steal) /
                                       static_cast<double>(b.jiffies - a.jiffies)
                                 : 0.0;
  }
  /// Peak RSS at the end of measure(), less the benchmark's sample buffers.
  [[nodiscard]] double rss_mb() const noexcept { return rss_mb_; }
  [[nodiscard]] std::vector<Pair>& pairs() noexcept { return pairs_; }

  /// Indications the agents produced: sent, shed or still buffered.
  [[nodiscard]] std::uint64_t emitted() const {
    std::uint64_t n = 0;
    for (const Pair& p : pairs_) {
      const auto& st = p.agent->stats();
      n += st.indications_tx + st.indications_shed;
      if (const auto* q = p.agent->pending_indications(0)) n += q->size();
    }
    return n;
  }
  [[nodiscard]] std::uint64_t agent_shed() const {
    std::uint64_t n = 0;
    for (const Pair& p : pairs_) n += p.agent->stats().indications_shed;
    return n;
  }
  /// Bytes of the fixed-size latency sample buffers.
  [[nodiscard]] std::size_t recording_bytes() const {
    std::size_t n = fan_.lat.bytes();
    for (const auto& app : srv_->iapps)
      n += app->rec().ind_lat.bytes() + app->rec().ctrl_rtt.bytes();
    return n;
  }
  [[nodiscard]] std::uint64_t delivered() const {
    std::uint64_t n = fan_.delivered;
    for (const auto& app : srv_->iapps)
      n += app->rec().delivered.load(std::memory_order_relaxed);
    return n;
  }

 private:
  bool setup_done() {
    if (sh_.subs_failed.load() > 0) die("a subscription failed");
    const int per_agent = w_.per_ue() ? w_.ues : 1;
    if (sh_.agents_up.load() != w_.agents) return false;
    if (sh_.subs_ok.load() != w_.agents * 3 * per_agent) return false;
    if (!srv_->directory_has(specs_.size())) return false;
    for (Pair& p : pairs_) {
      const auto n = static_cast<std::size_t>(per_agent);
      if (p.bundle->mac().num_subscriptions() != n ||
          p.bundle->rlc().num_subscriptions() != n ||
          p.bundle->pdcp().num_subscriptions() != n)
        return false;
      if (w_.fanout() && p.bundle->kpm().num_subscriptions() != 1) return false;
    }
    return true;
  }

  Snapshot snapshot() const {
    Snapshot sn;
    for (const ThreadProbe& t : srv_->probes) {
      sn.srv_cpu.push_back(t.cpu_ns());
      sn.srv_allocs.push_back(t.alloc_count());
    }
    sn.farm = cost_;
    sn.emitted = emitted();
    sn.steal = proc_stat_steal(&sn.jiffies);
    return sn;
  }

  /// One farm reactor turn; its CPU counts as agent work when it handled
  /// anything besides the pacing timer.
  void turn(int timeout_ms) {
    const Nanos c0 = thread_cpu_now();
    const std::uint64_t a0 = t_allocs.load(std::memory_order_relaxed);
    timer_fired_ = false;
    const int handled = reactor_.run_once(timeout_ms);
    if (handled - (timer_fired_ ? 1 : 0) > 0) {
      cost_.agent_cpu += thread_cpu_now() - c0;
      cost_.agent_allocs += t_allocs.load(std::memory_order_relaxed) - a0;
    }
  }

  /// Service the agents' sockets until `due`: the timerfd wakes the reactor
  /// at the due time, anything arriving earlier is handled as it arrives.
  void wait_until(Nanos due) {
    if (mono_now() >= due) return;
    itimerspec its{};
    its.it_value.tv_sec = due / kSecond;
    its.it_value.tv_nsec = due % kSecond;
    timerfd_settime(tfd_, TFD_TIMER_ABSTIME, &its, nullptr);
    while (mono_now() < due) turn(1);
  }

  void tti(Nanos due, std::uint64_t k) {
    const std::uint64_t every = kTraceEvery * w_.report_ms;
    const bool sampled = ft_.tracing && k % every == 0;
    for (std::size_t i = 0; i < pairs_.size(); ++i) {
      const std::uint32_t s =
          sampled ? ft_.spans.open(kRanTick, mono_now(),
                                   ind_span_id(static_cast<std::uint32_t>(i), 0,
                                               static_cast<std::uint32_t>(k)))
                  : SpanBuffer::kDropped;
      pairs_[i].bs->tick(due);
      if (sampled) ft_.spans.close(s, mono_now());
    }
    const Nanos c0 = thread_cpu_now();
    const std::uint64_t a0 = t_allocs.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < pairs_.size(); ++i) {
      // Base stations do not share a TTI phase: with reports every n ms,
      // agent i starts reporting at TTI i % n, which spreads the agents'
      // reports over the period instead of bursting them into one TTI.
      const std::uint64_t offset = i % w_.report_ms;
      if (k < offset) continue;
      // Sampled cell-TTIs emit the reports with sn % kTraceEvery == 0, the
      // ones the server side samples too.
      const bool sampled_i = ft_.tracing && (k - offset) % every == 0;
      ft_.sampling = sampled_i;
      const std::uint32_t s =
          sampled_i ? ft_.spans.open(kAgentTti, mono_now(),
                                     ind_span_id(static_cast<std::uint32_t>(i), 0,
                                                 static_cast<std::uint32_t>(k)))
                    : SpanBuffer::kDropped;
      pairs_[i].bundle->on_tti(due);
      if (sampled_i) ft_.spans.close(s, mono_now());
    }
    ft_.sampling = false;
    cost_.agent_cpu += thread_cpu_now() - c0;
    cost_.agent_allocs += t_allocs.load(std::memory_order_relaxed) - a0;
    turn(0);  // the corked sends of this TTI leave now
    if (w_.shards > 0) {
      const Nanos p0 = thread_cpu_now();
      const std::uint32_t s = sampled ? ft_.spans.open(kHomePump, mono_now())
                                      : SpanBuffer::kDropped;
      (void)srv_->pump_home();
      if (sampled) ft_.spans.close(s, mono_now());
      cost_.pump_cpu += thread_cpu_now() - p0;
      cost_.pumps++;
    }
  }

  /// Run the farm until every emitted indication is delivered and the last
  /// control completed (or 3 s pass), then stop the server threads.
  void drain() {
    const Nanos limit = mono_now() + 3 * kSecond;
    int quiet = 0;
    while (mono_now() < limit && quiet < 20) {
      turn(1);
      const Nanos p0 = thread_cpu_now();
      (void)srv_->pump_home();
      cost_.pump_cpu += thread_cpu_now() - p0;
      int outstanding = 0;
      for (const auto& app : srv_->iapps)
        outstanding += app->rec().ctrl_outstanding.load();
      const bool done = outstanding == 0 && delivered() + agent_shed() >= emitted();
      quiet = done ? quiet + 1 : 0;
    }
    srv_->stop();
  }

  const Workload& w_;
  const std::vector<AgentSpec>& specs_;
  const Options& o_;
  Pacer pacer_{0, kMilli};
  std::vector<Snapshot> snaps_;
  double rss_mb_ = 0.0;
  Shared sh_;
  FanoutRec fan_;
  FarmTrace ft_;
  FarmCost cost_;
  Reactor reactor_;
  std::unique_ptr<ServerSide> srv_;
  std::vector<Pair> pairs_;
  int tfd_ = -1;
  bool timer_fired_ = false;
};


// ---------------------------------------------------------------------------
// Read-out: metrics, output checks, JSON.
// ---------------------------------------------------------------------------

class JsonObj {
 public:
  void num(const std::string& k, double v) {
    if (!std::isfinite(v)) v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    raw(k, buf);
  }
  void boolean(const std::string& k, bool v) { raw(k, v ? "true" : "false"); }
  void str(const std::string& k, const std::string& v) {
    raw(k, "\"" + v + "\"");
  }
  void raw(const std::string& k, const std::string& v) {
    os_ << (first_ ? "" : ", ") << "\"" << k << "\": " << v;
    first_ = false;
  }
  [[nodiscard]] std::string str() const { return "{" + os_.str() + "}"; }

 private:
  std::ostringstream os_;
  bool first_ = true;
};

/// Mean time per frame of `op` over the captured frames, median of 7 passes.
template <typename Op>
double per_frame_ns(const std::vector<Buffer>& frames, Op op) {
  if (frames.empty()) return 0.0;
  std::vector<double> reps;
  for (int r = 0; r < 7; ++r) {
    const Nanos t0 = mono_now();
    for (const Buffer& f : frames) op(f);
    reps.push_back(static_cast<double>(mono_now() - t0) /
                   static_cast<double>(frames.size()));
  }
  return median(reps);
}

/// The last FlatBuffers report of every per-UE subscription carries exactly
/// the filtered UE.
std::uint64_t check_raw_reports(const BenchIApp& app, WireFormat fmt) {
  std::uint64_t bad = 0;
  for (const auto& st : app.subs()) {
    if (st.rnti == 0) continue;
    std::vector<std::uint16_t> rntis;
    if (st.fn == e2sm::mac::Sm::kId) {
      auto m = e2sm::sm_decode<e2sm::mac::IndicationMsg>(st.raw, fmt);
      if (m) for (const auto& u : m->ues) rntis.push_back(u.rnti);
    } else if (st.fn == e2sm::rlc::Sm::kId) {
      auto m = e2sm::sm_decode<e2sm::rlc::IndicationMsg>(st.raw, fmt);
      if (m) for (const auto& b : m->bearers) rntis.push_back(b.rnti);
    } else {
      auto m = e2sm::sm_decode<e2sm::pdcp::IndicationMsg>(st.raw, fmt);
      if (m) for (const auto& b : m->bearers) rntis.push_back(b.rnti);
    }
    if (rntis.empty()) bad++;
    for (std::uint16_t r : rntis)
      if (r != st.rnti) bad++;
  }
  return bad;
}

/// Every agent's base station ends on the slice configuration of the last
/// control acknowledged for it, and every agent was controlled.
bool check_slices(World& world, const std::vector<AgentSpec>& specs) {
  std::vector<int> last(specs.size(), -1);
  for (const auto& app : world.server().iapps)
    for (auto [spec, which] : app->last_acked())
      if (spec >= 0) last[static_cast<std::size_t>(spec)] = which;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (last[i] < 0) return false;
    const auto& want = specs[i].nvs[last[i]];
    const auto got = world.pairs()[i].bs->mac().status_report(false);
    if (got.algo != want.algo) return false;
    for (const auto& conf : want.slices) {
      bool found = false;
      for (const auto& sl : got.slices)
        if (sl.conf == conf) found = true;
      if (!found) return false;
    }
  }
  return true;
}

int report(World& world, const std::vector<AgentSpec>& specs,
           const Options& o, const std::vector<double>& setups,
           std::size_t traced_from) {
  const Workload& w = world.workload();
  const auto& snaps = world.snaps();
  const std::size_t seconds = snaps.size() - 1;
  ServerSide& srv = world.server();
  const std::size_t threads = srv.iapps.size();
  const std::size_t seg_a_end = o.trace ? traced_from : seconds;
  const Samples& fan = world.fanout().lat;

  auto delivered_in = [&](std::size_t sec) {
    std::size_t n = fan.count(sec);
    for (const auto& app : srv.iapps) n += app->rec().ind_lat.count(sec);
    return n;
  };
  std::vector<const Samples*> lat_recs, rtt_recs;
  for (const auto& app : srv.iapps) {
    lat_recs.push_back(&app->rec().ind_lat);
    rtt_recs.push_back(&app->rec().ctrl_rtt);
  }
  /// The recorders' samples of seconds [lo, hi), pooled.
  auto pooled = [](const std::vector<const Samples*>& recs, std::size_t lo,
                   std::size_t hi) {
    std::vector<std::uint32_t> v;
    for (const Samples* r : recs) r->append_to(v, lo, hi);
    return v;
  };

  // CPU per indication is read per second; the run reports the median over
  // the seconds of a segment.
  auto srv_cpu_per_ind = [&](std::size_t lo, std::size_t hi) {
    std::vector<double> v;
    for (std::size_t i = lo; i < hi; ++i) {
      Nanos cpu = snaps[i + 1].farm.pump_cpu - snaps[i].farm.pump_cpu;
      for (std::size_t t = 0; t < threads; ++t)
        cpu += snaps[i + 1].srv_cpu[t] - snaps[i].srv_cpu[t];
      if (delivered_in(i) > 0)
        v.push_back(static_cast<double>(cpu) / static_cast<double>(delivered_in(i)));
    }
    return median(v);
  };
  auto agent_cpu_per_ind = [&](std::size_t lo, std::size_t hi) {
    std::vector<double> v;
    for (std::size_t i = lo; i < hi; ++i) {
      const auto em = snaps[i + 1].emitted - snaps[i].emitted;
      if (em > 0)
        v.push_back(static_cast<double>(snaps[i + 1].farm.agent_cpu -
                                        snaps[i].farm.agent_cpu) /
                    static_cast<double>(em));
    }
    return median(v);
  };

  JsonObj e2e;
  JsonObj layer;
  JsonObj samples;
  {
    // Latency over every sample of the untraced segment, server threads
    // pooled. On a shared host it follows the host's speed more than the
    // program's, so it is a per-layer figure (no bound); CPU per indication
    // and peak RSS are the end-to-end ones.
    std::vector<std::uint32_t> lat = pooled(lat_recs, 0, seg_a_end);
    std::vector<std::uint32_t> rtt = pooled(rtt_recs, 0, seg_a_end);
    e2e.num("setup_s", median(setups));
    e2e.num("srv_cpu_ns_per_ind", srv_cpu_per_ind(0, seg_a_end));
    e2e.num("agent_cpu_ns_per_ind", agent_cpu_per_ind(0, seg_a_end));
    e2e.num("rss_mb", world.rss_mb());
    layer.num("ind_lat_p50_us", nearest_rank(lat, 50).value / 1e3);
    layer.num("ind_lat_p99_us", nearest_rank(lat, 99).value / 1e3);
    layer.num("ctrl_rtt_p50_us", nearest_rank(rtt, 50).value / 1e3);
    layer.num("ctrl_rtt_p99_us", nearest_rank(rtt, 99).value / 1e3);
    samples.num("ind_lat", static_cast<double>(lat.size()));
    samples.num("ctrl_rtt", static_cast<double>(rtt.size()));
    samples.num("setups", static_cast<double>(setups.size()));
    samples.num("recording_mb",
                static_cast<double>(world.recording_bytes()) / (1024.0 * 1024.0));
  }

  // -- ledger and output checks --
  std::uint64_t delivered = world.fanout().delivered, sn_err = 0,
                content_err = world.fanout().errors, ctrl_att = 0,
                ctrl_ok = 0, ctrl_bad = 0, ctrl_fail = 0, tel_samples = 0,
                tel_evictions = 0, overflow = fan.overflow();
  for (const auto& app : srv.iapps) {
    const Rec& r = app->rec();
    delivered += r.delivered.load();
    sn_err += r.sn_errors;
    content_err += r.content_errors + r.telemetry_decode_errors;
    if (!w.decode_ingest) content_err += check_raw_reports(*app, w.fmt);
    ctrl_att += r.ctrl_attempted;
    ctrl_ok += r.ctrl_acked;
    ctrl_bad += r.ctrl_bad;
    ctrl_fail += r.ctrl_failed;
    tel_samples += r.telemetry_samples;
    tel_evictions += r.telemetry_evictions;
    overflow += r.ind_lat.overflow() + r.ctrl_rtt.overflow();
  }
  const ServerTotals tot = srv.totals();
  const std::uint64_t emitted = world.emitted();
  const std::uint64_t agent_shed = world.agent_shed();
  const std::uint64_t lost = emitted > delivered ? emitted - delivered : 0;
  JsonObj checks;
  int failures = 0;
  auto check = [&](const char* name, bool ok) {
    checks.boolean(name, ok);
    if (!ok) failures++;
  };
  check("setup_complete", static_cast<int>(setups.size()) == kSetups);
  check("latency_samples_kept", overflow == 0);
  check("ledger_reconciles",
        emitted == delivered + agent_shed + tot.server_shed + tot.fanout_shed);
  check("sn_contiguous", sn_err == 0);
  check("reports_carry_rntis", content_err == 0);
  check("telemetry_no_evictions", tel_evictions == 0);
  check("controls_acked_success",
        ctrl_att > 0 && ctrl_ok == ctrl_att && ctrl_bad == 0 && ctrl_fail == 0);
  check("slice_config_final", check_slices(world, specs));

  // -- traced segment: per-layer metrics --
  if (o.trace) {
    const std::size_t lo = traced_from, hi = seconds;
    std::vector<LayerTotals> L(kNumSpanNames);
    accumulate_layers(world.farm_trace().spans.spans(), L);
    std::uint64_t dropped = world.farm_trace().spans.dropped();
    std::uint64_t turns = 0, turn_frames = 0;
    for (const auto& app : srv.iapps) {
      accumulate_layers(app->rec().spans.spans(), L);
      dropped += app->rec().spans.dropped();
      turns += app->rec().turns;
      turn_frames += app->rec().turn_frames;
    }
    auto mean = [&](SpanName n) { return L[n].mean_ns(); };
    const auto& A = snaps[lo];
    const auto& B = snaps[hi];
    const double emitted_b = static_cast<double>(B.emitted - A.emitted);
    std::vector<double> per_thread_deliv(threads, 0.0), per_thread_cpu(threads, 0.0);
    double srv_cpu_b = 0, srv_allocs_b = 0, deliv_iapp_b = 0;
    for (std::size_t t = 0; t < threads; ++t) {
      per_thread_cpu[t] = static_cast<double>(B.srv_cpu[t] - A.srv_cpu[t]);
      srv_cpu_b += per_thread_cpu[t];
      srv_allocs_b += static_cast<double>(B.srv_allocs[t] - A.srv_allocs[t]);
      for (std::size_t i = lo; i < hi; ++i)
        per_thread_deliv[t] +=
            static_cast<double>(srv.iapps[t]->rec().ind_lat.count(i));
      deliv_iapp_b += per_thread_deliv[t];
    }
    double fan_b = 0;
    for (std::size_t i = lo; i < hi; ++i) fan_b += static_cast<double>(fan.count(i));
    const double deliv_b = std::max(1.0, deliv_iapp_b + fan_b);
    const double pump_b = static_cast<double>(B.farm.pump_cpu - A.farm.pump_cpu);
    const double iapp_b = mean(kCtrlIapp) * deliv_iapp_b;
    const double srv_total_b = std::max(1.0, srv_cpu_b + pump_b);
    const auto& frames = world.farm_trace().captured;
    const e2ap::Codec& codec = e2ap::codec_for(w.fmt);
    std::uint64_t decode_fail = 0;
    volatile int sink = 0;
    const double peek_ns = per_frame_ns(frames, [&](const Buffer& f) {
      auto t = codec.peek_type(f);
      sink = sink + (t ? static_cast<int>(*t) : -1);
    });
    const double decode_ns = per_frame_ns(frames, [&](const Buffer& f) {
      if (!codec.decode(f)) decode_fail++;
    });
    check("e2ap_frames_decode", decode_fail == 0 && !frames.empty());

    layer.num("ran.tick_ns", mean(kRanTick));
    layer.num("agent.tti_ns", mean(kAgentTti));
    layer.num("agent.ctrl_handle_ns", mean(kAgentCtrlHandle));
    layer.num("agent.allocs_per_ind",
              static_cast<double>(B.farm.agent_allocs - A.farm.agent_allocs) /
                  std::max(1.0, emitted_b));
    layer.num("transport.send_ns", mean(kTransportSend));
    layer.num("transport.bytes_per_ind",
              L[kTransportSend].count
                  ? static_cast<double>(L[kTransportSend].arg_sum) /
                        static_cast<double>(L[kTransportSend].count)
                  : 0.0);
    layer.num("transport.frames_per_turn",
              turns ? static_cast<double>(turn_frames) / static_cast<double>(turns) : 0.0);
    layer.num("e2ap.peek_ns", peek_ns);
    layer.num("e2ap.decode_ns", decode_ns);
    layer.num("server.self_ns_per_ind", (srv_cpu_b - iapp_b) / deliv_b);
    layer.num("server.self_share", (srv_cpu_b - iapp_b) / srv_total_b);
    layer.num("server.send_control_ns", mean(kSendControl));
    layer.num("server.allocs_per_ind", srv_allocs_b / deliv_b);
    double max_d = 0, sum_d = 0;
    for (std::size_t t = 0; t < 2; ++t) {
      const double v = t < threads && per_thread_deliv[t] > 0
                           ? per_thread_cpu[t] / per_thread_deliv[t]
                           : 0.0;
      layer.num("shard.cpu_ns_per_ind." + std::to_string(t), v);
    }
    for (double d : per_thread_deliv) {
      max_d = std::max(max_d, d);
      sum_d += d;
    }
    layer.num("shard.imbalance",
              sum_d > 0 ? max_d / (sum_d / static_cast<double>(threads)) : 0.0);
    layer.num("home.pump_ns", mean(kHomePump));
    layer.num("home.pump_share", pump_b / srv_total_b);
    const double pumps_b = static_cast<double>(B.farm.pumps - A.farm.pumps);
    layer.num("ring.fanout_items_per_pump", pumps_b > 0 ? fan_b / pumps_b : 0.0);
    std::vector<std::uint32_t> fan_lat;
    fan.append_to(fan_lat, lo, hi);
    layer.num("ring.fanout_lat_p50_us", nearest_rank(fan_lat, 50).value / 1e3);
    layer.num("ring.fanout_shed", static_cast<double>(tot.fanout_shed));
    layer.num("overload.shed", static_cast<double>(tot.overload_shed));
    layer.num("overload.queued_frac",
              tot.msgs_rx ? static_cast<double>(tot.queued) /
                                static_cast<double>(tot.msgs_rx)
                          : 0.0);
    layer.num("ctrl.iapp_ns", mean(kCtrlIapp));
    layer.num("ctrl.iapp_share", iapp_b / srv_total_b);
    layer.num("e2sm.decode_ns", mean(kE2smDecode));
    layer.num("telemetry.ingest_ns", mean(kTelemetryIngest));
    layer.num("telemetry.samples_per_ind",
              static_cast<double>(tel_samples) /
                  std::max<double>(1.0, static_cast<double>(delivered)));
    const Quantile late = world.pacer().late_p99();
    layer.num("bench.gen_late_p99_us", late.value / 1e3);
    layer.num("bench.gen_late_max_us",
              static_cast<double>(world.pacer().late_max()) / 1e3);
    layer.num("host.steal_pct", world.steal_pct(0, seconds));
    const double untraced = srv_cpu_per_ind(0, lo);
    layer.num("trace.overhead_pct",
              untraced > 0 ? 100.0 * (srv_cpu_per_ind(lo, hi) - untraced) / untraced
                           : 0.0);
    layer.num("ind_loss_frac",
              emitted ? static_cast<double>(lost) / static_cast<double>(emitted) : 0.0);
    layer.num("ctrl_fail_frac",
              ctrl_att ? static_cast<double>(ctrl_fail + ctrl_bad) /
                             static_cast<double>(ctrl_att)
                       : 0.0);
    samples.num("spans_dropped", static_cast<double>(dropped));
    samples.num("captured_frames", static_cast<double>(frames.size()));

    JsonObj table;
    for (std::size_t n = 0; n < kNumSpanNames; ++n) {
      JsonObj row;
      row.num("count", static_cast<double>(L[n].count));
      row.num("mean_ns", L[n].mean_ns());
      row.num("self_ns", L[n].self_mean_ns());
      table.raw(kSpanNames[n], row.str());
    }
    samples.raw("layers", table.str());

    if (!o.spans_path.empty()) {
      std::ofstream out(o.spans_path);
      out << "thread\tname\tstart_ns\tend_ns\tparent\tid\targ\n";
      auto dump = [&out](const std::string& thread, const SpanBuffer& buf) {
        for (const Span& sp : buf.spans())
          out << thread << '\t' << kSpanNames[sp.name] << '\t' << sp.start
              << '\t' << sp.end << '\t'
              << (sp.parent == kNoParent ? -1 : static_cast<long long>(sp.parent))
              << '\t' << sp.id << '\t' << sp.arg << '\n';
      };
      dump("farm", world.farm_trace().spans);
      for (std::size_t t = 0; t < threads; ++t)
        dump("server" + std::to_string(t), srv.iapps[t]->rec().spans);
    }
  }

  JsonObj meta;
  const Quantile late = world.pacer().late_p99();
  meta.num("gen_late_p99_us", late.value / 1e3);
  meta.num("gen_late_max_us", static_cast<double>(world.pacer().late_max()) / 1e3);
  meta.num("gen_ttis", static_cast<double>(late.count));
  meta.num("host_steal_pct", world.steal_pct(0, snaps.size() - 1));
  meta.num("seed", static_cast<double>(o.seed));
  meta.num("server_threads", static_cast<double>(threads));
  meta.num("agents", static_cast<double>(w.agents));

  JsonObj out;
  out.str("workload", w.name);
  out.boolean("correct", failures == 0);
  out.num("failures", failures);
  out.num("attempted", static_cast<double>(emitted + ctrl_att));
  out.num("failed", static_cast<double>(lost + ctrl_fail + ctrl_bad));
  out.num("emitted", static_cast<double>(emitted));
  out.num("delivered", static_cast<double>(delivered));
  out.num("agent_shed", static_cast<double>(agent_shed));
  out.num("server_shed", static_cast<double>(tot.server_shed));
  out.num("fanout_shed", static_cast<double>(tot.fanout_shed));
  out.num("controls", static_cast<double>(ctrl_att));
  out.raw("checks", checks.str());
  out.raw("end_to_end", e2e.str());
  out.raw("per_layer", layer.str());
  out.raw("samples", samples.str());
  out.raw("meta", meta.str());
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  return failures;
}

void usage() {
  std::fprintf(stderr,
               "usage: e2bench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans <path>]\nworkloads:");
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage();
    const std::string v = argv[++i];
    char* end = nullptr;
    const long long n = std::strtoll(v.c_str(), &end, 10);
    const bool numeric = end != v.c_str() && *end == '\0' && n >= 0;
    if (a == "--workload") o.workload = v;
    else if (a == "--spans") o.spans_path = v;
    else if (!numeric) usage();
    else if (a == "--seed") o.seed = static_cast<std::uint64_t>(n);
    else if (a == "--seconds") o.seconds = static_cast<int>(n);
    else if (a == "--trace") o.trace = n != 0;
    else usage();
  }
  if (o.seconds < 1 || (o.trace && o.seconds < 2)) usage();
  return o;
}

}  // namespace
}  // namespace e2bench

int main(int argc, char** argv) {
  using namespace e2bench;
  const Options o = parse(argc, argv);
  const Workload* w = find_workload(o.workload);
  if (w == nullptr) usage();
  const std::vector<AgentSpec> specs = make_agents(*w, o.seed);
  const auto seconds = static_cast<std::size_t>(o.seconds);
  // Traced runs measure the first half untraced (the overhead baseline) and
  // the second half traced.
  const std::size_t traced_from = o.trace ? seconds / 2 : seconds;

  // Set-up is timed on fresh worlds several times; the last one stays up
  // for the measurement.
  std::vector<double> setups;
  std::unique_ptr<World> world;
  for (int i = 0; i < kSetups; ++i) {
    world.reset();
    world = std::make_unique<World>(*w, specs, o, seconds);
    setups.push_back(world->setup());
  }
  world->measure(traced_from);
  const int failures = report(*world, specs, o, setups, traced_from);
  world.reset();
  if (failures > 0) {
    std::fprintf(stderr, "e2bench: %d output check(s) failed\n", failures);
    return 1;
  }
  return 0;
}
