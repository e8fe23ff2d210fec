// Northbound metrics export of a sharded RIC (DESIGN.md §15): one
// `GET /metrics` route in the Prometheus text exposition format. The body
// is generated from ShardLedger::kFields (per shard, live and retired
// incarnations) and ShardSupervisor::Stats::kFields, plus hand-written
// per-shard health, beat age, accepting and restarts gauges, supervisor_shed
// and queries_failed.
#pragma once

#include "ctrl/rest.hpp"
#include "server/sharded_server.hpp"

namespace flexric::ctrl {

/// Registers `GET /metrics` on `http`. `ric` must outlive the server, whose
/// reactor must be the home thread that owns the supervisor.
void serve_metrics(HttpServer& http, const server::ShardedE2Server& ric);

}  // namespace flexric::ctrl
