#include "ctrl/metrics_rest.hpp"

#include <string>
#include <vector>

#include "server/supervisor.hpp"

namespace flexric::ctrl {

namespace {

/// One exposition sample: `name{labels} value`.
template <typename T>
void sample(std::string& out, const std::string& name,
            const std::string& labels, T value) {
  out += name;
  if (!labels.empty()) out += "{" + labels + "}";
  out += " " + std::to_string(value) + "\n";
}

std::string render(const server::ShardedE2Server& ric) {
  const server::ShardSupervisor& sup = ric.supervisor();
  const std::uint32_t n = ric.num_shards();
  std::vector<std::string> shard(n);
  std::vector<ShardLedger> live(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    shard[i] = "shard=\"" + std::to_string(i) + "\"";
    live[i] = ric.board().read(i);
  }
  // Family-major: the format wants each family's samples grouped.
  std::string out;
  for (const auto& f : ShardLedger::kFields)
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::string name = std::string("flexric_shard_") + f.name;
      sample(out, name, shard[i] + ",ledger=\"live\"", live[i].*f.member);
      sample(out, name, shard[i] + ",ledger=\"retired\"",
             ric.retired_ledger(i).*f.member);
    }
  for (std::uint32_t i = 0; i < n; ++i)
    sample(out, "flexric_shard_health",
           shard[i] + ",state=\"" + server::shard_health_name(sup.health(i)) +
               "\"",
           1);
  for (std::uint32_t i = 0; i < n; ++i)
    sample(out, "flexric_shard_beat_age_ns", shard[i], sup.last_age(i));
  for (std::uint32_t i = 0; i < n; ++i)
    sample(out, "flexric_shard_accepting", shard[i], ric.accepting(i) ? 1 : 0);
  for (std::uint32_t i = 0; i < n; ++i)
    sample(out, "flexric_shard_restarts", shard[i], sup.restarts_of(i));
  for (const auto& f : server::ShardSupervisor::Stats::kFields)
    sample(out, std::string("flexric_supervisor_") + f.name, "",
           sup.stats().*f.member);
  sample(out, "flexric_supervisor_shed", "", ric.supervisor_shed());
  sample(out, "flexric_queries_failed", "", ric.queries_failed());
  return out;
}

}  // namespace

void serve_metrics(HttpServer& http, const server::ShardedE2Server& ric) {
  http.route("GET", "/metrics", [&ric](const HttpRequest&, HttpResponse& resp) {
    resp.content_type = "text/plain; version=0.0.4";
    resp.body = render(ric);
  });
}

}  // namespace flexric::ctrl
