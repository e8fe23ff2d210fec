#include "common/shard_stats.hpp"

namespace flexric {

// Indications only: data_queue_shed, not the all-class queue_shed, so a
// shed control frame never passes for a lost indication.
std::uint64_t ShardLedger::server_shed() const noexcept {
  return rate_shed + flood_shed + data_queue_shed + fanout_shed +
         orphan_indications;
}

// The admission ledger of one server: queue_shed counts both classes here.
bool ShardLedger::reconciles() const noexcept {
  return msgs_rx == dispatched + rate_shed + flood_shed + queue_shed + queued;
}

}  // namespace flexric
