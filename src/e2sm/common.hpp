// Shared E2SM building blocks: event triggers and RAN-function identity.
//
// Every SM in this SDK uses the same trigger grammar (periodic timer or
// on-event), mirroring E2SM-KPM's periodic reports and E2SM-NI's event
// inserts (Appendix A.4 of the paper).
#pragma once

#include <cstdint>
#include <string>

#include "codec/serde.hpp"
#include "codec/wire.hpp"
#include "common/buffer.hpp"
#include "common/result.hpp"
#include "e2ap/messages.hpp"

namespace flexric::e2sm {

enum class TriggerKind : std::uint8_t { periodic = 0, on_event };

/// Event trigger carried in RICsubscriptionRequest (SM-encoded).
struct EventTrigger {
  TriggerKind kind = TriggerKind::periodic;
  std::uint32_t period_ms = 1000;  ///< for periodic triggers
  bool operator==(const EventTrigger&) const = default;
};

template <typename A>
void serde(A& a, EventTrigger& t) {
  a.enum8(t.kind);
  a.u32(t.period_ms);
}

/// Encode an SM message in the given wire format. SM payloads count their
/// FLAT list elements with a uvarint.
template <typename T>
Buffer sm_encode(const T& msg, WireFormat f) {
  switch (f) {
    case WireFormat::per: return archive_encode<PerEnc>(msg);
    case WireFormat::flat:
      return archive_encode<FlatEnc<ListCount::uvarint>>(msg);
    case WireFormat::proto: return archive_encode<ProtoEnc>(msg);
  }
  return {};
}

/// Decode an SM message. Returns malformed/truncated errors for bad wire
/// data; never UB.
template <typename T>
Result<T> sm_decode(BytesView wire, WireFormat f) {
  switch (f) {
    case WireFormat::per: return archive_decode<PerDec, T>(wire);
    case WireFormat::flat:
      return archive_decode<FlatDec<ListCount::uvarint>, T>(wire);
    case WireFormat::proto: return archive_decode<ProtoDec, T>(wire);
  }
  return Error{Errc::unsupported, "unknown wire format"};
}

/// Build the E2AP RanFunctionItem advertising an SM. The definition blob
/// carries the SM's supported wire formats so a controller can pick one.
template <typename Sm>
e2ap::RanFunctionItem make_ran_function() {
  e2ap::RanFunctionItem item;
  item.id = Sm::kId;
  item.revision = Sm::kRevision;
  item.name = Sm::kName;
  return item;
}

}  // namespace flexric::e2sm
