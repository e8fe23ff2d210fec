// The E2AP codecs, derived from the serde() declarations in messages.hpp.
//
// A frame is the message-type tag, declared once as enumerated(tag,
// kNumMsgTypes), followed by the procedure's IEs in declaration order. PER
// fully parses into the IR (the CPU cost §5.2/§5.3 measure for "ASN"); FLAT
// validates the table header and reads fields in place, the near-zero
// decode cost that lets FB beat ASN.1 by ~4x controller CPU (§5.3).
#include "e2ap/codec.hpp"

#include <array>
#include <utility>

#include "codec/serde.hpp"

namespace flexric::e2ap {
namespace {

template <typename Dec>
Result<MsgType> read_tag(Dec& a) {
  auto t = MsgType::setup_request;
  a.enumerated(t, kNumMsgTypes);
  if (!a.ok()) return a.status().error();
  return t;
}

template <typename Dec, std::size_t I>
Result<Msg> decode_alternative(Dec& a) {
  using T = std::variant_alternative_t<I, Msg>;
  static_assert(static_cast<std::size_t>(T::kType) == I,
                "Msg alternative I must carry kType == I");
  T m{};
  a.field(m);
  if (!a.ok()) return a.status().error();
  return Msg{std::in_place_index<I>, std::move(m)};
}

/// Decoder per message type, indexed by the wire tag.
template <typename Dec, std::size_t... I>
constexpr auto decode_table(std::index_sequence<I...>) {
  static_assert(sizeof...(I) == std::variant_size_v<Msg>);
  return std::array<Result<Msg> (*)(Dec&), sizeof...(I)>{
      &decode_alternative<Dec, I>...};
}

// @hotpath decode runs once per received frame (paper §5.3)
template <WireFormat F, typename Enc, typename Dec>
class SerdeCodec final : public Codec {
 public:
  [[nodiscard]] WireFormat format() const noexcept override { return F; }

  [[nodiscard]] Result<Buffer> encode(const Msg& m) const override {
    Enc a;
    const MsgType t = msg_type(m);
    a.enumerated(t, kNumMsgTypes);
    std::visit([&a](const auto& msg) { a.field(msg); }, m);
    return a.take();
  }

  [[nodiscard]] Result<Msg> decode(BytesView wire) const override {
    static constexpr auto kDecode =
        decode_table<Dec>(std::make_index_sequence<kNumMsgTypes>{});
    Dec a(wire);
    auto t = read_tag(a);
    if (!t) return t.error();
    return kDecode[static_cast<std::size_t>(*t)](a);
  }

  [[nodiscard]] Result<MsgType> peek_type(BytesView wire) const override {
    Dec a(wire);
    return read_tag(a);
  }
};

using PerCodec = SerdeCodec<WireFormat::per, PerEnc, PerDec>;
using FlatCodec = SerdeCodec<WireFormat::flat, FlatEnc<ListCount::u32>,
                             FlatDec<ListCount::u32>>;

}  // namespace

const Codec& per_codec() {
  static const PerCodec c;
  return c;
}

const Codec& flat_codec() {
  static const FlatCodec c;
  return c;
}

const Codec& codec_for(WireFormat f) {
  // lint: allow(wire-assert) argument is a local config enum, not wire data
  FLEXRIC_ASSERT(f == WireFormat::per || f == WireFormat::flat,
                 "E2AP codec: per or flat only");
  return f == WireFormat::per ? per_codec() : flat_codec();
}

}  // namespace flexric::e2ap
