// E2AP IR <-> wire codec tests: round-trips for all 21 procedures in both
// encodings, wire-size ordering, and robustness against corrupt input.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <string_view>

#include "common/rng.hpp"
#include "e2ap/codec.hpp"

namespace flexric::e2ap {
namespace {

/// Representative instance of every E2AP procedure, with optionals and lists
/// populated.
std::vector<Msg> sample_messages() {
  std::vector<Msg> out;

  SetupRequest setup;
  setup.trans_id = 3;
  setup.node = {0x20899, 77, NodeType::gnb};
  setup.ran_functions.push_back(
      {142, 1, "FLEXRIC-E2SM-MAC-STATS", Buffer{1, 2, 3}});
  setup.ran_functions.push_back({145, 2, "FLEXRIC-E2SM-SLICE-CTRL", {}});
  out.emplace_back(setup);

  SetupResponse sresp;
  sresp.trans_id = 3;
  sresp.ric_id = 0xABCDE;
  sresp.accepted = {142, 145};
  sresp.rejected = {{99, {Cause::Group::ric, 4}}};
  out.emplace_back(sresp);

  out.emplace_back(SetupFailure{5, {Cause::Group::transport, 1}});
  out.emplace_back(ResetRequest{9, {Cause::Group::misc, 2}});
  out.emplace_back(ResetResponse{9});

  ErrorIndication err;
  err.request = RicRequestId{100, 7};
  err.ran_function_id = 142;
  err.cause = {Cause::Group::protocol, 3};
  out.emplace_back(err);
  out.emplace_back(ErrorIndication{std::nullopt, std::nullopt,
                                   {Cause::Group::misc, 0}});

  ServiceUpdate update;
  update.trans_id = 11;
  update.added.push_back({150, 1, "ORAN-E2SM-HELLOWORLD", Buffer{9}});
  update.modified.push_back({142, 2, "FLEXRIC-E2SM-MAC-STATS", {}});
  update.removed = {144};
  out.emplace_back(update);

  ServiceUpdateAck ack;
  ack.trans_id = 11;
  ack.accepted = {150, 142};
  ack.rejected = {{1, {Cause::Group::ric, 9}}};
  out.emplace_back(ack);
  out.emplace_back(ServiceUpdateFailure{11, {Cause::Group::ric, 1}});

  NodeConfigUpdate ncu;
  ncu.trans_id = 1;
  ncu.components = {{"cu-cp", Buffer{1}}, {"du", Buffer{2, 3}}};
  out.emplace_back(ncu);

  NodeConfigUpdateAck ncua;
  ncua.trans_id = 1;
  ncua.accepted_components = {"cu-cp", "du"};
  out.emplace_back(ncua);

  SubscriptionRequest sub;
  sub.request = {21, 1};
  sub.ran_function_id = 142;
  sub.event_trigger = Buffer{0, 1, 0, 0};
  sub.actions.push_back({1, ActionType::report, Buffer{0}});
  sub.actions.push_back({2, ActionType::policy, Buffer{1, 1}});
  out.emplace_back(sub);

  SubscriptionResponse subr;
  subr.request = {21, 1};
  subr.ran_function_id = 142;
  subr.admitted = {1};
  subr.not_admitted = {{2, {Cause::Group::ric, 1}}};
  out.emplace_back(subr);

  out.emplace_back(
      SubscriptionFailure{{21, 1}, 142, {Cause::Group::ric, 0}});
  out.emplace_back(SubscriptionDeleteRequest{{21, 1}, 142});
  out.emplace_back(SubscriptionDeleteResponse{{21, 1}, 142});
  out.emplace_back(
      SubscriptionDeleteFailure{{21, 1}, 142, {Cause::Group::ric, 2}});

  Indication ind;
  ind.request = {21, 1};
  ind.ran_function_id = 142;
  ind.action_id = 1;
  ind.sn = 123456;
  ind.type = ActionType::report;
  ind.header = Buffer{7, 7};
  ind.message = Buffer(64, 0x42);
  ind.call_process_id = Buffer{1, 2};
  out.emplace_back(ind);

  Indication ind2 = ind;
  ind2.call_process_id.reset();
  ind2.type = ActionType::insert;
  out.emplace_back(ind2);

  ControlRequest ctrl;
  ctrl.request = {21, 2};
  ctrl.ran_function_id = 145;
  ctrl.header = Buffer{1};
  ctrl.message = Buffer(32, 0x55);
  ctrl.ack_requested = true;
  ctrl.call_process_id = Buffer{3};
  out.emplace_back(ctrl);

  ControlAck cack;
  cack.request = {21, 2};
  cack.ran_function_id = 145;
  cack.outcome = Buffer{0, 1};
  out.emplace_back(cack);

  ControlFailure cfail;
  cfail.request = {21, 2};
  cfail.ran_function_id = 145;
  cfail.cause = {Cause::Group::ric, 3};
  cfail.outcome = Buffer{9};
  out.emplace_back(cfail);

  return out;
}

class E2apRoundTrip : public ::testing::TestWithParam<WireFormat> {};

TEST_P(E2apRoundTrip, AllProceduresRoundTrip) {
  const Codec& codec = codec_for(GetParam());
  for (const Msg& msg : sample_messages()) {
    auto wire = codec.encode(msg);
    ASSERT_TRUE(wire.is_ok()) << msg_type_name(msg_type(msg));
    auto decoded = codec.decode(*wire);
    ASSERT_TRUE(decoded.is_ok())
        << msg_type_name(msg_type(msg)) << ": "
        << decoded.error().to_string();
    EXPECT_EQ(*decoded, msg) << msg_type_name(msg_type(msg));
  }
}

TEST_P(E2apRoundTrip, EveryMsgTypeIsCovered) {
  // The sample set must exercise all 21 procedures.
  std::set<MsgType> seen;
  for (const Msg& msg : sample_messages()) seen.insert(msg_type(msg));
  EXPECT_EQ(seen.size(), kNumMsgTypes);
}

TEST_P(E2apRoundTrip, TruncationAtEveryByteFailsCleanly) {
  const Codec& codec = codec_for(GetParam());
  for (const Msg& msg : sample_messages()) {
    auto wire = codec.encode(msg);
    ASSERT_TRUE(wire.is_ok());
    for (std::size_t cut = 0; cut < wire->size(); ++cut) {
      Buffer truncated(wire->begin(),
                       wire->begin() + static_cast<long>(cut));
      auto decoded = codec.decode(truncated);
      // Must not crash; for most cut points this must fail. (A few cut
      // points may still decode if trailing bytes were padding.)
      if (decoded.is_ok()) continue;
      EXPECT_NE(decoded.error().code, Errc::ok);
    }
  }
}

TEST_P(E2apRoundTrip, RandomByteFlipsNeverCrash) {
  const Codec& codec = codec_for(GetParam());
  Rng rng(2024);
  for (const Msg& msg : sample_messages()) {
    auto wire = codec.encode(msg);
    ASSERT_TRUE(wire.is_ok());
    for (int trial = 0; trial < 50; ++trial) {
      Buffer corrupted = *wire;
      std::size_t pos = rng.bounded(corrupted.size());
      corrupted[pos] ^= static_cast<std::uint8_t>(1 + rng.bounded(255));
      (void)codec.decode(corrupted);  // must not crash or hang
    }
  }
  SUCCEED();
}

TEST_P(E2apRoundTrip, GarbageInputRejected) {
  const Codec& codec = codec_for(GetParam());
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    Buffer garbage(rng.bounded(64), 0);
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next());
    (void)codec.decode(garbage);  // must not crash
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Formats, E2apRoundTrip,
                         ::testing::Values(WireFormat::per, WireFormat::flat),
                         [](const auto& tp) {
                           return std::string(wire_format_name(tp.param));
                         });

TEST(E2apSizes, PerIsMoreCompactThanFlat) {
  // ASN.1 PER's selling point (§5.2): better compression. Verify it holds
  // for every sampled procedure.
  for (const Msg& msg : sample_messages()) {
    auto per_wire = per_codec().encode(msg);
    auto flat_wire = flat_codec().encode(msg);
    ASSERT_TRUE(per_wire.is_ok() && flat_wire.is_ok());
    EXPECT_LE(per_wire->size(), flat_wire->size())
        << msg_type_name(msg_type(msg));
  }
}

TEST(E2apSizes, FlatOverheadMatchesPaperRange) {
  // §5.2: "for each FB message, we observe 30-40 B overhead". Compare the
  // two encodings of an indication with a fixed payload.
  Indication ind;
  ind.request = {1, 1};
  ind.ran_function_id = 150;
  ind.message = Buffer(100, 0xAB);
  auto per_wire = per_codec().encode(Msg{ind});
  auto flat_wire = flat_codec().encode(Msg{ind});
  std::size_t overhead = flat_wire->size() - per_wire->size();
  EXPECT_GE(overhead, 20u);
  EXPECT_LE(overhead, 60u);
}

// ---------------------------------------------------------------------------
// Golden wire corpus: the exact bytes of every procedure in both encodings,
// recorded from the hand-written PER and FLAT codecs that predate the serde
// declarations in messages.hpp. Encoding must reproduce them byte for byte,
// and decoding them must give back the IR. One deliberate difference: the
// FLAT ErrorIndication frames carry both presence flags ahead of the values
// (the one presence rule PER and FLAT share); the hand-written codec
// interleaved flag and value in a fixed region of the same size.
// ---------------------------------------------------------------------------

/// One message per procedure (21), then the remaining presence states of the
/// three procedures with optional IEs. Lists cover empty and >= 2 elements;
/// ranged fields sit at their wire maxima where the IR allows it.
std::vector<Msg> golden_messages() {
  std::vector<Msg> out;
  SetupRequest setup;
  setup.trans_id = 3;
  setup.node = {0x00F110, 0xFFFFFFF, NodeType::du};
  setup.ran_functions = {{142, 1, "FLEXRIC-E2SM-MAC-STATS", Buffer{1, 2, 3}},
                         {4095, 4095, "S", {}}};
  out.emplace_back(setup);
  out.emplace_back(SetupResponse{3, 0xFFFFF, {142, 145, 4095}, {}});
  out.emplace_back(SetupFailure{5, {Cause::Group::transport, 1}});
  out.emplace_back(ResetRequest{9, {Cause::Group::misc, 255}});
  out.emplace_back(ResetResponse{255});
  out.emplace_back(ErrorIndication{RicRequestId{100, 7}, std::nullopt,
                                   {Cause::Group::protocol, 3}});
  ServiceUpdate update;
  update.trans_id = 11;
  update.added = {{150, 1, "ORAN-E2SM-HELLOWORLD", Buffer{9}},
                  {151, 2, "", Buffer{8, 7}}};
  update.removed = {144, 4095};
  out.emplace_back(update);
  out.emplace_back(ServiceUpdateAck{
      11,
      {},
      {{1, {Cause::Group::ric, 9}}, {4095, {Cause::Group::misc, 255}}}});
  out.emplace_back(ServiceUpdateFailure{11, {Cause::Group::ric, 1}});
  out.emplace_back(
      NodeConfigUpdate{1, {{"cu-cp", Buffer{1}}, {"du", Buffer{2, 3}}}});
  out.emplace_back(NodeConfigUpdateAck{1, {"cu-cp", "du"}});
  SubscriptionRequest sub;
  sub.request = {21, 4};
  sub.ran_function_id = 142;
  sub.event_trigger = Buffer{5, 0, 0, 10};
  sub.actions = {{1, ActionType::report, Buffer{0xAA}},
                 {2, ActionType::policy, {}}};
  out.emplace_back(sub);
  out.emplace_back(SubscriptionResponse{
      {21, 4}, 142, {1, 2}, {{3, {Cause::Group::ric, 7}}, {255, {}}}});
  out.emplace_back(
      SubscriptionFailure{{21, 4}, 142, {Cause::Group::ric, 5}});
  out.emplace_back(SubscriptionDeleteRequest{{65535, 65535}, 4095});
  out.emplace_back(SubscriptionDeleteResponse{{21, 4}, 0});
  out.emplace_back(
      SubscriptionDeleteFailure{{21, 4}, 142, {Cause::Group::protocol, 2}});
  Indication ind;
  ind.request = {21, 4};
  ind.ran_function_id = 142;
  ind.action_id = 1;
  ind.sn = 0xDEADBEEF;
  ind.type = ActionType::insert;
  ind.header = Buffer{1, 2, 3, 4};
  ind.message = Buffer{5, 6, 7};
  ind.call_process_id = Buffer{9, 9};
  out.emplace_back(ind);
  ControlRequest ctrl;
  ctrl.request = {30, 1};
  ctrl.ran_function_id = 145;
  ctrl.header = Buffer{0x10};
  ctrl.message = Buffer{0x20, 0x21};
  ctrl.ack_requested = false;
  out.emplace_back(ctrl);
  out.emplace_back(ControlAck{{30, 1}, 145, Buffer{0x30}});
  out.emplace_back(ControlFailure{{30, 1}, 145, {Cause::Group::ric, 8}, {}});
  // Remaining presence states of the optional IEs.
  out.emplace_back(
      ErrorIndication{std::nullopt, 4095, {Cause::Group::misc, 0}});
  out.emplace_back(
      ErrorIndication{RicRequestId{1, 2}, 3, {Cause::Group::ric, 4}});
  ind.call_process_id.reset();
  ind.sn = 0;
  out.emplace_back(ind);
  ctrl.ack_requested = true;
  ctrl.call_process_id = Buffer{0xC0, 0xDE};
  out.emplace_back(ctrl);
  return out;
}

struct GoldenFrames {
  const char* per;
  const char* flat;
};

// clang-format off
const GoldenFrames kGoldenFrames[] = {
    {"001af110c00fffffffc002008e000116464c45585249432d4532534d2d4d41432d5354415453030102030fff0fff015300",
     "13000000000310f10000ffffff0f03130000002a000000020000008e00010016464c45585249432d4532534d2d4d41432d535441545303010203ff0fff0f015300"},  // E2SetupRequest
    {"081c0fffff03008e00910fff00",
     "160000000103ffff0f00160000000a0000002000000004000000030000008e009100ff0f00000000"},  // E2SetupResponse
    {"102a02",
     "0400000002050101"},  // E2SetupFailure
    {"184ffe",
     "04000000030903ff"},  // ResetRequest
    {"27f8",
     "0200000004ff"},  // ResetResponse
    {"2c0064000780c0",
     "0b0000000501006400070000000203"},  // ErrorIndication
    {"30580200960001144f52414e2d4532534d2d48454c4c4f574f524c4401090097000200020807000200900fff",
     "1a000000060b1a00000027000000410000000400000045000000080000000200000096000100144f52414e2d4532534d2d48454c4c4f574f524c440109970002000002080700000000020000009000ff0f"},  // RICserviceUpdate
    {"38580002000102400fffffc0",
     "12000000070b1200000004000000160000000c000000000000000200000001000009ff0f03ff"},  // RICserviceUpdateAcknowledge
    {"405802",
     "04000000080b0001"},  // RICserviceUpdateFailure
    {"4808020563752d63700101026475020203",
     "0a00000009010a00000012000000020000000563752d63700101026475020203"},  // E2nodeConfigurationUpdate
    {"5008020563752d6370026475",
     "0a0000000a010a0000000d000000020000000563752d6370026475"},  // E2nodeConfigurationUpdateAcknowledge
    {"5800150004008e040500000a02010001aa028000",
     "170000000b150004008e0017000000040000001b0000000b0000000500000a02000000010001aa020200"},  // RICsubscriptionRequest
    {"6000150004008e020102020301fff000",
     "170000000c150004008e0017000000060000001d0000000a00000002000000010202000000030007ff0300"},  // RICsubscriptionResponse
    {"6800150004008e0140",
     "090000000d150004008e000005"},  // RICsubscriptionFailure
    {"70ffffffff0fff",
     "070000000effffffffff0f"},  // RICsubscriptionDeleteRequest
    {"78001500040000",
     "070000000f150004000000"},  // RICsubscriptionDeleteResponse
    {"8000150004008e8080",
     "0900000010150004008e000202"},  // RICsubscriptionDeleteFailure
    {"8800150004008e01c0deadbeef60040102030403050607020909",
     "2600000011150004008e0001efbeadde010126000000040000002a000000030000002d00000002000000010203040506070909"},  // RICindication
    {"90001e00010091000110022021",
     "21000000121e00010091000000210000000100000022000000020000002400000000000000102021"},  // RICcontrolRequest
    {"98001e000100910130",
     "0f000000131e00010091000f0000000100000030"},  // RICcontrolAcknowledge
    {"a0001e00010091020000",
     "11000000141e000100910000081100000000000000"},  // RICcontrolFailure
    {"2a0fffc000",
     "0b00000005000100000000ff0f0300"},  // ErrorIndication
    {"2e0001000200030100",
     "0b0000000501010100020003000004"},  // ErrorIndication
    {"8800150004008e01000040040102030403050607",
     "2600000011150004008e000100000000010026000000040000002a000000030000002d0000000000000001020304050607"},  // RICindication
    {"90001e00010091c0011002202102c0de",
     "21000000121e00010091000101210000000100000022000000020000002400000002000000102021c0de"},  // RICcontrolRequest
};
// clang-format on

Buffer unhex(std::string_view hex) {
  Buffer out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
    out.push_back(static_cast<std::uint8_t>(
        std::stoul(std::string(hex.substr(i, 2)), nullptr, 16)));
  return out;
}

TEST(E2apGolden, CorpusCoversEveryProcedure) {
  std::set<MsgType> seen;
  for (const Msg& msg : golden_messages()) seen.insert(msg_type(msg));
  EXPECT_EQ(seen.size(), kNumMsgTypes);
  EXPECT_EQ(golden_messages().size(), std::size(kGoldenFrames));
}

TEST(E2apGolden, EncodeIsByteIdentical) {
  auto msgs = golden_messages();
  ASSERT_EQ(msgs.size(), std::size(kGoldenFrames));
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    const char* name = msg_type_name(msg_type(msgs[i]));
    auto per = per_codec().encode(msgs[i]);
    auto flat = flat_codec().encode(msgs[i]);
    ASSERT_TRUE(per.is_ok() && flat.is_ok()) << name;
    EXPECT_EQ(*per, unhex(kGoldenFrames[i].per)) << "PER " << i << " " << name;
    EXPECT_EQ(*flat, unhex(kGoldenFrames[i].flat))
        << "FLAT " << i << " " << name;
  }
}

TEST(E2apGolden, DecodeGivesBackTheIr) {
  auto msgs = golden_messages();
  ASSERT_EQ(msgs.size(), std::size(kGoldenFrames));
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    const char* name = msg_type_name(msg_type(msgs[i]));
    auto per = per_codec().decode(unhex(kGoldenFrames[i].per));
    auto flat = flat_codec().decode(unhex(kGoldenFrames[i].flat));
    ASSERT_TRUE(per.is_ok()) << "PER " << i << " " << name;
    ASSERT_TRUE(flat.is_ok()) << "FLAT " << i << " " << name;
    EXPECT_EQ(*per, msgs[i]) << "PER " << i << " " << name;
    EXPECT_EQ(*flat, msgs[i]) << "FLAT " << i << " " << name;
    auto per_type = per_codec().peek_type(unhex(kGoldenFrames[i].per));
    auto flat_type = flat_codec().peek_type(unhex(kGoldenFrames[i].flat));
    ASSERT_TRUE(per_type.is_ok() && flat_type.is_ok()) << name;
    EXPECT_EQ(*per_type, msg_type(msgs[i]));
    EXPECT_EQ(*flat_type, msg_type(msgs[i]));
  }
}

// FLAT has no constrained integers, so the archives range-check what PER
// bounds at the bit level: an IE outside its declared range is an error in
// both encodings, never an IR message carrying it.
TEST(E2apRanges, FlatRejectsValuesPerCannotCarry) {
  struct Case {
    const char* what;
    Msg msg;
    std::size_t offset;  // into the FLAT frame: 4-byte size prefix, tag, ...
    std::vector<std::uint8_t> patch;
  };
  SetupRequest setup;
  setup.node = {1, 2, NodeType::gnb};
  const Case cases[] = {
      // prefix(4) tag(1) request(4) -> ran_function_id at 9
      {"ran_function_id 4096", SubscriptionDeleteRequest{{1, 1}, 1}, 9,
       {0x00, 0x10}},
      // prefix(4) tag(1) trans_id(1) plmn(4) -> nb_id at 10, type at 14
      {"nb_id 2^28", setup, 10, {0x00, 0x00, 0x00, 0x10}},
      {"node type 4", setup, 14, {4}},
      // prefix(4) tag(1) trans_id(1) -> cause group at 6
      {"cause group 4", SetupFailure{1, {Cause::Group::ric, 0}}, 6, {4}},
  };
  for (const Case& c : cases) {
    auto wire = flat_codec().encode(c.msg);
    ASSERT_TRUE(wire.is_ok()) << c.what;
    ASSERT_TRUE(flat_codec().decode(*wire).is_ok()) << c.what;
    Buffer bad = *wire;
    std::copy(c.patch.begin(), c.patch.end(),
              bad.begin() + static_cast<long>(c.offset));
    auto dec = flat_codec().decode(bad);
    EXPECT_FALSE(dec.is_ok()) << c.what;
    if (!dec.is_ok()) {
      EXPECT_EQ(dec.error().code, Errc::out_of_range) << c.what;
    }
  }
}

TEST(E2apCodec, FormatAccessor) {
  EXPECT_EQ(per_codec().format(), WireFormat::per);
  EXPECT_EQ(flat_codec().format(), WireFormat::flat);
  EXPECT_EQ(&codec_for(WireFormat::per), &per_codec());
  EXPECT_EQ(&codec_for(WireFormat::flat), &flat_codec());
}

TEST(E2apCodec, MsgTypeNamesAreOranTerms) {
  EXPECT_STREQ(msg_type_name(MsgType::indication), "RICindication");
  EXPECT_STREQ(msg_type_name(MsgType::subscription_request),
               "RICsubscriptionRequest");
  EXPECT_STREQ(msg_type_name(MsgType::setup_request), "E2SetupRequest");
}

}  // namespace
}  // namespace flexric::e2ap
