// Generic serialization framework: one declaration per message, every wire
// format derived from it.
//
// Each message declares its fields once via a `serde(archive, self)` function
// template; the archives below derive the wire formats from that single
// declaration:
//
//   PER   — ASN.1-PER-style (O-RAN's mandated encoding)
//   FLAT  — FlatBuffers-style zero-copy
//   PROTO — Protobuf-style varint TLV (used by the FlexRAN baseline)
//   RAW   — plain little-endian layout, nested inside FLAT var regions
//
// Both message families use it: E2AP procedures (e2ap/messages.hpp) in PER
// and FLAT, E2SM payloads (e2sm/*.hpp) in PER, FLAT and PROTO. This is the
// C++20 rendition of the paper's "we use generics to achieve compile time
// polymorphism" (§4.4): adding a wire format means adding two archives, not
// touching any message.
//
// Decode archives collect the first error in a Status instead of returning
// per-field Results, keeping serde() declarations linear. After an error all
// further operations are no-ops and the final Status reports the failure.
//
// Every decoder's vec() checks a list count read off the wire against the
// payload left: count <= remaining / (smallest wire size of one element),
// where the smallest size comes from running the element's serde() over a
// MinSize archive. A forged count fails before it can size an allocation or
// bound a loop, so the wire-taint class (DESIGN.md §12) is closed here once
// for every message of both families.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "codec/flat.hpp"
#include "codec/per.hpp"
#include "codec/proto.hpp"
#include "common/buffer.hpp"
#include "common/result.hpp"

namespace flexric {

/// How FLAT and RAW lists write their element count. Fixed per message
/// family at compile time: E2SM payloads use a uvarint, E2AP a LE u32.
enum class ListCount : std::uint8_t { uvarint, u32 };

/// Default element action of vec() and optional(): the element's own field.
struct AsField {
  template <typename A, typename T>
  void operator()(A& a, T& v) const {
    a.field(v);
  }
};

template <typename A, typename F, typename S>
void serde(A& a, std::pair<F, S>& p) {
  a.field(p.first);
  a.field(p.second);
}

// ---------------------------------------------------------------------------
// What every archive shares: field dispatch by type, native-width ranged()
// and enumerated() (PER overrides both with constrained whole numbers), and
// the ASN.1 presence bitmap + optional value pair. `D` is the concrete
// archive; encoders see const objects and never write through them.
// ---------------------------------------------------------------------------

template <typename D>
class Archive {
 public:
  static constexpr bool kIsDecoder = false;
  /// Fixed-layout formats (FLAT) keep a slot for absent optional values.
  static constexpr bool kFixedLayout = false;

  template <typename T>
  void field(T& v) {
    using U = std::remove_const_t<T>;
    U& x = const_cast<U&>(v);
    D& d = self();
    if constexpr (std::is_same_v<U, std::uint8_t>) d.u8(x);
    else if constexpr (std::is_same_v<U, std::uint16_t>) d.u16(x);
    else if constexpr (std::is_same_v<U, std::uint32_t>) d.u32(x);
    else if constexpr (std::is_same_v<U, std::uint64_t>) d.u64(x);
    else if constexpr (std::is_same_v<U, std::int64_t>) d.i64(x);
    else if constexpr (std::is_same_v<U, double>) d.f64(x);
    else if constexpr (std::is_same_v<U, bool>) d.boolean(x);
    else if constexpr (std::is_same_v<U, std::string>) d.str(x);
    else if constexpr (std::is_same_v<U, Buffer>) d.bytes(x);
    else if constexpr (std::is_enum_v<U>) d.enum8(x);
    else if constexpr (std::is_class_v<U>) serde(d, x);
    else static_assert(!sizeof(U*), "unsupported field type");
  }

  /// An unchecked enum: its underlying byte as a u8.
  template <typename E>
  void enum8(E& v) {
    auto x = static_cast<std::uint8_t>(v);
    self().u8(x);
    if constexpr (D::kIsDecoder) v = static_cast<E>(x);
  }

  /// Unsigned integer in [0, hi] at its native width; decoders reject
  /// values above hi.
  template <typename T>
  void ranged(T& v, std::uint64_t hi) {
    if constexpr (D::kIsDecoder) {
      T x{};
      field(x);
      if (x > hi)
        self().fail(Errc::out_of_range, "ranged value out of range");
      else
        v = x;
    } else {
      field(v);
    }
  }

  /// ENUMERATED with n values, one byte wide; decoders reject values >= n.
  template <typename E>
  void enumerated(E& v, std::uint32_t n) {
    auto x = static_cast<std::uint8_t>(v);
    self().u8(x);
    if constexpr (D::kIsDecoder) {
      if (x >= n)
        self().fail(Errc::out_of_range, "enumerated value out of range");
      else
        v = static_cast<E>(x);
    }
  }

  /// ASN.1 presence bitmap: one flag per optional IE, ahead of the values.
  /// Decoders engage or reset each optional, which tells optional() below
  /// whether its value follows.
  template <typename... O>
  void presence(O&... opts) {
    (flag(opts), ...);
  }

  /// Value of an optional IE whose flag presence() carried. Absent values
  /// take no space, except in fixed-layout formats, which fill the slot
  /// with a default.
  template <typename O, typename Each = AsField>
  void optional(O& o, Each each = {}) {
    using T = typename std::remove_const_t<O>::value_type;
    if (o) {
      each(self(), *o);
    } else if constexpr (D::kFixedLayout) {
      T blank{};
      each(self(), blank);
    }
  }

 private:
  D& self() { return static_cast<D&>(*this); }

  template <typename O>
  void flag(O& o) {
    if constexpr (D::kIsDecoder) {
      bool present = false;
      self().boolean(present);
      if (present)
        o = typename O::value_type{};
      else
        o.reset();
    } else {
      self().boolean(o.has_value());
    }
  }
};

// ---------------------------------------------------------------------------
// Smallest wire size of a value, for the list-count guard. Each family's
// Cost gives the minimum of every primitive in the unit its decoder counts
// (bits for PER, bytes otherwise); MinSize adds them up over serde().
// ---------------------------------------------------------------------------

/// PER, in bits. Alignment padding counts as zero, so the bound holds
/// wherever in the frame the element starts.
struct PerCost {
  static std::size_t ranged(std::uint64_t hi, std::size_t /*width*/) {
    return PerWriter::constrained_min_bits(0, hi);
  }
  static constexpr std::size_t kWide = 16;  // length octet + one value octet
  static constexpr std::size_t kReal = 64;
  static constexpr std::size_t kBool = 1;
  static constexpr std::size_t kLength = 8;
  static constexpr std::size_t kCount = 8;
  static constexpr std::size_t kElement = 0;
};

/// RAW, in bytes: native widths, uvarint string lengths.
template <ListCount C>
struct RawCost {
  static std::size_t ranged(std::uint64_t /*hi*/, std::size_t width) {
    return width;
  }
  static constexpr std::size_t kWide = 8;
  static constexpr std::size_t kReal = 8;
  static constexpr std::size_t kBool = 1;
  static constexpr std::size_t kLength = 1;
  static constexpr std::size_t kCount = C == ListCount::u32 ? 4 : 1;
  static constexpr std::size_t kElement = 0;
};

/// PROTO, in bytes: every field is a tag plus at least one byte, a double
/// is 8 bytes behind tag and length, and each list element is a field.
struct ProtoCost {
  static std::size_t ranged(std::uint64_t /*hi*/, std::size_t /*width*/) {
    return 2;
  }
  static constexpr std::size_t kWide = 2;
  static constexpr std::size_t kReal = 10;
  static constexpr std::size_t kBool = 2;
  static constexpr std::size_t kLength = 2;
  static constexpr std::size_t kCount = 3;  // its own field: tag, len, count
  static constexpr std::size_t kElement = 2;
};

/// Adds up the smallest encoding of each field: lists and strings count as
/// empty, optional values as absent. Never reads or writes the value.
template <typename Cost>
class MinSize : public Archive<MinSize<Cost>> {
 public:
  void u8(const std::uint8_t&) { n_ += Cost::ranged(0xFF, 1); }
  void u16(const std::uint16_t&) { n_ += Cost::ranged(0xFFFF, 2); }
  void u32(const std::uint32_t&) { n_ += Cost::ranged(0xFFFFFFFF, 4); }
  void u64(const std::uint64_t&) { n_ += Cost::kWide; }
  void i64(const std::int64_t&) { n_ += Cost::kWide; }
  void f64(const double&) { n_ += Cost::kReal; }
  void boolean(const bool&) { n_ += Cost::kBool; }
  void str(const std::string&) { n_ += Cost::kLength; }
  void bytes(const Buffer&) { n_ += Cost::kLength; }
  template <typename T, typename Each = AsField>
  void vec(const std::vector<T>&, Each = {}) {
    n_ += Cost::kCount;
  }
  template <typename T>
  void ranged(const T&, std::uint64_t hi) {
    n_ += Cost::ranged(hi, sizeof(T));
  }
  template <typename E>
  void enumerated(const E&, std::uint32_t n) {
    n_ += Cost::ranged(n - 1, 1);
  }
  [[nodiscard]] std::size_t size() const noexcept { return n_; }

 private:
  std::size_t n_ = 0;
};

/// Smallest wire size of one list element T written by `each`, in Cost's
/// unit; at least 1, so the guard never divides by zero. Computed once per
/// element type.
template <typename Cost, typename T, typename Each>
std::size_t min_size(Each each) {
  static const std::size_t n = [&each] {
    MinSize<Cost> m;
    T probe{};
    each(m, probe);
    return std::max<std::size_t>(1, Cost::kElement + m.size());
  }();
  return n;
}

/// Error bookkeeping and list filling shared by every decoder.
// @hotpath decode runs once per frame for E2AP and again for E2SM
template <typename D>
class Decoder : public Archive<D> {
 public:
  static constexpr bool kIsDecoder = true;
  [[nodiscard]] bool ok() const noexcept { return status_.is_ok(); }
  [[nodiscard]] Status status() const { return status_; }
  void fail(Errc c, const char* msg) {
    if (ok()) status_ = Status{c, msg};
  }

 protected:
  template <typename R>
  bool check(const R& res) {
    if (!ok()) return false;
    if (!res) {
      status_ = res.status();
      return false;
    }
    return true;
  }
  template <typename R, typename T>
  void get(R&& res, T& out) {
    if (check(res)) out = static_cast<T>(std::move(*res));
  }
  void merge(const Status& s) {
    if (ok() && !s.is_ok()) status_ = s;
  }
  void count_overflow() {
    fail(Errc::malformed, "list count exceeds payload");
  }
  /// Decode n elements in place; n has passed the count guard.
  template <typename T, typename Each>
  void fill(std::vector<T>& v, std::size_t n, Each each) {
    v.clear();
    v.resize(n);
    for (T& e : v) {
      if (!ok()) return;
      each(static_cast<D&>(*this), e);
    }
  }

 private:
  Status status_;
};

// ---------------------------------------------------------------------------
// RAW archives: plain little-endian sequential layout, streamed into and
// read from FLAT var regions.
// ---------------------------------------------------------------------------

template <ListCount C>
class RawEnc : public Archive<RawEnc<C>> {
 public:
  explicit RawEnc(BufWriter& w) : w_(w) {}

  void u8(const std::uint8_t& v) { w_.u8(v); }
  void u16(const std::uint16_t& v) { w_.u16(v); }
  void u32(const std::uint32_t& v) { w_.u32(v); }
  void u64(const std::uint64_t& v) { w_.u64(v); }
  void i64(const std::int64_t& v) { w_.i64(v); }
  void f64(const double& v) { w_.f64(v); }
  void boolean(const bool& v) { w_.u8(v ? 1 : 0); }
  void str(const std::string& v) { w_.lp_string(v); }
  void bytes(const Buffer& v) { w_.lp_bytes(v); }
  template <typename T, typename Each = AsField>
  void vec(const std::vector<T>& v, Each each = {}) {
    if constexpr (C == ListCount::u32)
      w_.u32(static_cast<std::uint32_t>(v.size()));
    else
      w_.uvarint(v.size());
    for (const T& e : v) each(*this, e);
  }

 private:
  BufWriter& w_;
};

// Reads in place; runs once per list-carrying frame for E2AP and E2SM.
// @hotpath @view_of(the encoded message passed to the constructor)
template <ListCount C>
class RawDec : public Decoder<RawDec<C>> {
 public:
  explicit RawDec(BytesView b) : r_(b) {}

  void u8(std::uint8_t& v) { this->get(r_.u8(), v); }
  void u16(std::uint16_t& v) { this->get(r_.u16(), v); }
  void u32(std::uint32_t& v) { this->get(r_.u32(), v); }
  void u64(std::uint64_t& v) { this->get(r_.u64(), v); }
  void i64(std::int64_t& v) { this->get(r_.i64(), v); }
  void f64(double& v) { this->get(r_.f64(), v); }
  void boolean(bool& v) {
    std::uint8_t b = 0;
    u8(b);
    v = b != 0;
  }
  void str(std::string& v) { this->get(r_.lp_string(), v); }
  void bytes(Buffer& v) {
    auto b = r_.lp_bytes();
    if (this->check(b)) v.assign(b->begin(), b->end());
  }
  template <typename T, typename Each = AsField>
  void vec(std::vector<T>& v, Each each = {}) {
    auto n = count();
    if (!this->check(n)) return;
    if (*n > r_.remaining() / min_size<RawCost<C>, T>(each))
      return this->count_overflow();
    this->fill(v, static_cast<std::size_t>(*n), each);
  }

 private:
  Result<std::uint64_t> count() {
    if constexpr (C == ListCount::u32) {
      auto n = r_.u32();
      if (!n) return n.error();
      return std::uint64_t{*n};
    } else {
      return r_.uvarint();
    }
  }
  BufReader r_;
};

// ---------------------------------------------------------------------------
// PER archives: bit-packed, every field parsed (ASN.1 cost profile).
// ---------------------------------------------------------------------------

class PerEnc : public Archive<PerEnc> {
 public:
  void u8(const std::uint8_t& v) { ranged(v, 0xFF); }
  void u16(const std::uint16_t& v) { ranged(v, 0xFFFF); }
  void u32(const std::uint32_t& v) { ranged(v, 0xFFFFFFFF); }
  void u64(const std::uint64_t& v) { w_.semi_constrained(v, 0); }
  void i64(const std::int64_t& v) { w_.integer(v); }
  void f64(const double& v) { w_.real(v); }
  void boolean(const bool& v) { w_.boolean(v); }
  void str(const std::string& v) { w_.str(v); }
  void bytes(const Buffer& v) { w_.octets(v); }
  template <typename T>
  void ranged(const T& v, std::uint64_t hi) {
    w_.constrained(v, 0, hi);
  }
  template <typename E>
  void enumerated(const E& v, std::uint32_t n) {
    w_.enumerated(static_cast<std::uint32_t>(v), n);
  }
  template <typename T, typename Each = AsField>
  void vec(const std::vector<T>& v, Each each = {}) {
    w_.length(v.size());
    for (const T& e : v) each(*this, e);
  }
  Buffer take() { return w_.take(); }

 private:
  PerWriter w_;
};

// Full bit-level parse; runs once per frame for E2AP and again for E2SM.
// @hotpath @view_of(the encoded message passed to the constructor)
class PerDec : public Decoder<PerDec> {
 public:
  explicit PerDec(BytesView b) : r_(b) {}

  void u8(std::uint8_t& v) { ranged(v, 0xFF); }
  void u16(std::uint16_t& v) { ranged(v, 0xFFFF); }
  void u32(std::uint32_t& v) { ranged(v, 0xFFFFFFFF); }
  void u64(std::uint64_t& v) { get(r_.semi_constrained(0), v); }
  void i64(std::int64_t& v) { get(r_.integer(), v); }
  void f64(double& v) { get(r_.real(), v); }
  void boolean(bool& v) { get(r_.boolean(), v); }
  void str(std::string& v) { get(r_.str(), v); }
  void bytes(Buffer& v) { get(r_.octets(), v); }
  template <typename T>
  void ranged(T& v, std::uint64_t hi) {
    get(r_.constrained(0, hi), v);
  }
  template <typename E>
  void enumerated(E& v, std::uint32_t n) {
    get(r_.enumerated(n), v);
  }
  template <typename T, typename Each = AsField>
  void vec(std::vector<T>& v, Each each = {}) {
    auto n = r_.length();
    if (!check(n)) return;
    if (*n > r_.bits_remaining() / min_size<PerCost, T>(each))
      return count_overflow();
    fill(v, *n, each);
  }

 private:
  PerReader r_;
};

// ---------------------------------------------------------------------------
// FLAT archives: scalars to the fixed region, strings, octets and lists to
// the var region (list elements in RAW). Decode reads in place from the wire.
// ---------------------------------------------------------------------------

template <ListCount C>
class FlatEnc : public Archive<FlatEnc<C>> {
 public:
  static constexpr bool kFixedLayout = true;

  void u8(const std::uint8_t& v) { w_.u8(v); }
  void u16(const std::uint16_t& v) { w_.u16(v); }
  void u32(const std::uint32_t& v) { w_.u32(v); }
  void u64(const std::uint64_t& v) { w_.u64(v); }
  void i64(const std::int64_t& v) { w_.i64(v); }
  void f64(const double& v) { w_.f64(v); }
  void boolean(const bool& v) { w_.boolean(v); }
  void str(const std::string& v) { w_.var_string(v); }
  void bytes(const Buffer& v) { w_.var_bytes(v); }
  template <typename T, typename Each = AsField>
  void vec(const std::vector<T>& v, Each each = {}) {
    // Elements stream straight into the var region (no staging buffer).
    RawEnc<C> raw(w_.var_begin());
    raw.vec(v, each);
    w_.var_end();
  }
  Buffer take() { return w_.finish(); }

 private:
  FlatWriter w_;
};

// Validates the table header, then reads fields in place; runs once per
// frame for E2AP and again for E2SM.
// @hotpath @view_of(the encoded message passed to the constructor)
template <ListCount C>
class FlatDec : public Decoder<FlatDec<C>> {
 public:
  static constexpr bool kFixedLayout = true;

  /// A wire image that is not a flat table leaves the decoder failed.
  explicit FlatDec(BytesView wire) {
    auto v = FlatView::parse(wire);
    if (v)
      v_ = *v;
    else
      this->merge(v.status());
  }

  void u8(std::uint8_t& v) { this->get(v_.u8(), v); }
  void u16(std::uint16_t& v) { this->get(v_.u16(), v); }
  void u32(std::uint32_t& v) { this->get(v_.u32(), v); }
  void u64(std::uint64_t& v) { this->get(v_.u64(), v); }
  void i64(std::int64_t& v) { this->get(v_.i64(), v); }
  void f64(double& v) { this->get(v_.f64(), v); }
  void boolean(bool& v) { this->get(v_.boolean(), v); }
  void str(std::string& v) {
    auto s = v_.var_string();
    if (this->check(s)) v.assign(s->data(), s->size());
  }
  void bytes(Buffer& v) {
    auto b = v_.var_bytes();
    if (this->check(b)) v.assign(b->begin(), b->end());
  }
  template <typename T, typename Each = AsField>
  void vec(std::vector<T>& v, Each each = {}) {
    auto raw = v_.var_bytes();
    if (!this->check(raw)) return;
    RawDec<C> dec(*raw);
    dec.vec(v, each);
    this->merge(dec.status());
  }

 private:
  FlatView v_;
};

// ---------------------------------------------------------------------------
// PROTO archives: varint TLV with sequential field numbers (FlexRAN's wire).
// ---------------------------------------------------------------------------

class ProtoEnc : public Archive<ProtoEnc> {
 public:
  void u8(const std::uint8_t& v) { w_.field_u64(next(), v); }
  void u16(const std::uint16_t& v) { w_.field_u64(next(), v); }
  void u32(const std::uint32_t& v) { w_.field_u64(next(), v); }
  void u64(const std::uint64_t& v) { w_.field_u64(next(), v); }
  void i64(const std::int64_t& v) { w_.field_i64(next(), v); }
  void f64(const double& v) { w_.field_f64(next(), v); }
  void boolean(const bool& v) { w_.field_bool(next(), v); }
  void str(const std::string& v) { w_.field_string(next(), v); }
  void bytes(const Buffer& v) { w_.field_bytes(next(), v); }
  template <typename T, typename Each = AsField>
  void vec(const std::vector<T>& v, Each each = {}) {
    // repeated nested message: every element its own length-delimited field
    std::uint32_t num = next();
    BufWriter count;
    count.uvarint(v.size());
    w_.field_bytes(num, count.view());  // explicit count (canonical order)
    for (const T& e : v) {
      ProtoEnc child;
      each(child, e);
      Buffer b = child.take();
      w_.field_bytes(num, b);
    }
  }
  Buffer take() { return w_.take(); }

 private:
  std::uint32_t next() noexcept { return ++num_; }
  ProtoWriter w_;
  std::uint32_t num_ = 0;
};

// Field-by-field TLV parse; runs once per FlexRAN baseline frame.
// @hotpath @view_of(the encoded message passed to the constructor)
class ProtoDec : public Decoder<ProtoDec> {
 public:
  explicit ProtoDec(BytesView b) : r_(b) {}

  void u8(std::uint8_t& v) { varint_into(v); }
  void u16(std::uint16_t& v) { varint_into(v); }
  void u32(std::uint32_t& v) { varint_into(v); }
  void u64(std::uint64_t& v) { varint_into(v); }
  void i64(std::int64_t& v) {
    auto f = expect(ProtoWireType::varint);
    if (f) v = ProtoReader::as_i64(*f);
  }
  void f64(double& v) {
    auto f = expect(ProtoWireType::len);
    if (f) get(ProtoReader::as_f64(*f), v);
  }
  void boolean(bool& v) {
    std::uint64_t b = 0;
    u64(b);
    v = b != 0;
  }
  void str(std::string& v) {
    auto f = expect(ProtoWireType::len);
    if (f) v = ProtoReader::as_string(*f);
  }
  void bytes(Buffer& v) {
    auto f = expect(ProtoWireType::len);
    if (f) v.assign(f->bytes.begin(), f->bytes.end());
  }
  template <typename T, typename Each = AsField>
  void vec(std::vector<T>& v, Each each = {}) {
    auto countf = expect(ProtoWireType::len);
    if (!countf) return;
    BufReader cr(countf->bytes);
    auto n = cr.uvarint();
    if (!check(n)) return;
    if (*n > r_.remaining() / min_size<ProtoCost, T>(each))
      return count_overflow();
    v.clear();
    v.resize(static_cast<std::size_t>(*n));
    for (T& e : v) {
      auto f = next_field();
      if (!f) return;
      if (f->number != countf->number || f->type != ProtoWireType::len) {
        fail(Errc::malformed, "repeated field interrupted");
        return;
      }
      ProtoDec child(f->bytes);
      each(child, e);
      merge(child.status());
    }
  }

 private:
  std::optional<ProtoReader::Field> next_field() {
    if (!ok()) return std::nullopt;
    auto f = r_.next();
    if (!check(f)) return std::nullopt;
    return *f;
  }
  std::optional<ProtoReader::Field> expect(ProtoWireType wt) {
    auto f = next_field();
    if (!f) return std::nullopt;
    if (f->type != wt) {
      fail(Errc::malformed, "unexpected wire type");
      return std::nullopt;
    }
    return f;
  }
  template <typename T>
  void varint_into(T& v) {
    auto f = expect(ProtoWireType::varint);
    if (f) v = static_cast<T>(f->varint);
  }
  ProtoReader r_;
};

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Encode a serde-enabled message with encoder archive Enc.
template <typename Enc, typename T>
Buffer archive_encode(const T& msg) {
  Enc a;
  a.field(msg);
  return a.take();
}

/// Decode a serde-enabled message with decoder archive Dec. Bad wire data
/// gives a malformed/truncated/out_of_range error; never UB.
template <typename Dec, typename T>
Result<T> archive_decode(BytesView wire) {
  Dec a(wire);
  T msg{};
  a.field(msg);
  if (!a.ok()) return a.status().error();
  return msg;
}

}  // namespace flexric
