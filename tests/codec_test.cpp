// Tests for the canonical byte codec.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "codec/bytes.hpp"

namespace {

using dls::codec::Bytes;
using dls::codec::DecodeError;
using dls::codec::Reader;
using dls::codec::to_hex;
using dls::codec::Writer;

TEST(Codec, FixedWidthRoundtrip) {
  Writer w;
  w.u8(0xab);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.done());
}

TEST(Codec, LittleEndianLayout) {
  Writer w;
  w.u32(0x01020304);
  const Bytes& b = w.data();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 0x04);
  EXPECT_EQ(b[3], 0x01);
}

TEST(Codec, VarintRoundtripBoundaries) {
  const std::uint64_t cases[] = {
      0, 1, 127, 128, 255, 300, 16383, 16384,
      std::numeric_limits<std::uint32_t>::max(),
      std::numeric_limits<std::uint64_t>::max()};
  for (const auto v : cases) {
    Writer w;
    w.varint(v);
    Reader r(w.data());
    EXPECT_EQ(r.varint(), v) << v;
    EXPECT_TRUE(r.done());
  }
}

TEST(Codec, VarintCompactness) {
  Writer w;
  w.varint(127);
  EXPECT_EQ(w.size(), 1u);
  Writer w2;
  w2.varint(128);
  EXPECT_EQ(w2.size(), 2u);
}

TEST(Codec, DoubleRoundtripPreservesBits) {
  const double cases[] = {0.0, -0.0, 1.5, -3.25e-200,
                          std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::denorm_min()};
  for (const double v : cases) {
    Writer w;
    w.f64(v);
    Reader r(w.data());
    const double back = r.f64();
    EXPECT_EQ(std::memcmp(&v, &back, sizeof v), 0);
  }
  // NaN keeps its bit pattern too.
  Writer w;
  w.f64(std::numeric_limits<double>::quiet_NaN());
  Reader r(w.data());
  EXPECT_TRUE(std::isnan(r.f64()));
}

TEST(Codec, F64ArrayMatchesPerElementEncoding) {
  const double values[] = {0.0, -0.0, 1.5, -3.25e-200,
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::denorm_min()};
  Writer bulk;
  bulk.f64_array(values);
  Writer scalar;
  for (const double v : values) scalar.f64(v);
  EXPECT_EQ(bulk.data(), scalar.data());

  double back[std::size(values)] = {};
  Reader r(bulk.data());
  r.f64_array(back);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(std::memcmp(back, values, sizeof values), 0);
}

TEST(Codec, F64ArrayEmptyAndTruncated) {
  Writer w;
  w.f64_array({});
  EXPECT_EQ(w.size(), 0u);

  w.f64(1.0);
  Reader r(w.data());
  double out[2] = {};
  EXPECT_THROW(r.f64_array(out), DecodeError);
  // A failed bulk read consumes nothing.
  EXPECT_EQ(r.remaining(), sizeof(double));
}

TEST(Codec, StringAndBytesRoundtrip) {
  Writer w;
  w.string("hello");
  w.string("");
  const Bytes blob = {1, 2, 3};
  w.bytes(blob);
  Reader r(w.data());
  EXPECT_EQ(r.string(), "hello");
  EXPECT_EQ(r.string(), "");
  EXPECT_EQ(r.bytes(), blob);
  EXPECT_TRUE(r.done());
}

TEST(Codec, RawIsABoundsCheckedView) {
  const Bytes data = {1, 2, 3, 4, 5};
  Reader r(data);
  EXPECT_EQ(r.u8(), 1);
  const auto view = r.raw(3);
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view.data(), data.data() + 1);  // borrowed, not copied
  EXPECT_EQ(view[2], 4);
  EXPECT_EQ(r.remaining(), 1u);
  EXPECT_THROW(r.raw(2), DecodeError);
  EXPECT_EQ(r.remaining(), 1u);  // a failed read consumes nothing
  EXPECT_TRUE(r.raw(0).empty());
  EXPECT_EQ(r.raw(1)[0], 5);
  EXPECT_TRUE(r.done());
}

TEST(Codec, TruncatedBufferThrows) {
  Writer w;
  w.u64(7);
  Bytes data = w.take();
  data.pop_back();
  Reader r(data);
  EXPECT_THROW(r.u64(), DecodeError);
}

TEST(Codec, TruncatedStringThrows) {
  Writer w;
  w.varint(10);  // claims 10 bytes follow
  w.u8('x');
  Reader r(w.data());
  EXPECT_THROW(r.string(), DecodeError);
}

TEST(Codec, ExpectMagicComparesInPlace) {
  Writer w;
  w.string("dls.serve.req.v1");
  w.u8(9);
  Reader ok(w.data());
  EXPECT_NO_THROW(ok.expect_magic("dls.serve.req.v1"));
  EXPECT_EQ(ok.u8(), 9);  // consumed exactly the magic

  const std::string want =
      "bad wire magic: expected 'dls.serve.resp.v2', got 'dls.serve.req.v1'";
  Reader wrong(w.data());
  try {
    wrong.expect_magic("dls.serve.resp.v2");
    ADD_FAILURE() << "a different magic was accepted";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.what(), want);
  }

  Writer truncated;
  truncated.varint(16);  // claims 16 bytes follow
  truncated.u8('d');
  Reader short_read(truncated.data());
  EXPECT_THROW(short_read.expect_magic("dls.serve.req.v1"), DecodeError);
}

TEST(Codec, OverlongVarintThrows) {
  Bytes data(11, 0x80);  // never terminates within 10 bytes
  Reader r(data);
  EXPECT_THROW(r.varint(), DecodeError);
}

TEST(Codec, ExpectDoneDetectsTrailingBytes) {
  Writer w;
  w.u8(1);
  w.u8(2);
  Reader r(w.data());
  r.u8();
  EXPECT_THROW(r.expect_done(), DecodeError);
  r.u8();
  EXPECT_NO_THROW(r.expect_done());
}

TEST(Codec, RawAppendsWithoutFraming) {
  Writer w;
  const Bytes blob = {9, 8, 7};
  w.raw(blob);
  EXPECT_EQ(w.data(), blob);
}

TEST(Codec, HexRendering) {
  const Bytes data = {0x00, 0xff, 0x10};
  EXPECT_EQ(to_hex(data), "00ff10");
}

}  // namespace
