// Transport-layer tests for the scheduling service: Pipe semantics
// (ordering, atomic writes, close/EOF discipline) and the framing codec
// (identity round trips, strict rejection of truncation, trailing
// bytes, bad magic/version/type and oversized lengths) — both on flat
// buffers and across a live PipeEnd.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "codec/bytes.hpp"
#include "serve/frame.hpp"
#include "serve/pipe.hpp"

namespace {

using dls::codec::Bytes;
using dls::codec::DecodeError;
using dls::serve::Frame;
using dls::serve::FrameTruncationError;
using dls::serve::FrameType;
using dls::serve::FrameVersionError;
using dls::serve::kFrameHeaderSize;
using dls::serve::make_pipe;
using dls::serve::Pipe;
using dls::serve::PipeEnd;
using dls::serve::ReadOutcome;
using dls::serve::TransportError;
using dls::serve::TransportTimeout;

Bytes bytes_of(std::initializer_list<int> values) {
  Bytes out;
  for (const int v : values) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

TEST(PipeTest, BytesArriveInOrder) {
  Pipe pipe = make_pipe();
  pipe.a.write(bytes_of({1, 2, 3}));
  pipe.a.write(bytes_of({4, 5}));
  Bytes got(5);
  ASSERT_TRUE(pipe.b.read_exact(got));
  EXPECT_EQ(got, bytes_of({1, 2, 3, 4, 5}));
}

TEST(PipeTest, ReadBlocksUntilDataArrives) {
  Pipe pipe = make_pipe();
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    pipe.a.write(bytes_of({42}));
  });
  Bytes got(1);
  ASSERT_TRUE(pipe.b.read_exact(got));
  EXPECT_EQ(got[0], 42);
  writer.join();
}

TEST(PipeTest, CleanCloseDrainsThenReportsEof) {
  Pipe pipe = make_pipe();
  pipe.a.write(bytes_of({7, 8}));
  pipe.a.close();
  Bytes got(2);
  ASSERT_TRUE(pipe.b.read_exact(got));  // buffered bytes still readable
  EXPECT_EQ(got, bytes_of({7, 8}));
  EXPECT_FALSE(pipe.b.read_exact(got));  // then clean EOF
}

TEST(PipeTest, CloseMidReadThrowsTransportError) {
  Pipe pipe = make_pipe();
  pipe.a.write(bytes_of({1}));
  pipe.a.close();
  Bytes got(2);  // more than was ever written: a torn read
  EXPECT_THROW(pipe.b.read_exact(got), TransportError);
}

TEST(PipeTest, WriteAfterPeerCloseThrows) {
  Pipe pipe = make_pipe();
  pipe.b.close();
  EXPECT_THROW(pipe.a.write(bytes_of({1})), TransportError);
}

TEST(PipeTest, DroppedEndUnblocksPeer) {
  Pipe pipe = make_pipe();
  std::thread dropper([end = std::move(pipe.a)]() mutable {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    // `end` destroyed here — the peer's blocked read must wake with EOF.
  });
  Bytes got(1);
  EXPECT_FALSE(pipe.b.read_exact(got));
  dropper.join();
}

TEST(PipeTest, ConcurrentWritesStayAtomic) {
  // Two writers blast distinct fixed-size records through one end; the
  // reader must see every record intact (never interleaved bytes).
  Pipe pipe = make_pipe();
  constexpr int kRecords = 200;
  constexpr std::size_t kSize = 64;
  auto writer = [&](std::uint8_t tag) {
    for (int i = 0; i < kRecords; ++i) {
      Bytes record(kSize, tag);
      pipe.a.write(record);
    }
  };
  std::thread w1(writer, std::uint8_t{0xAA});
  std::thread w2(writer, std::uint8_t{0x55});
  int seen_a = 0, seen_b = 0;
  for (int i = 0; i < 2 * kRecords; ++i) {
    Bytes record(kSize);
    ASSERT_TRUE(pipe.b.read_exact(record));
    const std::uint8_t tag = record[0];
    for (const std::uint8_t byte : record) {
      ASSERT_EQ(byte, tag) << "interleaved write detected";
    }
    (tag == 0xAA ? seen_a : seen_b)++;
  }
  w1.join();
  w2.join();
  EXPECT_EQ(seen_a, kRecords);
  EXPECT_EQ(seen_b, kRecords);
}

TEST(FrameTest, EncodeDecodeIdentityForEveryType) {
  for (const FrameType type :
       {FrameType::kScheduleRequest, FrameType::kScheduleResponse,
        FrameType::kBid, FrameType::kAllocation, FrameType::kReport,
        FrameType::kPayment}) {
    Frame frame{type, bytes_of({1, 2, 3, 4, 5})};
    const Frame decoded = dls::serve::decode_frame(
        dls::serve::encode_frame(frame));
    EXPECT_EQ(decoded.type, type);
    EXPECT_EQ(decoded.payload, frame.payload);
  }
  // Empty payloads are legal frames too.
  const Frame empty = dls::serve::decode_frame(
      dls::serve::encode_frame(Frame{FrameType::kBid, {}}));
  EXPECT_TRUE(empty.payload.empty());
}

TEST(FrameTest, EveryTruncationPrefixIsRejected) {
  const Bytes wire = dls::serve::encode_frame(
      Frame{FrameType::kScheduleRequest, bytes_of({9, 8, 7})});
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_THROW(dls::serve::decode_frame(std::span(wire.data(), len)),
                 DecodeError)
        << "frame prefix of " << len << " bytes accepted";
  }
}

TEST(FrameTest, BufferTruncationIsTypedAsCorruptedLengthNotPeerClose) {
  // Once the whole header is present, a short buffer means the length
  // field promised more than the capture holds — peer_closed() false.
  const Bytes wire = dls::serve::encode_frame(
      Frame{FrameType::kScheduleRequest, bytes_of({9, 8, 7})});
  for (std::size_t len = kFrameHeaderSize; len < wire.size(); ++len) {
    try {
      dls::serve::decode_frame(std::span(wire.data(), len));
      FAIL() << "frame prefix of " << len << " bytes accepted";
    } catch (const FrameTruncationError& e) {
      EXPECT_FALSE(e.peer_closed()) << "prefix " << len;
      EXPECT_EQ(e.announced(), wire.size() - kFrameHeaderSize);
      EXPECT_EQ(e.received(), len - kFrameHeaderSize);
    }
  }
}

TEST(FrameTest, EveryStreamPrefixReportsTypedTruncation) {
  // Like EveryTruncationPrefixIsRejected but across a live stream that
  // hangs up after each prefix: a clean close at offset 0 is EOF, a
  // close anywhere inside the frame is FrameTruncationError with
  // peer_closed() true, and the full frame round-trips.
  const Bytes wire = dls::serve::encode_frame(
      Frame{FrameType::kScheduleRequest, bytes_of({9, 8, 7})});
  for (std::size_t len = 0; len <= wire.size(); ++len) {
    Pipe pipe = make_pipe();
    pipe.a.write(std::span(wire.data(), len));
    pipe.a.close();
    if (len == 0) {
      EXPECT_FALSE(dls::serve::read_frame(pipe.b).has_value());
      continue;
    }
    if (len == wire.size()) {
      EXPECT_TRUE(dls::serve::read_frame(pipe.b).has_value());
      continue;
    }
    try {
      dls::serve::read_frame(pipe.b);
      FAIL() << "stream prefix of " << len << " bytes accepted";
    } catch (const FrameTruncationError& e) {
      EXPECT_TRUE(e.peer_closed()) << "prefix " << len;
      if (len < kFrameHeaderSize) {
        EXPECT_EQ(e.announced(), kFrameHeaderSize);
        EXPECT_EQ(e.received(), len);
      } else {
        EXPECT_EQ(e.announced(), wire.size() - kFrameHeaderSize);
        EXPECT_EQ(e.received(), len - kFrameHeaderSize);
      }
    }
  }
}

TEST(FrameTest, TrailingBytesAreRejected) {
  Bytes wire = dls::serve::encode_frame(
      Frame{FrameType::kScheduleRequest, bytes_of({1})});
  wire.push_back(0x00);
  EXPECT_THROW(dls::serve::decode_frame(wire), DecodeError);
}

TEST(FrameTest, BadMagicVersionTypeAndLengthAreRejected) {
  const Bytes good = dls::serve::encode_frame(
      Frame{FrameType::kScheduleRequest, bytes_of({1, 2})});

  Bytes bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(dls::serve::decode_frame(bad_magic), DecodeError);

  Bytes bad_version = good;
  bad_version[4] = 0x7F;
  EXPECT_THROW(dls::serve::decode_frame(bad_version), DecodeError);

  Bytes bad_type = good;
  bad_type[5] = 0;  // below the FrameType range
  EXPECT_THROW(dls::serve::decode_frame(bad_type), DecodeError);
  bad_type[5] = 200;  // above it
  EXPECT_THROW(dls::serve::decode_frame(bad_type), DecodeError);

  Bytes bad_length = good;
  bad_length[9] = 0xFF;  // announces a payload far beyond the cap
  EXPECT_THROW(dls::serve::decode_frame(bad_length), DecodeError);
}

TEST(FrameTest, VersionMismatchCarriesThePeersVersion) {
  const Bytes good = dls::serve::encode_frame(
      Frame{FrameType::kScheduleRequest, bytes_of({1, 2})});
  // v1/v2 peers during a rollout, plus a from-the-future version: the
  // typed error must report exactly what the peer announced.
  for (const std::uint8_t version :
       std::initializer_list<std::uint8_t>{0x00, 0x01, 0x02, 0x7F}) {
    Bytes bad_version = good;
    bad_version[4] = version;
    try {
      dls::serve::decode_frame(bad_version);
      FAIL() << "version " << int(version) << " accepted";
    } catch (const FrameVersionError& e) {
      EXPECT_EQ(e.received(), version);
      EXPECT_EQ(e.supported(), dls::serve::kFrameVersion);
    }
  }
}

TEST(FrameTest, VersionMismatchIsTypedAcrossAPipeToo) {
  Pipe pipe = make_pipe();
  Bytes wire = dls::serve::encode_frame(
      Frame{FrameType::kScheduleRequest, bytes_of({1})});
  wire[4] = 0x02;  // a v2 peer
  pipe.a.write(wire);
  try {
    dls::serve::read_frame(pipe.b);
    FAIL() << "v2 frame accepted";
  } catch (const FrameVersionError& e) {
    EXPECT_EQ(e.received(), 0x02);
    EXPECT_EQ(e.supported(), dls::serve::kFrameVersion);
  }
}

TEST(FrameTest, RoundTripsAcrossPipe) {
  Pipe pipe = make_pipe();
  const Frame sent{FrameType::kReport, bytes_of({10, 20, 30})};
  dls::serve::write_frame(pipe.a, sent);
  const std::optional<Frame> got = dls::serve::read_frame(pipe.b);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, sent.type);
  EXPECT_EQ(got->payload, sent.payload);
}

TEST(FrameTest, CleanEofBetweenFramesIsNullopt) {
  Pipe pipe = make_pipe();
  dls::serve::write_frame(pipe.a, Frame{FrameType::kBid, bytes_of({1})});
  pipe.a.close();
  EXPECT_TRUE(dls::serve::read_frame(pipe.b).has_value());
  EXPECT_FALSE(dls::serve::read_frame(pipe.b).has_value());
}

TEST(FrameTest, EofInsideFrameIsPeerClosedTruncation) {
  Pipe pipe = make_pipe();
  const Bytes wire = dls::serve::encode_frame(
      Frame{FrameType::kBid, bytes_of({1, 2, 3, 4})});
  // Send the header plus part of the payload, then hang up: a torn
  // frame, reported as peer-closed truncation (not a decode-side
  // corrupted length, and no longer an untyped TransportError).
  pipe.a.write(std::span(wire.data(), kFrameHeaderSize + 2));
  pipe.a.close();
  try {
    dls::serve::read_frame(pipe.b);
    FAIL() << "torn frame accepted";
  } catch (const FrameTruncationError& e) {
    EXPECT_TRUE(e.peer_closed());
    EXPECT_EQ(e.announced(), 4u);
    EXPECT_EQ(e.received(), 2u);
  }
}

TEST(FrameTest, ReadFrameTimesOutOnSilentPeer) {
  Pipe pipe = make_pipe();
  EXPECT_THROW(dls::serve::read_frame(pipe.b, /*timeout_s=*/0.01),
               TransportTimeout);
  // The timeout consumed nothing: a frame sent afterwards still reads.
  dls::serve::write_frame(pipe.a, Frame{FrameType::kBid, bytes_of({1})});
  const auto got = dls::serve::read_frame(pipe.b, /*timeout_s=*/1.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, bytes_of({1}));
}

TEST(PipeTest, ReadPartialTimeoutConsumesNothing) {
  Pipe pipe = make_pipe();
  pipe.a.write(bytes_of({1, 2, 3}));
  Bytes want(5);
  const ReadOutcome timed = pipe.b.read_partial(want, 0.01);
  EXPECT_EQ(timed.received, 0u);
  EXPECT_FALSE(timed.complete);
  EXPECT_FALSE(timed.closed);
  pipe.a.write(bytes_of({4, 5}));
  const ReadOutcome full = pipe.b.read_partial(want, 1.0);
  EXPECT_TRUE(full.complete);
  EXPECT_EQ(want, bytes_of({1, 2, 3, 4, 5}));
}

TEST(PipeTest, ReadPartialDrainsBufferedBytesOnClose) {
  Pipe pipe = make_pipe();
  pipe.a.write(bytes_of({7, 8}));
  pipe.a.close();
  Bytes want(4);
  const ReadOutcome got = pipe.b.read_partial(want, 0.0);
  EXPECT_TRUE(got.closed);
  EXPECT_FALSE(got.complete);
  EXPECT_EQ(got.received, 2u);
  EXPECT_EQ(want[0], 7);
  EXPECT_EQ(want[1], 8);
}

TEST(FrameTest, ResyncSkipsGarbageToNextFrameBoundary) {
  Pipe pipe = make_pipe();
  const Bytes garbage = bytes_of({0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01, 0x02});
  const Frame sent{FrameType::kReport, bytes_of({5, 6, 7})};
  pipe.a.write(garbage);
  dls::serve::write_frame(pipe.a, sent);
  std::size_t skipped = 0;
  const auto got =
      dls::serve::read_frame_resync(pipe.b, /*max_scan_bytes=*/1024,
                                    &skipped);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, sent.type);
  EXPECT_EQ(got->payload, sent.payload);
  EXPECT_EQ(skipped, garbage.size());
  // A well-formed stream afterwards resyncs nothing.
  dls::serve::write_frame(pipe.a, sent);
  const auto clean =
      dls::serve::read_frame_resync(pipe.b, 1024, &skipped);
  ASSERT_TRUE(clean.has_value());
  EXPECT_EQ(skipped, 0u);
}

TEST(FrameTest, ResyncGivesUpPastScanBudget) {
  Pipe pipe = make_pipe();
  Bytes garbage(64, 0xAB);
  pipe.a.write(garbage);
  dls::serve::write_frame(pipe.a,
                          Frame{FrameType::kBid, bytes_of({1})});
  EXPECT_THROW(
      dls::serve::read_frame_resync(pipe.b, /*max_scan_bytes=*/16),
      DecodeError);
}

TEST(FrameTest, ResyncReportsEofWhileHunting) {
  Pipe pipe = make_pipe();
  // Enough garbage to fill a whole header window, then EOF mid-hunt.
  pipe.a.write(Bytes(kFrameHeaderSize + 4, 0x0C));
  pipe.a.close();
  EXPECT_THROW(dls::serve::read_frame_resync(pipe.b, 1024), DecodeError);
}

TEST(FrameTest, CorruptedPayloadIsChecksumMismatch) {
  using dls::serve::FrameChecksumError;
  Bytes wire = dls::serve::encode_frame(
      Frame{FrameType::kScheduleRequest, bytes_of({1, 2, 3, 4})});
  wire[kFrameHeaderSize + 2] ^= 0x10;  // flip one payload bit
  try {
    dls::serve::decode_frame(wire);
    FAIL() << "corrupted payload accepted";
  } catch (const FrameChecksumError& e) {
    EXPECT_NE(e.announced(), e.computed());
  }
}

TEST(FrameTest, CorruptedChecksumFieldIsChecksumMismatch) {
  using dls::serve::FrameChecksumError;
  Bytes wire = dls::serve::encode_frame(
      Frame{FrameType::kScheduleRequest, bytes_of({1, 2, 3, 4})});
  wire[kFrameHeaderSize - 1] ^= 0x01;  // flip a bit of the checksum itself
  EXPECT_THROW(dls::serve::decode_frame(wire), FrameChecksumError);
}

TEST(FrameTest, ChecksumMismatchLeavesStreamFrameAligned) {
  // The announced length is fully consumed before the checksum verdict,
  // so a server can skip the poison frame and keep reading.
  using dls::serve::FrameChecksumError;
  Pipe pipe = make_pipe();
  Bytes corrupt = dls::serve::encode_frame(
      Frame{FrameType::kBid, bytes_of({1, 2, 3})});
  corrupt[kFrameHeaderSize] ^= 0x80;
  pipe.a.write(corrupt);
  const Frame good{FrameType::kReport, bytes_of({4, 5, 6})};
  dls::serve::write_frame(pipe.a, good);
  EXPECT_THROW(dls::serve::read_frame(pipe.b), FrameChecksumError);
  const auto got = dls::serve::read_frame(pipe.b);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, good.type);
  EXPECT_EQ(got->payload, good.payload);
}

/// The v3 checksum as first specified: each word assembled little-endian
/// from its bytes, FNV-1a-64, bytewise tail, xor-folded to 32 bits.
std::uint32_t byte_assembled_checksum(std::span<const std::uint8_t> payload) {
  std::uint64_t hash = 14695981039346656037ull;
  const std::size_t words = payload.size() / 8;
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t chunk = 0;
    for (std::size_t b = 0; b < 8; ++b) {
      chunk |= static_cast<std::uint64_t>(payload[8 * i + b]) << (8 * b);
    }
    hash = (hash ^ chunk) * 1099511628211ull;
  }
  for (std::size_t b = words * 8; b < payload.size(); ++b) {
    hash = (hash ^ payload[b]) * 1099511628211ull;
  }
  return static_cast<std::uint32_t>(hash ^ (hash >> 32));
}

TEST(FrameTest, ChecksumIsTheByteAssembledV3Fold) {
  // Every length 0..64 covers each tail size around whole words; the
  // multi-KB payload is hashed from every start offset 0..7 so the word
  // loads run unaligned.
  Bytes data(4096 + 8 + 64);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (auto& byte : data) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    byte = static_cast<std::uint8_t>(state >> 56);
  }
  const std::span<const std::uint8_t> all(data);
  for (std::size_t length = 0; length <= 64; ++length) {
    const auto payload = all.subspan(3, length);
    EXPECT_EQ(dls::serve::frame_checksum(payload),
              byte_assembled_checksum(payload))
        << "length " << length;
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const auto payload = all.subspan(offset, 4096 + 61);
    EXPECT_EQ(dls::serve::frame_checksum(payload),
              byte_assembled_checksum(payload))
        << "offset " << offset;
  }
  // Pinned wire value: bytes 0..63 as one payload.
  Bytes ramp(64);
  for (std::size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = static_cast<std::uint8_t>(i);
  }
  EXPECT_EQ(dls::serve::frame_checksum(ramp), 0xf996b8c1u);
  EXPECT_EQ(byte_assembled_checksum(ramp), 0xf996b8c1u);
}

TEST(FrameTest, MalformedHeaderOnStreamIsDecodeError) {
  Pipe pipe = make_pipe();
  Bytes wire = dls::serve::encode_frame(
      Frame{FrameType::kBid, bytes_of({1})});
  wire[0] ^= 0xFF;  // corrupt the magic
  pipe.a.write(wire);
  EXPECT_THROW(dls::serve::read_frame(pipe.b), DecodeError);
}

}  // namespace
