#include "serve/frame.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

namespace dls::serve {

namespace {

struct Header {
  FrameType type{};
  std::size_t length = 0;
  std::uint32_t checksum = 0;
};

/// Validates the fixed header fields and returns them decoded.
/// Factored out so the buffer and stream decoders reject identically.
Header take_header(codec::Reader& r) {
  const std::uint32_t magic = r.u32();
  if (magic != kFrameMagic) {
    throw codec::DecodeError("bad frame magic: expected " +
                             std::to_string(kFrameMagic) + ", got " +
                             std::to_string(magic));
  }
  const std::uint8_t version = r.u8();
  if (version != kFrameVersion) {
    throw FrameVersionError("unsupported frame version " +
                                std::to_string(version) + " (this build " +
                                "speaks version " +
                                std::to_string(kFrameVersion) + ")",
                            version);
  }
  const std::uint8_t type = r.u8();
  if (type < static_cast<std::uint8_t>(FrameType::kScheduleRequest) ||
      type > static_cast<std::uint8_t>(FrameType::kMultiScheduleResponse)) {
    throw codec::DecodeError("unknown frame type " + std::to_string(type));
  }
  const std::uint32_t length = r.u32();
  if (length > kMaxFramePayload) {
    throw codec::DecodeError("frame payload of " + std::to_string(length) +
                             " bytes exceeds the " +
                             std::to_string(kMaxFramePayload) + " byte cap");
  }
  Header header;
  header.type = static_cast<FrameType>(type);
  header.length = static_cast<std::size_t>(length);
  header.checksum = r.u32();
  return header;
}

/// Rejects a fully-delivered payload whose bytes no longer hash to what
/// the sender announced — corruption in flight, not truncation.
void verify_checksum(const Frame& frame, std::uint32_t announced) {
  const std::uint32_t computed = frame_checksum(frame.payload);
  if (computed != announced) {
    throw FrameChecksumError(
        "frame payload checksum mismatch: header announced " +
            std::to_string(announced) + ", payload hashes to " +
            std::to_string(computed),
        announced, computed);
  }
}

/// Fills `out` from the stream or reports how the frame died: the typed
/// truncation error when the peer closed mid-frame, TransportTimeout
/// when the deadline elapsed first.
void read_or_report(Transport& end, std::span<std::uint8_t> out,
                    double timeout_s, const char* what,
                    std::size_t announced) {
  const ReadOutcome got = end.read_partial(out, timeout_s);
  if (got.complete) return;
  if (got.closed) {
    throw FrameTruncationError(
        "peer closed inside a " + std::string(what) + " (" +
            std::to_string(got.received) + " of " +
            std::to_string(announced) + " bytes arrived)",
        /*peer_closed=*/true, announced, got.received);
  }
  throw TransportTimeout("read of a " + std::string(what) + " timed out (" +
                         std::to_string(announced) + " bytes expected)");
}

}  // namespace

std::string to_string(FrameType type) {
  switch (type) {
    case FrameType::kScheduleRequest:
      return "schedule_request";
    case FrameType::kScheduleResponse:
      return "schedule_response";
    case FrameType::kBid:
      return "bid";
    case FrameType::kAllocation:
      return "allocation";
    case FrameType::kReport:
      return "report";
    case FrameType::kPayment:
      return "payment";
    case FrameType::kMultiScheduleRequest:
      return "multi_schedule_request";
    case FrameType::kMultiScheduleResponse:
      return "multi_schedule_response";
  }
  return "unknown";
}

std::uint64_t word_fnv1a64(std::span<const std::uint8_t> data) noexcept {
  std::uint64_t hash = 14695981039346656037ull;  // FNV-1a-64 offset basis
  constexpr std::uint64_t kPrime = 1099511628211ull;  // FNV-1a-64 prime
  const std::uint8_t* cursor = data.data();
  const std::size_t words = data.size() / 8;
  for (std::size_t i = 0; i < words; ++i, cursor += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, cursor, sizeof word);
    if constexpr (std::endian::native == std::endian::big) {
      word = __builtin_bswap64(word);
    }
    hash = (hash ^ word) * kPrime;
  }
  for (std::size_t b = words * 8; b < data.size(); ++b) {
    hash = (hash ^ data[b]) * kPrime;
  }
  return hash;
}

std::uint32_t frame_checksum(std::span<const std::uint8_t> payload) noexcept {
  const std::uint64_t hash = word_fnv1a64(payload);
  return static_cast<std::uint32_t>(hash ^ (hash >> 32));
}

codec::Bytes encode_frame(const Frame& frame) {
  DLS_REQUIRE(frame.payload.size() <= kMaxFramePayload,
              "frame payload exceeds kMaxFramePayload");
  codec::Writer w;
  w.reserve(kFrameHeaderSize + frame.payload.size());
  w.u32(kFrameMagic);
  w.u8(kFrameVersion);
  w.u8(static_cast<std::uint8_t>(frame.type));
  w.u32(static_cast<std::uint32_t>(frame.payload.size()));
  w.u32(frame_checksum(frame.payload));
  w.raw(frame.payload);
  return w.take();
}

Frame decode_frame(std::span<const std::uint8_t> data) {
  codec::Reader r(data);
  const Header header = take_header(r);
  if (r.remaining() < header.length) {
    throw FrameTruncationError(
        "frame truncated: payload of " + std::to_string(header.length) +
            " bytes announced, " + std::to_string(r.remaining()) +
            " present",
        /*peer_closed=*/false, header.length, r.remaining());
  }
  Frame frame;
  frame.type = header.type;
  const std::span<const std::uint8_t> payload = r.raw(header.length);
  frame.payload.assign(payload.begin(), payload.end());
  r.expect_done();
  verify_checksum(frame, header.checksum);
  return frame;
}

void write_frame(Transport& end, const Frame& frame) {
  end.write(encode_frame(frame));
}

std::optional<Frame> read_frame(Transport& end, double timeout_s) {
  return read_frame_resync(end, 0, nullptr, timeout_s);
}

std::optional<Frame> read_frame_resync(Transport& end,
                                       std::size_t max_scan_bytes,
                                       std::size_t* skipped,
                                       double timeout_s) {
  std::array<std::uint8_t, kFrameHeaderSize> header{};
  std::size_t discarded = 0;
  if (skipped != nullptr) *skipped = 0;

  const ReadOutcome got = end.read_partial(header, timeout_s);
  if (!got.complete) {
    if (!got.closed) {
      throw TransportTimeout("read of a frame header timed out");
    }
    if (got.received == 0) return std::nullopt;  // clean EOF between frames
    throw FrameTruncationError(
        "peer closed inside a frame header (" +
            std::to_string(got.received) + " of " +
            std::to_string(kFrameHeaderSize) + " bytes arrived)",
        /*peer_closed=*/true, kFrameHeaderSize, got.received);
  }

  for (;;) {
    Header parsed;
    try {
      codec::Reader r(header);
      parsed = take_header(r);
      r.expect_done();
    } catch (const codec::DecodeError&) {
      // Poison header: slide the window one byte and keep hunting for
      // the next frame boundary, up to the caller's scan budget.
      if (discarded >= max_scan_bytes) throw;
      ++discarded;
      if (skipped != nullptr) *skipped = discarded;
      std::copy(header.begin() + 1, header.end(), header.begin());
      const ReadOutcome one =
          end.read_partial(std::span(header).last(1), timeout_s);
      if (one.complete) continue;
      if (!one.closed) {
        throw TransportTimeout(
            "read of a frame header timed out while resynchronising (" +
            std::to_string(discarded) + " bytes discarded)");
      }
      throw codec::DecodeError(
          "stream ended while resynchronising past a malformed frame "
          "header (" +
          std::to_string(discarded) + " bytes discarded)");
    }
    // Payload read and checksum check happen outside the try: a torn or
    // corrupted payload is not a malformed header, so it must propagate
    // typed instead of re-entering the resync hunt.
    Frame frame;
    frame.type = parsed.type;
    frame.payload.resize(parsed.length);
    if (parsed.length > 0) {
      read_or_report(end, frame.payload, timeout_s, "frame payload",
                     parsed.length);
    }
    verify_checksum(frame, parsed.checksum);
    return frame;
  }
}

}  // namespace dls::serve
