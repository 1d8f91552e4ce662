#include "codec/bytes.hpp"

#include <bit>
#include <cstring>

namespace dls::codec {

void Writer::u8(std::uint8_t v) { buffer_.push_back(v); }

void Writer::u32(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    buffer_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void Writer::u64(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    buffer_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void Writer::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void Writer::varint(std::uint64_t v) {
  while (v >= 0x80) {
    buffer_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buffer_.push_back(static_cast<std::uint8_t>(v));
}

void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::f64_array(std::span<const double> values) {
  if (values.empty()) return;
  if constexpr (std::endian::native == std::endian::little) {
    // A double's object representation already is its little-endian
    // IEEE-754 bit pattern here, so the canonical encoding is a single
    // bulk append instead of eight branchy pushes per element.
    const auto* first = reinterpret_cast<const std::uint8_t*>(values.data());
    buffer_.insert(buffer_.end(), first,
                   first + values.size() * sizeof(double));
  } else {
    for (const double v : values) f64(v);
  }
}

void Writer::string(std::string_view s) {
  varint(s.size());
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

void Writer::bytes(std::span<const std::uint8_t> data) {
  varint(data.size());
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

void Writer::raw(std::span<const std::uint8_t> data) {
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

void Reader::need(std::size_t n) const {
  if (remaining() < n) {
    throw DecodeError("truncated buffer: need " + std::to_string(n) +
                      " bytes, have " + std::to_string(remaining()));
  }
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    v |= static_cast<std::uint32_t>(data_[pos_++]) << shift;
  }
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    v |= static_cast<std::uint64_t>(data_[pos_++]) << shift;
  }
  return v;
}

std::int64_t Reader::i64() { return static_cast<std::int64_t>(u64()); }

std::uint64_t Reader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    need(1);
    const std::uint8_t byte = data_[pos_++];
    if (shift == 63 && (byte & 0x7e) != 0) {
      throw DecodeError("varint overflows 64 bits");
    }
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
    if (shift > 63) throw DecodeError("varint too long");
  }
}

double Reader::f64() { return std::bit_cast<double>(u64()); }

void Reader::f64_array(std::span<double> out) {
  // An empty span may carry a null data() (e.g. a default vector); the
  // bulk memcpy below is declared nonnull even for a zero-byte copy.
  if (out.empty()) return;
  need(out.size() * sizeof(double));
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out.data(), data_.data() + pos_,
                out.size() * sizeof(double));
    pos_ += out.size() * sizeof(double);
  } else {
    for (double& v : out) v = f64();
  }
}

std::string Reader::string() {
  const std::uint64_t len = varint();
  need(len);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_),
                static_cast<std::size_t>(len));
  pos_ += static_cast<std::size_t>(len);
  return s;
}

void Reader::expect_magic(std::string_view magic) {
  const std::uint64_t len = varint();
  need(len);
  const std::string_view found(
      reinterpret_cast<const char*>(data_.data() + pos_),
      static_cast<std::size_t>(len));
  pos_ += static_cast<std::size_t>(len);
  if (found != magic) {
    throw DecodeError("bad wire magic: expected '" + std::string(magic) +
                      "', got '" + std::string(found) + "'");
  }
}

Bytes Reader::bytes() {
  const std::uint64_t len = varint();
  need(len);
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
  pos_ += static_cast<std::size_t>(len);
  return out;
}

std::span<const std::uint8_t> Reader::raw(std::size_t n) {
  need(n);
  const std::span<const std::uint8_t> out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

void Reader::expect_done() const {
  if (!done()) {
    throw DecodeError("trailing bytes after message: " +
                      std::to_string(remaining()));
  }
}

std::string to_hex(std::span<const std::uint8_t> data) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (const std::uint8_t byte : data) {
    out.push_back(kDigits[byte >> 4]);
    out.push_back(kDigits[byte & 0x0f]);
  }
  return out;
}

}  // namespace dls::codec
