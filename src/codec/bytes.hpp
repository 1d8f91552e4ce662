// Canonical byte-level serialisation.
//
// Protocol messages are signed over their serialised form, so encoding has
// to be deterministic: fixed little-endian layout for integers, IEEE-754
// bit patterns for doubles, length-prefixed strings, and LEB128 varints
// for counts.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace dls::codec {

using Bytes = std::vector<std::uint8_t>;

/// A decode failed: truncated buffer, malformed varint, bad tag.
class DecodeError : public dls::Error {
 public:
  explicit DecodeError(const std::string& what) : Error(what) {}
};

/// Append-only encoder.
class Writer {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Unsigned LEB128.
  void varint(std::uint64_t v);
  /// IEEE-754 bit pattern, little-endian.
  void f64(double v);
  /// Bulk f64: byte-identical to calling f64 per element, but one
  /// buffer append on little-endian hosts (the serve transport moves
  /// multi-thousand-element vectors; per-byte appends dominate there).
  void f64_array(std::span<const double> values);
  /// varint length + raw bytes.
  void string(std::string_view s);
  /// varint length + raw bytes.
  void bytes(std::span<const std::uint8_t> data);
  /// Raw bytes with no length prefix (caller knows the framing).
  void raw(std::span<const std::uint8_t> data);
  /// Pre-sizes the buffer when the encoded size is known up front (a
  /// frame header plus its payload), so appends never reallocate.
  void reserve(std::size_t bytes) { buffer_.reserve(bytes); }

  const Bytes& data() const noexcept { return buffer_; }
  Bytes take() noexcept { return std::move(buffer_); }
  std::size_t size() const noexcept { return buffer_.size(); }

 private:
  Bytes buffer_;
};

/// Sequential decoder over a borrowed buffer.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::uint64_t varint();
  double f64();
  /// Bulk f64: fills `out`, equivalent to one f64() per element.
  void f64_array(std::span<double> out);
  std::string string();
  /// Reads a string() and checks it equals `magic`, comparing the bytes
  /// in place; only a mismatch builds the DecodeError text.
  void expect_magic(std::string_view magic);
  Bytes bytes();
  /// The next `n` bytes with no length prefix (caller knows the
  /// framing), as a view into the borrowed buffer.
  std::span<const std::uint8_t> raw(std::size_t n);

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool done() const noexcept { return pos_ == data_.size(); }

  /// Throws DecodeError unless the whole buffer was consumed.
  void expect_done() const;

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Hex rendering for diagnostics and token identifiers.
std::string to_hex(std::span<const std::uint8_t> data);

}  // namespace dls::codec
