// Wire format for the Phase II allocation message G_i, the one protocol
// message run_protocol ships over a transport. Decoding is strict —
// unknown magic, truncation or trailing bytes are rejected — and
// round-trips preserve signatures bit-for-bit (each signature covers its
// claim's canonical encoding, which is embedded verbatim).
#pragma once

#include "codec/bytes.hpp"
#include "protocol/messages.hpp"

namespace dls::protocol {

/// Phase II allocation message G_i <-> bytes.
codec::Bytes encode_allocation_message(const AllocationMessage& message);
AllocationMessage decode_allocation_message(
    std::span<const std::uint8_t> data);

}  // namespace dls::protocol
