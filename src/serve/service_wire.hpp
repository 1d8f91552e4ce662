// Wire format for the scheduling service's request/response pair.
//
// A ScheduleRequest carries a full problem instance — the chain topology
// (w, z), a round tag and per-request options — and a ScheduleResponse
// carries either the Algorithm-1 allocation (plus, on request, the
// Phase IV payment vector) or an explicit refusal: shed under admission
// pressure, expired past its deadline, or a decode/infeasibility error.
//
// Encodings follow the codec/wire discipline: canonical little-endian
// layout, strict decode (unknown magic, truncation, trailing bytes and
// malformed counts are rejected), and doubles travel as IEEE-754 bit
// patterns so a cached response is bit-identical to a fresh one.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "codec/bytes.hpp"

namespace dls::serve {

/// Per-request knobs carried inside the request frame.
struct ScheduleOptions {
  /// Protocol round tag (diagnostic; echoed into nothing yet).
  std::uint64_t round = 1;
  /// Admission-relative deadline in microseconds; 0 defers to the
  /// service's default (which may itself be "none").
  double deadline_us = 0.0;
  /// When true the response also carries the Phase IV payment vector
  /// Q_0..Q_m for compliant truthful execution.
  bool want_payments = false;
};

/// One scheduling problem: solve DLS-LBL on the chain (w, z).
struct ScheduleRequest {
  std::uint64_t request_id = 0;
  std::vector<double> w;  ///< m+1 processing times (P_0..P_m)
  std::vector<double> z;  ///< m link times (l_1..l_m)
  ScheduleOptions options;
};

enum class ScheduleStatus : std::uint8_t {
  kOk = 0,       ///< alpha/makespan (and payments if asked) are valid
  kShed = 1,     ///< admission queue full — retry with backoff
  kExpired = 2,  ///< deadline passed before the solve started
  kError = 3,    ///< malformed or infeasible request; see `error`
  kDegraded = 4, ///< brown-out: cache miss shed under load; see
                 ///< `retry_after_us` for when to come back
};

std::string to_string(ScheduleStatus status);

struct ScheduleResponse {
  std::uint64_t request_id = 0;
  ScheduleStatus status = ScheduleStatus::kOk;
  bool cache_hit = false;
  std::string error;           ///< empty unless status is kError/kDegraded
  std::vector<double> alpha;   ///< load fractions α_0..α_m (kOk only)
  double makespan = 0.0;       ///< T(α*) (kOk only)
  std::vector<double> payments;  ///< Q_0..Q_m when want_payments (kOk)
  double total_payment = 0.0;    ///< Σ_{j>=1} Q_j (kOk + want_payments)
  /// Brown-out hint (kDegraded only): how long the client should wait
  /// before retrying, in microseconds; 0 when the server has no advice.
  double retry_after_us = 0.0;
};

// Primitives this codec and the multi-load one (multiload_wire.hpp)
// share.

/// The cap on a decoded vector's length, so a malformed count cannot
/// force a giant allocation before the truncation check fires.
inline constexpr std::uint64_t kMaxVectorLength = std::uint64_t{1} << 20;

/// A vector travels as a varint count and the raw IEEE-754 values.
/// take_f64_vector throws codec::DecodeError ("exceeds the wire cap")
/// on a count above kMaxVectorLength.
void put_f64_vector(codec::Writer& w, std::span<const double> values);
std::vector<double> take_f64_vector(codec::Reader& r);
/// A boolean byte: 0 or 1, anything else is a codec::DecodeError.
bool take_bool(codec::Reader& r);

codec::Bytes encode_schedule_request(const ScheduleRequest& request);
ScheduleRequest decode_schedule_request(std::span<const std::uint8_t> data);

codec::Bytes encode_schedule_response(const ScheduleResponse& response);
ScheduleResponse decode_schedule_response(std::span<const std::uint8_t> data);

/// Canonical cache key for a problem instance: the byte encoding of the
/// (w, z) vectors alone. Two requests with the same topology and bids
/// map to the same key regardless of request id, round or options, and
/// the solver is deterministic, so a cached solution is bit-identical
/// to a fresh one.
codec::Bytes canonical_topology_key(std::span<const double> w,
                                    std::span<const double> z);

/// Overwrites the request_id field of an encoded request in place, so a
/// router can forward a client's encoding under its own link's id.
/// Throws codec::DecodeError when the payload is too short to patch.
void patch_schedule_request_id(codec::Bytes& payload,
                               std::uint64_t request_id);

/// Zeroes the per-hop fields of an encoded response in place — the
/// echoed request_id and the cache-hit flag — leaving exactly the bytes
/// two replicas that solved the same instance must agree on. Throws
/// codec::DecodeError when the payload is too short to hold them.
void normalize_schedule_response(codec::Bytes& payload);

}  // namespace dls::serve
