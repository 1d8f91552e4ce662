#include "serve/service_wire.hpp"

namespace dls::serve {

namespace {

constexpr std::string_view kRequestMagic = "dls.serve.req.v1";
// v2 appended the retry_after_us brown-out hint to the response tail.
constexpr std::string_view kResponseMagic = "dls.serve.resp.v2";
constexpr std::string_view kKeyMagic = "dls.serve.key.v1";

/// Caps decoded vector lengths so a malformed count cannot force a
/// giant allocation before the truncation check fires.
constexpr std::uint64_t kMaxVectorLength = std::uint64_t{1} << 20;

void expect_magic(codec::Reader& r, std::string_view magic) {
  const std::string found = r.string();
  if (found != magic) {
    throw codec::DecodeError("bad wire magic: expected '" +
                             std::string(magic) + "', got '" + found + "'");
  }
}

/// Room for every magic, fixed-width field and varint prefix of one
/// encoding below (the response needs 82 bytes beyond its error text
/// and vectors), so each encoder reserves once instead of regrowing.
constexpr std::size_t kEncodingSlack = 96;

void put_f64_vector(codec::Writer& w, std::span<const double> values) {
  w.varint(values.size());
  w.f64_array(values);
}

std::vector<double> take_f64_vector(codec::Reader& r) {
  const std::uint64_t count = r.varint();
  if (count > kMaxVectorLength) {
    throw codec::DecodeError("vector length " + std::to_string(count) +
                             " exceeds the wire cap");
  }
  std::vector<double> values(static_cast<std::size_t>(count));
  r.f64_array(values);
  return values;
}

bool take_bool(codec::Reader& r) {
  const std::uint8_t v = r.u8();
  if (v > 1) {
    throw codec::DecodeError("bad boolean byte " + std::to_string(v));
  }
  return v == 1;
}

}  // namespace

std::string to_string(ScheduleStatus status) {
  switch (status) {
    case ScheduleStatus::kOk:
      return "ok";
    case ScheduleStatus::kShed:
      return "shed";
    case ScheduleStatus::kExpired:
      return "expired";
    case ScheduleStatus::kError:
      return "error";
    case ScheduleStatus::kDegraded:
      return "degraded";
  }
  return "unknown";
}

codec::Bytes encode_schedule_request(const ScheduleRequest& request) {
  codec::Writer w;
  w.reserve(kEncodingSlack + 8 * (request.w.size() + request.z.size()));
  w.string(kRequestMagic);
  w.u64(request.request_id);
  w.u64(request.options.round);
  w.f64(request.options.deadline_us);
  w.u8(request.options.want_payments ? 1 : 0);
  put_f64_vector(w, request.w);
  put_f64_vector(w, request.z);
  return w.take();
}

ScheduleRequest decode_schedule_request(std::span<const std::uint8_t> data) {
  codec::Reader r(data);
  expect_magic(r, kRequestMagic);
  ScheduleRequest request;
  request.request_id = r.u64();
  request.options.round = r.u64();
  request.options.deadline_us = r.f64();
  request.options.want_payments = take_bool(r);
  request.w = take_f64_vector(r);
  request.z = take_f64_vector(r);
  r.expect_done();
  if (request.w.empty()) {
    throw codec::DecodeError("schedule request carries an empty chain");
  }
  if (request.z.size() + 1 != request.w.size()) {
    throw codec::DecodeError(
        "schedule request link count mismatch: " +
        std::to_string(request.w.size()) + " processors need " +
        std::to_string(request.w.size() - 1) + " links, got " +
        std::to_string(request.z.size()));
  }
  return request;
}

codec::Bytes encode_schedule_response(const ScheduleResponse& response) {
  codec::Writer w;
  w.reserve(kEncodingSlack + response.error.size() +
            8 * (response.alpha.size() + response.payments.size()));
  w.string(kResponseMagic);
  w.u64(response.request_id);
  w.u8(static_cast<std::uint8_t>(response.status));
  w.u8(response.cache_hit ? 1 : 0);
  w.string(response.error);
  put_f64_vector(w, response.alpha);
  w.f64(response.makespan);
  put_f64_vector(w, response.payments);
  w.f64(response.total_payment);
  w.f64(response.retry_after_us);
  return w.take();
}

ScheduleResponse decode_schedule_response(
    std::span<const std::uint8_t> data) {
  codec::Reader r(data);
  expect_magic(r, kResponseMagic);
  ScheduleResponse response;
  response.request_id = r.u64();
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(ScheduleStatus::kDegraded)) {
    throw codec::DecodeError("unknown schedule status " +
                             std::to_string(status));
  }
  response.status = static_cast<ScheduleStatus>(status);
  response.cache_hit = take_bool(r);
  response.error = r.string();
  response.alpha = take_f64_vector(r);
  response.makespan = r.f64();
  response.payments = take_f64_vector(r);
  response.total_payment = r.f64();
  response.retry_after_us = r.f64();
  r.expect_done();
  return response;
}

codec::Bytes canonical_topology_key(std::span<const double> w,
                                    std::span<const double> z) {
  codec::Writer writer;
  writer.reserve(kEncodingSlack + 8 * (w.size() + z.size()));
  writer.string(kKeyMagic);
  put_f64_vector(writer, w);
  put_f64_vector(writer, z);
  return writer.take();
}

namespace {

/// Size of a magic string's encoding — the request_id field starts
/// right after it in both payload layouts.
std::size_t encoded_magic_size(std::string_view magic) {
  codec::Writer writer;
  writer.string(magic);
  return writer.take().size();
}

/// Writes `request_id` little-endian over the u64 at `offset`.
void patch_id_at(codec::Bytes& payload, std::size_t offset,
                 std::uint64_t request_id, const char* what) {
  if (payload.size() < offset + sizeof(std::uint64_t)) {
    throw codec::DecodeError(std::string(what) +
                             " payload too short to patch a request id");
  }
  for (std::size_t i = 0; i < sizeof(std::uint64_t); ++i) {
    payload[offset + i] =
        static_cast<std::uint8_t>((request_id >> (8 * i)) & 0xffu);
  }
}

}  // namespace

std::span<const std::uint8_t> schedule_request_replay_key(
    std::span<const std::uint8_t> payload) {
  static const std::size_t offset =
      encoded_magic_size(kRequestMagic) + sizeof(std::uint64_t);
  if (payload.size() < offset) return {};
  return payload.subspan(offset);
}

std::uint64_t schedule_request_id(std::span<const std::uint8_t> payload) {
  static const std::size_t offset = encoded_magic_size(kRequestMagic);
  if (payload.size() < offset + sizeof(std::uint64_t)) return 0;
  std::uint64_t id = 0;
  for (std::size_t i = 0; i < sizeof(std::uint64_t); ++i) {
    id |= static_cast<std::uint64_t>(payload[offset + i]) << (8 * i);
  }
  return id;
}

void patch_schedule_request_id(codec::Bytes& payload,
                               std::uint64_t request_id) {
  static const std::size_t offset = encoded_magic_size(kRequestMagic);
  patch_id_at(payload, offset, request_id, "request");
}

void patch_schedule_response_id(codec::Bytes& payload,
                                std::uint64_t request_id) {
  static const std::size_t offset = encoded_magic_size(kResponseMagic);
  patch_id_at(payload, offset, request_id, "response");
}

void normalize_schedule_response(codec::Bytes& payload) {
  // After the magic: u64 request_id, u8 status, u8 cache_hit.
  static const std::size_t offset = encoded_magic_size(kResponseMagic);
  constexpr std::size_t kCacheHitAt = sizeof(std::uint64_t) + 1;
  if (payload.size() <= offset + kCacheHitAt) {
    throw codec::DecodeError("response payload too short to normalise");
  }
  patch_id_at(payload, offset, 0, "response");
  payload[offset + kCacheHitAt] = 0;
}

}  // namespace dls::serve
