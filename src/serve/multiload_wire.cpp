#include "serve/multiload_wire.hpp"

#include <cmath>

namespace dls::serve {

namespace {

constexpr std::string_view kMultiRequestMagic = "dls.serve.mreq.v1";
constexpr std::string_view kMultiResponseMagic = "dls.serve.mresp.v1";

/// Caps the decoded load count, as kMaxVectorLength caps vectors. Loads
/// are richer than bare doubles, so their cap is tighter.
constexpr std::uint64_t kMaxLoadCount = std::uint64_t{1} << 16;
/// The solver materialises loads × installments Installment objects,
/// each carrying per-processor vectors, so both the per-load count and
/// the product need caps a hostile frame cannot exceed.
constexpr std::uint64_t kMaxInstallments = std::uint64_t{1} << 12;
constexpr std::uint64_t kMaxTotalInstallments = std::uint64_t{1} << 20;

double take_finite_f64(codec::Reader& r, std::string_view field) {
  const double value = r.f64();
  if (!std::isfinite(value)) {
    throw codec::DecodeError("non-finite " + std::string(field) +
                             " on the wire");
  }
  return value;
}

}  // namespace

codec::Bytes encode_multi_schedule_request(
    const MultiScheduleRequest& request) {
  codec::Writer w;
  w.string(kMultiRequestMagic);
  w.u64(request.request_id);
  w.u8(request.policy);
  w.u32(request.installments);
  w.f64(request.ingress_z);
  w.f64(request.deadline_us);
  w.u8(request.want_payments ? 1 : 0);
  put_f64_vector(w, request.w);
  put_f64_vector(w, request.z);
  w.varint(request.loads.size());
  for (const MultiLoadItem& load : request.loads) {
    w.u64(load.load_id);
    w.f64(load.size);
    w.f64(load.release);
    w.f64(load.deadline);
  }
  return w.take();
}

MultiScheduleRequest decode_multi_schedule_request(
    std::span<const std::uint8_t> data) {
  codec::Reader r(data);
  r.expect_magic(kMultiRequestMagic);
  MultiScheduleRequest request;
  request.request_id = r.u64();
  request.policy = r.u8();
  if (request.policy > 1) {
    throw codec::DecodeError("unknown dispatch policy " +
                             std::to_string(request.policy));
  }
  request.installments = r.u32();
  if (request.installments == 0) {
    throw codec::DecodeError("multi-load request asks for zero installments");
  }
  if (request.installments > kMaxInstallments) {
    throw codec::DecodeError("installment count " +
                             std::to_string(request.installments) +
                             " exceeds the wire cap");
  }
  request.ingress_z = take_finite_f64(r, "ingress_z");
  if (request.ingress_z < 0.0) {
    throw codec::DecodeError("negative ingress_z on the wire");
  }
  request.deadline_us = take_finite_f64(r, "deadline_us");
  request.want_payments = take_bool(r);
  request.w = take_f64_vector(r);
  request.z = take_f64_vector(r);
  const std::uint64_t count = r.varint();
  if (count > kMaxLoadCount) {
    throw codec::DecodeError("load count " + std::to_string(count) +
                             " exceeds the wire cap");
  }
  if (count * request.installments > kMaxTotalInstallments) {
    throw codec::DecodeError(
        "total installment budget exceeded: " + std::to_string(count) +
        " loads x " + std::to_string(request.installments) + " installments");
  }
  request.loads.resize(static_cast<std::size_t>(count));
  for (MultiLoadItem& load : request.loads) {
    load.load_id = r.u64();
    load.size = take_finite_f64(r, "load size");
    load.release = take_finite_f64(r, "load release");
    load.deadline = take_finite_f64(r, "load deadline");
  }
  r.expect_done();
  if (request.w.empty()) {
    throw codec::DecodeError("multi-load request carries an empty chain");
  }
  if (request.z.size() + 1 != request.w.size()) {
    throw codec::DecodeError(
        "multi-load request link count mismatch: " +
        std::to_string(request.w.size()) + " processors need " +
        std::to_string(request.w.size() - 1) + " links, got " +
        std::to_string(request.z.size()));
  }
  if (request.loads.empty()) {
    throw codec::DecodeError("multi-load request carries no loads");
  }
  return request;
}

codec::Bytes encode_multi_schedule_response(
    const MultiScheduleResponse& response) {
  codec::Writer w;
  w.string(kMultiResponseMagic);
  w.u64(response.request_id);
  w.u8(static_cast<std::uint8_t>(response.status));
  w.string(response.error);
  w.varint(response.loads.size());
  for (const MultiLoadResult& load : response.loads) {
    w.u64(load.load_id);
    w.f64(load.start);
    w.f64(load.completion);
    w.u8(load.deadline_met ? 1 : 0);
    w.f64(load.total_payment);
  }
  w.f64(response.makespan);
  w.f64(response.serialized_makespan);
  w.f64(response.total_payment);
  w.f64(response.retry_after_us);
  return w.take();
}

MultiScheduleResponse decode_multi_schedule_response(
    std::span<const std::uint8_t> data) {
  codec::Reader r(data);
  r.expect_magic(kMultiResponseMagic);
  MultiScheduleResponse response;
  response.request_id = r.u64();
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(ScheduleStatus::kDegraded)) {
    throw codec::DecodeError("unknown schedule status " +
                             std::to_string(status));
  }
  response.status = static_cast<ScheduleStatus>(status);
  response.error = r.string();
  const std::uint64_t count = r.varint();
  if (count > kMaxLoadCount) {
    throw codec::DecodeError("load count " + std::to_string(count) +
                             " exceeds the wire cap");
  }
  response.loads.resize(static_cast<std::size_t>(count));
  for (MultiLoadResult& load : response.loads) {
    load.load_id = r.u64();
    load.start = r.f64();
    load.completion = r.f64();
    load.deadline_met = take_bool(r);
    load.total_payment = r.f64();
  }
  response.makespan = r.f64();
  response.serialized_makespan = r.f64();
  response.total_payment = r.f64();
  response.retry_after_us = r.f64();
  r.expect_done();
  return response;
}

}  // namespace dls::serve
