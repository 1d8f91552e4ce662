// Round-trip and adversarial coverage for the multi-load wire pair
// (MultiScheduleRequest/Response) and their frame types: encode →
// decode is the identity for random well-formed messages, every
// truncation prefix / trailing byte / wrong magic is rejected with
// codec::DecodeError, malformed field values (unknown policy, zero
// installments, chain/link mismatch, empty batches, oversized counts)
// get typed refusals, and framed transport surfaces checksum bit-flips
// as FrameChecksumError with the stream still alive.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "codec/bytes.hpp"
#include "common/rng.hpp"
#include "serve/frame.hpp"
#include "serve/multiload_wire.hpp"

namespace {

using dls::codec::Bytes;
using dls::codec::DecodeError;
using dls::common::Rng;
using dls::serve::Frame;
using dls::serve::FrameChecksumError;
using dls::serve::FrameTruncationError;
using dls::serve::FrameType;
using dls::serve::kFrameHeaderSize;
using dls::serve::MultiLoadItem;
using dls::serve::MultiLoadResult;
using dls::serve::MultiScheduleRequest;
using dls::serve::MultiScheduleResponse;
using dls::serve::ScheduleStatus;

MultiScheduleRequest random_request(Rng& rng) {
  MultiScheduleRequest request;
  request.request_id = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 20));
  const int m = static_cast<int>(rng.uniform_int(1, 6));
  for (int i = 0; i <= m; ++i) request.w.push_back(rng.uniform(0.5, 2.0));
  for (int i = 0; i < m; ++i) request.z.push_back(rng.uniform(0.05, 0.5));
  const int loads = static_cast<int>(rng.uniform_int(1, 5));
  for (int i = 0; i < loads; ++i) {
    MultiLoadItem item;
    item.load_id = static_cast<std::uint64_t>(100 + i);
    item.size = rng.uniform(0.5, 3.0);
    item.release = rng.uniform(0.0, 2.0);
    item.deadline = rng.uniform(0.0, 10.0);
    request.loads.push_back(item);
  }
  request.policy = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
  request.installments = static_cast<std::uint32_t>(rng.uniform_int(1, 4));
  request.ingress_z = rng.uniform(0.0, 0.3);
  request.deadline_us = rng.uniform(0.0, 1e6);
  request.want_payments = rng.uniform_int(0, 1) == 1;
  return request;
}

MultiScheduleResponse random_response(Rng& rng) {
  MultiScheduleResponse response;
  response.request_id = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 20));
  response.status = static_cast<ScheduleStatus>(rng.uniform_int(0, 4));
  if (response.status == ScheduleStatus::kError) response.error = "boom";
  const int loads = static_cast<int>(rng.uniform_int(0, 4));
  for (int i = 0; i < loads; ++i) {
    MultiLoadResult result;
    result.load_id = static_cast<std::uint64_t>(200 + i);
    result.start = rng.uniform(0.0, 5.0);
    result.completion = result.start + rng.uniform(0.1, 5.0);
    result.deadline_met = rng.uniform_int(0, 1) == 1;
    result.total_payment = rng.uniform(0.0, 10.0);
    response.loads.push_back(result);
  }
  response.makespan = rng.uniform(0.0, 20.0);
  response.serialized_makespan = response.makespan + rng.uniform(0.0, 5.0);
  response.total_payment = rng.uniform(0.0, 40.0);
  response.retry_after_us = rng.uniform(0.0, 1e4);
  return response;
}

TEST(MultiLoadWire, RequestIdentity) {
  Rng rng(20260809);
  for (int iter = 0; iter < 100; ++iter) {
    const MultiScheduleRequest original = random_request(rng);
    const MultiScheduleRequest decoded =
        dls::serve::decode_multi_schedule_request(
            dls::serve::encode_multi_schedule_request(original));
    EXPECT_EQ(decoded.request_id, original.request_id);
    EXPECT_EQ(decoded.w, original.w);  // bit-exact doubles
    EXPECT_EQ(decoded.z, original.z);
    ASSERT_EQ(decoded.loads.size(), original.loads.size());
    for (std::size_t i = 0; i < original.loads.size(); ++i) {
      EXPECT_EQ(decoded.loads[i].load_id, original.loads[i].load_id);
      EXPECT_EQ(decoded.loads[i].size, original.loads[i].size);
      EXPECT_EQ(decoded.loads[i].release, original.loads[i].release);
      EXPECT_EQ(decoded.loads[i].deadline, original.loads[i].deadline);
    }
    EXPECT_EQ(decoded.policy, original.policy);
    EXPECT_EQ(decoded.installments, original.installments);
    EXPECT_EQ(decoded.ingress_z, original.ingress_z);
    EXPECT_EQ(decoded.deadline_us, original.deadline_us);
    EXPECT_EQ(decoded.want_payments, original.want_payments);
  }
}

TEST(MultiLoadWire, ResponseIdentity) {
  Rng rng(20260810);
  for (int iter = 0; iter < 100; ++iter) {
    const MultiScheduleResponse original = random_response(rng);
    const MultiScheduleResponse decoded =
        dls::serve::decode_multi_schedule_response(
            dls::serve::encode_multi_schedule_response(original));
    EXPECT_EQ(decoded.request_id, original.request_id);
    EXPECT_EQ(decoded.status, original.status);
    EXPECT_EQ(decoded.error, original.error);
    ASSERT_EQ(decoded.loads.size(), original.loads.size());
    for (std::size_t i = 0; i < original.loads.size(); ++i) {
      EXPECT_EQ(decoded.loads[i].load_id, original.loads[i].load_id);
      EXPECT_EQ(decoded.loads[i].start, original.loads[i].start);
      EXPECT_EQ(decoded.loads[i].completion, original.loads[i].completion);
      EXPECT_EQ(decoded.loads[i].deadline_met, original.loads[i].deadline_met);
      EXPECT_EQ(decoded.loads[i].total_payment,
                original.loads[i].total_payment);
    }
    EXPECT_EQ(decoded.makespan, original.makespan);
    EXPECT_EQ(decoded.serialized_makespan, original.serialized_makespan);
    EXPECT_EQ(decoded.total_payment, original.total_payment);
    EXPECT_EQ(decoded.retry_after_us, original.retry_after_us);
  }
}

TEST(MultiLoadWire, EveryTruncationPrefixIsRejected) {
  Rng rng(7);
  const Bytes request_wire =
      dls::serve::encode_multi_schedule_request(random_request(rng));
  for (std::size_t len = 0; len < request_wire.size(); ++len) {
    EXPECT_THROW(dls::serve::decode_multi_schedule_request(
                     std::span(request_wire.data(), len)),
                 DecodeError)
        << "request prefix of " << len << " bytes accepted";
  }
  const Bytes response_wire =
      dls::serve::encode_multi_schedule_response(random_response(rng));
  for (std::size_t len = 0; len < response_wire.size(); ++len) {
    EXPECT_THROW(dls::serve::decode_multi_schedule_response(
                     std::span(response_wire.data(), len)),
                 DecodeError)
        << "response prefix of " << len << " bytes accepted";
  }
}

TEST(MultiLoadWire, TrailingBytesAreRejected) {
  Rng rng(11);
  Bytes request_wire =
      dls::serve::encode_multi_schedule_request(random_request(rng));
  request_wire.push_back(0x00);
  EXPECT_THROW(dls::serve::decode_multi_schedule_request(request_wire),
               DecodeError);
  Bytes response_wire =
      dls::serve::encode_multi_schedule_response(random_response(rng));
  response_wire.push_back(0xFF);
  EXPECT_THROW(dls::serve::decode_multi_schedule_response(response_wire),
               DecodeError);
}

TEST(MultiLoadWire, WrongMagicIsRejected) {
  Rng rng(13);
  const Bytes request_wire =
      dls::serve::encode_multi_schedule_request(random_request(rng));
  const Bytes response_wire =
      dls::serve::encode_multi_schedule_response(random_response(rng));
  // A request is not a response and vice versa.
  EXPECT_THROW(dls::serve::decode_multi_schedule_response(request_wire),
               DecodeError);
  EXPECT_THROW(dls::serve::decode_multi_schedule_request(response_wire),
               DecodeError);
}

TEST(MultiLoadWire, MalformedFieldValuesAreRejected) {
  Rng rng(17);
  const MultiScheduleRequest good = random_request(rng);

  MultiScheduleRequest bad_policy = good;
  bad_policy.policy = 2;
  EXPECT_THROW(dls::serve::decode_multi_schedule_request(
                   dls::serve::encode_multi_schedule_request(bad_policy)),
               DecodeError);

  MultiScheduleRequest zero_installments = good;
  zero_installments.installments = 0;
  EXPECT_THROW(
      dls::serve::decode_multi_schedule_request(
          dls::serve::encode_multi_schedule_request(zero_installments)),
      DecodeError);

  MultiScheduleRequest empty_chain = good;
  empty_chain.w.clear();
  empty_chain.z.clear();
  EXPECT_THROW(dls::serve::decode_multi_schedule_request(
                   dls::serve::encode_multi_schedule_request(empty_chain)),
               DecodeError);

  MultiScheduleRequest link_mismatch = good;
  link_mismatch.z.push_back(0.1);
  EXPECT_THROW(dls::serve::decode_multi_schedule_request(
                   dls::serve::encode_multi_schedule_request(link_mismatch)),
               DecodeError);

  MultiScheduleRequest no_loads = good;
  no_loads.loads.clear();
  EXPECT_THROW(dls::serve::decode_multi_schedule_request(
                   dls::serve::encode_multi_schedule_request(no_loads)),
               DecodeError);

  // An out-of-range status byte: locate it by diffing two encodings
  // that differ only in status, then push it past kDegraded.
  MultiScheduleResponse probe = random_response(rng);
  probe.status = ScheduleStatus::kOk;
  probe.error.clear();
  Bytes ok_wire = dls::serve::encode_multi_schedule_response(probe);
  probe.status = ScheduleStatus::kShed;
  const Bytes shed_wire = dls::serve::encode_multi_schedule_response(probe);
  ASSERT_EQ(ok_wire.size(), shed_wire.size());
  std::size_t status_index = ok_wire.size();
  for (std::size_t i = 0; i < ok_wire.size(); ++i) {
    if (ok_wire[i] != shed_wire[i]) {
      status_index = i;
      break;
    }
  }
  ASSERT_LT(status_index, ok_wire.size());
  ok_wire[status_index] = 200;  // far past kDegraded
  EXPECT_THROW(dls::serve::decode_multi_schedule_response(ok_wire),
               DecodeError);
}

TEST(MultiLoadWire, FramedChecksumBitFlipsAreTyped) {
  Rng rng(19);
  const Frame frame{
      FrameType::kMultiScheduleRequest,
      dls::serve::encode_multi_schedule_request(random_request(rng))};
  const Bytes wire = dls::serve::encode_frame(frame);
  // Flip one bit of every payload byte: decode_frame must surface each
  // as FrameChecksumError (payload corruption), never accept silently.
  for (std::size_t pos = kFrameHeaderSize; pos < wire.size(); ++pos) {
    Bytes corrupt = wire;
    corrupt[pos] = static_cast<std::uint8_t>(corrupt[pos] ^ 0x10);
    EXPECT_THROW(dls::serve::decode_frame(corrupt), FrameChecksumError)
        << "payload flip at byte " << pos << " not caught";
  }
}

TEST(MultiLoadWire, FramedTruncationAndTrailingBytesAreRejected) {
  Rng rng(23);
  const Frame frame{
      FrameType::kMultiScheduleResponse,
      dls::serve::encode_multi_schedule_response(random_response(rng))};
  Bytes wire = dls::serve::encode_frame(frame);
  for (std::size_t len = kFrameHeaderSize; len < wire.size(); ++len) {
    EXPECT_THROW(
        dls::serve::decode_frame(std::span(wire.data(), len)),
        FrameTruncationError)
        << "framed prefix of " << len << " bytes accepted";
  }
  wire.push_back(0x42);
  EXPECT_THROW(dls::serve::decode_frame(wire), DecodeError);
}

TEST(MultiLoadWire, OversizedCountsAreRejectedBeforeAllocation) {
  // Hand-build a request whose load count claims 2^40 entries: the
  // decoder must refuse at the cap check, not try to allocate.
  dls::codec::Writer w;
  w.string("dls.serve.mreq.v1");
  w.u64(1);            // request_id
  w.u8(0);             // policy
  w.u32(1);            // installments
  w.f64(0.0);          // ingress_z
  w.f64(0.0);          // deadline_us
  w.u8(0);             // want_payments
  w.varint(1);         // |w|
  w.f64(1.0);
  w.varint(0);         // |z|
  w.varint(std::uint64_t{1} << 40);  // absurd load count
  EXPECT_THROW(dls::serve::decode_multi_schedule_request(w.take()),
               DecodeError);
}

TEST(MultiLoadWire, OversizedInstallmentCountIsRejected) {
  // encode does not validate, so a hostile peer's u32 goes straight to
  // the decoder — which must cap it like the load/vector counts instead
  // of letting the solver materialise loads x 2^32 installment objects.
  Rng rng(29);
  MultiScheduleRequest hostile = random_request(rng);
  hostile.installments = 0xFFFFFFFFu;
  EXPECT_THROW(dls::serve::decode_multi_schedule_request(
                   dls::serve::encode_multi_schedule_request(hostile)),
               DecodeError);
}

TEST(MultiLoadWire, TotalInstallmentBudgetIsEnforcedBeforeAllocation) {
  // Load count and installment count each individually at their caps
  // (2^16 and 2^12), but the product would demand 2^28 installment
  // objects: the budget check refuses before reading a single load.
  dls::codec::Writer w;
  w.string("dls.serve.mreq.v1");
  w.u64(1);              // request_id
  w.u8(0);               // policy
  w.u32(1u << 12);       // installments: exactly at the per-load cap
  w.f64(0.0);            // ingress_z
  w.f64(0.0);            // deadline_us
  w.u8(0);               // want_payments
  w.varint(1);           // |w|
  w.f64(1.0);
  w.varint(0);           // |z|
  w.varint(std::uint64_t{1} << 16);  // load count: exactly at its cap
  EXPECT_THROW(dls::serve::decode_multi_schedule_request(w.take()),
               DecodeError);
}

TEST(MultiLoadWire, BothRequestDecodersShareOneVectorCap) {
  // Each request kind's header up to its |w| count, which claims `count`
  // processors; no value follows, so only the cap check can tell a count
  // over the cap from one at it.
  const auto single = [](std::uint64_t count) {
    dls::codec::Writer w;
    w.string("dls.serve.req.v1");
    w.u64(1);    // request_id
    w.u64(1);    // round
    w.f64(0.0);  // deadline_us
    w.u8(0);     // want_payments
    w.varint(count);
    return w.take();
  };
  const auto multi = [](std::uint64_t count) {
    dls::codec::Writer w;
    w.string("dls.serve.mreq.v1");
    w.u64(1);    // request_id
    w.u8(0);     // policy
    w.u32(1);    // installments
    w.f64(0.0);  // ingress_z
    w.f64(0.0);  // deadline_us
    w.u8(0);     // want_payments
    w.varint(count);
    return w.take();
  };
  const auto error_of = [](auto decode, const Bytes& payload) {
    try {
      decode(payload);
    } catch (const DecodeError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const auto decode_single = [](const Bytes& payload) {
    return dls::serve::decode_schedule_request(payload);
  };
  const auto decode_multi = [](const Bytes& payload) {
    return dls::serve::decode_multi_schedule_request(payload);
  };
  const std::uint64_t cap = std::uint64_t{1} << 20;
  EXPECT_EQ(dls::serve::kMaxVectorLength, cap);
  for (const std::string& error :
       {error_of(decode_single, single(cap + 1)),
        error_of(decode_multi, multi(cap + 1))}) {
    EXPECT_NE(error.find("vector length 1048577 exceeds the wire cap"),
              std::string::npos)
        << error;
  }
  // At the cap itself the count passes and the missing values are what
  // the decoders refuse.
  for (const std::string& error : {error_of(decode_single, single(cap)),
                                   error_of(decode_multi, multi(cap))}) {
    EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  }
}

TEST(MultiLoadWire, NonFiniteFieldsAreRejected) {
  Rng rng(31);
  const MultiScheduleRequest good = random_request(rng);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto rejects = [](MultiScheduleRequest request) {
    EXPECT_THROW(dls::serve::decode_multi_schedule_request(
                     dls::serve::encode_multi_schedule_request(request)),
                 DecodeError);
  };
  {
    MultiScheduleRequest r = good;
    r.loads[0].size = inf;
    rejects(r);
  }
  {
    MultiScheduleRequest r = good;
    r.loads[0].size = nan;
    rejects(r);
  }
  {
    MultiScheduleRequest r = good;
    r.loads[0].release = nan;
    rejects(r);
  }
  {
    MultiScheduleRequest r = good;
    r.loads[0].deadline = inf;
    rejects(r);
  }
  {
    MultiScheduleRequest r = good;
    r.ingress_z = nan;
    rejects(r);
  }
  {
    MultiScheduleRequest r = good;
    r.ingress_z = -0.5;
    rejects(r);
  }
  {
    MultiScheduleRequest r = good;
    r.deadline_us = inf;
    rejects(r);
  }
}

TEST(MultiLoadWire, RandomGarbageNeverCrashes) {
  Rng rng(0xBADF00D);
  for (int iter = 0; iter < 500; ++iter) {
    const std::size_t len = static_cast<std::size_t>(rng.uniform_int(0, 256));
    Bytes garbage(len);
    for (auto& b : garbage) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    try {
      dls::serve::decode_multi_schedule_request(garbage);
    } catch (const DecodeError&) {
    }
    try {
      dls::serve::decode_multi_schedule_response(garbage);
    } catch (const DecodeError&) {
    }
  }
}

}  // namespace
