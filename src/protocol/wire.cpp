#include "protocol/wire.hpp"

namespace dls::protocol {

namespace {

constexpr std::string_view kClaimMagic = "dls.wire.claim.v1";
constexpr std::string_view kBidMagic = "dls.wire.bid.v1";
constexpr std::string_view kAllocMagic = "dls.wire.alloc.v1";
constexpr std::string_view kReportMagic = "dls.wire.report.v1";
constexpr std::string_view kPaymentMagic = "dls.wire.payment.v1";

void put_signed_claim(codec::Writer& w, const crypto::SignedClaim& sc) {
  // The claim body travels as its canonical (signed) encoding so the
  // receiver verifies exactly the bytes that were signed.
  w.bytes(crypto::encode(sc.claim));
  w.u32(sc.signer);
  w.raw(std::span<const std::uint8_t>(sc.sig.tag.data(), sc.sig.tag.size()));
}

crypto::SignedClaim take_signed_claim(codec::Reader& r) {
  crypto::SignedClaim sc;
  const codec::Bytes body = r.bytes();
  sc.claim = crypto::decode_claim(body);
  sc.signer = r.u32();
  for (auto& byte : sc.sig.tag) byte = r.u8();
  return sc;
}

}  // namespace

codec::Bytes encode_signed_claim(const crypto::SignedClaim& sc) {
  codec::Writer w;
  w.string(kClaimMagic);
  put_signed_claim(w, sc);
  return w.take();
}

crypto::SignedClaim decode_signed_claim(std::span<const std::uint8_t> data) {
  codec::Reader r(data);
  r.expect_magic(kClaimMagic);
  crypto::SignedClaim sc = take_signed_claim(r);
  r.expect_done();
  return sc;
}

codec::Bytes encode_bid_message(const BidMessage& message) {
  codec::Writer w;
  w.string(kBidMagic);
  put_signed_claim(w, message.equivalent_bid);
  return w.take();
}

BidMessage decode_bid_message(std::span<const std::uint8_t> data) {
  codec::Reader r(data);
  r.expect_magic(kBidMagic);
  BidMessage message{take_signed_claim(r)};
  r.expect_done();
  return message;
}

codec::Bytes encode_allocation_message(const AllocationMessage& message) {
  codec::Writer w;
  w.string(kAllocMagic);
  put_signed_claim(w, message.received_pred);
  put_signed_claim(w, message.received_self);
  put_signed_claim(w, message.equiv_bid_pred);
  put_signed_claim(w, message.rate_bid_pred);
  put_signed_claim(w, message.equiv_bid_self);
  return w.take();
}

AllocationMessage decode_allocation_message(
    std::span<const std::uint8_t> data) {
  codec::Reader r(data);
  r.expect_magic(kAllocMagic);
  AllocationMessage message;
  message.received_pred = take_signed_claim(r);
  message.received_self = take_signed_claim(r);
  message.equiv_bid_pred = take_signed_claim(r);
  message.rate_bid_pred = take_signed_claim(r);
  message.equiv_bid_self = take_signed_claim(r);
  r.expect_done();
  return message;
}

codec::Bytes encode_report_message(const ReportMessage& message) {
  codec::Writer w;
  w.string(kReportMagic);
  put_signed_claim(w, message.metered_rate);
  put_signed_claim(w, message.token_count);
  return w.take();
}

ReportMessage decode_report_message(std::span<const std::uint8_t> data) {
  codec::Reader r(data);
  r.expect_magic(kReportMagic);
  ReportMessage message;
  message.metered_rate = take_signed_claim(r);
  message.token_count = take_signed_claim(r);
  r.expect_done();
  return message;
}

codec::Bytes encode_payment_message(const PaymentMessage& message) {
  codec::Writer w;
  w.string(kPaymentMagic);
  w.u32(message.processor);
  w.u64(message.round);
  w.f64(message.compensation);
  w.f64(message.bonus);
  w.f64(message.solution_bonus);
  w.f64(message.payment);
  put_signed_claim(w, message.metered_rate);
  return w.take();
}

PaymentMessage decode_payment_message(std::span<const std::uint8_t> data) {
  codec::Reader r(data);
  r.expect_magic(kPaymentMagic);
  PaymentMessage message;
  message.processor = r.u32();
  message.round = r.u64();
  message.compensation = r.f64();
  message.bonus = r.f64();
  message.solution_bonus = r.f64();
  message.payment = r.f64();
  message.metered_rate = take_signed_claim(r);
  r.expect_done();
  return message;
}

}  // namespace dls::protocol
