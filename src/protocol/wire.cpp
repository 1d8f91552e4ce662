#include "protocol/wire.hpp"

namespace dls::protocol {

namespace {

constexpr std::string_view kAllocMagic = "dls.wire.alloc.v1";

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

}  // namespace dls::protocol
