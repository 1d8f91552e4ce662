// Allocation count of the served path's cheapest answer: a warm,
// payment-free cache hit answered in place on its session's reader.
// This binary replaces the global operator new with a counting one. The
// test thread's own allocations (writing requests, reading answers) are
// the client's and are not counted, so the count is the service's alone.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>

#include "serve/frame.hpp"
#include "serve/service.hpp"
#include "serve/service_wire.hpp"

namespace {

std::atomic<std::uint64_t> g_service_allocations{0};
/// Set on the test thread: what it allocates is the client's.
thread_local bool t_client_thread = false;

void* counted_malloc(std::size_t size) {
  if (!t_client_thread) {
    g_service_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

std::uint64_t service_allocations() {
  return g_service_allocations.load(std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t size) { return counted_malloc(size); }
void* operator new[](std::size_t size) { return counted_malloc(size); }
// GCC pairs these frees with its builtin operator new and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using dls::serve::Frame;
using dls::serve::FrameType;
using dls::serve::ScheduleResponse;
using dls::serve::ScheduleStatus;

TEST(ServeAllocTest, WarmInPlaceHitAllocatesSevenTimes) {
  t_client_thread = true;
  dls::serve::SchedulerService service(dls::serve::ServiceConfig{});
  dls::serve::PipeEnd end = service.connect();
  dls::serve::ScheduleRequest request;
  request.request_id = 1;
  request.w = {1.0, 1.2, 0.9, 1.1};
  request.z = {0.15, 0.1, 0.2};
  Frame frame;
  frame.type = FrameType::kScheduleRequest;
  frame.payload = encode_schedule_request(request);
  const dls::codec::Bytes wire = dls::serve::encode_frame(frame);
  const auto round_trip = [&]() -> ScheduleResponse {
    end.write(wire);
    const std::optional<Frame> answer = dls::serve::read_frame(end);
    if (!answer) {
      ADD_FAILURE() << "connection closed without a response";
      return {};
    }
    return dls::serve::decode_schedule_response(answer->payload);
  };

  // The first request misses and is solved by the dispatcher. The hits
  // after it register the metrics they touch on first use and grow both
  // pipes' buffers to their steady-state capacity.
  EXPECT_FALSE(round_trip().cache_hit);
  for (int i = 0; i < 200; ++i) round_trip();

  // What remains per hit: the request frame's payload, the decoded w
  // and z, the canonical key, the response's copy of alpha, the
  // response payload and the response frame.
  const std::uint64_t inline_before = service.stats().inline_hits;
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t before = service_allocations();
    const ScheduleResponse response = round_trip();
    const std::uint64_t after = service_allocations();
    EXPECT_EQ(response.status, ScheduleStatus::kOk);
    EXPECT_TRUE(response.cache_hit);
    EXPECT_EQ(after - before, 7u) << "hit " << i;
  }
  EXPECT_EQ(service.stats().inline_hits - inline_before, 8u);
  end.close();
}

}  // namespace
