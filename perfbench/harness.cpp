#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>

namespace perfbench {
namespace {

struct alignas(64) PaddedSlot {
  AllocSlot count{0};
};

// Threads are never handed the same slot until 4096 have allocated, far
// more than any workload starts.
constexpr std::size_t kSlots = 4096;
PaddedSlot g_slots[kSlots];
std::atomic<std::size_t> g_next_slot{0};
thread_local AllocSlot* t_slot = nullptr;

AllocSlot& slot() noexcept {
  if (t_slot == nullptr) {
    t_slot = &g_slots[g_next_slot.fetch_add(1, std::memory_order_relaxed) %
                      kSlots]
                  .count;
  }
  return *t_slot;
}

void count_allocation() noexcept {
  slot().fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

const AllocSlot& this_thread_alloc_slot() noexcept { return slot(); }

std::uint64_t thread_allocs() noexcept {
  return slot().load(std::memory_order_relaxed);
}

std::uint64_t process_allocs() noexcept {
  const std::size_t used =
      std::min(g_next_slot.load(std::memory_order_relaxed), kSlots);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < used; ++i) {
    total += g_slots[i].count.load(std::memory_order_relaxed);
  }
  return total;
}

double process_cpu_s() noexcept { return clock_cpu_s(CLOCK_PROCESS_CPUTIME_ID); }

double clock_cpu_s(clockid_t clock) noexcept {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

clockid_t thread_cpu_clock(pthread_t thread) {
  clockid_t clock{};
  if (pthread_getcpuclockid(thread, &clock) != 0) return CLOCK_THREAD_CPUTIME_ID;
  return clock;
}

double peak_rss_mb() noexcept {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double proc_threads() noexcept {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atof(line.c_str() + 8);
  }
  return 0.0;
}

void sleep_until_s(double deadline) noexcept {
  for (;;) {
    const double left = deadline - now_s();
    if (left <= 0.0) return;
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(left);
    ts.tv_nsec = static_cast<long>((left - static_cast<double>(ts.tv_sec)) * 1e9);
    nanosleep(&ts, nullptr);
  }
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  std::size_t k = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  k = std::min(k, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

}  // namespace perfbench

// The benchmark's global operator new: counts, then defers to malloc.
void* operator new(std::size_t size) {
  perfbench::count_allocation();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  perfbench::count_allocation();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// GCC pairs these frees with its builtin operator new and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop
