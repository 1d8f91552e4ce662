#include "sim/simulator.hpp"

#include <cmath>
#include <limits>
#include <utility>

namespace dls::sim {

EventId Simulator::schedule_at(Time at, Action action) {
  DLS_REQUIRE(std::isfinite(at), "event time must be finite");
  DLS_REQUIRE(at >= now_, "cannot schedule into the past");
  const EventId id = next_seq_++;
  queue_.push(Entry{at, id, std::move(action)});
  pending_ids_.insert(id);
  return id;
}

EventId Simulator::schedule_after(Time delay, Action action) {
  DLS_REQUIRE(delay >= 0.0, "delay must be non-negative");
  return schedule_at(now_ + delay, std::move(action));
}

bool Simulator::cancel(EventId id) {
  // An id is cancellable iff it is queued and not yet revoked; removal
  // from the priority queue is lazy (the pop side skips it).
  if (pending_ids_.erase(id) == 0) return false;
  cancelled_.insert(id);
  ++cancelled_total_;
  return true;
}

Time Simulator::run() {
  return run_until(std::numeric_limits<Time>::infinity());
}

Time Simulator::run_until(Time horizon) {
  while (!queue_.empty() && queue_.top().time <= horizon) {
    // priority_queue::top() is const; move out via const_cast on the
    // entry we are about to pop (safe: no other reference exists).
    Entry entry = std::move(const_cast<Entry&>(queue_.top()));
    queue_.pop();
    if (cancelled_.erase(entry.seq) != 0) continue;  // revoked: skip
    pending_ids_.erase(entry.seq);
    now_ = entry.time;
    ++executed_;
    entry.action(*this);
  }
  return now_;
}

}  // namespace dls::sim
