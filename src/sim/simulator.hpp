// Discrete-event simulation engine.
//
// A deliberately small core: a time-ordered queue of closures with a
// deterministic tiebreak (insertion sequence), which is all the network
// execution models need. Determinism matters — two events at the same
// instant always fire in schedule order, so simulated traces are
// reproducible bit-for-bit.
//
// Events are cancellable: schedule_at / schedule_after return an EventId
// that cancel() can later revoke. Cancellation is lazy (the entry stays
// queued but is skipped when popped), so it is O(1) and does not perturb
// the firing order of the surviving events. The fault-injection layer
// (faults.hpp) relies on this to revoke the pending sends and compute
// completions of a processor that crashes mid-round, and the protocol's
// heartbeat monitor uses it to retire timeout timers when the awaited
// message arrives.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "common/error.hpp"

namespace dls::sim {

using Time = double;

/// Token identifying a scheduled event; valid until the event fires, is
/// cancelled, or is dropped.
using EventId = std::uint64_t;

class Simulator {
 public:
  using Action = std::function<void(Simulator&)>;

  /// Current simulation time.
  Time now() const noexcept { return now_; }

  /// Schedules `action` at absolute time `at` (>= now()). The returned
  /// token may be passed to cancel() any time before the event fires.
  EventId schedule_at(Time at, Action action);

  /// Schedules `action` `delay` (>= 0) after now().
  EventId schedule_after(Time delay, Action action);

  /// Revokes a pending event. Returns true if the event was still
  /// pending (and is now guaranteed never to fire); false if it already
  /// fired, was cancelled before, or the token is unknown.
  bool cancel(EventId id);

  /// Runs until the queue drains. Returns the time of the last event.
  Time run();

  /// Runs until the queue drains or `horizon` is reached. CAUTION:
  /// events scheduled beyond the horizon are NOT discarded — they stay
  /// queued and will fire on the next run()/run_until() call.
  Time run_until(Time horizon);

  /// Number of live (not cancelled) events still queued.
  std::size_t pending() const noexcept { return pending_ids_.size(); }
  std::uint64_t executed() const noexcept { return executed_; }
  std::uint64_t cancelled() const noexcept { return cancelled_total_; }

 private:
  struct Entry {
    Time time;
    EventId seq;
    Action action;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::unordered_set<EventId> pending_ids_;  ///< queued and not cancelled
  std::unordered_set<EventId> cancelled_;    ///< lazily-deleted entries
  Time now_ = 0.0;
  EventId next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_total_ = 0;
};

}  // namespace dls::sim
