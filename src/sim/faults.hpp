// Deterministic fault injection for the execution models.
//
// A FaultPlan scripts processor crashes against one Phase III run: a
// node dies once it has completed a given fraction of its own compute
// work. Everything is deterministic: FaultPlan::random_crashes draws
// from the caller's common::Rng, so a (network, plan) pair replays
// bit-identically. The faulty executor leans on the simulator's
// cancellable event handles — a crash revokes the node's pending compute
// completion and in-flight outbound transfer, exactly like a real
// process dying mid-send.
//
// The faulty executor returns a superset of the fail-free results so the
// protocol layer can settle the round: who died when, how much verified
// work they finished, and how much load was lost in flight (the amount
// the recovery pass must redistribute).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/linear_execution.hpp"

namespace dls::sim {

/// A crash of one processor once it has computed `at_work_fraction` in
/// [0, 1) of its own load. A crash on a node that never receives load
/// never fires.
struct CrashSpec {
  std::size_t processor = 0;
  double at_work_fraction = -1.0;
};

/// One fault that actually fired, for the forensic log.
struct FaultEvent {
  enum class Kind : std::uint8_t {
    kCrash,        ///< a processor died
    kMessageLost,  ///< a dead sender's transfer was cut off
  };
  Kind kind{};
  Time time = 0.0;
  std::size_t subject = 0;  ///< processor (crash) or link index (loss)
  double amount = 0.0;      ///< load units involved (0 when n/a)
};

/// The full chaos script for one execution.
class FaultPlan {
 public:
  FaultPlan& crash_at_work(std::size_t processor, double fraction);

  bool empty() const noexcept { return crashes_.empty(); }
  const std::vector<CrashSpec>& crashes() const noexcept { return crashes_; }
  std::optional<CrashSpec> crash_of(std::size_t processor) const;

  /// Chaos generator: each non-root processor of an (m+1)-chain crashes
  /// independently with `crash_probability`, at a work fraction drawn
  /// uniformly from [0.05, 0.95]. Deterministic given `rng`.
  static FaultPlan random_crashes(std::size_t processors,
                                  double crash_probability,
                                  common::Rng& rng);

 private:
  std::vector<CrashSpec> crashes_;
};

/// Fail-free results plus the fault forensics.
struct FaultyExecutionResult {
  ExecutionResult base;  ///< received/computed/finish_time/makespan/trace

  std::vector<bool> crashed;      ///< per processor
  std::vector<Time> crash_time;   ///< 0.0 when the processor survived
  std::vector<double> unfinished; ///< load retained but never computed
  double undelivered = 0.0;       ///< load cut off in transit
  std::vector<FaultEvent> events; ///< time-ordered fault log

  bool any_crash() const noexcept;
  double total_computed() const noexcept;
  /// Load units nobody computed: 1 - total_computed for a unit load.
  double lost_load() const noexcept { return 1.0 - total_computed(); }
};

/// execute_linear under a fault plan. With an empty plan the `base`
/// member reproduces execute_linear bit-for-bit.
FaultyExecutionResult execute_linear_faulty(const net::LinearNetwork& network,
                                            const ExecutionPlan& plan,
                                            const FaultPlan& faults);

}  // namespace dls::sim
