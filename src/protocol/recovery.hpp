// Fault-tolerant execution of the DLS-LBL round: crash detection by
// heartbeat/probe timeouts, survivor re-solve, and E_j settlement.
#pragma once
//
// The paper polices *strategic* deviation; this layer extends the same
// machinery to *fail-stop* faults. The key observation is that a crash
// looks like load shedding from the accounting's point of view
// (α̃_j < α_j), so the dumped-load recompense E_j (eq. 4.8) and the
// incident pipeline generalise cleanly:
//
//   crash-vs-shedding disambiguation rule
//   -------------------------------------
//   An under-computing processor is judged a SHEDDER (fined, Thm 5.1)
//   when it is still answering probes AND its successor holds Λ tokens
//   in excess of the published D — the signed evidence that load was
//   dumped downstream. It is judged CRASHED (no fine; E_j-style
//   recompense for verifiably completed work) when its heartbeats
//   stopped, probe retries exhausted the budget, and no successor holds
//   excess tokens. A node that both dumped load and then died is a
//   shedder — the token evidence outlives the crash.
//
// Detection: every worker streams heartbeats (period H) which double as
// signed progress claims; the root arms a deadline timer per worker and,
// on a miss, probes with bounded exponential backoff until either a
// reply arrives (timer re-armed) or the retry budget is exhausted (crash
// confirmed). Detection latency is the confirmed time minus the true
// crash instant.
//
// Recovery: the root re-runs Algorithm 1 (the equivalent-processor
// reduction) over the longest still-reachable prefix of the chain and
// redistributes the residual load — everything nobody verifiably
// computed — across it, starting at the confirmation instant. Survivors
// that absorb extra load end the round with α̃_j > α_j and are paid the
// recompense E_j = (α̃_j − α_j)·w̃_j through the ordinary Phase IV
// arithmetic; the crashed node is paid its verified partial work at its
// metered rate and nothing else.

#include <cstdint>
#include <optional>
#include <vector>

#include "agents/agent.hpp"
#include "common/backoff.hpp"
#include "net/networks.hpp"
#include "protocol/runner.hpp"
#include "sim/faults.hpp"

namespace dls::protocol {

/// What the root concluded about one worker's liveness.
struct DetectionReport {
  bool confirmed_dead = false;  ///< retry budget exhausted
  sim::Time crash_time = 0.0;   ///< ground truth (0 when alive)
  sim::Time confirmed_at = 0.0; ///< when the budget ran out
  std::size_t probes_sent = 0;
  std::size_t timeouts = 0;     ///< deadline expiries
  double latency() const noexcept { return confirmed_at - crash_time; }
};

/// Deterministically simulates the heartbeat/probe exchange with one
/// worker. `crash_time` is the ground-truth death instant (nullopt =
/// alive); monitoring stops at `horizon` for live workers.
DetectionReport monitor_processor(const common::HeartbeatConfig& config,
                                  std::optional<sim::Time> crash_time,
                                  sim::Time horizon);

/// The disambiguation verdict for an under-computing processor.
enum class UnderComputeVerdict : std::uint8_t {
  kCompliant,  ///< not under-computing (or merely slow — metered, not fined)
  kCrash,      ///< fail-stop: recompense for verified work, no fine
  kShedding,   ///< strategic: fined per Thm 5.1
};

/// Applies the crash-vs-shedding rule documented above.
UnderComputeVerdict classify_under_computation(double assigned,
                                               double computed,
                                               bool heartbeats_stopped,
                                               bool successor_excess_tokens,
                                               double tolerance);

struct FaultToleranceOptions {
  sim::FaultPlan faults;  ///< the chaos script for Phase III
  common::HeartbeatConfig heartbeat;
};

/// Final settlement for one crashed processor.
struct CrashSettlement {
  std::size_t processor = 0;
  double assigned = 0.0;           ///< α_k from the bid solution
  double verified_computed = 0.0;  ///< partial work backed by signed claims
  double settlement_paid = 0.0;    ///< E_k-style payout (verified · w̃_k)
  double fine = 0.0;               ///< stays 0 for a genuine crash
  DetectionReport detection;
};

struct FtRunReport {
  RunReport round;  ///< the usual forensic report (ledger, incidents, ...)

  bool any_crash = false;
  bool recovered = false;  ///< survivors absorbed the full residual
  std::vector<CrashSettlement> crashes;
  std::vector<DetectionReport> detection;     ///< per processor (index 0 unused)
  std::vector<UnderComputeVerdict> verdicts;  ///< per processor

  std::vector<std::size_t> survivors;   ///< indices that stayed alive
  double residual_load = 0.0;           ///< redistributed in the recovery pass
  dlt::LinearSolution recovery_solution;  ///< Algorithm 1 on the prefix
  std::optional<sim::ExecutionResult> recovery_execution;  ///< unit-load run
  sim::Time recovery_start = 0.0;       ///< max confirmation instant
  double degraded_makespan = 0.0;       ///< incl. detection + recovery pass
  double detection_latency = 0.0;       ///< max over confirmed crashes
  std::vector<sim::FaultEvent> fault_events;
};

/// Runs one fault-tolerant round. With an empty fault plan this is
/// exactly run_protocol. Crash specs on processor 0 are rejected — the
/// root is the trusted dispatcher, as in the paper.
FtRunReport run_protocol_ft(const net::LinearNetwork& true_network,
                            const agents::Population& population,
                            const ProtocolOptions& options,
                            const FaultToleranceOptions& ft);

}  // namespace dls::protocol
