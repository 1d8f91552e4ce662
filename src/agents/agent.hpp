// Strategic processors: identity + private type + behaviour.
#pragma once

#include <cstdint>
#include <vector>

#include "agents/behavior.hpp"
#include "common/rng.hpp"

namespace dls::agents {

using AgentIndex = std::size_t;

/// One strategic processor P_i (i >= 1; P_0 is the obedient root and has
/// no Behavior).
struct StrategicAgent {
  AgentIndex index = 0;  ///< position in the chain
  double true_rate = 1.0;  ///< t_i, privately known unit processing time
  Behavior behavior = Behavior::truthful();

  double bid() const noexcept { return behavior.bid(true_rate); }
  double actual_rate() const noexcept {
    return behavior.actual_rate(true_rate);
  }
};

/// A population of m strategic agents for a chain of m+1 processors.
class Population {
 public:
  /// Agents must be indexed 1..m contiguously.
  explicit Population(std::vector<StrategicAgent> agents);

  std::size_t size() const noexcept { return agents_.size(); }
  const StrategicAgent& agent(AgentIndex index) const;
  StrategicAgent& agent(AgentIndex index);
  const std::vector<StrategicAgent>& all() const noexcept { return agents_; }

 private:
  std::vector<StrategicAgent> agents_;
};

}  // namespace dls::agents
