#include "agents/agent.hpp"

#include "common/error.hpp"

namespace dls::agents {

Population::Population(std::vector<StrategicAgent> agents)
    : agents_(std::move(agents)) {
  DLS_REQUIRE(!agents_.empty(), "population must not be empty");
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    DLS_REQUIRE(agents_[i].index == i + 1,
                "agents must be indexed 1..m contiguously");
    DLS_REQUIRE(agents_[i].true_rate > 0.0, "true rates must be positive");
  }
}

const StrategicAgent& Population::agent(AgentIndex index) const {
  DLS_REQUIRE(index >= 1 && index <= agents_.size(),
              "agent index out of range");
  return agents_[index - 1];
}

StrategicAgent& Population::agent(AgentIndex index) {
  DLS_REQUIRE(index >= 1 && index <= agents_.size(),
              "agent index out of range");
  return agents_[index - 1];
}

}  // namespace dls::agents
