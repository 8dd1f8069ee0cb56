// Workload inputs of the repository benchmark, generated from one seed:
// topology, sensor trace, query population and query placement. The system
// under test receives only these generated values.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/latency_matrix.h"
#include "query/query_spec.h"
#include "runtime/driver.h"

namespace perfbench {

enum class Workload { kJoinPush, kJoinSharded, kJoinFederated, kSelectFanout };

/// Parses a workload name ("join-push", ...); returns false when unknown.
bool parse_workload(const std::string& name, Workload& out);
const char* workload_name(Workload w);

/// Input sizes shared by every workload (BENCHMARK.json records them).
inline constexpr std::size_t kNodes = 30;
inline constexpr std::size_t kSites = 6;
inline constexpr std::size_t kSources = 5;  ///< nodes 0..4; the rest process
inline constexpr std::size_t kStations = 20;
inline constexpr std::size_t kReadings = 720;   ///< per station, one a minute
inline constexpr std::size_t kJoinQueries = 150;
inline constexpr std::size_t kSelectQueries = 2000;
/// Seed of the (fixed) wide-area mesh every workload runs on.
inline constexpr std::uint64_t kTopologySeed = 42;

struct Inputs {
  std::vector<cosmos::NodeId> nodes;
  std::vector<cosmos::NodeId> sources;     ///< station i publishes at i % 5
  std::vector<cosmos::NodeId> processors;
  cosmos::net::LatencyMatrix lat;
  std::vector<cosmos::runtime::TraceEvent> events;
  std::vector<cosmos::query::QuerySpec> specs;  ///< spec.id == index
  std::vector<cosmos::NodeId> host;             ///< placement of specs[i]
};

Inputs make_inputs(Workload w, std::uint64_t seed);

}  // namespace perfbench
