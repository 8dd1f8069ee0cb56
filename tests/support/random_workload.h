// Shared randomized-workload builder for the differential harnesses: the
// in-process one (tests/integration/differential_test.cpp) and the
// multi-process federation one (tests/federation/) replay the *same*
// seeded workloads, so a federation divergence is attributable to the wire
// path alone. Header-only: the test build compiles only *_test.cpp files.
//
// A workload is a Zipf-skewed, rate-perturbed station trace (via
// sim::make_skewed_trace) over a random wide-area mesh, plus a random mix
// of single-stream filters and two-stream windowed joins submitted through
// the CQL parser.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "cosmos/cosmos.h"
#include "cql/parser.h"
#include "net/topology.h"
#include "sim/workload.h"

namespace cosmos::middleware::testsupport {

/// One printable line per delivered tuple, in delivery order — the
/// byte-comparable per-query result sequence.
using ResultLog = std::map<QueryId, std::vector<std::string>>;

struct RandomWorkload {
  std::vector<NodeId> nodes;
  net::LatencyMatrix lat;
  std::vector<runtime::TraceEvent> events;
  std::size_t stations = 0;
  /// (CQL text, host, proxy) triples, submitted in order with sequential
  /// query ids.
  std::vector<std::tuple<std::string, NodeId, NodeId>> queries;
};

inline std::string window_clause(Rng& rng) {
  switch (rng.next_below(4)) {
    case 0:
      return "[Now]";
    case 1:
      return "[Range " + std::to_string(1 + rng.next_below(15)) + " Minutes]";
    case 2:
      return "[Range " + std::to_string(20 + rng.next_below(40)) +
             " Minutes]";
    default:
      return "[Range 1 Hours]";
  }
}

inline std::string station(std::size_t idx) {
  return sim::station_stream_name(idx);
}

/// A random single-stream or two-stream windowed query over the station
/// streams; always parses and validates.
inline std::string random_query_text(Rng& rng, std::size_t stations) {
  const std::size_t a = rng.next_below(stations);
  if (rng.next_below(3) == 0) {
    // Single-stream selection with a constant filter.
    const char* field = rng.next_below(2) == 0 ? "snowHeight" : "temperature";
    const char* op = rng.next_below(2) == 0 ? ">" : "<=";
    const double threshold = rng.next_below(2) == 0 ? 20.0 : -4.5;
    const std::string select =
        rng.next_below(2) == 0 ? "*" : "S1.snowHeight, S1.timestamp";
    return "SELECT " + select + " FROM " + station(a) + " " +
           window_clause(rng) + " S1 WHERE S1." + field + " " + op + " " +
           std::to_string(threshold);
  }
  // Two-stream windowed join with a field-field predicate and sometimes a
  // residual constant conjunct.
  std::size_t b = rng.next_below(stations);
  while (b == a) b = rng.next_below(stations);
  std::string text = "SELECT S1.snowHeight, S1.timestamp, S2.snowHeight, "
                     "S2.timestamp FROM " +
                     station(a) + " " + window_clause(rng) + " S1, " +
                     station(b) + " [Now] S2 WHERE S1.snowHeight " +
                     (rng.next_below(2) == 0 ? ">" : ">=") + " S2.snowHeight";
  if (rng.next_below(2) == 0) text += " AND S1.temperature < 2.5";
  return text;
}

inline RandomWorkload make_workload(std::uint64_t seed) {
  RandomWorkload w;
  Rng rng{seed * 7919 + 13};

  const std::size_t node_count = 8 + rng.next_below(5);  // 8..12 brokers
  const auto topo = net::make_wide_area_mesh(node_count, 3, rng);
  for (std::size_t i = 0; i < node_count; ++i) {
    w.nodes.push_back(NodeId{static_cast<NodeId::value_type>(i)});
  }
  w.lat = net::LatencyMatrix{topo, w.nodes};

  sim::SkewedTraceParams tp;
  tp.stations = 4 + rng.next_below(4);  // 4..7 streams
  tp.total_tuples = 220 + rng.next_below(120);
  tp.duration_ms = 2 * 3'600'000;
  tp.zipf_theta = 0.4 + 0.1 * static_cast<double>(rng.next_below(7));
  tp.perturb_pattern = (seed % 3 == 0) ? "" : (seed % 3 == 1 ? "I" : "ID");
  tp.perturb_stations = 1 + rng.next_below(2);
  w.stations = tp.stations;
  for (const auto& r : sim::make_skewed_trace(tp, rng)) {
    w.events.push_back({station(r.station), r.tuple});
  }

  const std::size_t query_count = 3 + rng.next_below(4);  // 3..6 queries
  for (std::size_t q = 0; q < query_count; ++q) {
    // Hosts and proxies drawn from the non-source nodes (2..n-1).
    const NodeId host{static_cast<NodeId::value_type>(
        2 + rng.next_below(node_count - 2))};
    const NodeId proxy{static_cast<NodeId::value_type>(
        2 + rng.next_below(node_count - 2))};
    w.queries.emplace_back(random_query_text(rng, w.stations), host, proxy);
  }
  return w;
}

/// make_workload(seed)'s mesh and trace under 6..10 queries hosted on two
/// nodes and reading two streams, so result sharing merges units (Section
/// 2.1) — the merge, teardown and p2 re-wiring that make_workload's
/// spread-out queries almost never reach.
inline RandomWorkload make_merging_workload(std::uint64_t seed) {
  RandomWorkload w = make_workload(seed);
  Rng rng{seed * 6133 + 29};
  const std::size_t node_count = w.nodes.size();
  const std::size_t query_count = 6 + rng.next_below(5);
  w.queries.clear();
  for (std::size_t q = 0; q < query_count; ++q) {
    const NodeId host{static_cast<NodeId::value_type>(2 + rng.next_below(2))};
    const NodeId proxy{static_cast<NodeId::value_type>(
        2 + rng.next_below(node_count - 2))};
    w.queries.emplace_back(random_query_text(rng, 2), host, proxy);
  }
  return w;
}

inline std::unique_ptr<Cosmos> build_system(const RandomWorkload& w,
                                            ResultLog& log) {
  auto sys = std::make_unique<Cosmos>(w.nodes, w.lat);
  // Station streams spread over the first two nodes (the sources).
  for (std::size_t st = 0; st < w.stations; ++st) {
    sys->register_source(station(st), sim::sensor_schema(),
                         w.nodes[st % 2]);
  }
  std::size_t qid = 0;
  for (const auto& [text, host, proxy] : w.queries) {
    const QueryId id{static_cast<QueryId::value_type>(qid++)};
    sys->submit(cql::parse_query(text, id, proxy), host,
                [&log](QueryId q, const stream::Tuple& t) {
                  std::string line = std::to_string(t.ts);
                  for (const auto& v : t.values) line += "|" + v.to_string();
                  log[q].push_back(std::move(line));
                });
  }
  return sys;
}

}  // namespace cosmos::middleware::testsupport
