// The chunk pipeline core (cosmos/pipeline.h) under a scripted fleet: the
// route stage's per-engine slices, the in-flight match window, chunk-order
// execution, p2 delivery of the results a fleet hands back, and how a
// fleet's match failure ends the run.
#include "cosmos/pipeline.h"

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cql/parser.h"
#include "net/topology.h"
#include "sim/sensor_trace.h"

namespace cosmos::middleware {
namespace {

/// Nodes 0-4. Station1 and Station2 are published at node 0; the engine at
/// node 2 reads both (a join), the engine at node 3 reads Station1 only,
/// and node 4 hosts no engine.
struct Fixture {
  net::Topology topo{5};
  std::vector<NodeId> all{NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3},
                          NodeId{4}};
  net::LatencyMatrix lat;
  std::unique_ptr<Cosmos> sys;
  std::vector<stream::Tuple> delivered;  ///< node 3's query, in order

  Fixture() {
    for (std::uint32_t n = 1; n < 5; ++n) {
      topo.add_edge(NodeId{0}, NodeId{n}, 10.0 * n);
    }
    lat = net::LatencyMatrix{topo, all};
    sys = std::make_unique<Cosmos>(all, lat);
    sys->register_source("Station1", sim::sensor_schema(), NodeId{0});
    sys->register_source("Station2", sim::sensor_schema(), NodeId{0});
    sys->submit(cql::parse_query(
                    "SELECT * FROM Station1 [Range 1 Hour] S1, Station2 "
                    "[Now] S2 WHERE S1.snowHeight > S2.snowHeight",
                    QueryId{0}, NodeId{1}),
                NodeId{2}, [](QueryId, const stream::Tuple&) {});
    sys->submit(cql::parse_query("SELECT * FROM Station1 [Now] S1",
                                 QueryId{1}, NodeId{1}),
                NodeId{3}, [this](QueryId, const stream::Tuple& t) {
                  delivered.push_back(t);
                });
  }

  /// The result stream of the unit hosted at node 3.
  [[nodiscard]] std::string result_stream_at_3() const {
    for (auto* part : sys->broker().partitions()) {
      if (part->stream().rfind("cosmos.result.", 0) == 0 &&
          sys->engine(NodeId{3})->has_stream(part->stream())) {
        return part->stream();
      }
    }
    return {};
  }
};

stream::Tuple reading(stream::Timestamp ts) {
  return stream::Tuple{ts, {1.0, -2.0, std::int64_t{0}, ts}};
}

/// Records every call the core makes; matches come from `script`.
class ScriptedFleet : public Pipeline::Fleet {
 public:
  using Script = std::function<void(std::size_t chunk, std::uint32_t run,
                                    std::vector<pubsub::BatchDelivery>&)>;

  std::size_t owner_of(const pubsub::BrokerPartition& part) const override {
    return part.publisher().value();
  }
  void match(const Pipeline::Chunk& chunk) override {
    groups.push_back(chunk.groups.size());
    log.push_back("m" + std::to_string(shipped));
    inflight.push_back(shipped++);
  }
  void await_match(const Pipeline::Chunk& chunk,
                   Pipeline::Matches& matches) override {
    current = inflight.front();
    inflight.pop_front();
    log.push_back("a" + std::to_string(current));
    if (current == fail_at) throw std::runtime_error{"scripted match failure"};
    ASSERT_EQ(matches.size(), chunk.runs.size());
    if (!script) return;
    for (std::uint32_t r = 0; r < chunk.runs.size(); ++r) {
      script(current, r, matches[r]);
    }
  }
  void execute(const Pipeline::Chunk& chunk,
               std::vector<Pipeline::Slice> slices) override {
    log.push_back("x" + std::to_string(current));
    routed.push_back(std::move(slices));
    for (const auto& ev : results_per_chunk) {
      results.push_back({ev.stream, ev.tuple, chunk.ingest_ns});
    }
  }
  void take_results(std::vector<wire::ResultEventMsg>& out) override {
    out.clear();
    out.swap(results);
  }
  void finish() override { log.push_back("f"); }

  Script script;
  std::size_t fail_at = SIZE_MAX;
  /// Handed back (stamped with the chunk's ingest time) per executed chunk.
  std::vector<wire::ResultEventMsg> results_per_chunk;

  std::vector<std::string> log;  ///< m<chunk>, a<chunk>, x<chunk>, f
  std::vector<std::size_t> groups;  ///< per shipped chunk
  std::vector<std::vector<Pipeline::Slice>> routed;  ///< per executed chunk

 private:
  std::size_t shipped = 0;
  std::size_t current = 0;
  std::deque<std::size_t> inflight;
  std::vector<wire::ResultEventMsg> results;
};

/// Subscriptions standing in for the fleet's matches: only `subscriber`
/// matters to the route stage.
pubsub::Subscription sub_at(std::uint32_t node) {
  pubsub::Subscription sub;
  sub.subscriber = NodeId{node};
  return sub;
}

std::vector<runtime::TraceEvent> one_station(std::size_t n) {
  std::vector<runtime::TraceEvent> events;
  for (std::size_t i = 0; i < n; ++i) {
    events.push_back({"Station1", reading(static_cast<stream::Timestamp>(
                                      i * 60'000))});
  }
  return events;
}

TEST(Pipeline, RouteMergesRowsPerEngineInNodeIdOrder) {
  Fixture f;
  const auto a = sub_at(2);
  const auto b = sub_at(2);
  const auto c = sub_at(3);
  const auto d = sub_at(4);  // no engine at node 4
  ScriptedFleet fleet;
  fleet.script = [&](std::size_t, std::uint32_t run,
                     std::vector<pubsub::BatchDelivery>& out) {
    if (run == 0) {  // Station1, rows 0-3
      out.push_back({&c, nullptr, {0, 1, 2, 3}});
      out.push_back({&a, nullptr, {0, 2}});
      out.push_back({&d, nullptr, {1}});
      out.push_back({&b, nullptr, {2, 3}});
    } else {  // Station2, rows 0-1: the engine at node 3 lacks the stream
      out.push_back({&c, nullptr, {0}});
      out.push_back({&a, nullptr, {0, 1}});
    }
  };
  const std::vector<runtime::TraceEvent> events{
      {"Station1", reading(0)}, {"Station1", reading(1)},
      {"Station1", reading(2)}, {"Station1", reading(3)},
      {"Station2", reading(3)}, {"Station2", reading(4)}};
  Pipeline core{*f.sys, {64, 60'000, 1, ""}};
  const auto report = core.run(fleet, events);

  EXPECT_EQ(report.tuples, events.size());
  EXPECT_EQ(report.chunks, 1u);
  EXPECT_EQ(fleet.groups, std::vector<std::size_t>{1});  // one publisher
  ASSERT_EQ(fleet.routed.size(), 1u);
  const auto& slices = fleet.routed[0];
  ASSERT_EQ(slices.size(), 3u);
  // Run 0: node 2's subscriptions merged; node 3 wanted every row (empty
  // rows = whole run) and follows node 2 although it matched first.
  EXPECT_EQ(slices[0].engine, NodeId{2});
  EXPECT_EQ(slices[0].run, 0u);
  EXPECT_EQ(slices[0].rows, (std::vector<std::uint32_t>{0, 2, 3}));
  EXPECT_EQ(slices[1].engine, NodeId{3});
  EXPECT_EQ(slices[1].run, 0u);
  EXPECT_TRUE(slices[1].rows.empty());
  // Run 1: only node 2 hosts Station2, and it matched the whole run.
  EXPECT_EQ(slices[2].engine, NodeId{2});
  EXPECT_EQ(slices[2].run, 1u);
  EXPECT_TRUE(slices[2].rows.empty());
}

TEST(Pipeline, WindowOfOneIsAStrictBarrier) {
  Fixture f;
  ScriptedFleet fleet;
  Pipeline core{*f.sys, {1, 60'000, 1, ""}};
  const auto report = core.run(fleet, one_station(3));
  EXPECT_EQ(report.chunks, 3u);
  EXPECT_EQ(fleet.log, (std::vector<std::string>{"m0", "a0", "x0", "m1", "a1",
                                                 "x1", "m2", "a2", "x2", "f"}));
}

TEST(Pipeline, WindowBoundsChunksInFlightAndExecutesInChunkOrder) {
  Fixture f;
  ScriptedFleet fleet;
  Pipeline core{*f.sys, {1, 60'000, 3, ""}};
  (void)core.run(fleet, one_station(5));
  // At most three chunks await their matches; each is executed right
  // after its own match, oldest first.
  EXPECT_EQ(fleet.log,
            (std::vector<std::string>{"m0", "m1", "m2", "a0", "x0", "m3",
                                      "a1", "x1", "m4", "a2", "x2", "a3",
                                      "x3", "a4", "x4", "f"}));
}

TEST(Pipeline, MatchFailureEndsTheRunBeforeLaterChunksRoute) {
  for (const std::size_t window : {1, 3}) {
    Fixture f;
    ScriptedFleet fleet;
    fleet.fail_at = 2;
    Pipeline core{*f.sys, {1, 60'000, window, ""}};
    try {
      (void)core.run(fleet, one_station(6));
      ADD_FAILURE() << "window " << window << ": the run did not fail";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "scripted match failure");
    }
    // Chunks 0 and 1 executed; chunk 2 failed, nothing after it routed.
    ASSERT_EQ(fleet.routed.size(), 2u) << "window " << window;
    EXPECT_EQ(fleet.log.back(), "a2") << "window " << window;
  }
}

TEST(Pipeline, DeliversFleetResultsToTheCallbacks) {
  Fixture f;
  const std::string result_stream = f.result_stream_at_3();
  ASSERT_FALSE(result_stream.empty());
  ScriptedFleet fleet;
  fleet.results_per_chunk = {{result_stream, reading(7), 0},
                             {result_stream, reading(8), 0}};
  Pipeline core{*f.sys, {1, 60'000, 2, ""}};
  const auto report = core.run(fleet, one_station(4));

  ASSERT_EQ(f.delivered.size(), 8u);
  for (std::size_t i = 0; i < f.delivered.size(); ++i) {
    EXPECT_EQ(f.delivered[i].ts, i % 2 == 0 ? 7 : 8);
  }
  EXPECT_EQ(report.results_delivered, 8u);
  EXPECT_EQ(report.e2e_latency.count, 8u);
}

}  // namespace
}  // namespace cosmos::middleware
