// End-to-end middleware tests: submission, merging, p1/p2 subscription
// wiring, result-stream retirement, traffic accounting.
#include "cosmos/cosmos.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cql/parser.h"
#include "net/topology.h"
#include "sim/sensor_trace.h"
#include "support/reference_match.h"

namespace cosmos::middleware {
namespace {

struct Fixture {
  net::Topology topo{5};
  std::vector<NodeId> all{NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3},
                          NodeId{4}};
  net::LatencyMatrix lat;

  Fixture() {
    topo.add_edge(NodeId{0}, NodeId{1}, 10.0);
    topo.add_edge(NodeId{1}, NodeId{2}, 100.0);
    topo.add_edge(NodeId{2}, NodeId{3}, 5.0);
    topo.add_edge(NodeId{2}, NodeId{4}, 5.0);
    lat = net::LatencyMatrix{topo, all};
  }

  std::unique_ptr<Cosmos> make(bool share = true) {
    auto sys = std::make_unique<Cosmos>(all, lat, share);
    sys->register_source("Station1", sim::sensor_schema(), NodeId{0});
    sys->register_source("Station2", sim::sensor_schema(), NodeId{0});
    return sys;
  }

  void feed(Cosmos& sys, std::size_t readings, std::uint64_t seed) {
    sim::SensorTraceParams p;
    p.stations = 2;
    p.readings_per_station = readings;
    Rng rng{seed};
    for (const auto& r : sim::make_sensor_trace(p, rng)) {
      sys.push(sim::station_stream_name(r.station), r.tuple);
    }
  }

  static query::QuerySpec q3(NodeId proxy) {
    return cql::parse_query(
        "SELECT S2.* FROM Station1 [Range 30 Minutes] S1, Station2 [Now] S2 "
        "WHERE S1.snowHeight > S2.snowHeight AND S1.snowHeight >= 10",
        QueryId{3}, proxy);
  }
  static query::QuerySpec q4(NodeId proxy) {
    return cql::parse_query(
        "SELECT S1.snowHeight, S1.timestamp, S2.snowHeight, S2.timestamp "
        "FROM Station1 [Range 1 Hour] S1, Station2 [Now] S2 "
        "WHERE S1.snowHeight > S2.snowHeight",
        QueryId{4}, proxy);
  }
};

TEST(Cosmos, SingleQueryDeliversResults) {
  Fixture f;
  auto sys = f.make();
  std::size_t results = 0;
  sys->submit(Fixture::q3(NodeId{3}), NodeId{1},
             [&](QueryId q, const stream::Tuple& t) {
               EXPECT_EQ(q, QueryId{3});
               EXPECT_EQ(t.values.size(), 4u);  // S2.* has 4 columns
               ++results;
             });
  f.feed(*sys, 100, 8);
  EXPECT_GT(results, 0u);
  EXPECT_GT(sys->traffic().bytes, 0.0);
}

TEST(Cosmos, MergesOverlappingQueriesOnSameHost) {
  Fixture f;
  auto sys = f.make();
  sys->submit(Fixture::q3(NodeId{3}), NodeId{1},
             [](QueryId, const stream::Tuple&) {});
  sys->submit(Fixture::q4(NodeId{4}), NodeId{1},
             [](QueryId, const stream::Tuple&) {});
  EXPECT_EQ(sys->submitted_queries(), 2u);
  EXPECT_EQ(sys->deployed_units(), 1u);  // folded into Q5
}

TEST(Cosmos, DoesNotMergeAcrossHosts) {
  Fixture f;
  auto sys = f.make();
  sys->submit(Fixture::q3(NodeId{3}), NodeId{1},
             [](QueryId, const stream::Tuple&) {});
  sys->submit(Fixture::q4(NodeId{4}), NodeId{2},
             [](QueryId, const stream::Tuple&) {});
  EXPECT_EQ(sys->deployed_units(), 2u);
}

TEST(Cosmos, MergedResultsMatchUnmergedResults) {
  Fixture f;
  std::size_t shared3 = 0, shared4 = 0, solo3 = 0, solo4 = 0;
  {
    auto sys = f.make(true);
    sys->submit(Fixture::q3(NodeId{3}), NodeId{1},
               [&](QueryId, const stream::Tuple&) { ++shared3; });
    sys->submit(Fixture::q4(NodeId{4}), NodeId{1},
               [&](QueryId, const stream::Tuple&) { ++shared4; });
    ASSERT_EQ(sys->deployed_units(), 1u);
    f.feed(*sys, 120, 8);
  }
  {
    auto sys = f.make(false);
    sys->submit(Fixture::q3(NodeId{3}), NodeId{1},
               [&](QueryId, const stream::Tuple&) { ++solo3; });
    sys->submit(Fixture::q4(NodeId{4}), NodeId{1},
               [&](QueryId, const stream::Tuple&) { ++solo4; });
    ASSERT_EQ(sys->deployed_units(), 2u);
    f.feed(*sys, 120, 8);
  }
  EXPECT_GT(solo3, 0u);
  EXPECT_EQ(shared3, solo3);
  EXPECT_EQ(shared4, solo4);
}

TEST(Cosmos, SharingReducesTraffic) {
  Fixture f;
  auto shared = f.make(true);
  auto solo = f.make(false);
  for (auto* sys : {shared.get(), solo.get()}) {
    sys->submit(Fixture::q3(NodeId{3}), NodeId{1},
                [](QueryId, const stream::Tuple&) {});
    sys->submit(Fixture::q4(NodeId{4}), NodeId{1},
                [](QueryId, const stream::Tuple&) {});
    f.feed(*sys, 120, 8);
  }
  EXPECT_LT(shared->traffic().bytes, solo->traffic().bytes);
}

std::vector<std::string> partition_names(Cosmos& sys) {
  std::vector<std::string> names;
  for (auto* part : sys.broker().partitions()) names.push_back(part->stream());
  return names;
}

TEST(Cosmos, MergeRetiresTheOldResultStream) {
  Fixture f;
  auto sys = f.make();
  sys->submit(Fixture::q3(NodeId{3}), NodeId{1},
              [](QueryId, const stream::Tuple&) {});
  const auto before = partition_names(*sys);
  // Two sources + the unit's result stream (std::map order: 'S' < 'c').
  ASSERT_EQ(before.size(), 3u);
  const std::string old_result = before.back();
  ASSERT_EQ(old_result.rfind("cosmos.result.", 0), 0u);

  sys->submit(Fixture::q4(NodeId{4}), NodeId{1},
              [](QueryId, const stream::Tuple&) {});
  ASSERT_EQ(sys->deployed_units(), 1u);
  // Exactly the sources plus the live unit: the merged-away version is
  // gone from the broker and from the host engine.
  const auto after = partition_names(*sys);
  ASSERT_EQ(after.size(), 3u);
  EXPECT_EQ(after[0], "Station1");
  EXPECT_EQ(after[1], "Station2");
  const std::string new_result = after[2];
  EXPECT_NE(new_result, old_result);
  const auto* engine = sys->engine(NodeId{1});
  ASSERT_NE(engine, nullptr);
  EXPECT_FALSE(engine->has_stream(old_result));
  EXPECT_TRUE(engine->has_stream(new_result));
}

TEST(Cosmos, MergeBetweenPushesKeepsAccountedTraffic) {
  Fixture f;
  auto sys = f.make();
  std::size_t results = 0;
  const auto count = [&results](QueryId, const stream::Tuple&) { ++results; };
  sys->submit(Fixture::q3(NodeId{3}), NodeId{1}, count);

  sim::SensorTraceParams p;
  p.stations = 2;
  p.readings_per_station = 120;
  Rng rng{8};
  const auto trace = sim::make_sensor_trace(p, rng);
  const auto push = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      sys->push(sim::station_stream_name(trace[i].station), trace[i].tuple);
    }
  };
  push(0, trace.size() / 2);
  const auto before = sys->traffic();
  ASSERT_GT(results, 0u);
  ASSERT_FALSE(before.links.empty());

  // The merge retires the first version's result stream; what it carried
  // stays in the totals, link by link.
  sys->submit(Fixture::q4(NodeId{4}), NodeId{1}, count);
  ASSERT_EQ(sys->deployed_units(), 1u);
  EXPECT_EQ(pubsub::testsupport::link_traffic_diff(sys->traffic(), before),
            "");

  const std::size_t results_mid = results;
  push(trace.size() / 2, trace.size());
  EXPECT_GT(results, results_mid);
  EXPECT_GT(sys->traffic().bytes, before.bytes);
}

TEST(Cosmos, RejectsDuplicateIds) {
  Fixture f;
  auto sys = f.make();
  sys->submit(Fixture::q3(NodeId{3}), NodeId{1},
             [](QueryId, const stream::Tuple&) {});
  EXPECT_THROW(sys->submit(Fixture::q3(NodeId{3}), NodeId{2},
                          [](QueryId, const stream::Tuple&) {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace cosmos::middleware
