// End-to-end tests of the runtime-backed Cosmos::run() mode: results must
// be identical to the synchronous push() mode, at any shard count and
// batch size, and traffic accounting must match.
#include <gtest/gtest.h>

#include <memory>

#include "cosmos/cosmos.h"
#include "cql/parser.h"
#include "net/topology.h"
#include "sim/sensor_trace.h"
#include "support/reference_match.h"

namespace cosmos::middleware {
namespace {

struct Fixture {
  net::Topology topo{6};
  std::vector<NodeId> all{NodeId{0}, NodeId{1}, NodeId{2},
                          NodeId{3}, NodeId{4}, NodeId{5}};
  net::LatencyMatrix lat;

  Fixture() {
    topo.add_edge(NodeId{0}, NodeId{1}, 10.0);
    topo.add_edge(NodeId{1}, NodeId{2}, 100.0);
    topo.add_edge(NodeId{2}, NodeId{3}, 5.0);
    topo.add_edge(NodeId{2}, NodeId{4}, 5.0);
    topo.add_edge(NodeId{1}, NodeId{5}, 20.0);
    lat = net::LatencyMatrix{topo, all};
  }

  /// Per-query result log: one printable line per delivered tuple, in
  /// delivery order (the per-query result *sequence*, not just a count).
  using ResultLog = std::map<QueryId, std::vector<std::string>>;

  std::unique_ptr<Cosmos> make(ResultLog& log) {
    auto sys = std::make_unique<Cosmos>(all, lat);
    for (std::size_t st = 0; st < 3; ++st) {
      sys->register_source(sim::station_stream_name(st), sim::sensor_schema(),
                          NodeId{st % 2});
    }
    std::size_t qid = 0;
    const auto submit = [&](const std::string& text, NodeId host,
                            NodeId proxy) {
      const QueryId id{static_cast<QueryId::value_type>(qid++)};
      sys->submit(cql::parse_query(text, id, proxy),
                 host, [&log](QueryId q, const stream::Tuple& t) {
                   std::string line = std::to_string(t.ts);
                   for (const auto& v : t.values) {
                     line += "|" + v.to_string();
                   }
                   log[q].push_back(std::move(line));
                 });
    };
    submit(
        "SELECT S1.snowHeight, S2.snowHeight FROM Station1 [Range 30 Minutes] "
        "S1, Station2 [Now] S2 WHERE S1.snowHeight > S2.snowHeight",
        NodeId{2}, NodeId{3});
    submit(
        "SELECT S1.snowHeight, S1.timestamp, S2.snowHeight, S2.timestamp FROM "
        "Station1 [Range 1 Hour] S1, Station2 [Now] S2 WHERE S1.snowHeight > "
        "S2.snowHeight",
        NodeId{2}, NodeId{4});
    submit(
        "SELECT S2.snowHeight, S3.temperature FROM Station2 [Range 10 Minutes] "
        "S2, Station3 [Range 5 Minutes] S3 WHERE S2.snowHeight >= "
        "S3.snowHeight AND S2.temperature < 0",
        NodeId{4}, NodeId{5});
    return sys;
  }

  static std::vector<runtime::TraceEvent> trace(std::size_t readings) {
    sim::SensorTraceParams p;
    p.stations = 3;
    p.readings_per_station = readings;
    Rng rng{77};
    std::vector<runtime::TraceEvent> events;
    for (const auto& r : sim::make_sensor_trace(p, rng)) {
      events.push_back({sim::station_stream_name(r.station), r.tuple});
    }
    return events;
  }
};

TEST(CosmosRun, MatchesPushModeExactly) {
  Fixture f;
  const auto events = Fixture::trace(80);

  Fixture::ResultLog push_log;
  auto push_sys = f.make(push_log);
  for (const auto& ev : events) push_sys->push(ev.stream, ev.tuple);

  Fixture::ResultLog run_log;
  auto run_sys = f.make(run_log);
  Cosmos::RunOptions opts;
  opts.shards = 1;
  const auto report = run_sys->run(events, opts);

  EXPECT_EQ(report.tuples, events.size());
  EXPECT_GT(report.results_delivered, 0u);
  ASSERT_FALSE(push_log.empty());
  EXPECT_EQ(run_log, push_log);  // identical per-query result sequences
  // Traffic: the same bytes and messages on every directed link.
  EXPECT_EQ(pubsub::testsupport::link_traffic_diff(run_sys->traffic(),
                                                   push_sys->traffic()),
            "");
  EXPECT_FALSE(push_sys->traffic().links.empty());
}

TEST(CosmosRun, ResultSequencesInvariantAcrossShardCounts) {
  Fixture f;
  const auto events = Fixture::trace(60);
  Fixture::ResultLog logs[3];
  const std::size_t shard_counts[] = {1, 3, 8};
  for (int i = 0; i < 3; ++i) {
    auto sys = f.make(logs[i]);
    Cosmos::RunOptions opts;
    opts.shards = shard_counts[i];
    opts.queue_capacity = 2;  // exercise backpressure
    opts.batch_size = 16;
    const auto report = sys->run(events, opts);
    EXPECT_EQ(report.stats.shards.size(), shard_counts[i]);
    // Every ingested tuple fans out to at least one engine in this
    // workload, so shard-executed tuples can't undercount the trace.
    EXPECT_GE(report.stats.total_tuples(), report.tuples);
  }
  ASSERT_FALSE(logs[0].empty());
  EXPECT_EQ(logs[1], logs[0]);
  EXPECT_EQ(logs[2], logs[0]);
}

TEST(CosmosRun, BatchSizeAndTickDoNotChangeResults) {
  Fixture f;
  const auto events = Fixture::trace(50);
  Fixture::ResultLog base;
  {
    auto sys = f.make(base);
    Cosmos::RunOptions opts;
    opts.shards = 2;
    opts.batch_size = 1;  // degenerate: one tuple per chunk
    sys->run(events, opts);
  }
  for (const auto [batch, tick] :
       {std::pair<std::size_t, stream::Timestamp>{7, 0},
        {256, 60'000},
        {10'000, 3'600'000}}) {
    Fixture::ResultLog log;
    auto sys = f.make(log);
    Cosmos::RunOptions opts;
    opts.shards = 2;
    opts.batch_size = batch;
    opts.tick_ms = tick;
    sys->run(events, opts);
    EXPECT_EQ(log, base) << "batch=" << batch << " tick=" << tick;
  }
  ASSERT_FALSE(base.empty());
}

TEST(CosmosRun, ReportsShardActivity) {
  Fixture f;
  const auto events = Fixture::trace(40);
  Fixture::ResultLog log;
  auto sys = f.make(log);
  Cosmos::RunOptions opts;
  opts.shards = 2;
  const auto report = sys->run(events, opts);
  EXPECT_GT(report.chunks, 0u);
  EXPECT_GT(report.stats.total_tuples(), 0u);
  EXPECT_GT(report.stats.total_batches(), 0u);
  EXPECT_GE(report.ingest_seconds, 0.0);
  // Every dispatched tuple was executed by some shard.
  std::uint64_t sum = 0;
  for (const auto& s : report.stats.shards) sum += s.tuples;
  EXPECT_EQ(sum, report.stats.total_tuples());
}

TEST(CosmosRun, RejectsOutOfOrderTraces) {
  Fixture f;
  Fixture::ResultLog log;
  auto sys = f.make(log);
  std::vector<runtime::TraceEvent> bad;
  bad.push_back({"Station1", stream::Tuple{100, {1.0, -2.0, 0, 100}}});
  bad.push_back({"Station2", stream::Tuple{50, {1.0, -2.0, 1, 50}}});
  EXPECT_THROW(sys->run(bad), std::invalid_argument);
}

TEST(CosmosRun, SystemStaysUsableAfterRunThrows) {
  // A throw mid-run() must unwind cleanly (workers joined, run-mode state
  // cleared): the same instance keeps working in push() mode afterwards.
  Fixture f;
  Fixture::ResultLog log;
  auto sys = f.make(log);
  std::vector<runtime::TraceEvent> bad;
  bad.push_back({"Station1", stream::Tuple{100, {1.0, -2.0, 0, 100}}});
  bad.push_back({"Station1", stream::Tuple{50, {1.0, -2.0, 0, 50}}});
  EXPECT_THROW(sys->run(bad), std::invalid_argument);
  const auto events = Fixture::trace(40);
  for (const auto& ev : events) sys->push(ev.stream, ev.tuple);
  ASSERT_FALSE(log.empty());  // results delivered inline, not into a
                              // dangling run-mode buffer
  Fixture::ResultLog log2;
  auto sys2 = f.make(log2);
  sys2->run(events);  // and a fresh run() still works
  EXPECT_EQ(log2, log);
}

}  // namespace
}  // namespace cosmos::middleware
