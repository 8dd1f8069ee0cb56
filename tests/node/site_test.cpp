// node::Site driven frame-by-frame in process (no sockets): the daemon's
// protocol surface — topology/registration/deployment, chunk match
// requests, execute bundles + flush + result shipping, watermarks, and the
// migrate-out -> migrate-in state round trip (differential against a site
// that never migrated).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cql/parser.h"
#include "node/site.h"
#include "wire/messages.h"

namespace cosmos::node {
namespace {

using wire::Frame;
using wire::FrameType;

stream::Schema x_schema() {
  return stream::Schema{{stream::Field{"x", stream::ValueType::kDouble}}};
}

wire::TopologyMsg four_node_topology() {
  wire::TopologyMsg topo;
  std::vector<double> dense(16, 10.0);
  for (std::size_t i = 0; i < 4; ++i) {
    topo.participants.emplace_back(static_cast<NodeId::value_type>(i));
    topo.members.emplace_back(static_cast<NodeId::value_type>(i));
    dense[i * 4 + i] = 0.0;
  }
  topo.dense = std::move(dense);
  return topo;
}

runtime::TupleBatch make_batch(
    const std::string& stream,
    std::vector<std::pair<stream::Timestamp, double>> rows) {
  runtime::TupleBatch b{stream};
  for (auto& [ts, x] : rows) {
    stream::Tuple t;
    t.ts = ts;
    t.values = {stream::Value{x}};
    b.push_back(std::move(t));
  }
  return b;
}

wire::SharedRun shared(runtime::TupleBatch b) {
  return std::make_shared<const runtime::TupleBatch>(std::move(b));
}

/// Feeds frames into one Site and collects shipped result lines in order.
struct Harness {
  Site site{{1, 16}};
  std::vector<std::string> results;
  std::vector<Frame> last_out;
  /// Driver-side seq frontier per engine: the site applies an engine's
  /// executes strictly in seq order, so the harness assigns them the way
  /// the federation driver does.
  std::map<std::uint64_t, std::uint64_t> next_seq;

  void exec(NodeId engine, const runtime::TupleBatch& batch) {
    wire::ExecuteMsg m;
    m.engine = engine;
    m.batch = batch;
    m.seq = next_seq[engine.value()]++;
    feed(wire::encode_execute_bundle(wire::bundle_of(std::move(m))));
  }

  void feed(const Frame& f) {
    last_out.clear();
    EXPECT_TRUE(site.handle(f, last_out));
    for (const auto& out : last_out) {
      if (out.type != FrameType::kResult) continue;
      for (const auto& ev : wire::decode_result(out).events) {
        std::string line = ev.stream + ":" + std::to_string(ev.tuple.ts);
        for (const auto& v : ev.tuple.values) line += "|" + v.to_string();
        results.push_back(std::move(line));
      }
    }
  }

  /// Frames of the last feed() with the given type.
  std::vector<Frame> of_type(FrameType t) const {
    std::vector<Frame> out;
    for (const auto& f : last_out) {
      if (f.type == t) out.push_back(f);
    }
    return out;
  }

  void register_streams() {
    feed(wire::encode_topology(four_node_topology()));
    feed(wire::encode_register_stream({"a", NodeId{0}, x_schema()}));
    feed(wire::encode_register_stream({"b", NodeId{1}, x_schema()}));
  }

  void deploy_join_unit() {
    const auto spec = cql::parse_query(
        "SELECT S1.x, S2.x FROM a [Range 1 Hours] S1, b [Range 1 Hours] S2 "
        "WHERE S1.x >= S2.x",
        QueryId{1}, NodeId{3});
    feed(wire::encode_deploy_unit({0, NodeId{2}, "cosmos.result.0.v1", spec}));
  }
};

TEST(Site, MatchRequestReturnsPerSubscriptionRows) {
  Harness h;
  h.register_streams();

  pubsub::Subscription sub;
  sub.id = SubscriptionId{7};
  sub.subscriber = NodeId{2};
  sub.streams = {"a"};
  h.feed(wire::encode_subscribe({sub}));

  // One request carries every run of the chunk the owner owns; the
  // response answers them in request order.
  h.feed(wire::encode_match_request(
      {42,
       {shared(make_batch("a", {{0, 1.0}, {5, 2.0}, {9, 3.0}})),
        shared(make_batch("b", {{10, 4.0}})),
        shared(make_batch("a", {{12, 5.0}}))}}));
  const auto responses = h.of_type(FrameType::kMatchResponse);
  ASSERT_EQ(responses.size(), 1u);
  const auto resp = wire::decode_match_response(responses[0]);
  EXPECT_EQ(resp.job, 42u);
  ASSERT_EQ(resp.runs.size(), 3u);
  ASSERT_EQ(resp.runs[0].size(), 1u);
  EXPECT_EQ(resp.runs[0][0].first, SubscriptionId{7});
  EXPECT_EQ(resp.runs[0][0].second, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_TRUE(resp.runs[1].empty());  // nobody subscribes to "b"
  ASSERT_EQ(resp.runs[2].size(), 1u);
  EXPECT_EQ(resp.runs[2][0].second, (std::vector<std::uint32_t>{0}));
}

TEST(Site, ExecuteFlushShipsJoinResults) {
  Harness h;
  h.register_streams();
  h.deploy_join_unit();
  EXPECT_EQ(h.site.deployed_units(), 1u);
  EXPECT_TRUE(h.site.hosts_engine(NodeId{2}));

  h.exec(NodeId{2}, make_batch("a", {{1000, 5.0}}));
  h.exec(NodeId{2}, make_batch("b", {{2000, 4.0}}));
  h.feed(wire::encode_flush({1}));
  ASSERT_EQ(h.of_type(FrameType::kFlushAck).size(), 1u);
  // 5.0 >= 4.0: exactly one join result.
  ASSERT_EQ(h.results.size(), 1u);
  EXPECT_NE(h.results[0].find("cosmos.result.0.v1"), std::string::npos);
}

TEST(Site, UnexpectedFrameAndUnknownEngineThrow) {
  Harness h;
  // Data before topology: protocol violation, not a crash.
  std::vector<Frame> out;
  EXPECT_THROW(
      (void)h.site.handle(
          wire::encode_match_request({1, {shared(make_batch("a", {{0, 1.0}}))}}),
          out),
      wire::Error);
  h.register_streams();
  EXPECT_THROW(
      (void)h.site.handle(wire::encode_execute_bundle(wire::bundle_of(
                              {NodeId{2}, make_batch("a", {{0, 1.0}})})),
                          out),
      wire::Error);
  EXPECT_THROW(
      (void)h.site.handle(wire::encode_match_response({1, {}}), out),
      wire::Error);
}

TEST(Site, ByeDrainsAndStops) {
  Harness h;
  h.register_streams();
  h.deploy_join_unit();
  h.exec(NodeId{2}, make_batch("a", {{0, 2.0}}));
  h.exec(NodeId{2}, make_batch("b", {{0, 1.0}}));
  std::vector<Frame> out;
  EXPECT_FALSE(h.site.handle(wire::encode_bye(), out));
  // The pre-bye executes' join result is on the wire by the time bye
  // returns. It may ride the bye's own frames or an earlier execute's:
  // every handle() ships whatever the shard finished meanwhile, and the
  // shard can beat the serve thread to that point.
  std::size_t shipped = h.results.size();
  for (const auto& f : out) {
    if (f.type != FrameType::kResult) continue;
    shipped += wire::decode_result(f).events.size();
  }
  EXPECT_EQ(shipped, 1u);
}

/// The migration differential: site A runs the first half, migrates out;
/// site B imports and runs the second half. Their concatenated results
/// must equal a control site that ran the whole trace in place — i.e. the
/// serialized handoff carries the complete join state.
TEST(Site, MigrateOutInPreservesJoinState) {
  // Interleaved halves; the join window spans the migration point.
  const auto first_a = make_batch("a", {{0, 5.0}, {60'000, 7.0}});
  const auto first_b = make_batch("b", {{90'000, 6.0}});
  const auto second_b = make_batch("b", {{120'000, 4.0}});
  const auto second_a = make_batch("a", {{180'000, 3.0}});

  Harness control;
  control.register_streams();
  control.deploy_join_unit();
  for (const auto* b : {&first_a, &first_b, &second_b, &second_a}) {
    control.exec(NodeId{2}, *b);
  }
  control.feed(wire::encode_flush({1}));
  ASSERT_FALSE(control.results.empty());

  Harness a;
  a.register_streams();
  a.deploy_join_unit();
  a.exec(NodeId{2}, first_a);
  a.exec(NodeId{2}, first_b);

  a.feed(wire::encode_migrate_out({NodeId{2}}));
  const auto handoffs = a.of_type(FrameType::kStateHandoff);
  ASSERT_EQ(handoffs.size(), 1u);
  auto handoff = wire::decode_state_handoff(handoffs[0]);
  EXPECT_EQ(handoff.engine, NodeId{2});
  ASSERT_EQ(handoff.units.size(), 1u);
  std::size_t state_tuples = 0;
  for (const auto& j : handoff.units[0].joins) {
    state_tuples += j.left.size() + j.right.size();
  }
  EXPECT_GT(state_tuples, 0u);  // live window state actually travelled
  EXPECT_FALSE(a.site.hosts_engine(NodeId{2}));
  EXPECT_EQ(a.site.deployed_units(), 0u);

  Harness b;
  b.register_streams();  // topology + advertisements, but no deployment
  const auto spec = cql::parse_query(
      "SELECT S1.x, S2.x FROM a [Range 1 Hours] S1, b [Range 1 Hours] S2 "
      "WHERE S1.x >= S2.x",
      QueryId{1}, NodeId{3});
  wire::MigrateInMsg in;
  in.engine = NodeId{2};
  in.units.push_back({0, NodeId{2}, "cosmos.result.0.v1", spec});
  in.state = std::move(handoff.units);
  in.exec_seq = a.next_seq[NodeId{2}.value()];  // resume at the source's cut
  b.feed(wire::encode_migrate_in(in));
  b.next_seq[NodeId{2}.value()] = in.exec_seq;
  ASSERT_EQ(b.of_type(FrameType::kMigrateAck).size(), 1u);
  EXPECT_TRUE(b.site.hosts_engine(NodeId{2}));

  b.exec(NodeId{2}, second_b);
  b.exec(NodeId{2}, second_a);
  b.feed(wire::encode_flush({2}));

  std::vector<std::string> stitched = a.results;
  stitched.insert(stitched.end(), b.results.begin(), b.results.end());
  EXPECT_EQ(stitched, control.results);
}

/// Re-migration: an engine that moved away can move back (the site must
/// have forgotten it completely, or re-registration would throw).
TEST(Site, MigrateBackAfterMigrateOut) {
  Harness h;
  h.register_streams();
  h.deploy_join_unit();
  h.exec(NodeId{2}, make_batch("a", {{0, 5.0}}));
  h.feed(wire::encode_migrate_out({NodeId{2}}));
  auto handoff =
      wire::decode_state_handoff(h.of_type(FrameType::kStateHandoff)[0]);

  const auto spec = cql::parse_query(
      "SELECT S1.x, S2.x FROM a [Range 1 Hours] S1, b [Range 1 Hours] S2 "
      "WHERE S1.x >= S2.x",
      QueryId{1}, NodeId{3});
  wire::MigrateInMsg in;
  in.engine = NodeId{2};
  in.units.push_back({0, NodeId{2}, "cosmos.result.0.v1", spec});
  in.state = std::move(handoff.units);
  in.exec_seq = h.next_seq[NodeId{2}.value()];  // resume at the cut
  h.feed(wire::encode_migrate_in(in));
  ASSERT_EQ(h.of_type(FrameType::kMigrateAck).size(), 1u);

  h.exec(NodeId{2}, make_batch("b", {{1000, 4.0}}));
  h.feed(wire::encode_flush({3}));
  EXPECT_EQ(h.results.size(), 1u);  // the pre-migration left row joined
}

TEST(Site, WatermarkPrunesWithoutChangingResults) {
  Harness h;
  h.register_streams();
  h.deploy_join_unit();
  h.exec(NodeId{2}, make_batch("a", {{0, 9.0}}));
  // Push stream time far past the 1h window: the watermark prunes the row.
  h.feed(wire::encode_watermark({8 * 3'600'000}));
  h.feed(wire::encode_flush({1}));
  h.exec(NodeId{2}, make_batch("b", {{8 * 3'600'000 + 1, 1.0}}));
  h.feed(wire::encode_flush({2}));
  // The pruned left row must not join with the late right row.
  EXPECT_TRUE(h.results.empty());
}

/// Peer-link ordering: executes arriving out of seq order over
/// apply_peer_execute are held back and applied in order, and a replayed
/// duplicate seq is dropped — the invariant that keeps results
/// byte-identical when batches travel multiple channels.
TEST(Site, PeerExecutesReorderBySeqAndDropDuplicates) {
  Harness control;
  control.register_streams();
  control.deploy_join_unit();
  control.exec(NodeId{2}, make_batch("a", {{1000, 5.0}}));
  control.exec(NodeId{2}, make_batch("b", {{2000, 4.0}}));
  control.feed(wire::encode_flush({1}));
  ASSERT_EQ(control.results.size(), 1u);

  Harness h;
  h.register_streams();
  h.deploy_join_unit();
  std::vector<Frame> emitted;
  h.site.set_emit([&](Frame f) { emitted.push_back(std::move(f)); });

  wire::ExecuteMsg e0;
  e0.engine = NodeId{2};
  e0.batch = make_batch("a", {{1000, 5.0}});
  e0.seq = 0;
  wire::ExecuteMsg e1;
  e1.engine = NodeId{2};
  e1.batch = make_batch("b", {{2000, 4.0}});
  e1.seq = 1;

  const auto b0 = wire::bundle_of(e0);
  const auto b1 = wire::bundle_of(e1);
  h.site.apply_peer_bundle(b1);  // early: held back until seq 0 lands
  h.site.apply_peer_bundle(b0);
  h.site.apply_peer_bundle(b0);  // replayed duplicate: dropped
  h.site.apply_peer_bundle(b1);  // replayed duplicate: dropped

  // Flush floors at the driver frontier (seq 2): the ack must wait for
  // both peer executes, and with the emit sink installed the results ride
  // emitted frames.
  std::vector<Frame> out;
  EXPECT_TRUE(
      h.site.handle(wire::encode_flush({9, {{NodeId{2}, 2}}}), out));
  std::vector<std::string> lines;
  bool acked = false;
  for (const auto& f : emitted) {
    if (f.type == FrameType::kFlushAck) acked = true;
    if (f.type != FrameType::kResult) continue;
    for (const auto& ev : wire::decode_result(f).events) {
      std::string line = ev.stream + ":" + std::to_string(ev.tuple.ts);
      for (const auto& v : ev.tuple.values) line += "|" + v.to_string();
      lines.push_back(std::move(line));
    }
  }
  EXPECT_TRUE(acked);
  EXPECT_EQ(lines, control.results);
}

/// Cumulative shard counter `name` from the stats sample the last feed()
/// produced (the hello must have enabled sampling).
std::uint64_t sampled_counter(const Harness& h, const std::string& name) {
  const auto samples = h.of_type(FrameType::kStatsSample);
  if (samples.empty()) {
    ADD_FAILURE() << "no stats sample in the last feed";
    return 0;
  }
  const auto m = wire::decode_stats_sample(samples.back());
  const auto* v = m.metrics.counter(name);
  return v == nullptr ? 0 : *v;
}

void enable_sampling(Harness& h) {
  wire::HelloMsg hello;
  hello.stats_sample_every_ms = 1;
  h.feed(wire::encode_hello(hello));
}

/// A bundle carries each run once and fans it out to every engine it
/// names: one runtime task per (bundle, engine) holding slices over the
/// shared runs, with results identical to one execute per slice.
TEST(Site, BundleFansSharedRunsOutInOneTaskPerEngine) {
  const auto spec = cql::parse_query(
      "SELECT S1.x, S2.x FROM a [Range 1 Hours] S1, b [Range 1 Hours] S2 "
      "WHERE S1.x >= S2.x",
      QueryId{1}, NodeId{3});
  const auto a = make_batch("a", {{1000, 5.0}, {1500, 1.0}});
  const auto b = make_batch("b", {{2000, 4.0}});
  const auto setup = [&](Harness& h) {
    h.register_streams();
    h.deploy_join_unit();
    h.feed(
        wire::encode_deploy_unit({1, NodeId{1}, "cosmos.result.1.v1", spec}));
  };

  Harness control;
  setup(control);
  control.exec(NodeId{2}, a);
  control.exec(NodeId{2}, b);
  control.exec(NodeId{1}, a.select({0}));
  control.exec(NodeId{1}, b);
  control.feed(wire::encode_flush({1}));
  ASSERT_EQ(control.results.size(), 2u);

  Harness h;
  enable_sampling(h);
  setup(h);
  wire::ExecuteBundleMsg bundle;
  const auto run_a = shared(a);
  const auto run_b = shared(b);
  // Route order: run by run, each run's engines in turn.
  bundle.add(NodeId{1}, 0, run_a, {0});
  bundle.add(NodeId{2}, 0, run_a, {});
  bundle.add(NodeId{1}, 1, run_b, {});
  bundle.add(NodeId{2}, 1, run_b, {});
  ASSERT_EQ(bundle.runs.size(), 2u);  // each run travels once
  h.feed(wire::encode_execute_bundle(bundle));
  h.feed(wire::encode_flush({1}));
  EXPECT_EQ(sampled_counter(h, "shard.tasks"), 2u);    // one per engine
  EXPECT_EQ(sampled_counter(h, "shard.batches"), 4u);  // one per slice

  auto want = control.results;
  auto got = h.results;
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);
}

/// A watermark prunes each hosted engine with one task covering all of
/// its units, not one task per unit.
TEST(Site, WatermarkPrunesWithOneTaskPerEngine) {
  const auto spec = cql::parse_query(
      "SELECT S1.x, S2.x FROM a [Range 1 Hours] S1, b [Range 1 Hours] S2 "
      "WHERE S1.x < S2.x",
      QueryId{2}, NodeId{3});
  Harness h;
  enable_sampling(h);
  h.register_streams();
  h.deploy_join_unit();
  h.feed(wire::encode_deploy_unit({1, NodeId{2}, "cosmos.result.1.v1", spec}));
  ASSERT_EQ(h.site.deployed_units(), 2u);
  h.feed(wire::encode_watermark({3'600'000}));
  h.feed(wire::encode_flush({1}));
  EXPECT_EQ(sampled_counter(h, "shard.match_tasks"), 1u);
}

/// Peer-link owners slice retained runs by the wire's run index and rows;
/// both are checked against the retained runs before any run is indexed.
TEST(Site, RouteDecisionChecksRunIndexAndRows) {
  Harness h;
  wire::HelloMsg hello;
  hello.peer_links = 1;
  h.feed(wire::encode_hello(hello));
  h.register_streams();
  h.deploy_join_unit();
  const auto run = shared(make_batch("a", {{0, 1.0}, {5, 2.0}}));
  std::vector<Frame> out;

  h.feed(wire::encode_match_request({5, {run}}));
  wire::RouteDecisionMsg bad_run;
  bad_run.job = 5;
  bad_run.targets.push_back({NodeId{2}, 0, 0, 1, {}});  // only run 0 exists
  EXPECT_THROW((void)h.site.handle(wire::encode_route_decision(bad_run), out),
               wire::Error);

  h.feed(wire::encode_match_request({6, {run}}));
  wire::RouteDecisionMsg bad_row;
  bad_row.job = 6;
  bad_row.targets.push_back({NodeId{2}, 0, 0, 0, {0, 2}});  // 2 == size
  EXPECT_THROW((void)h.site.handle(wire::encode_route_decision(bad_row), out),
               wire::Error);

  // A well-formed decision for this worker's own engine applies locally.
  h.feed(wire::encode_match_request({7, {run}}));
  wire::RouteDecisionMsg good;
  good.job = 7;
  good.targets.push_back({NodeId{2}, 0, 0, 0, {1}});
  h.feed(wire::encode_route_decision(good));
  h.feed(wire::encode_flush({1, {{NodeId{2}, 1}}}));
  EXPECT_EQ(h.of_type(FrameType::kFlushAck).size(), 1u);
}

/// A v3 driver is refused with a typed error, never half-served.
TEST(Site, RefusesV3Hello) {
  Harness h;
  wire::HelloMsg hello;
  hello.protocol = 3;
  std::vector<Frame> out;
  EXPECT_THROW((void)h.site.handle(wire::encode_hello(hello), out),
               wire::Error);
}

}  // namespace
}  // namespace cosmos::node
