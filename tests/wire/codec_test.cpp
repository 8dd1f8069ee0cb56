// Wire codec: randomized encode/decode round-trips over every frame type
// plus the strict-decoder fault paths (bad magic, version mismatch,
// truncation, trailing bytes, oversize claims, implausible counts). The
// round-trip guarantee is what lets the federation ship TupleBatches and
// registrations between processes without ever drifting from the
// in-process representation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "cql/parser.h"
#include "sim/workload.h"
#include "wire/codec.h"
#include "wire/messages.h"

namespace cosmos::wire {
namespace {

bool tuple_eq(const stream::Tuple& a, const stream::Tuple& b) {
  if (a.ts != b.ts || a.values.size() != b.values.size()) return false;
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    if (!(a.values[i] == b.values[i])) return false;
  }
  return true;
}

bool tuples_eq(const std::vector<stream::Tuple>& a,
               const std::vector<stream::Tuple>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!tuple_eq(a[i], b[i])) return false;
  }
  return true;
}

stream::Value random_value(Rng& rng) {
  switch (rng.next_below(4)) {
    case 0:
      return stream::Value{static_cast<std::int64_t>(
          static_cast<std::int64_t>(rng.next_u64()) - (std::int64_t{1} << 40))};
    case 1:
      return stream::Value{0.001 * static_cast<double>(rng.next_below(1u << 20)) -
                           17.25};
    case 2: {
      // Strings with embedded NULs and non-ASCII bytes: the codec is
      // length-prefixed, so none of this may confuse it.
      std::string s;
      const std::size_t len = rng.next_below(24);
      for (std::size_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>(rng.next_below(256)));
      }
      return stream::Value{std::move(s)};
    }
    default:
      return stream::Value{static_cast<std::int64_t>(rng.next_below(3))};
  }
}

stream::Tuple random_tuple(Rng& rng, std::size_t width,
                           stream::Timestamp ts) {
  stream::Tuple t;
  t.ts = ts;
  for (std::size_t i = 0; i < width; ++i) t.values.push_back(random_value(rng));
  return t;
}

runtime::TupleBatch random_batch(Rng& rng) {
  runtime::TupleBatch batch{"stream." + std::to_string(rng.next_below(1000))};
  const std::size_t rows = rng.next_below(40);
  const std::size_t width = 1 + rng.next_below(5);
  stream::Timestamp ts = -5'000 + static_cast<stream::Timestamp>(
                                      rng.next_below(10'000));
  for (std::size_t r = 0; r < rows; ++r) {
    batch.push_back(random_tuple(rng, width, ts));
    ts += static_cast<stream::Timestamp>(rng.next_below(1'000));
  }
  return batch;
}

SharedRun shared(runtime::TupleBatch b) {
  return std::make_shared<const runtime::TupleBatch>(std::move(b));
}

/// A random chunk-shaped bundle: 1-5 runs, 1-12 entries, each entry a
/// random engine slice (all rows, or a random ascending subset).
ExecuteBundleMsg random_bundle(Rng& rng) {
  ExecuteBundleMsg m;
  m.ingest_ns = rng.next_u64();
  const std::size_t runs = 1 + rng.next_below(5);
  for (std::size_t i = 0; i < runs; ++i) m.runs.push_back(shared(random_batch(rng)));
  const std::size_t entries = 1 + rng.next_below(12);
  for (std::size_t i = 0; i < entries; ++i) {
    ExecuteBundleMsg::Entry e;
    e.engine = NodeId{static_cast<NodeId::value_type>(rng.next_below(50))};
    e.seq = rng.next_u64() >> 8;
    e.run = static_cast<std::uint32_t>(rng.next_below(runs));
    if (rng.next_below(2) == 0) {
      for (std::uint32_t r = 0; r < m.runs[e.run]->size(); ++r) {
        if (rng.next_below(2) == 0) e.rows.push_back(r);
      }
    }
    m.entries.push_back(std::move(e));
  }
  return m;
}

void expect_bundles_eq(const ExecuteBundleMsg& a, const ExecuteBundleMsg& b) {
  EXPECT_EQ(a.ingest_ns, b.ingest_ns);
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_EQ(*a.runs[i], *b.runs[i]);
  }
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].engine, b.entries[i].engine);
    EXPECT_EQ(a.entries[i].seq, b.entries[i].seq);
    EXPECT_EQ(a.entries[i].run, b.entries[i].run);
    EXPECT_EQ(a.entries[i].rows, b.entries[i].rows);
  }
}

TEST(WireCodec, BatchRoundTripFuzz) {
  Rng rng{20260808};
  for (int iter = 0; iter < 200; ++iter) {
    MatchRequestMsg msg;
    msg.job = rng.next_u64();
    const std::size_t runs = 1 + rng.next_below(4);
    for (std::size_t i = 0; i < runs; ++i) {
      msg.runs.push_back(shared(random_batch(rng)));
    }
    const Frame f = encode_match_request(msg);
    const auto back = decode_match_request(f);
    EXPECT_EQ(back.job, msg.job);
    ASSERT_EQ(back.runs.size(), msg.runs.size());
    for (std::size_t i = 0; i < runs; ++i) {
      ASSERT_EQ(*back.runs[i], *msg.runs[i]) << "iteration " << iter;
    }
  }
}

TEST(WireCodec, MatchResponseRoundTripFuzz) {
  Rng rng{77};
  for (int iter = 0; iter < 200; ++iter) {
    MatchResponseMsg msg;
    msg.job = rng.next_u64();
    msg.runs.resize(rng.next_below(6));
    for (auto& run : msg.runs) {
      const std::size_t subs = rng.next_below(4);
      for (std::size_t i = 0; i < subs; ++i) {
        std::vector<std::uint32_t> rows;
        for (std::uint32_t r = 0; r < 20; ++r) {
          if (rng.next_below(3) == 0) rows.push_back(r);
        }
        run.emplace_back(
            SubscriptionId{static_cast<std::uint32_t>(rng.next_below(900))},
            std::move(rows));
      }
    }
    const auto back = decode_match_response(encode_match_response(msg));
    EXPECT_EQ(back.job, msg.job);
    ASSERT_EQ(back.runs, msg.runs) << "iteration " << iter;
  }
}

TEST(WireCodec, ExecuteBundleRoundTripFuzz) {
  Rng rng{4040};
  for (int iter = 0; iter < 200; ++iter) {
    const auto msg = random_bundle(rng);
    const auto back = decode_execute_bundle(encode_execute_bundle(msg));
    expect_bundles_eq(back, msg);
  }
}

TEST(WireCodec, BundleAddSharesEachRunOnce) {
  Rng rng{5};
  const auto r0 = shared(random_batch(rng));
  const auto r1 = shared(random_batch(rng));
  ExecuteBundleMsg m;
  m.add(NodeId{1}, 0, r0, {});
  m.add(NodeId{2}, 0, r0, {});
  m.add(NodeId{1}, 1, r1, {});
  m.add(NodeId{3}, 1, r1, {2});
  ASSERT_EQ(m.runs.size(), 2u);  // route order: each run once
  EXPECT_EQ(m.runs[0], r0);
  EXPECT_EQ(m.runs[1], r1);
  ASSERT_EQ(m.entries.size(), 4u);
  EXPECT_EQ(m.entries[1].run, 0u);
  EXPECT_EQ(m.entries[2].run, 1u);
  EXPECT_EQ(m.entries[3].run, 1u);
  EXPECT_EQ(m.entries[3].rows, (std::vector<std::uint32_t>{2}));

  // A standalone execute is a single-entry bundle.
  ExecuteMsg one;
  one.engine = NodeId{4};
  one.batch = *r1;
  one.seq = 9;
  one.ingest_ns = 12;
  const auto b = bundle_of(one);
  ASSERT_EQ(b.runs.size(), 1u);
  EXPECT_EQ(*b.runs[0], *r1);
  ASSERT_EQ(b.entries.size(), 1u);
  EXPECT_EQ(b.entries[0].engine, NodeId{4});
  EXPECT_EQ(b.entries[0].seq, 9u);
  EXPECT_TRUE(b.entries[0].rows.empty());
  EXPECT_EQ(b.ingest_ns, 12u);
}

TEST(WireCodec, ValueAndTupleRoundTripFuzz) {
  Rng rng{42};
  for (int iter = 0; iter < 500; ++iter) {
    ResultMsg msg;
    const std::size_t events = rng.next_below(5);
    for (std::size_t i = 0; i < events; ++i) {
      msg.events.push_back(
          {"cosmos.result." + std::to_string(rng.next_below(8)) + ".v1",
           random_tuple(rng, rng.next_below(4), static_cast<stream::Timestamp>(
                                                    rng.next_below(100'000)))});
    }
    const auto back = decode_result(encode_result(msg));
    ASSERT_EQ(back.events.size(), msg.events.size());
    for (std::size_t i = 0; i < msg.events.size(); ++i) {
      EXPECT_EQ(back.events[i].stream, msg.events[i].stream);
      EXPECT_TRUE(tuple_eq(back.events[i].tuple, msg.events[i].tuple));
    }
  }
}

TEST(WireCodec, ControlFramesRoundTrip) {
  HelloMsg hello;
  hello.worker_index = 3;
  hello.shards = 4;
  hello.send_delay_ms = 250;
  hello.stats_sample_every_ms = 60'000;
  hello.trace = 1;
  hello.peer_links = 1;
  const auto h = decode_hello(encode_hello(hello));
  EXPECT_EQ(h.protocol, kProtocolVersion);
  EXPECT_EQ(h.worker_index, 3u);
  EXPECT_EQ(h.shards, 4u);
  EXPECT_EQ(h.send_delay_ms, 250);
  EXPECT_EQ(h.stats_sample_every_ms, 60'000);
  EXPECT_EQ(h.trace, 1);
  EXPECT_EQ(h.peer_links, 1);

  const auto ack = decode_hello_ack(encode_hello_ack({"worker info"}));
  EXPECT_EQ(ack.info, "worker info");

  const auto wm = decode_watermark(
      encode_watermark({123'456'789, {{NodeId{2}, 9}, {NodeId{5}, 0}}}));
  EXPECT_EQ(wm.watermark, 123'456'789);
  ASSERT_EQ(wm.floors.size(), 2u);
  EXPECT_EQ(wm.floors[0].engine, NodeId{2});
  EXPECT_EQ(wm.floors[0].seq, 9u);
  EXPECT_EQ(wm.floors[1].engine, NodeId{5});
  EXPECT_EQ(wm.floors[1].seq, 0u);

  const auto fl = decode_flush(encode_flush({77, {{NodeId{1}, 4}}}));
  EXPECT_EQ(fl.seq, 77u);
  ASSERT_EQ(fl.floors.size(), 1u);
  EXPECT_EQ(fl.floors[0].engine, NodeId{1});
  EXPECT_EQ(fl.floors[0].seq, 4u);
  const auto fa = decode_flush_ack(encode_flush_ack({77}));
  EXPECT_EQ(fa.seq, 77u);

  const auto err = decode_error(encode_error({"engine exploded"}));
  EXPECT_EQ(err.message, "engine exploded");

  EXPECT_EQ(encode_bye().type, FrameType::kBye);
  EXPECT_EQ(encode_traffic_request().type, FrameType::kTrafficRequest);
}

TEST(WireCodec, PeerFramesRoundTrip) {
  PeerTableMsg table;
  table.endpoints = {"unix:/tmp/w0.sock", "tcp:127.0.0.1:4001", ""};
  const auto t = decode_peer_table(encode_peer_table(table));
  EXPECT_EQ(t.version, PeerTableMsg::kVersion);
  EXPECT_EQ(t.endpoints, table.endpoints);

  // Unsupported table versions are rejected, not half-read.
  PeerTableMsg bad = table;
  bad.version = 99;
  EXPECT_THROW((void)decode_peer_table(encode_peer_table(bad)), Error);

  RouteDecisionMsg route;
  route.job = 41;
  route.ingest_ns = 777ull;
  route.targets.push_back({NodeId{3}, 1, 12, 2, {0, 2, 5}});
  route.targets.push_back({NodeId{9}, 0, 4, 0, {}});
  const auto r = decode_route_decision(encode_route_decision(route));
  EXPECT_EQ(r.job, 41u);
  EXPECT_EQ(r.ingest_ns, 777u);
  ASSERT_EQ(r.targets.size(), 2u);
  EXPECT_EQ(r.targets[0].engine, NodeId{3});
  EXPECT_EQ(r.targets[0].worker, 1u);
  EXPECT_EQ(r.targets[0].seq, 12u);
  EXPECT_EQ(r.targets[0].run, 2u);
  EXPECT_EQ(r.targets[0].rows, (std::vector<std::uint32_t>{0, 2, 5}));
  EXPECT_EQ(r.targets[1].engine, NodeId{9});
  EXPECT_TRUE(r.targets[1].rows.empty());

  // Rows of a route target must ascend strictly.
  RouteDecisionMsg unsorted = route;
  unsorted.targets[0].rows = {2, 2};
  EXPECT_THROW(
      (void)decode_route_decision(encode_route_decision(unsorted)), Error);

  const auto ph = decode_peer_hello(encode_peer_hello({kProtocolVersion, 2}));
  EXPECT_EQ(ph.protocol, kProtocolVersion);
  EXPECT_EQ(ph.worker_index, 2u);

  const auto pa = decode_peer_hello_ack(encode_peer_hello_ack({7}));
  EXPECT_EQ(pa.worker_index, 7u);
}

TEST(WireCodec, LivenessFramesRoundTrip) {
  // Protocol v3: liveness knobs ride on kHello so the daemon side arms the
  // same heartbeat/deadline schedule the driver does.
  static_assert(kProtocolVersion >= 3);
  HelloMsg hello;
  hello.heartbeat_every_ms = 250;
  hello.liveness_deadline_ms = 1'500;
  const auto h = decode_hello(encode_hello(hello));
  EXPECT_EQ(h.heartbeat_every_ms, 250);
  EXPECT_EQ(h.liveness_deadline_ms, 1'500);

  // probe=1 asks for an echo; probe=0 is the echo (absorbed silently).
  const auto probe = decode_heartbeat(encode_heartbeat({}));
  EXPECT_EQ(probe.probe, 1);
  const auto echo = decode_heartbeat(encode_heartbeat({0}));
  EXPECT_EQ(echo.probe, 0);

  const auto pd =
      decode_peer_down(encode_peer_down({2, 0, "liveness deadline"}));
  EXPECT_EQ(pd.from_worker, 2u);
  EXPECT_EQ(pd.to_worker, 0u);
  EXPECT_EQ(pd.reason, "liveness deadline");

  SeqGapMsg gap;
  gap.worker_index = 1;
  gap.missing = {{NodeId{4}, 17}, {NodeId{9}, 0}};
  const auto g = decode_seq_gap(encode_seq_gap(gap));
  EXPECT_EQ(g.worker_index, 1u);
  ASSERT_EQ(g.missing.size(), 2u);
  EXPECT_EQ(g.missing[0].engine, NodeId{4});
  EXPECT_EQ(g.missing[0].seq, 17u);
  EXPECT_EQ(g.missing[1].engine, NodeId{9});
  EXPECT_EQ(g.missing[1].seq, 0u);
}

TEST(WireCodec, RecoveryFieldsRoundTrip) {
  Rng rng{13};
  ExecuteMsg exec;
  exec.engine = NodeId{6};
  exec.batch = runtime::TupleBatch{"S"};
  exec.batch.push_back(random_tuple(rng, 2, 10));
  exec.seq = 987'654;
  const auto e = decode_execute_bundle(encode_execute_bundle(bundle_of(exec)));
  ASSERT_EQ(e.entries.size(), 1u);
  EXPECT_EQ(e.entries[0].seq, 987'654u);

  const auto keep = decode_migrate_out(encode_migrate_out({NodeId{4}, 1}));
  EXPECT_EQ(keep.engine, NodeId{4});
  EXPECT_EQ(keep.keep, 1);
  const auto full = decode_migrate_out(encode_migrate_out({NodeId{4}}));
  EXPECT_EQ(full.keep, 0);

  MigrateInMsg in;
  in.engine = NodeId{4};
  in.exec_seq = 55;
  const auto mi = decode_migrate_in(encode_migrate_in(in));
  EXPECT_EQ(mi.engine, NodeId{4});
  EXPECT_EQ(mi.exec_seq, 55u);

  TrafficReportMsg tr;
  tr.peer_frames = 12;
  tr.peer_bytes = 3'456;
  const auto tb = decode_traffic_report(encode_traffic_report(tr));
  EXPECT_EQ(tb.peer_frames, 12u);
  EXPECT_EQ(tb.peer_bytes, 3'456u);
}

TEST(WireCodec, TopologyAndRegistrationRoundTrip) {
  TopologyMsg topo;
  for (std::uint32_t i = 0; i < 4; ++i) {
    topo.participants.emplace_back(i);
    topo.members.emplace_back(i);
  }
  for (std::size_t i = 0; i < 16; ++i) {
    topo.dense.push_back(0.5 * static_cast<double>(i));
  }
  const auto t = decode_topology(encode_topology(topo));
  EXPECT_EQ(t.participants, topo.participants);
  EXPECT_EQ(t.members, topo.members);
  EXPECT_EQ(t.dense, topo.dense);

  RegisterStreamMsg reg;
  reg.stream = "station.3";
  reg.publisher = NodeId{7};
  reg.schema = sim::sensor_schema();
  const auto r = decode_register_stream(encode_register_stream(reg));
  EXPECT_EQ(r.stream, reg.stream);
  EXPECT_EQ(r.publisher, reg.publisher);
  EXPECT_EQ(r.schema.size(), reg.schema.size());
  for (std::size_t i = 0; i < reg.schema.size(); ++i) {
    EXPECT_EQ(r.schema.field(i).name, reg.schema.field(i).name);
  }
}

TEST(WireCodec, SubscriptionAndDeployRoundTrip) {
  const auto spec = cql::parse_query(
      "SELECT S1.snowHeight, S1.timestamp, S2.snowHeight, S2.timestamp "
      "FROM Station1 [Range 30 Minutes] S1, Station2 [Now] S2 "
      "WHERE S1.snowHeight >= S2.snowHeight AND S1.temperature < 2.5",
      QueryId{9}, NodeId{5});

  pubsub::Subscription sub;
  sub.id = SubscriptionId{42};
  sub.subscriber = NodeId{3};
  sub.streams = {"Station1"};
  sub.projection = {"snowHeight", "timestamp"};
  sub.filter = spec.where;
  const auto s = decode_subscribe(encode_subscribe({sub}));
  EXPECT_EQ(s.sub.id, sub.id);
  EXPECT_EQ(s.sub.subscriber, sub.subscriber);
  EXPECT_EQ(s.sub.streams, sub.streams);
  EXPECT_EQ(s.sub.projection, sub.projection);
  ASSERT_NE(s.sub.filter, nullptr);

  DeployUnitMsg deploy;
  deploy.unit_id = 11;
  deploy.host = NodeId{6};
  deploy.result_stream = "cosmos.result.11.v1";
  deploy.spec = spec;
  const auto d = decode_deploy_unit(encode_deploy_unit(deploy));
  EXPECT_EQ(d.unit_id, 11u);
  EXPECT_EQ(d.host, NodeId{6});
  EXPECT_EQ(d.result_stream, deploy.result_stream);
  EXPECT_EQ(d.spec.id, spec.id);
  EXPECT_EQ(d.spec.sources.size(), spec.sources.size());
  EXPECT_EQ(d.spec.select.size(), spec.select.size());
}

TEST(WireCodec, StateHandoffRoundTrip) {
  Rng rng{7};
  StateHandoffMsg msg;
  msg.engine = NodeId{4};
  UnitStateMsg unit;
  unit.unit_id = 2;
  stream::WindowJoinOp::State join;
  join.watermark = 98'765;
  for (int i = 0; i < 5; ++i) {
    join.left.push_back(random_tuple(rng, 3, 1'000 + i));
    join.right.push_back(random_tuple(rng, 2, 2'000 + i));
  }
  unit.joins.push_back(join);
  msg.units.push_back(std::move(unit));

  const Frame f = encode_state_handoff(msg);
  EXPECT_GT(f.payload.size(), 0u);
  const auto back = decode_state_handoff(f);
  EXPECT_EQ(back.engine, msg.engine);
  ASSERT_EQ(back.units.size(), 1u);
  EXPECT_EQ(back.units[0].unit_id, 2u);
  ASSERT_EQ(back.units[0].joins.size(), 1u);
  const auto& j = back.units[0].joins[0];
  EXPECT_EQ(j.watermark, join.watermark);
  EXPECT_TRUE(tuples_eq(j.left, join.left));
  EXPECT_TRUE(tuples_eq(j.right, join.right));
}

TEST(WireCodec, ExecuteAndResultCarryIngestStamps) {
  Rng rng{11};
  ExecuteMsg exec;
  exec.engine = NodeId{6};
  exec.batch = runtime::TupleBatch{"S"};
  exec.batch.push_back(random_tuple(rng, 2, 10));
  exec.ingest_ns = 123'456'789'012ull;
  const auto exec_back =
      decode_execute_bundle(encode_execute_bundle(bundle_of(exec)));
  ASSERT_EQ(exec_back.entries.size(), 1u);
  EXPECT_EQ(exec_back.entries[0].engine, exec.engine);
  EXPECT_EQ(exec_back.ingest_ns, exec.ingest_ns);

  ResultMsg result;
  result.events.push_back({"r1", random_tuple(rng, 1, 20), 42ull});
  result.events.push_back({"r2", random_tuple(rng, 1, 21), 0ull});
  const auto result_back = decode_result(encode_result(result));
  ASSERT_EQ(result_back.events.size(), 2u);
  EXPECT_EQ(result_back.events[0].stream, "r1");
  EXPECT_EQ(result_back.events[0].ingest_ns, 42u);
  EXPECT_EQ(result_back.events[1].ingest_ns, 0u);
}

TEST(WireCodec, StatsSampleRoundTrip) {
  StatsSampleMsg msg;
  msg.worker_index = 2;
  msg.now_ms = 3'600'000;
  msg.metrics.counters = {{"shard.tuples", 12'345}, {"shard.tasks", 99}};
  std::sort(msg.metrics.counters.begin(), msg.metrics.counters.end());
  msg.metrics.gauges = {{"shard.max_queue_depth", 4.0}};
  obs::HistogramSnapshot h;
  for (std::uint64_t v = 1; v <= 50; ++v) h.record(v * 100);
  msg.metrics.histograms.emplace_back("lat", h);
  obs::CollectedSpan span;
  span.name = "task";
  span.cat = "shard";
  span.start_ns = 1'000;
  span.dur_ns = 500;
  span.arg = 7;
  span.tid = 3;
  msg.spans.push_back(span);
  obs::CollectedSpan inst;
  inst.name = "migration";
  inst.cat = "adapt";
  inst.start_ns = 2'000;
  inst.instant = true;
  msg.spans.push_back(inst);

  const auto back = decode_stats_sample(encode_stats_sample(msg));
  EXPECT_EQ(back.version, StatsSampleMsg::kVersion);
  EXPECT_EQ(back.worker_index, 2u);
  EXPECT_EQ(back.now_ms, 3'600'000);
  ASSERT_NE(back.metrics.counter("shard.tuples"), nullptr);
  EXPECT_EQ(*back.metrics.counter("shard.tuples"), 12'345u);
  ASSERT_NE(back.metrics.gauge("shard.max_queue_depth"), nullptr);
  const obs::HistogramSnapshot* hb = back.metrics.histogram("lat");
  ASSERT_NE(hb, nullptr);
  EXPECT_EQ(hb->count, h.count);
  EXPECT_EQ(hb->sum, h.sum);
  EXPECT_EQ(hb->percentile(95.0), h.percentile(95.0));
  ASSERT_EQ(back.spans.size(), 2u);
  EXPECT_EQ(back.spans[0].name, "task");
  EXPECT_EQ(back.spans[0].dur_ns, 500u);
  EXPECT_EQ(back.spans[0].tid, 3u);
  EXPECT_FALSE(back.spans[0].instant);
  EXPECT_TRUE(back.spans[1].instant);

  // Unsupported payload versions are rejected, not half-read.
  StatsSampleMsg bad = msg;
  bad.version = 99;
  EXPECT_THROW((void)decode_stats_sample(encode_stats_sample(bad)), Error);
}

// --- fault paths -----------------------------------------------------------

std::vector<std::uint8_t> encoded(const Frame& f) { return encode_frame(f); }

TEST(WireCodec, RejectsBadMagic) {
  auto buf = encoded(encode_watermark({1}));
  buf[0] ^= 0xFF;
  std::uint8_t header[kFrameHeaderBytes];
  std::copy(buf.begin(), buf.begin() + kFrameHeaderBytes, header);
  FrameType type{};
  EXPECT_THROW((void)decode_frame_header(header, type), Error);
}

TEST(WireCodec, RejectsVersionMismatch) {
  auto buf = encoded(encode_watermark({1}));
  buf[4] = 0x7F;  // version lives after the u32 magic
  buf[5] = 0x7F;
  std::uint8_t header[kFrameHeaderBytes];
  std::copy(buf.begin(), buf.begin() + kFrameHeaderBytes, header);
  FrameType type{};
  EXPECT_THROW((void)decode_frame_header(header, type), Error);
}

TEST(WireCodec, RejectsOversizePayloadClaim) {
  auto buf = encoded(encode_watermark({1}));
  // Payload length is the trailing u32 of the header (little-endian).
  buf[8] = 0xFF;
  buf[9] = 0xFF;
  buf[10] = 0xFF;
  buf[11] = 0xFF;
  std::uint8_t header[kFrameHeaderBytes];
  std::copy(buf.begin(), buf.begin() + kFrameHeaderBytes, header);
  FrameType type{};
  EXPECT_THROW((void)decode_frame_header(header, type), Error);
}

TEST(WireCodec, RejectsTruncatedPayload) {
  Rng rng{3};
  MatchRequestMsg msg;
  msg.job = 5;
  msg.runs.push_back(shared(random_batch(rng)));
  Frame f = encode_match_request(msg);
  ASSERT_GT(f.payload.size(), 1u);
  f.payload.resize(f.payload.size() / 2);
  EXPECT_THROW((void)decode_match_request(f), Error);
}

TEST(WireCodec, RejectsTrailingBytes) {
  Frame f = encode_watermark({1});
  f.payload.push_back(0);
  EXPECT_THROW((void)decode_watermark(f), Error);
}

TEST(WireCodec, RejectsWrongFrameType) {
  const Frame f = encode_watermark({1});
  EXPECT_THROW((void)decode_flush(f), Error);
}

TEST(WireCodec, RejectsImplausibleElementCount) {
  // A result frame claiming 2^31 events in a 12-byte payload must fail the
  // count check, not attempt a giant allocation.
  Frame f;
  f.type = FrameType::kResult;
  Writer w;
  w.u32(0x8000'0000u);
  f.payload = w.take();
  EXPECT_THROW((void)decode_result(f), Error);
}

TEST(WireCodec, RejectsUnknownPredicateTag) {
  pubsub::Subscription sub;
  sub.id = SubscriptionId{1};
  sub.subscriber = NodeId{0};
  sub.streams = {"s"};
  sub.filter = stream::Predicate::always_true();
  Frame f = encode_subscribe({sub});
  // The predicate tag is the last structural byte region; corrupt every
  // byte position in turn and require decode to either succeed (the byte
  // was a value payload) or throw Error — never crash or mis-parse into a
  // different frame type.
  for (std::size_t i = 0; i < f.payload.size(); ++i) {
    Frame mutated = f;
    mutated.payload[i] ^= 0xA5;
    try {
      (void)decode_subscribe(mutated);
    } catch (const Error&) {
      // expected for structural bytes
    }
  }
}

TEST(WireCodec, SerializedStateBytesMatchesEncoding) {
  Rng rng{11};
  std::vector<stream::WindowJoinOp::State> joins(2);
  joins[0].watermark = 10;
  joins[0].left.push_back(random_tuple(rng, 2, 5));
  joins[1].right.push_back(random_tuple(rng, 4, 9));
  Writer w;
  encode_join_state(w, joins);
  EXPECT_EQ(serialized_state_bytes(joins), w.size());
}

// --- v4 chunk frames: malformed inputs -------------------------------------

/// Hand-built bundle payload: runs, then entries as (engine, seq, run,
/// rows) — lets a test write exactly the malformed field it means.
struct RawBundle {
  std::vector<runtime::TupleBatch> runs;
  struct Entry {
    std::uint32_t engine = 1;
    std::uint64_t seq = 0;
    std::uint32_t run = 0;
    std::vector<std::uint32_t> rows;
  };
  std::vector<Entry> entries;

  [[nodiscard]] Frame frame() const {
    Writer w;
    w.u64(0);
    w.u32(static_cast<std::uint32_t>(runs.size()));
    for (const auto& r : runs) encode_batch(w, r);
    w.u32(static_cast<std::uint32_t>(entries.size()));
    for (const auto& e : entries) {
      w.u32(e.engine);
      w.u64(e.seq);
      w.u32(e.run);
      w.u32(static_cast<std::uint32_t>(e.rows.size()));
      for (const auto r : e.rows) w.u32(r);
    }
    return Frame{FrameType::kExecuteBundle, w.take()};
  }
};

RawBundle two_row_bundle() {
  Rng rng{99};
  RawBundle b;
  runtime::TupleBatch run{"S"};
  run.push_back(random_tuple(rng, 2, 10));
  run.push_back(random_tuple(rng, 2, 11));
  b.runs.push_back(std::move(run));
  b.entries.push_back({});
  return b;
}

TEST(WireCodec, RejectsMalformedBundles) {
  // The well-formed baseline decodes.
  EXPECT_NO_THROW((void)decode_execute_bundle(two_row_bundle().frame()));

  auto run_out_of_range = two_row_bundle();
  run_out_of_range.entries[0].run = 1;
  EXPECT_THROW((void)decode_execute_bundle(run_out_of_range.frame()), Error);

  auto unsorted = two_row_bundle();
  unsorted.entries[0].rows = {1, 0};
  EXPECT_THROW((void)decode_execute_bundle(unsorted.frame()), Error);

  auto repeated = two_row_bundle();
  repeated.entries[0].rows = {0, 0};
  EXPECT_THROW((void)decode_execute_bundle(repeated.frame()), Error);

  auto past_end = two_row_bundle();
  past_end.entries[0].rows = {0, 2};  // reaches the run's size
  EXPECT_THROW((void)decode_execute_bundle(past_end.frame()), Error);

  auto no_runs = two_row_bundle();
  no_runs.runs.clear();
  EXPECT_THROW((void)decode_execute_bundle(no_runs.frame()), Error);

  auto no_entries = two_row_bundle();
  no_entries.entries.clear();
  EXPECT_THROW((void)decode_execute_bundle(no_entries.frame()), Error);

  // Implausible counts: a claimed run, entry or row count larger than the
  // bytes left fails the count check before anything is reserved.
  const Frame valid = two_row_bundle().frame();
  Writer runs_prefix;
  runs_prefix.u64(0);
  runs_prefix.u32(1);
  encode_batch(runs_prefix, two_row_bundle().runs[0]);
  const std::size_t run_count_at = 8;
  const std::size_t entry_count_at = runs_prefix.size();
  const std::size_t row_count_at = valid.payload.size() - 4;  // last field
  for (const std::size_t at : {run_count_at, entry_count_at, row_count_at}) {
    Frame f = valid;
    for (std::size_t i = 0; i < 4; ++i) f.payload[at + i] = 0xFF;
    EXPECT_THROW((void)decode_execute_bundle(f), Error) << "offset " << at;
  }
}

TEST(WireCodec, RejectsMalformedMatchFrames) {
  // A request must carry runs.
  EXPECT_THROW((void)decode_match_request(encode_match_request({3, {}})),
               Error);

  MatchResponseMsg unsorted;
  unsorted.job = 1;
  unsorted.runs.push_back({{SubscriptionId{4}, {3, 1}}});
  EXPECT_THROW((void)decode_match_response(encode_match_response(unsorted)),
               Error);

  // Run count claiming more runs than bytes left.
  Writer w;
  w.u64(1);
  w.u32(0x8000'0000u);
  EXPECT_THROW(
      (void)decode_match_response(Frame{FrameType::kMatchResponse, w.take()}),
      Error);
  Writer wr;
  wr.u64(1);
  wr.u32(0x8000'0000u);
  EXPECT_THROW(
      (void)decode_match_request(Frame{FrameType::kMatchRequest, wr.take()}),
      Error);
}

/// Mutation sweep: flipping any single byte of an encoded bundle or chunk
/// match frame either still decodes into a bundle whose run indices and
/// rows are all in range, or throws wire::Error — never a crash, an
/// unchecked index, or an exception of another type.
TEST(WireCodec, ChunkFrameMutationsNeverMisparse) {
  Rng rng{31337};
  for (int iter = 0; iter < 12; ++iter) {
    const Frame bundle = encode_execute_bundle(random_bundle(rng));
    for (std::size_t i = 0; i < bundle.payload.size(); ++i) {
      Frame mutated = bundle;
      mutated.payload[i] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
      try {
        const auto m = decode_execute_bundle(mutated);
        for (const auto& e : m.entries) {
          ASSERT_LT(e.run, m.runs.size());
          for (std::size_t k = 0; k < e.rows.size(); ++k) {
            ASSERT_LT(e.rows[k], m.runs[e.run]->size());
            if (k > 0) ASSERT_LT(e.rows[k - 1], e.rows[k]);
          }
        }
      } catch (const Error&) {
      }
    }
    MatchRequestMsg req;
    req.job = iter;
    req.runs.push_back(shared(random_batch(rng)));
    const Frame request = encode_match_request(req);
    for (std::size_t i = 0; i < request.payload.size(); ++i) {
      Frame mutated = request;
      mutated.payload[i] ^= 0x5A;
      try {
        (void)decode_match_request(mutated);
      } catch (const Error&) {
      }
    }
  }
}

/// A v4 peer's frames are refused at the header, typed.
TEST(WireCodec, RejectsV4Frames) {
  static_assert(kProtocolVersion == 5);
  auto buf = encoded(encode_watermark({1}));
  buf[4] = 4;  // u16 LE version
  buf[5] = 0;
  std::uint8_t header[kFrameHeaderBytes];
  std::copy(buf.begin(), buf.begin() + kFrameHeaderBytes, header);
  FrameType type{};
  EXPECT_THROW((void)decode_frame_header(header, type), Error);
  // The explicit peer-hello echo names the version too.
  EXPECT_EQ(decode_peer_hello(encode_peer_hello({4, 1})).protocol, 4);
}

}  // namespace
}  // namespace cosmos::wire
