#include "wire/messages.h"

#include <limits>

namespace cosmos::wire {
namespace {

[[nodiscard]] Frame finish(FrameType type, Writer&& w) {
  return Frame{type, w.take()};
}

[[nodiscard]] Reader open(const Frame& f, FrameType expect) {
  if (f.type != expect) {
    throw Error{std::string{"wire: expected "} + to_string(expect) +
                " frame, got " + to_string(f.type)};
  }
  return Reader{f.payload};
}

void encode_node_id(Writer& w, NodeId id) { w.u32(id.value()); }
[[nodiscard]] NodeId decode_node_id(Reader& r) { return NodeId{r.u32()}; }

void encode_floors(Writer& w, const std::vector<EngineFloor>& floors) {
  w.u32(static_cast<std::uint32_t>(floors.size()));
  for (const auto& f : floors) {
    encode_node_id(w, f.engine);
    w.u64(f.seq);
  }
}

[[nodiscard]] std::vector<EngineFloor> decode_floors(Reader& r) {
  const std::uint32_t count = r.u32();
  check_count(count, r.remaining(), "engine floor");
  std::vector<EngineFloor> floors;
  floors.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    EngineFloor f;
    f.engine = decode_node_id(r);
    f.seq = r.u64();
    floors.push_back(f);
  }
  return floors;
}

void encode_rows(Writer& w, const std::vector<std::uint32_t>& rows) {
  w.u32(static_cast<std::uint32_t>(rows.size()));
  for (const std::uint32_t row : rows) w.u32(row);
}

/// A row selection: strictly ascending, and below `limit` (the selected
/// run's size, where the decoder knows it).
[[nodiscard]] std::vector<std::uint32_t> decode_rows(
    Reader& r, const char* what,
    std::uint64_t limit = std::numeric_limits<std::uint64_t>::max()) {
  const std::uint32_t count = r.u32();
  check_count(count, r.remaining(), what);
  std::vector<std::uint32_t> rows;
  rows.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t row = r.u32();
    if (!rows.empty() && row <= rows.back()) {
      throw Error{std::string{"wire: "} + what +
                  " indices not strictly ascending"};
    }
    if (row >= limit) {
      throw Error{std::string{"wire: "} + what + " index " +
                  std::to_string(row) + " reaches the run size " +
                  std::to_string(limit)};
    }
    rows.push_back(row);
  }
  return rows;
}

void encode_runs(Writer& w, const std::vector<SharedRun>& runs) {
  w.u32(static_cast<std::uint32_t>(runs.size()));
  for (const auto& run : runs) encode_batch(w, *run);
}

[[nodiscard]] std::vector<SharedRun> decode_runs(Reader& r, const char* what) {
  const std::uint32_t count = r.u32();
  check_count(count, r.remaining(), what);
  std::vector<SharedRun> runs;
  runs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    runs.push_back(std::make_shared<const runtime::TupleBatch>(decode_batch(r)));
  }
  return runs;
}

void encode_deploy_payload(Writer& w, const DeployUnitMsg& m) {
  w.u32(m.unit_id);
  encode_node_id(w, m.host);
  w.str(m.result_stream);
  encode_query_spec(w, m.spec);
}

[[nodiscard]] DeployUnitMsg decode_deploy_payload(Reader& r) {
  DeployUnitMsg m;
  m.unit_id = r.u32();
  m.host = decode_node_id(r);
  m.result_stream = r.str();
  m.spec = decode_query_spec(r);
  return m;
}

}  // namespace

void encode_unit_states(Writer& w, const std::vector<UnitStateMsg>& units) {
  w.u32(static_cast<std::uint32_t>(units.size()));
  for (const auto& u : units) {
    w.u32(u.unit_id);
    encode_join_state(w, u.joins);
  }
}

std::vector<UnitStateMsg> decode_unit_states(Reader& r, const char* what) {
  const std::uint32_t count = r.u32();
  check_count(count, r.remaining(), what);
  std::vector<UnitStateMsg> units(count);
  for (auto& u : units) {
    u.unit_id = r.u32();
    u.joins = decode_join_state(r);
  }
  return units;
}

Frame encode_hello(const HelloMsg& m) {
  Writer w;
  w.u16(m.protocol);
  w.u32(m.worker_index);
  w.u32(m.shards);
  w.i64(m.send_delay_ms);
  w.i64(m.stats_sample_every_ms);
  w.u8(m.trace);
  w.u8(m.peer_links);
  w.i64(m.heartbeat_every_ms);
  w.i64(m.liveness_deadline_ms);
  return finish(FrameType::kHello, std::move(w));
}

HelloMsg decode_hello(const Frame& f) {
  auto r = open(f, FrameType::kHello);
  HelloMsg m;
  m.protocol = r.u16();
  m.worker_index = r.u32();
  m.shards = r.u32();
  m.send_delay_ms = r.i64();
  m.stats_sample_every_ms = r.i64();
  m.trace = r.u8();
  m.peer_links = r.u8();
  m.heartbeat_every_ms = r.i64();
  m.liveness_deadline_ms = r.i64();
  r.done();
  return m;
}

Frame encode_hello_ack(const HelloAckMsg& m) {
  Writer w;
  w.str(m.info);
  return finish(FrameType::kHelloAck, std::move(w));
}

HelloAckMsg decode_hello_ack(const Frame& f) {
  auto r = open(f, FrameType::kHelloAck);
  HelloAckMsg m;
  m.info = r.str();
  r.done();
  return m;
}

Frame encode_topology(const TopologyMsg& m) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(m.participants.size()));
  for (NodeId id : m.participants) encode_node_id(w, id);
  w.u32(static_cast<std::uint32_t>(m.members.size()));
  for (NodeId id : m.members) encode_node_id(w, id);
  if (m.dense.size() != m.members.size() * m.members.size()) {
    throw Error{"wire: topology dense matrix is not members^2"};
  }
  for (double d : m.dense) w.f64(d);
  return finish(FrameType::kTopology, std::move(w));
}

TopologyMsg decode_topology(const Frame& f) {
  auto r = open(f, FrameType::kTopology);
  TopologyMsg m;
  const std::uint32_t participants = r.u32();
  check_count(participants, r.remaining(), "topology participant");
  m.participants.reserve(participants);
  for (std::uint32_t i = 0; i < participants; ++i) {
    m.participants.push_back(decode_node_id(r));
  }
  const std::uint32_t members = r.u32();
  check_count(members, r.remaining(), "topology member");
  m.members.reserve(members);
  for (std::uint32_t i = 0; i < members; ++i) {
    m.members.push_back(decode_node_id(r));
  }
  const std::uint64_t cells =
      static_cast<std::uint64_t>(members) * members;
  check_count(cells, r.remaining(), "topology matrix cell");
  m.dense.reserve(cells);
  for (std::uint64_t i = 0; i < cells; ++i) m.dense.push_back(r.f64());
  r.done();
  return m;
}

Frame encode_register_stream(const RegisterStreamMsg& m) {
  Writer w;
  w.str(m.stream);
  encode_node_id(w, m.publisher);
  encode_schema(w, m.schema);
  return finish(FrameType::kRegisterStream, std::move(w));
}

RegisterStreamMsg decode_register_stream(const Frame& f) {
  auto r = open(f, FrameType::kRegisterStream);
  RegisterStreamMsg m;
  m.stream = r.str();
  m.publisher = decode_node_id(r);
  m.schema = decode_schema(r);
  r.done();
  return m;
}

Frame encode_subscribe(const SubscribeMsg& m) {
  Writer w;
  encode_subscription(w, m.sub);
  return finish(FrameType::kSubscribe, std::move(w));
}

SubscribeMsg decode_subscribe(const Frame& f) {
  auto r = open(f, FrameType::kSubscribe);
  SubscribeMsg m;
  m.sub = decode_subscription(r);
  r.done();
  return m;
}

Frame encode_deploy_unit(const DeployUnitMsg& m) {
  Writer w;
  encode_deploy_payload(w, m);
  return finish(FrameType::kDeployUnit, std::move(w));
}

DeployUnitMsg decode_deploy_unit(const Frame& f) {
  auto r = open(f, FrameType::kDeployUnit);
  DeployUnitMsg m = decode_deploy_payload(r);
  r.done();
  return m;
}

Frame encode_match_request(const MatchRequestMsg& m) {
  Writer w;
  w.u64(m.job);
  encode_runs(w, m.runs);
  return finish(FrameType::kMatchRequest, std::move(w));
}

MatchRequestMsg decode_match_request(const Frame& f) {
  auto r = open(f, FrameType::kMatchRequest);
  MatchRequestMsg m;
  m.job = r.u64();
  m.runs = decode_runs(r, "match request run");
  if (m.runs.empty()) throw Error{"wire: match request carries no runs"};
  r.done();
  return m;
}

Frame encode_match_response(const MatchResponseMsg& m) {
  Writer w;
  w.u64(m.job);
  w.u32(static_cast<std::uint32_t>(m.runs.size()));
  for (const auto& run : m.runs) {
    w.u32(static_cast<std::uint32_t>(run.size()));
    for (const auto& [sub, rows] : run) {
      w.u32(sub.value());
      encode_rows(w, rows);
    }
  }
  return finish(FrameType::kMatchResponse, std::move(w));
}

MatchResponseMsg decode_match_response(const Frame& f) {
  auto r = open(f, FrameType::kMatchResponse);
  MatchResponseMsg m;
  m.job = r.u64();
  const std::uint32_t runs = r.u32();
  check_count(runs, r.remaining(), "match response run");
  m.runs.resize(runs);
  for (auto& run : m.runs) {
    const std::uint32_t deliveries = r.u32();
    check_count(deliveries, r.remaining(), "match delivery");
    run.reserve(deliveries);
    for (std::uint32_t i = 0; i < deliveries; ++i) {
      const SubscriptionId sub{r.u32()};
      run.emplace_back(sub, decode_rows(r, "matched row"));
    }
  }
  r.done();
  return m;
}

void ExecuteBundleMsg::add(NodeId engine, std::uint64_t seq,
                           const SharedRun& run,
                           std::vector<std::uint32_t> rows) {
  if (runs.empty() || runs.back() != run) runs.push_back(run);
  entries.push_back({engine, seq, static_cast<std::uint32_t>(runs.size() - 1),
                     std::move(rows)});
}

ExecuteBundleMsg bundle_of(ExecuteMsg m) {
  ExecuteBundleMsg b;
  b.ingest_ns = m.ingest_ns;
  b.add(m.engine, m.seq,
        std::make_shared<const runtime::TupleBatch>(std::move(m.batch)), {});
  return b;
}

Frame encode_execute_bundle(const ExecuteBundleMsg& m) {
  Writer w;
  w.u64(m.ingest_ns);
  encode_runs(w, m.runs);
  w.u32(static_cast<std::uint32_t>(m.entries.size()));
  for (const auto& e : m.entries) {
    encode_node_id(w, e.engine);
    w.u64(e.seq);
    w.u32(e.run);
    encode_rows(w, e.rows);
  }
  return finish(FrameType::kExecuteBundle, std::move(w));
}

ExecuteBundleMsg decode_execute_bundle(const Frame& f) {
  auto r = open(f, FrameType::kExecuteBundle);
  ExecuteBundleMsg m;
  m.ingest_ns = r.u64();
  m.runs = decode_runs(r, "bundle run");
  const std::uint32_t entries = r.u32();
  check_count(entries, r.remaining(), "bundle entry");
  if (entries == 0) throw Error{"wire: execute bundle carries no entries"};
  if (m.runs.empty()) throw Error{"wire: execute bundle entries with no runs"};
  m.entries.reserve(entries);
  for (std::uint32_t i = 0; i < entries; ++i) {
    ExecuteBundleMsg::Entry e;
    e.engine = decode_node_id(r);
    e.seq = r.u64();
    e.run = r.u32();
    if (e.run >= m.runs.size()) {
      throw Error{"wire: bundle entry names run " + std::to_string(e.run) +
                  " of " + std::to_string(m.runs.size())};
    }
    e.rows = decode_rows(r, "bundle row", m.runs[e.run]->size());
    m.entries.push_back(std::move(e));
  }
  r.done();
  return m;
}

Frame encode_result(const ResultMsg& m) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(m.events.size()));
  for (const auto& e : m.events) {
    w.str(e.stream);
    encode_tuple(w, e.tuple);
    w.u64(e.ingest_ns);
  }
  return finish(FrameType::kResult, std::move(w));
}

ResultMsg decode_result(const Frame& f) {
  auto r = open(f, FrameType::kResult);
  ResultMsg m;
  const std::uint32_t events = r.u32();
  check_count(events, r.remaining(), "result event");
  m.events.reserve(events);
  for (std::uint32_t i = 0; i < events; ++i) {
    ResultEventMsg e;
    e.stream = r.str();
    e.tuple = decode_tuple(r);
    e.ingest_ns = r.u64();
    m.events.push_back(std::move(e));
  }
  r.done();
  return m;
}

Frame encode_watermark(const WatermarkMsg& m) {
  Writer w;
  w.i64(m.watermark);
  encode_floors(w, m.floors);
  return finish(FrameType::kWatermark, std::move(w));
}

WatermarkMsg decode_watermark(const Frame& f) {
  auto r = open(f, FrameType::kWatermark);
  WatermarkMsg m;
  m.watermark = r.i64();
  m.floors = decode_floors(r);
  r.done();
  return m;
}

Frame encode_flush(const FlushMsg& m) {
  Writer w;
  w.u64(m.seq);
  encode_floors(w, m.floors);
  return finish(FrameType::kFlush, std::move(w));
}

FlushMsg decode_flush(const Frame& f) {
  auto r = open(f, FrameType::kFlush);
  FlushMsg m;
  m.seq = r.u64();
  m.floors = decode_floors(r);
  r.done();
  return m;
}

Frame encode_flush_ack(const FlushAckMsg& m) {
  Writer w;
  w.u64(m.seq);
  return finish(FrameType::kFlushAck, std::move(w));
}

FlushAckMsg decode_flush_ack(const Frame& f) {
  auto r = open(f, FrameType::kFlushAck);
  FlushAckMsg m;
  m.seq = r.u64();
  r.done();
  return m;
}

Frame encode_migrate_out(const MigrateOutMsg& m) {
  Writer w;
  encode_node_id(w, m.engine);
  w.u8(m.keep);
  return finish(FrameType::kMigrateOut, std::move(w));
}

MigrateOutMsg decode_migrate_out(const Frame& f) {
  auto r = open(f, FrameType::kMigrateOut);
  MigrateOutMsg m;
  m.engine = decode_node_id(r);
  m.keep = r.u8();
  r.done();
  return m;
}

Frame encode_state_handoff(const StateHandoffMsg& m) {
  Writer w;
  encode_node_id(w, m.engine);
  encode_unit_states(w, m.units);
  return finish(FrameType::kStateHandoff, std::move(w));
}

StateHandoffMsg decode_state_handoff(const Frame& f) {
  auto r = open(f, FrameType::kStateHandoff);
  StateHandoffMsg m;
  m.engine = decode_node_id(r);
  m.units = decode_unit_states(r, "handoff unit");
  r.done();
  return m;
}

Frame encode_migrate_in(const MigrateInMsg& m) {
  Writer w;
  encode_node_id(w, m.engine);
  w.u32(static_cast<std::uint32_t>(m.units.size()));
  for (const auto& u : m.units) encode_deploy_payload(w, u);
  encode_unit_states(w, m.state);
  w.u64(m.exec_seq);
  return finish(FrameType::kMigrateIn, std::move(w));
}

MigrateInMsg decode_migrate_in(const Frame& f) {
  auto r = open(f, FrameType::kMigrateIn);
  MigrateInMsg m;
  m.engine = decode_node_id(r);
  const std::uint32_t units = r.u32();
  check_count(units, r.remaining(), "migrate-in unit");
  m.units.reserve(units);
  for (std::uint32_t i = 0; i < units; ++i) {
    m.units.push_back(decode_deploy_payload(r));
  }
  m.state = decode_unit_states(r, "migrate-in state");
  m.exec_seq = r.u64();
  r.done();
  return m;
}

Frame encode_migrate_ack(const MigrateAckMsg& m) {
  Writer w;
  encode_node_id(w, m.engine);
  return finish(FrameType::kMigrateAck, std::move(w));
}

MigrateAckMsg decode_migrate_ack(const Frame& f) {
  auto r = open(f, FrameType::kMigrateAck);
  MigrateAckMsg m;
  m.engine = decode_node_id(r);
  r.done();
  return m;
}

Frame encode_traffic_request() {
  return Frame{FrameType::kTrafficRequest, {}};
}

Frame encode_traffic_report(const TrafficReportMsg& m) {
  Writer w;
  encode_traffic(w, m.traffic);
  w.u64(m.peer_frames);
  w.u64(m.peer_bytes);
  return finish(FrameType::kTrafficReport, std::move(w));
}

TrafficReportMsg decode_traffic_report(const Frame& f) {
  auto r = open(f, FrameType::kTrafficReport);
  TrafficReportMsg m;
  m.traffic = decode_traffic(r);
  m.peer_frames = r.u64();
  m.peer_bytes = r.u64();
  r.done();
  return m;
}

Frame encode_error(const ErrorMsg& m) {
  Writer w;
  w.str(m.message);
  return finish(FrameType::kError, std::move(w));
}

ErrorMsg decode_error(const Frame& f) {
  auto r = open(f, FrameType::kError);
  ErrorMsg m;
  m.message = r.str();
  r.done();
  return m;
}

Frame encode_bye() { return Frame{FrameType::kBye, {}}; }

namespace {

void encode_histogram_snapshot(Writer& w, const obs::HistogramSnapshot& h) {
  w.u64(h.count);
  w.u64(h.sum);
  w.u32(static_cast<std::uint32_t>(h.buckets.size()));
  for (const auto& [bucket, n] : h.buckets) {
    w.u16(bucket);
    w.u64(n);
  }
}

[[nodiscard]] obs::HistogramSnapshot decode_histogram_snapshot(Reader& r) {
  obs::HistogramSnapshot h;
  h.count = r.u64();
  h.sum = r.u64();
  const std::uint32_t buckets = r.u32();
  check_count(buckets, r.remaining(), "histogram bucket");
  h.buckets.reserve(buckets);
  std::uint32_t prev = 0;
  for (std::uint32_t i = 0; i < buckets; ++i) {
    const std::uint16_t bucket = r.u16();
    if (bucket >= obs::kBucketCount ||
        (i != 0 && bucket <= prev)) {
      throw Error{"wire: histogram buckets not strictly ascending in range"};
    }
    prev = bucket;
    h.buckets.emplace_back(bucket, r.u64());
  }
  return h;
}

void encode_metrics_snapshot(Writer& w, const obs::MetricsSnapshot& m) {
  w.u32(static_cast<std::uint32_t>(m.counters.size()));
  for (const auto& [name, v] : m.counters) {
    w.str(name);
    w.u64(v);
  }
  w.u32(static_cast<std::uint32_t>(m.gauges.size()));
  for (const auto& [name, v] : m.gauges) {
    w.str(name);
    w.f64(v);
  }
  w.u32(static_cast<std::uint32_t>(m.histograms.size()));
  for (const auto& [name, h] : m.histograms) {
    w.str(name);
    encode_histogram_snapshot(w, h);
  }
}

[[nodiscard]] obs::MetricsSnapshot decode_metrics_snapshot(Reader& r) {
  obs::MetricsSnapshot m;
  const std::uint32_t counters = r.u32();
  check_count(counters, r.remaining(), "metric counter");
  m.counters.reserve(counters);
  for (std::uint32_t i = 0; i < counters; ++i) {
    auto name = r.str();
    m.counters.emplace_back(std::move(name), r.u64());
  }
  const std::uint32_t gauges = r.u32();
  check_count(gauges, r.remaining(), "metric gauge");
  m.gauges.reserve(gauges);
  for (std::uint32_t i = 0; i < gauges; ++i) {
    auto name = r.str();
    m.gauges.emplace_back(std::move(name), r.f64());
  }
  const std::uint32_t histograms = r.u32();
  check_count(histograms, r.remaining(), "metric histogram");
  m.histograms.reserve(histograms);
  for (std::uint32_t i = 0; i < histograms; ++i) {
    auto name = r.str();
    m.histograms.emplace_back(std::move(name), decode_histogram_snapshot(r));
  }
  return m;
}

void encode_span(Writer& w, const obs::CollectedSpan& s) {
  w.str(s.name);
  w.str(s.cat);
  w.u64(s.start_ns);
  w.u64(s.dur_ns);
  w.u64(s.arg);
  w.u32(s.tid);
  w.u8(s.instant ? 1 : 0);
  // pid is assigned driver-side from the owning channel's worker index;
  // it does not travel.
}

[[nodiscard]] obs::CollectedSpan decode_span(Reader& r) {
  obs::CollectedSpan s;
  s.name = r.str();
  s.cat = r.str();
  s.start_ns = r.u64();
  s.dur_ns = r.u64();
  s.arg = r.u64();
  s.tid = r.u32();
  s.instant = r.u8() != 0;
  return s;
}

}  // namespace

Frame encode_stats_sample(const StatsSampleMsg& m) {
  Writer w;
  w.u16(m.version);
  w.u32(m.worker_index);
  w.i64(m.now_ms);
  encode_metrics_snapshot(w, m.metrics);
  w.u32(static_cast<std::uint32_t>(m.spans.size()));
  for (const auto& s : m.spans) encode_span(w, s);
  return finish(FrameType::kStatsSample, std::move(w));
}

StatsSampleMsg decode_stats_sample(const Frame& f) {
  auto r = open(f, FrameType::kStatsSample);
  StatsSampleMsg m;
  m.version = r.u16();
  if (m.version != StatsSampleMsg::kVersion) {
    throw Error{"wire: unsupported stats-sample version " +
                std::to_string(m.version)};
  }
  m.worker_index = r.u32();
  m.now_ms = r.i64();
  m.metrics = decode_metrics_snapshot(r);
  const std::uint32_t spans = r.u32();
  check_count(spans, r.remaining(), "trace span");
  m.spans.reserve(spans);
  for (std::uint32_t i = 0; i < spans; ++i) m.spans.push_back(decode_span(r));
  r.done();
  return m;
}

Frame encode_peer_table(const PeerTableMsg& m) {
  Writer w;
  w.u16(m.version);
  w.u32(static_cast<std::uint32_t>(m.endpoints.size()));
  for (const auto& e : m.endpoints) w.str(e);
  return finish(FrameType::kPeerTable, std::move(w));
}

PeerTableMsg decode_peer_table(const Frame& f) {
  auto r = open(f, FrameType::kPeerTable);
  PeerTableMsg m;
  m.version = r.u16();
  if (m.version != PeerTableMsg::kVersion) {
    throw Error{"wire: unsupported peer-table version " +
                std::to_string(m.version)};
  }
  const std::uint32_t count = r.u32();
  check_count(count, r.remaining(), "peer endpoint");
  m.endpoints.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) m.endpoints.push_back(r.str());
  r.done();
  return m;
}

Frame encode_route_decision(const RouteDecisionMsg& m) {
  Writer w;
  w.u64(m.job);
  w.u64(m.ingest_ns);
  w.u32(static_cast<std::uint32_t>(m.targets.size()));
  for (const auto& t : m.targets) {
    encode_node_id(w, t.engine);
    w.u32(t.worker);
    w.u64(t.seq);
    w.u32(t.run);
    encode_rows(w, t.rows);
  }
  return finish(FrameType::kRouteDecision, std::move(w));
}

RouteDecisionMsg decode_route_decision(const Frame& f) {
  auto r = open(f, FrameType::kRouteDecision);
  RouteDecisionMsg m;
  m.job = r.u64();
  m.ingest_ns = r.u64();
  const std::uint32_t targets = r.u32();
  check_count(targets, r.remaining(), "route target");
  m.targets.reserve(targets);
  for (std::uint32_t i = 0; i < targets; ++i) {
    RouteDecisionMsg::Target t;
    t.engine = decode_node_id(r);
    t.worker = r.u32();
    t.seq = r.u64();
    t.run = r.u32();
    // The retained runs live on the owner, so the run index and the row
    // bound are checked there (Site::on_route_decision).
    t.rows = decode_rows(r, "route target row");
    m.targets.push_back(std::move(t));
  }
  r.done();
  return m;
}

Frame encode_peer_hello(const PeerHelloMsg& m) {
  Writer w;
  w.u16(m.protocol);
  w.u32(m.worker_index);
  return finish(FrameType::kPeerHello, std::move(w));
}

PeerHelloMsg decode_peer_hello(const Frame& f) {
  auto r = open(f, FrameType::kPeerHello);
  PeerHelloMsg m;
  m.protocol = r.u16();
  m.worker_index = r.u32();
  r.done();
  return m;
}

Frame encode_peer_hello_ack(const PeerHelloAckMsg& m) {
  Writer w;
  w.u32(m.worker_index);
  return finish(FrameType::kPeerHelloAck, std::move(w));
}

PeerHelloAckMsg decode_peer_hello_ack(const Frame& f) {
  auto r = open(f, FrameType::kPeerHelloAck);
  PeerHelloAckMsg m;
  m.worker_index = r.u32();
  r.done();
  return m;
}

Frame encode_heartbeat(const HeartbeatMsg& m) {
  Writer w;
  w.u8(m.probe);
  return finish(FrameType::kHeartbeat, std::move(w));
}

HeartbeatMsg decode_heartbeat(const Frame& f) {
  auto r = open(f, FrameType::kHeartbeat);
  HeartbeatMsg m;
  m.probe = r.u8();
  r.done();
  return m;
}

Frame encode_peer_down(const PeerDownMsg& m) {
  Writer w;
  w.u32(m.from_worker);
  w.u32(m.to_worker);
  w.str(m.reason);
  return finish(FrameType::kPeerDown, std::move(w));
}

PeerDownMsg decode_peer_down(const Frame& f) {
  auto r = open(f, FrameType::kPeerDown);
  PeerDownMsg m;
  m.from_worker = r.u32();
  m.to_worker = r.u32();
  m.reason = r.str();
  r.done();
  return m;
}

Frame encode_seq_gap(const SeqGapMsg& m) {
  Writer w;
  w.u32(m.worker_index);
  encode_floors(w, m.missing);
  return finish(FrameType::kSeqGap, std::move(w));
}

SeqGapMsg decode_seq_gap(const Frame& f) {
  auto r = open(f, FrameType::kSeqGap);
  SeqGapMsg m;
  m.worker_index = r.u32();
  m.missing = decode_floors(r);
  r.done();
  return m;
}

}  // namespace cosmos::wire
