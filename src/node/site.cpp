#include "node/site.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "obs/trace.h"

namespace cosmos::node {

using wire::Frame;
using wire::FrameType;

/// Gathers one engine's in-order slices into runtime tasks: consecutive
/// slices that share an ingest stamp ride one task (a bundle's slices
/// always do), so a bundle costs one queue slot per engine however many of
/// its runs the engine sees. The caller flush()es the last task.
class Site::TaskCollector {
 public:
  TaskCollector(runtime::Runtime& rt, std::size_t shard,
                stream::Engine* engine, std::uint64_t engine_id)
      : rt_(rt), shard_(shard) {
    task_.engine = engine;
    task_.engine_id = engine_id;
  }
  TaskCollector(const TaskCollector&) = delete;
  TaskCollector& operator=(const TaskCollector&) = delete;

  void add(Slice s) {
    if (!task_.slices.empty() && task_.ingest_ns != s.ingest_ns) flush();
    task_.ingest_ns = s.ingest_ns;
    task_.slices.push_back(std::move(s.slice));
  }

  void flush() {
    if (task_.slices.empty()) return;
    runtime::Runtime::Task next;
    next.engine = task_.engine;
    next.engine_id = task_.engine_id;
    rt_.dispatch(shard_, std::exchange(task_, std::move(next)));
  }

 private:
  runtime::Runtime& rt_;
  std::size_t shard_;
  runtime::Runtime::Task task_;
};

Site::Site(Options options)
    : options_(options),
      rt_({options.shards, options.queue_capacity}) {
  rt_.start();
}

Site::~Site() { rt_.stop(); }

pubsub::BrokerNetwork& Site::broker() {
  if (!broker_) {
    throw wire::Error{"node: frame before kTopology established the broker"};
  }
  return *broker_;
}

stream::Engine& Site::engine_at(NodeId node) {
  auto& slot = engines_[node];
  if (!slot) {
    slot = std::make_unique<stream::Engine>();
    shard_of_.emplace(node.value(), next_shard_++ % rt_.shards());
  }
  return *slot;
}

void Site::sync_runtime() {
  rt_.drain();
  if (const auto error = rt_.first_error()) {
    throw std::runtime_error{"node: shard execution failed: " + *error};
  }
}

void Site::ship_results(std::vector<Frame>& out) {
  results_.drain_into(result_scratch_);
  if (result_scratch_.empty()) return;
  wire::ResultMsg msg;
  msg.events = std::move(result_scratch_);
  out.push_back(wire::encode_result(msg));
  result_scratch_.clear();
}

bool Site::handle(const Frame& frame, std::vector<Frame>& out) {
  std::vector<PeerShip> ships;
  bool keep_going = true;
  {
    std::lock_guard lock{mu_};
    keep_going = handle_locked(frame, out, ships);
    // With an emit sink installed, frames leave while the mutex is held:
    // that serializes them against frames emitted from peer reader threads
    // (a flush ack finishing over there must not overtake results drained
    // here). Without one (in-process tests), the caller reads `out`.
    if (emit_) {
      for (auto& f : out) emit_(std::move(f));
      out.clear();
    }
  }
  // Peer shipments go out after the mutex is released: a ship can block on
  // the destination worker's backpressure, and that worker may be blocked
  // shipping to us — holding the site lock across the send would deadlock
  // the pair.
  for (auto& s : ships) {
    if (ship_) ship_(s.worker, std::move(s.frame));
  }
  return keep_going;
}

bool Site::handle_locked(const Frame& frame, std::vector<Frame>& out,
                         std::vector<PeerShip>& ships) {
  bool keep_going = true;
  switch (frame.type) {
    case FrameType::kHello: {
      hello_ = wire::decode_hello(frame);
      if (hello_.protocol != wire::kProtocolVersion) {
        throw wire::Error{"node: protocol version mismatch: driver speaks v" +
                          std::to_string(hello_.protocol) +
                          ", this worker speaks v" +
                          std::to_string(wire::kProtocolVersion) +
                          " — refusing a mixed fleet"};
      }
      if (hello_.trace != 0) {
        // Safe here: the shard workers exist but have never executed a
        // task (kHello is the first frame), so no recorder is active.
        obs::Tracer::instance().begin_session();
      }
      out.push_back(wire::encode_hello_ack(
          {"cosmos_noded worker " + std::to_string(hello_.worker_index)}));
      break;
    }
    case FrameType::kTopology:
      on_topology(wire::decode_topology(frame));
      break;
    case FrameType::kRegisterStream: {
      auto m = wire::decode_register_stream(frame);
      broker().advertise(m.stream, m.publisher, std::move(m.schema));
      break;
    }
    case FrameType::kSubscribe:
      broker().subscribe_as(wire::decode_subscribe(frame).sub);
      break;
    case FrameType::kDeployUnit:
      on_deploy(wire::decode_deploy_unit(frame));
      break;
    case FrameType::kPeerTable: {
      auto m = wire::decode_peer_table(frame);
      if (peer_table_cb_) peer_table_cb_(std::move(m));
      break;
    }
    case FrameType::kMatchRequest:
      on_match(wire::decode_match_request(frame), out);
      break;
    case FrameType::kRouteDecision:
      on_route_decision(wire::decode_route_decision(frame), out, ships);
      break;
    case FrameType::kExecuteBundle:
      // The driver channel is strict: it only sends a bundle to the worker
      // it believes hosts every engine named in it, so a miss is a
      // placement bug (peer links tolerate the transient miss instead —
      // see apply_peer_bundle).
      apply_bundle(wire::decode_execute_bundle(frame), out, nullptr);
      break;
    case FrameType::kWatermark: {
      auto m = wire::decode_watermark(frame);
      if (gate_.empty() && floors_met(m.floors)) {
        apply_watermark(m, out);
      } else {
        gate_.push_back(
            {Gated::Kind::kWatermark, std::move(m), {}, Clock::now()});
        check_gate_starvation(out);
      }
      break;
    }
    case FrameType::kFlush: {
      auto m = wire::decode_flush(frame);
      if (gate_.empty() && floors_met(m.floors)) {
        apply_flush(m, out);
      } else {
        gate_.push_back({Gated::Kind::kFlush, {}, std::move(m), Clock::now()});
        check_gate_starvation(out);
      }
      break;
    }
    case FrameType::kHeartbeat: {
      const auto m = wire::decode_heartbeat(frame);
      // Echo probes: the reply proves this serve loop still drains frames,
      // not merely that the process holds the socket open. Echoes
      // (probe == 0) are absorbed, so two endpoints cannot ping-pong.
      if (m.probe != 0) out.push_back(wire::encode_heartbeat({0}));
      // Heartbeats flow exactly when the link is otherwise idle — the
      // right moment to notice a gate starved of its floors by a lossy
      // link and tell the driver which executes never arrived.
      check_gate_starvation(out);
      break;
    }
    case FrameType::kMigrateOut:
      on_migrate_out(wire::decode_migrate_out(frame), out);
      break;
    case FrameType::kMigrateIn:
      on_migrate_in(wire::decode_migrate_in(frame), out);
      break;
    case FrameType::kTrafficRequest: {
      wire::TrafficReportMsg report;
      if (broker_) report.traffic = broker_->traffic();
      if (peer_traffic_) {
        const auto [frames, bytes] = peer_traffic_();
        report.peer_frames = frames;
        report.peer_bytes = bytes;
      }
      out.push_back(wire::encode_traffic_report(report));
      break;
    }
    case FrameType::kBye:
      sync_runtime();
      ship_results(out);
      emit_stats_sample(out);
      keep_going = false;
      break;
    default:
      throw wire::Error{std::string{"node: unexpected frame "} +
                        wire::to_string(frame.type)};
  }
  // Results any shard produced meanwhile piggyback on whatever frame we
  // were handling (the driver drains them continuously).
  ship_results(out);
  return keep_going;
}

void Site::apply_peer_bundle(const wire::ExecuteBundleMsg& m) {
  std::lock_guard lock{mu_};
  std::vector<Frame> out;
  // A survivor's shipment can reach a respawned worker before the driver's
  // kMigrateIn re-creates an engine; hold those slices, on_migrate_in
  // re-applies them.
  apply_bundle(m, out, &held_peer_);
  ship_results(out);
  for (auto& f : out) {
    if (emit_) emit_(std::move(f));
  }
}

void Site::apply_bundle(const wire::ExecuteBundleMsg& m,
                        std::vector<Frame>& out,
                        std::vector<HeldSlice>* unhosted) {
  // Group the entries by engine, keeping bundle order within each engine
  // (route order, hence that engine's seq order). Decode already checked
  // every run index and row against the bundle's runs.
  std::map<NodeId, std::vector<const wire::ExecuteBundleMsg::Entry*>>
      by_engine;
  for (const auto& e : m.entries) {
    if (!engines_.contains(e.engine) && unhosted == nullptr) {
      throw wire::Error{"node: execute for engine " +
                        std::to_string(e.engine.value()) +
                        " not hosted here"};
    }
    by_engine[e.engine].push_back(&e);
  }
  for (const auto& [engine, entries] : by_engine) {
    const auto eit = engines_.find(engine);
    if (eit == engines_.end()) {
      for (const auto* e : entries) {
        unhosted->push_back(
            {engine, e->seq, {{m.runs[e->run], e->rows}, m.ingest_ns}});
      }
      continue;
    }
    TaskCollector task{rt_, shard_of_.at(engine.value()), eit->second.get(),
                       engine.value()};
    for (const auto* e : entries) {
      admit(engine, e->seq, {{m.runs[e->run], e->rows}, m.ingest_ns}, task);
    }
    task.flush();
  }
  pump_gate(out);
}

void Site::admit(NodeId engine, std::uint64_t seq, Slice slice,
                 TaskCollector& task) {
  auto& st = exec_seq_[engine.value()];
  if (seq < st.expected) return;  // recovery replay duplicate
  if (seq > st.expected) {
    st.holdback.emplace(seq, std::move(slice));  // early arrival; keep first
    return;
  }
  task.add(std::move(slice));
  ++st.expected;
  for (auto next = st.holdback.find(st.expected);
       next != st.holdback.end(); next = st.holdback.find(st.expected)) {
    task.add(std::move(next->second));
    st.holdback.erase(next);
    ++st.expected;
  }
}

bool Site::floors_met(const std::vector<wire::EngineFloor>& floors) const {
  for (const auto& floor : floors) {
    const auto it = exec_seq_.find(floor.engine.value());
    // A floor for an engine not hosted here is a stale placement view
    // (the driver quiesces around migrations); only hosted engines gate.
    if (it == exec_seq_.end()) continue;
    if (it->second.expected < floor.seq) return false;
  }
  return true;
}

void Site::pump_gate(std::vector<Frame>& out) {
  // FIFO: a blocked front blocks everything behind it, preserving the
  // driver's watermark/flush order.
  while (!gate_.empty()) {
    const auto& front = gate_.front();
    const auto& floors = front.kind == Gated::Kind::kWatermark
                             ? front.wm.floors
                             : front.flush.floors;
    if (!floors_met(floors)) return;
    Gated op = std::move(gate_.front());
    gate_.pop_front();
    if (op.kind == Gated::Kind::kWatermark) {
      apply_watermark(op.wm, out);
    } else {
      apply_flush(op.flush, out);
    }
  }
}

void Site::check_gate_starvation(std::vector<Frame>& out) {
  if (gate_.empty() || hello_.liveness_deadline_ms <= 0) return;
  const auto now = Clock::now();
  const auto deadline = DurationMs(hello_.liveness_deadline_ms);
  const auto& front = gate_.front();
  if (now - front.since < deadline) return;
  if (last_gap_emit_.time_since_epoch().count() != 0 &&
      now - last_gap_emit_ < deadline) {
    return;
  }
  const auto& floors = front.kind == Gated::Kind::kWatermark
                           ? front.wm.floors
                           : front.flush.floors;
  wire::SeqGapMsg gap;
  gap.worker_index = hello_.worker_index;
  for (const auto& floor : floors) {
    const auto it = exec_seq_.find(floor.engine.value());
    if (it == exec_seq_.end()) continue;
    if (it->second.expected < floor.seq) {
      // Report the next seq still missing; the driver replays its data log
      // from there and seq dedup absorbs anything that did arrive.
      gap.missing.push_back({floor.engine, it->second.expected});
    }
  }
  if (gap.missing.empty()) return;
  last_gap_emit_ = now;
  out.push_back(wire::encode_seq_gap(gap));
}

void Site::apply_watermark(const wire::WatermarkMsg& m,
                           std::vector<Frame>& out) {
  watermark_ms_ = m.watermark;
  if (hello_.stats_sample_every_ms > 0 &&
      (last_sample_ms_ == INT64_MIN ||
       m.watermark - last_sample_ms_ >= hello_.stats_sample_every_ms)) {
    emit_stats_sample(out);
  }
  // Watermarks prune join state, which only a task on the owning shard may
  // touch (the serve thread must not race an executing engine). Dispatch
  // one pruning task per hosted engine covering all of its units; shard
  // FIFO orders it after every slice applied before this watermark, and the
  // floors guarantee every slice routed before it has been applied.
  std::map<std::uint64_t, std::vector<query::CompiledQuery*>> plans_of;
  for (auto& [uid, unit] : units_) {
    plans_of[unit.host.value()].push_back(unit.plan.get());
  }
  for (auto& [engine_id, plans] : plans_of) {
    runtime::Runtime::Task task;
    task.engine_id = engine_id;
    task.match = [plans = std::move(plans), wm = m.watermark] {
      for (auto* plan : plans) plan->advance_watermark(wm);
    };
    rt_.dispatch(shard_of_.at(engine_id), std::move(task));
  }
}

void Site::apply_flush(const wire::FlushMsg& m, std::vector<Frame>& out) {
  sync_runtime();
  ship_results(out);
  // Final sample rides ahead of the ack on the FIFO channel, so the
  // driver holds every sample once its flush barrier completes.
  emit_stats_sample(out);
  out.push_back(wire::encode_flush_ack({m.seq}));
}

void Site::on_topology(const wire::TopologyMsg& m) {
  if (broker_) throw wire::Error{"node: duplicate kTopology"};
  lat_ = net::LatencyMatrix{m.members, m.dense};
  broker_.emplace(m.participants, lat_);
}

void Site::on_deploy(wire::DeployUnitMsg m) {
  if (units_.contains(m.unit_id)) {
    throw wire::Error{"node: duplicate unit id " + std::to_string(m.unit_id)};
  }
  Unit unit;
  unit.id = m.unit_id;
  unit.host = m.host;
  unit.result_stream = std::move(m.result_stream);
  unit.spec = std::move(m.spec);
  auto& engine = engine_at(unit.host);
  exec_seq_.try_emplace(unit.host.value());  // fresh engines expect seq 0
  for (const auto& src : unit.spec.sources) {
    if (!engine.has_stream(src.stream)) {
      engine.register_stream(src.stream, broker().schema(src.stream));
    }
  }
  // Same (spec, result_stream) pair the driver compiled: plan construction
  // is deterministic, so this plan is the driver's plan.
  unit.plan = std::make_unique<query::CompiledQuery>(engine, unit.spec,
                                                     unit.result_stream);
  unit.result_tap = engine.attach(
      unit.result_stream,
      [this, rs = unit.result_stream](const stream::Tuple& t) {
        // Fires on a shard worker; park the result for the serve thread.
        // The executing task's ingest stamp rides along so the driver can
        // close the end-to-end latency measurement on delivery.
        results_.push({rs, t, runtime::current_task_ingest_ns()});
      });
  units_.emplace(unit.id, std::move(unit));
}

void Site::on_match(const wire::MatchRequestMsg& m, std::vector<Frame>& out) {
  // Inline on the serve thread: this Site's partitions are matched nowhere
  // else, so the single-owner discipline holds without locking, and the
  // partition's traffic accounting is exactly the in-process p1 share of
  // the streams this worker owns.
  wire::MatchResponseMsg resp;
  resp.job = m.job;
  resp.runs.resize(m.runs.size());
  std::vector<pubsub::BatchDelivery> deliveries;
  for (std::size_t i = 0; i < m.runs.size(); ++i) {
    const auto& run = *m.runs[i];
    auto* part = broker().partition(run.stream());
    if (part == nullptr) {
      throw wire::Error{"node: match request for unadvertised stream " +
                        run.stream()};
    }
    deliveries.clear();
    part->match_batch(run, deliveries);
    resp.runs[i].reserve(deliveries.size());
    for (auto& d : deliveries) {
      resp.runs[i].emplace_back(d.sub->id, std::move(d.rows));
    }
  }
  out.push_back(wire::encode_match_response(resp));
  if (hello_.peer_links != 0) {
    // Retain the runs: the driver's kRouteDecision slices them into
    // bundles here instead of echoing the rows back over the star.
    // insert_or_assign absorbs a recovery re-request of the same job.
    retained_.insert_or_assign(m.job, m.runs);
  }
}

void Site::on_route_decision(wire::RouteDecisionMsg m, std::vector<Frame>& out,
                             std::vector<PeerShip>& ships) {
  const auto it = retained_.find(m.job);
  if (it == retained_.end()) {
    throw wire::Error{"node: route decision for unknown job " +
                      std::to_string(m.job)};
  }
  const auto& runs = it->second;
  // One bundle per destination worker, each run in it once.
  std::map<std::uint32_t, wire::ExecuteBundleMsg> by_worker;
  for (auto& t : m.targets) {
    // The decoder checked the rows ascend; their bound and the run index
    // are only checkable against the retained runs.
    if (t.run >= runs.size()) {
      throw wire::Error{"node: route target names run " +
                        std::to_string(t.run) + " of " +
                        std::to_string(runs.size())};
    }
    if (!t.rows.empty() && t.rows.back() >= runs[t.run]->size()) {
      throw wire::Error{"node: route target row reaches the run size"};
    }
    auto& bundle = by_worker[t.worker];
    bundle.ingest_ns = m.ingest_ns;
    bundle.add(t.engine, t.seq, runs[t.run], std::move(t.rows));
  }
  retained_.erase(it);
  for (auto& [worker, bundle] : by_worker) {
    if (worker == hello_.worker_index) {
      // Own-engine slices: same seq-ordered path a shipped bundle takes.
      apply_bundle(bundle, out, nullptr);
    } else {
      ships.push_back({worker, wire::encode_execute_bundle(bundle)});
    }
  }
}

void Site::emit_stats_sample(std::vector<Frame>& out) {
  if (hello_.stats_sample_every_ms <= 0 && hello_.trace == 0) return;
  wire::StatsSampleMsg m;
  m.worker_index = hello_.worker_index;
  m.now_ms = watermark_ms_;
  // Cumulative since session start (the driver keeps the raw timeline;
  // consumers diff adjacent samples if they want rates).
  const runtime::RuntimeStats stats = rt_.stats();
  std::uint64_t tuples = 0, batches = 0, tasks = 0, match_tasks = 0;
  std::uint64_t busy_ns = 0, match_ns = 0, stall_ns = 0;
  std::size_t max_depth = 0;
  for (const auto& s : stats.shards) {
    tuples += s.tuples;
    batches += s.batches;
    tasks += s.tasks;
    match_tasks += s.match_tasks;
    busy_ns += s.busy_ns;
    match_ns += s.match_ns;
    stall_ns += s.stall_ns;
    max_depth = std::max(max_depth, s.max_queue_depth);
  }
  m.metrics.counters.emplace_back("node.units",
                                  static_cast<std::uint64_t>(units_.size()));
  m.metrics.counters.emplace_back("shard.batches", batches);
  m.metrics.counters.emplace_back("shard.busy_ns", busy_ns);
  m.metrics.counters.emplace_back("shard.match_ns", match_ns);
  m.metrics.counters.emplace_back("shard.match_tasks", match_tasks);
  m.metrics.counters.emplace_back("shard.stall_ns", stall_ns);
  m.metrics.counters.emplace_back("shard.tasks", tasks);
  m.metrics.counters.emplace_back("shard.tuples", tuples);
  m.metrics.gauges.emplace_back("shard.max_queue_depth",
                                static_cast<double>(max_depth));
  // MetricsSnapshot keeps its vectors name-sorted (merge/lookup rely on
  // it); keep that invariant even if names above are ever reordered.
  std::sort(m.metrics.counters.begin(), m.metrics.counters.end());
  if (hello_.trace != 0) {
    m.spans = obs::Tracer::instance().drain();
  }
  out.push_back(wire::encode_stats_sample(m));
  last_sample_ms_ = watermark_ms_;
}

void Site::on_migrate_out(const wire::MigrateOutMsg& m,
                          std::vector<Frame>& out) {
  const auto eit = engines_.find(m.engine);
  if (eit == engines_.end()) {
    throw wire::Error{"node: migrate-out of engine " +
                      std::to_string(m.engine.value()) + " not hosted here"};
  }
  // Quiesce: after the drain no task of this engine (or any other) is in
  // flight, so exporting join state (and, unless keeping, tearing the
  // plans down) is safe.
  sync_runtime();
  ship_results(out);
  wire::StateHandoffMsg handoff;
  handoff.engine = m.engine;
  for (auto& [uid, unit] : units_) {
    if (unit.host != m.engine) continue;
    handoff.units.push_back({unit.id, unit.plan->export_join_state()});
  }
  if (m.keep == 0) {
    // Tear down the units (plan destructors detach their engine taps), then
    // drop the engine itself: a later migrate-in of the same node must
    // start from a blank engine or stream re-registration would throw.
    for (const auto& u : handoff.units) units_.erase(u.unit_id);
    engines_.erase(eit);
    shard_of_.erase(m.engine.value());
    exec_seq_.erase(m.engine.value());
  }
  // keep != 0 is checkpoint mode: the state left, the placement did not.
  out.push_back(wire::encode_state_handoff(handoff));
}

void Site::on_migrate_in(wire::MigrateInMsg m, std::vector<Frame>& out) {
  for (auto& deploy : m.units) {
    if (deploy.host != m.engine) {
      throw wire::Error{"node: migrate-in unit hosted on a different node"};
    }
    on_deploy(std::move(deploy));
  }
  for (auto& state : m.state) {
    const auto it = units_.find(state.unit_id);
    if (it == units_.end()) {
      throw wire::Error{"node: migrate-in state for unknown unit " +
                        std::to_string(state.unit_id)};
    }
    it->second.plan->import_join_state(std::move(state.joins));
  }
  // Resume execute ordering at the handoff's cut point, then re-apply any
  // peer shipments that arrived for this engine before it existed here.
  exec_seq_[m.engine.value()].expected = m.exec_seq;
  std::vector<HeldSlice> held;
  std::vector<HeldSlice> rest;
  for (auto& h : held_peer_) {
    (h.engine == m.engine ? held : rest).push_back(std::move(h));
  }
  held_peer_ = std::move(rest);
  if (!held.empty()) {
    TaskCollector task{rt_, shard_of_.at(m.engine.value()),
                       engines_.at(m.engine).get(), m.engine.value()};
    for (auto& h : held) admit(h.engine, h.seq, std::move(h.slice), task);
    task.flush();
  }
  pump_gate(out);
  out.push_back(wire::encode_migrate_ack({m.engine}));
}

}  // namespace cosmos::node
