// The node half of the federation: a frame-driven execution site hosting a
// slice of the system — a rebuilt broker overlay (for p1 subscription
// matching of the streams it owns), the engines + compiled query plans of
// the units deployed to it, and a local sharded runtime::Runtime executing
// them. One Site serves one driver session; tools/cosmos_noded wraps it in
// a NodeServer with a FrameChannel, and tests drive it in-process by
// handing it frames directly.
//
// Threading: handle() is single-caller (the serve thread), but peer links
// deliver kExecuteBundle frames on their own reader threads via
// apply_peer_bundle(), so all site state lives under one internal mutex.
// Broker partitions are only ever touched from handle() — match requests
// run inline there, preserving the single-owner partition discipline —
// while engine work (execute slices, watermarks) is dispatched into the
// runtime's shard queues, each engine pinned to one shard.
//
// Bundles: a kExecuteBundle carries each of a chunk's runs once plus one
// (engine, seq, run, rows) entry per engine slice. The site decodes every
// run once into a shared TupleBatch and dispatches one runtime task per
// (bundle, engine) holding RunSlices over the shared runs — the shape the
// in-process fleet of Cosmos::run dispatches — so fanning a tuple out to
// many local engines copies nothing on the serve thread.
//
// Ordering: the driver assigns every engine slice an absolute per-engine
// seq (route order). The site applies an engine's slices strictly in seq
// order — holding back early arrivals, dropping replayed duplicates — so
// engine input order (and hence result byte-identity) survives bundles
// arriving over multiple channels (driver, peer links, recovery replay).
// Watermarks and flushes carry per-engine floors and wait in a FIFO gate
// until every floored execute has been applied: pruning join state early
// could drop tuples an in-flight batch would still join with, and a flush
// ack must follow every result of every execute routed before it. Frames
// produced while the serve thread is not in handle() (a gated flush
// completed by a peer execute) go out through the emit callback; results
// cross shards via an MpscBuffer and are drained under the mutex, so
// per-engine result order is preserved on the (FIFO) driver channel.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "net/latency_matrix.h"
#include "pubsub/broker_network.h"
#include "query/plan.h"
#include "runtime/queues.h"
#include "runtime/runtime.h"
#include "stream/engine.h"
#include "wire/messages.h"

namespace cosmos::node {

class Site {
 public:
  struct Options {
    std::size_t shards = 1;
    std::size_t queue_capacity = 64;
  };

  explicit Site(Options options);
  ~Site();
  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  /// Handles one inbound frame, appending any frames to send back (in
  /// order) to `out` — unless an emit callback is installed, in which case
  /// every produced frame is emitted before returning (so frames produced
  /// here and frames produced on peer reader threads interleave in one
  /// mutex-ordered sequence). Returns false when the session is over
  /// (kBye). Throws wire::Error on protocol violations and
  /// std::runtime_error when a shard worker faulted — the caller reports
  /// kError and ends the session either way.
  bool handle(const wire::Frame& frame, std::vector<wire::Frame>& out);

  /// Entry point for a kExecuteBundle frame that arrived on a peer link
  /// (called from that link's reader thread). Slices for unknown engines
  /// are held — a survivor's shipment can beat the driver's kMigrateIn to
  /// a respawned worker — and re-applied when the engine arrives.
  void apply_peer_bundle(const wire::ExecuteBundleMsg& m);

  /// Sink for frames produced outside a handle() call (gated flush acks,
  /// results completed by peer executes). Must be thread-safe; installed
  /// once before frames flow.
  using EmitFn = std::function<void(wire::Frame)>;
  void set_emit(EmitFn emit) { emit_ = std::move(emit); }
  /// Ships a frame to another worker over a peer link. Invoked *outside*
  /// the site mutex (a ship can block on a peer's backpressure, and two
  /// workers shipping to each other under their site locks would deadlock).
  using ShipFn = std::function<void(std::uint32_t worker, wire::Frame)>;
  void set_peer_ship(ShipFn ship) { ship_ = std::move(ship); }
  /// Supplies {frames, bytes} this worker has sent on its peer links, for
  /// kTrafficReport.
  using PeerTrafficFn =
      std::function<std::pair<std::uint64_t, std::uint64_t>()>;
  void set_peer_traffic(PeerTrafficFn fn) { peer_traffic_ = std::move(fn); }
  /// Invoked when the driver distributes the fleet endpoint table.
  using PeerTableFn = std::function<void(wire::PeerTableMsg)>;
  void set_peer_table_cb(PeerTableFn fn) { peer_table_cb_ = std::move(fn); }

  /// The session hello (valid after the kHello frame was handled; only
  /// meaningful on the serve thread that handled it).
  [[nodiscard]] const wire::HelloMsg& hello() const noexcept { return hello_; }

  /// Units currently deployed here (for tests).
  [[nodiscard]] std::size_t deployed_units() const {
    std::lock_guard lock{mu_};
    return units_.size();
  }
  [[nodiscard]] bool hosts_engine(NodeId node) const {
    std::lock_guard lock{mu_};
    return engines_.contains(node);
  }

 private:
  struct Unit {
    std::uint32_t id = 0;
    NodeId host;
    std::string result_stream;
    query::QuerySpec spec;
    std::unique_ptr<query::CompiledQuery> plan;
    std::size_t result_tap = 0;
  };
  /// One engine slice awaiting execution: a view of a shared run plus the
  /// ingest stamp of the bundle it arrived in.
  struct Slice {
    runtime::RunSlice slice;
    std::uint64_t ingest_ns = 0;
  };
  /// Per-engine execute ordering state.
  struct EngineSeq {
    std::uint64_t expected = 0;                ///< next seq to apply
    std::map<std::uint64_t, Slice> holdback;   ///< early arrivals
  };
  /// A peer-shipped slice for an engine not (yet) hosted here.
  struct HeldSlice {
    NodeId engine;
    std::uint64_t seq = 0;
    Slice slice;
  };
  class TaskCollector;
  /// A watermark/flush waiting in the FIFO gate for its floors.
  struct Gated {
    enum class Kind { kWatermark, kFlush } kind = Kind::kWatermark;
    wire::WatermarkMsg wm;
    wire::FlushMsg flush;
    /// When the frame entered the gate: a front entry older than the
    /// session's liveness deadline means its floored executes were lost on
    /// a live-but-lossy path, and the site reports the gap (kSeqGap)
    /// instead of waiting forever.
    TimePoint since{};
  };
  /// A peer shipment decided under the mutex, sent after it is released.
  struct PeerShip {
    std::uint32_t worker = 0;
    wire::Frame frame;
  };

  bool handle_locked(const wire::Frame& frame, std::vector<wire::Frame>& out,
                     std::vector<PeerShip>& ships);
  void on_topology(const wire::TopologyMsg& m);
  void on_deploy(wire::DeployUnitMsg m);
  void on_match(const wire::MatchRequestMsg& m, std::vector<wire::Frame>& out);
  void on_route_decision(wire::RouteDecisionMsg m,
                         std::vector<wire::Frame>& out,
                         std::vector<PeerShip>& ships);
  void on_migrate_out(const wire::MigrateOutMsg& m,
                      std::vector<wire::Frame>& out);
  void on_migrate_in(wire::MigrateInMsg m, std::vector<wire::Frame>& out);

  /// Applies every entry of a bundle whose engine is hosted here: one
  /// runtime task per engine, then pumps the gate. Entries for engines not
  /// hosted here land in `unhosted` (null: every engine must be hosted).
  void apply_bundle(const wire::ExecuteBundleMsg& m,
                    std::vector<wire::Frame>& out,
                    std::vector<HeldSlice>* unhosted);
  /// Seq-ordered admission of one slice into `task`: applies it at
  /// `expected` and drains the holdback behind it, holds back an early
  /// arrival, drops a replayed duplicate.
  void admit(NodeId engine, std::uint64_t seq, Slice slice,
             TaskCollector& task);
  /// True when every floor naming an engine hosted here is satisfied.
  [[nodiscard]] bool floors_met(
      const std::vector<wire::EngineFloor>& floors) const;
  /// Applies gated frames from the front while their floors are met.
  void pump_gate(std::vector<wire::Frame>& out);
  /// Emits a kSeqGap (rate-limited to one per deadline period) when the
  /// front gated frame has been starved of its floors past the session's
  /// liveness deadline — the driver re-sends the missing executes.
  void check_gate_starvation(std::vector<wire::Frame>& out);
  void apply_watermark(const wire::WatermarkMsg& m,
                       std::vector<wire::Frame>& out);
  void apply_flush(const wire::FlushMsg& m, std::vector<wire::Frame>& out);

  /// The engine hosted for `node`, creating + shard-pinning it on first use.
  stream::Engine& engine_at(NodeId node);
  pubsub::BrokerNetwork& broker();
  /// Drains the runtime and rethrows the first worker fault, if any.
  void sync_runtime();
  /// Ships everything in results_ as one kResult frame (if any).
  void ship_results(std::vector<wire::Frame>& out);
  /// Appends a kStatsSample frame (cumulative local runtime counters, plus
  /// collected spans when tracing); no-op unless the hello enabled either.
  void emit_stats_sample(std::vector<wire::Frame>& out);

  Options options_;
  wire::HelloMsg hello_;
  /// Owned copy of the driver's latency matrix; broker_ points into it.
  net::LatencyMatrix lat_;
  std::optional<pubsub::BrokerNetwork> broker_;
  std::map<NodeId, std::unique_ptr<stream::Engine>> engines_;
  std::map<std::uint32_t, Unit> units_;
  runtime::Runtime rt_;
  /// Engine-id (NodeId::value()) -> owning shard; assigned round-robin at
  /// engine creation.
  std::unordered_map<std::uint64_t, std::size_t> shard_of_;
  std::size_t next_shard_ = 0;
  runtime::MpscBuffer<wire::ResultEventMsg> results_;
  std::vector<wire::ResultEventMsg> result_scratch_;
  /// Latest watermark seen (the node's stream-time "now" for samples).
  stream::Timestamp watermark_ms_ = 0;
  /// Stream time of the last emitted kStatsSample; INT64_MIN = none yet.
  stream::Timestamp last_sample_ms_ = INT64_MIN;

  mutable std::mutex mu_;
  /// Engine-id -> execute ordering state; created at deploy (expected 0)
  /// or migrate-in (expected = the handoff's cut point), erased with the
  /// engine on migrate-out.
  std::unordered_map<std::uint64_t, EngineSeq> exec_seq_;
  /// Peer slices for engines not (yet) hosted here; re-applied on
  /// migrate-in.
  std::vector<HeldSlice> held_peer_;
  /// Peer-link mode: match-request runs retained by job until the driver's
  /// kRouteDecision slices and frees them.
  std::map<std::uint64_t, std::vector<wire::SharedRun>> retained_;
  std::deque<Gated> gate_;
  /// Last kSeqGap emission (epoch = never): the starvation report repeats
  /// at most once per liveness deadline, so a slow driver replay is not
  /// answered with a flood of duplicate gap reports.
  TimePoint last_gap_emit_{};
  EmitFn emit_;
  ShipFn ship_;
  PeerTrafficFn peer_traffic_;
  PeerTableFn peer_table_cb_;
};

}  // namespace cosmos::node
