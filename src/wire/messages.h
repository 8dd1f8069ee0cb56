// Typed payloads of every federation frame, one struct + encode/decode
// pair per frame type. encode_* produces a complete Frame; decode_*
// validates the frame type, decodes the payload and rejects trailing bytes
// — the single source of truth for each payload's layout, shared by the
// driver (cosmos/federation.cpp) and the node side (node/site.cpp) so the
// two can never drift apart.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "wire/codec.h"

namespace cosmos::wire {

/// Driver -> node, first frame of a session: the node's identity in the
/// federation plus its transport knobs (the emulated one-way link delay it
/// applies to its own outgoing frames, and its local runtime shard count).
struct HelloMsg {
  /// Explicit protocol echo: the frame header already refuses a version
  /// mismatch byte-for-byte, but echoing it here lets the node reject a
  /// mixed fleet with a descriptive kError instead of a codec throw.
  std::uint16_t protocol = kProtocolVersion;
  std::uint32_t worker_index = 0;
  std::uint32_t shards = 1;
  std::int64_t send_delay_ms = 0;
  /// Stream-time period between unsolicited kStatsSample frames the node
  /// emits (driven by watermarks); 0 disables periodic sampling.
  std::int64_t stats_sample_every_ms = 0;
  /// Non-zero: the node enables its span tracer and ships collected spans
  /// in its kStatsSample frames for driver-side timeline merging.
  std::uint8_t trace = 0;
  /// Non-zero: peer-link mode. The node retains match-request runs and
  /// ships execute bundles worker-to-worker per kRouteDecision instead of
  /// receiving pre-routed bundles from the driver.
  std::uint8_t peer_links = 0;
  /// Liveness knobs (v3). The driver's sender emits a kHeartbeat whenever
  /// the session channel has been send-idle this long; the node echoes each
  /// one, which is what proves its serve loop is still draining frames.
  /// 0 disables heartbeats.
  std::int64_t heartbeat_every_ms = 0;
  /// The node declares the driver dead (and exits) when nothing — data or
  /// heartbeat — arrived for this long; the driver applies the same bound
  /// to the node's frames. 0 disables the deadline.
  std::int64_t liveness_deadline_ms = 0;
};

struct HelloAckMsg {
  std::string info;  ///< free-form daemon identification (pid etc.)
};

/// Node list + latency matrix: everything a node needs to rebuild the
/// exact BrokerNetwork overlay the driver has, so worker-side matching and
/// traffic accounting are byte-identical to in-process runs.
struct TopologyMsg {
  std::vector<NodeId> participants;   ///< broker participants, in order
  std::vector<NodeId> members;        ///< latency-matrix members, in order
  std::vector<double> dense;          ///< row-major member-to-member ms
};

struct RegisterStreamMsg {
  std::string stream;
  NodeId publisher;
  stream::Schema schema;
};

struct SubscribeMsg {
  pubsub::Subscription sub;  ///< installed under its existing id
};

/// One deployed execution unit: the node rebuilds the CompiledQuery from
/// (spec, result_stream) — plan construction is deterministic, so remote
/// and local plans are identical.
struct DeployUnitMsg {
  std::uint32_t unit_id = 0;
  NodeId host;
  std::string result_stream;
  query::QuerySpec spec;
};

/// A source run shared, read-only, between a decoded message and everything
/// that slices it: the site's engine tasks, its retained peer-link runs and
/// the driver's data log all hold the same batch, never a copy.
using SharedRun = std::shared_ptr<const runtime::TupleBatch>;

/// Driver -> owner worker: every run of one chunk whose stream this worker
/// owns, in chunk order. One request per (chunk, owner).
struct MatchRequestMsg {
  std::uint64_t job = 0;  ///< driver-assigned sequence, echoed in the reply
  std::vector<SharedRun> runs;
};

/// Matched ascending row indices per subscription of one run, in the
/// partition's first-match order (the order BrokerPartition::match_batch
/// appends).
using RunMatches =
    std::vector<std::pair<SubscriptionId, std::vector<std::uint32_t>>>;

struct MatchResponseMsg {
  std::uint64_t job = 0;
  std::vector<RunMatches> runs;  ///< parallel to the request's runs
};

/// The one execute format (v4): everything one chunk routes to one worker.
/// Each run travels once; each entry is one engine's slice of one run,
/// stamped with that engine's driver-assigned execute seq. The site applies
/// an engine's slices strictly in seq order — holding back early arrivals
/// and dropping duplicates — which keeps results byte-identical when
/// bundles arrive over several channels (peer links, recovery replay).
/// Decoding checks every run index and row against the decoded runs, so a
/// site never indexes a run with an unchecked wire value.
struct ExecuteBundleMsg {
  struct Entry {
    NodeId engine;          ///< hosting node of the target engine
    std::uint64_t seq = 0;  ///< the engine's execute seq (route order)
    std::uint32_t run = 0;  ///< index into `runs`
    /// Strictly ascending row indices of the run; empty = all rows.
    std::vector<std::uint32_t> rows;
  };
  /// Ingest stamp (common/clock.h now_ns) of the chunk; echoed back on
  /// every result the bundle produces so the driver can close the
  /// end-to-end latency measurement. 0 = not measured.
  std::uint64_t ingest_ns = 0;
  std::vector<SharedRun> runs;
  std::vector<Entry> entries;  ///< route order

  /// Appends one engine slice of `run`. The run itself is added unless the
  /// previous entry already named it; every caller adds in route order, so
  /// a run's slices are adjacent and each run travels once.
  void add(NodeId engine, std::uint64_t seq, const SharedRun& run,
           std::vector<std::uint32_t> rows);
};

/// One engine's execute on its own. Never encoded: a single-entry bundle
/// (bundle_of) is its wire and journal form. Callers that produce executes
/// one at a time (tests, offline journal writers) build these.
struct ExecuteMsg {
  NodeId engine;
  runtime::TupleBatch batch;
  std::uint64_t ingest_ns = 0;
  std::uint64_t seq = 0;
};

[[nodiscard]] ExecuteBundleMsg bundle_of(ExecuteMsg m);

struct ResultEventMsg {
  std::string stream;  ///< unit result stream
  stream::Tuple tuple;
  std::uint64_t ingest_ns = 0;  ///< see ExecuteBundleMsg::ingest_ns
};

struct ResultMsg {
  std::vector<ResultEventMsg> events;  ///< in emission order per engine
};

/// Ordering floor: the frame carrying it must not take effect for `engine`
/// until that engine has applied every execute with seq < `seq`. Floors
/// are trivially met on a star channel (FIFO) but gate frames that can
/// overtake peer-shipped executes.
struct EngineFloor {
  NodeId engine;
  std::uint64_t seq = 0;
};

struct WatermarkMsg {
  stream::Timestamp watermark = 0;
  /// Floors for the engines hosted at the destination worker: pruning an
  /// engine's join state early (before older executes arrived over a peer
  /// link) could drop tuples a pending batch would still join with.
  std::vector<EngineFloor> floors;
};

struct FlushMsg {
  std::uint64_t seq = 0;
  /// Floors for the engines hosted at the destination worker: the ack must
  /// follow every result of every execute routed before the flush, even
  /// ones still in flight on peer links.
  std::vector<EngineFloor> floors;
};
struct FlushAckMsg {
  std::uint64_t seq = 0;
};

struct MigrateOutMsg {
  NodeId engine;
  /// Non-zero: checkpoint mode — serialize and hand off the engine's state
  /// but keep the units deployed and running (the driver's one state pull,
  /// for cuts and migrations alike). Zero drops the engine after export.
  std::uint8_t keep = 0;
};

/// One unit's serialized window-join state.
struct UnitStateMsg {
  std::uint32_t unit_id = 0;
  std::vector<stream::WindowJoinOp::State> joins;
};

/// An engine's unit states as one counted list: the encoding kStateHandoff,
/// kMigrateIn and the journal's engine-state record share. Decoding checks
/// the count (named `what` in the error) before allocating.
void encode_unit_states(Writer& w, const std::vector<UnitStateMsg>& units);
[[nodiscard]] std::vector<UnitStateMsg> decode_unit_states(Reader& r,
                                                           const char* what);

struct StateHandoffMsg {
  NodeId engine;
  std::vector<UnitStateMsg> units;
};

struct MigrateInMsg {
  NodeId engine;
  std::vector<DeployUnitMsg> units;
  std::vector<UnitStateMsg> state;  ///< parallel to `units` by unit_id
  /// The engine's next expected execute seq at the state's cut point: the
  /// receiving site resumes seq ordering there, dropping any replayed
  /// duplicate below it and holding back anything above it.
  std::uint64_t exec_seq = 0;
};

struct MigrateAckMsg {
  NodeId engine;
};

struct TrafficReportMsg {
  pubsub::TrafficStats traffic;
  /// Frames/bytes this worker sent on its peer links (kPeerHello +
  /// execute-bundle shipping); the driver sums them across the fleet.
  std::uint64_t peer_frames = 0;
  std::uint64_t peer_bytes = 0;
};

struct ErrorMsg {
  std::string message;
};

/// Node -> driver, unsolicited: a snapshot of the node's local metrics and
/// (when tracing) the spans collected since the previous sample. The frame
/// carries its own format version so the payload can evolve without a
/// protocol-version bump; decode rejects versions it does not know.
struct StatsSampleMsg {
  static constexpr std::uint16_t kVersion = 1;
  std::uint16_t version = kVersion;
  std::uint32_t worker_index = 0;
  stream::Timestamp now_ms = 0;  ///< node's current stream-time watermark
  obs::MetricsSnapshot metrics;
  std::vector<obs::CollectedSpan> spans;
};

/// Driver -> node: the fleet's endpoint table, indexed by worker. Workers
/// dial each other lazily from it when peer-link mode is on. Carries its
/// own format version (same pattern as kStatsSample) so the table can grow
/// fields without a protocol bump.
struct PeerTableMsg {
  static constexpr std::uint16_t kVersion = 1;
  std::uint16_t version = kVersion;
  std::vector<std::string> endpoints;  ///< endpoints[i] = worker i
};

/// Driver -> owner worker (peer-link mode): how to slice + ship the runs
/// of one match job. One decision per (chunk, owner), sent even when
/// `targets` is empty so the owner can free the retained runs. The owner
/// groups the targets by worker into one execute bundle each.
struct RouteDecisionMsg {
  struct Target {
    NodeId engine;
    std::uint32_t worker = 0;   ///< destination worker index
    std::uint64_t seq = 0;      ///< driver-assigned per-engine execute seq
    std::uint32_t run = 0;      ///< index into the job's retained runs
    /// Strictly ascending row indices of that run; empty = all rows.
    std::vector<std::uint32_t> rows;
  };
  std::uint64_t job = 0;        ///< the kMatchRequest job this routes
  std::uint64_t ingest_ns = 0;  ///< echoed onto every produced bundle
  std::vector<Target> targets;
};

/// Worker -> worker, first frame of a peer link: identifies the dialing
/// worker and refuses mixed fleets explicitly.
struct PeerHelloMsg {
  std::uint16_t protocol = kProtocolVersion;
  std::uint32_t worker_index = 0;  ///< the dialing worker
};

/// Worker -> worker (v3): the accepting side's reply to kPeerHello. The
/// dialer refuses to ship on a link until the ack arrives — a listener
/// backlog happily accepts connections for a SIGSTOPped process, so a
/// successful connect() proves nothing about the peer actually serving.
struct PeerHelloAckMsg {
  std::uint32_t worker_index = 0;  ///< the accepting worker
};

/// Liveness keepalive (v3), valid in every direction. A side that receives
/// one on a request/serve channel echoes it back; a side that receives one
/// on a one-way link just refreshes its peer's last-heard clock.
/// `probe` distinguishes an originated beat (echo me) from its echo
/// (absorb me) so two symmetric endpoints cannot ping-pong forever.
struct HeartbeatMsg {
  std::uint8_t probe = 1;
};

/// Worker -> driver (v3): the worker's outbound peer link to `to_worker`
/// wedged (dial timeout, ack timeout, or send failure after the re-dial).
/// The driver falls back to star routing for that pair and replays the
/// executes the dead link may have swallowed.
struct PeerDownMsg {
  std::uint32_t from_worker = 0;
  std::uint32_t to_worker = 0;
  std::string reason;
};

/// Worker -> driver (v3): a gated watermark/flush has been waiting on
/// unmet execute-seq floors past the liveness deadline — executes were
/// lost on a live-but-lossy path. `missing` carries each starved engine's
/// next expected seq; the driver re-sends everything at or above it.
struct SeqGapMsg {
  std::uint32_t worker_index = 0;
  std::vector<EngineFloor> missing;  ///< seq = next expected (first missing)
};

[[nodiscard]] Frame encode_hello(const HelloMsg& m);
[[nodiscard]] HelloMsg decode_hello(const Frame& f);
[[nodiscard]] Frame encode_hello_ack(const HelloAckMsg& m);
[[nodiscard]] HelloAckMsg decode_hello_ack(const Frame& f);
[[nodiscard]] Frame encode_topology(const TopologyMsg& m);
[[nodiscard]] TopologyMsg decode_topology(const Frame& f);
[[nodiscard]] Frame encode_register_stream(const RegisterStreamMsg& m);
[[nodiscard]] RegisterStreamMsg decode_register_stream(const Frame& f);
[[nodiscard]] Frame encode_subscribe(const SubscribeMsg& m);
[[nodiscard]] SubscribeMsg decode_subscribe(const Frame& f);
[[nodiscard]] Frame encode_deploy_unit(const DeployUnitMsg& m);
[[nodiscard]] DeployUnitMsg decode_deploy_unit(const Frame& f);
[[nodiscard]] Frame encode_match_request(const MatchRequestMsg& m);
[[nodiscard]] MatchRequestMsg decode_match_request(const Frame& f);
[[nodiscard]] Frame encode_match_response(const MatchResponseMsg& m);
[[nodiscard]] MatchResponseMsg decode_match_response(const Frame& f);
[[nodiscard]] Frame encode_execute_bundle(const ExecuteBundleMsg& m);
[[nodiscard]] ExecuteBundleMsg decode_execute_bundle(const Frame& f);
[[nodiscard]] Frame encode_result(const ResultMsg& m);
[[nodiscard]] ResultMsg decode_result(const Frame& f);
[[nodiscard]] Frame encode_watermark(const WatermarkMsg& m);
[[nodiscard]] WatermarkMsg decode_watermark(const Frame& f);
[[nodiscard]] Frame encode_flush(const FlushMsg& m);
[[nodiscard]] FlushMsg decode_flush(const Frame& f);
[[nodiscard]] Frame encode_flush_ack(const FlushAckMsg& m);
[[nodiscard]] FlushAckMsg decode_flush_ack(const Frame& f);
[[nodiscard]] Frame encode_migrate_out(const MigrateOutMsg& m);
[[nodiscard]] MigrateOutMsg decode_migrate_out(const Frame& f);
[[nodiscard]] Frame encode_state_handoff(const StateHandoffMsg& m);
[[nodiscard]] StateHandoffMsg decode_state_handoff(const Frame& f);
[[nodiscard]] Frame encode_migrate_in(const MigrateInMsg& m);
[[nodiscard]] MigrateInMsg decode_migrate_in(const Frame& f);
[[nodiscard]] Frame encode_migrate_ack(const MigrateAckMsg& m);
[[nodiscard]] MigrateAckMsg decode_migrate_ack(const Frame& f);
[[nodiscard]] Frame encode_traffic_request();
[[nodiscard]] Frame encode_traffic_report(const TrafficReportMsg& m);
[[nodiscard]] TrafficReportMsg decode_traffic_report(const Frame& f);
[[nodiscard]] Frame encode_error(const ErrorMsg& m);
[[nodiscard]] ErrorMsg decode_error(const Frame& f);
[[nodiscard]] Frame encode_bye();
[[nodiscard]] Frame encode_stats_sample(const StatsSampleMsg& m);
[[nodiscard]] StatsSampleMsg decode_stats_sample(const Frame& f);
[[nodiscard]] Frame encode_peer_table(const PeerTableMsg& m);
[[nodiscard]] PeerTableMsg decode_peer_table(const Frame& f);
[[nodiscard]] Frame encode_route_decision(const RouteDecisionMsg& m);
[[nodiscard]] RouteDecisionMsg decode_route_decision(const Frame& f);
[[nodiscard]] Frame encode_peer_hello(const PeerHelloMsg& m);
[[nodiscard]] PeerHelloMsg decode_peer_hello(const Frame& f);
[[nodiscard]] Frame encode_peer_hello_ack(const PeerHelloAckMsg& m);
[[nodiscard]] PeerHelloAckMsg decode_peer_hello_ack(const Frame& f);
[[nodiscard]] Frame encode_heartbeat(const HeartbeatMsg& m);
[[nodiscard]] HeartbeatMsg decode_heartbeat(const Frame& f);
[[nodiscard]] Frame encode_peer_down(const PeerDownMsg& m);
[[nodiscard]] PeerDownMsg decode_peer_down(const Frame& f);
[[nodiscard]] Frame encode_seq_gap(const SeqGapMsg& m);
[[nodiscard]] SeqGapMsg decode_seq_gap(const Frame& f);

}  // namespace cosmos::wire
