// The COSMOS middleware facade: the system of Section 2, end to end.
//
// A federation of processors over a content-based pub/sub. Sources
// advertise their streams; users submit CQL queries through a proxy; the
// middleware places each query on a processor (the caller supplies the
// placement, usually from coord::HierarchicalDistributor), merges queries
// with overlapping results into one covering query per processor
// (Section 2.1), generates the p1 subscriptions that pull source data into
// the processor's engine and the p2 subscriptions that carry (split) result
// streams back to the proxies, and runs the query plans.
//
// All traffic flows through the pubsub::BrokerNetwork, whose accounting is
// the prototype-study metric (Fig 11).
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "adapt/adapt.h"
#include "net/latency_matrix.h"
#include "obs/metrics.h"
#include "pubsub/broker_network.h"
#include "query/containment.h"
#include "query/plan.h"
#include "query/query_spec.h"
#include "runtime/driver.h"
#include "runtime/queues.h"
#include "runtime/runtime.h"
#include "runtime/stats.h"
#include "stream/engine.h"

namespace cosmos::middleware {

class Cosmos {
 public:
  /// Result tuples of a query, delivered at its proxy.
  using ResultCallback =
      std::function<void(QueryId, const stream::Tuple&)>;

  /// `nodes` are all participants (sources and processors); `lat` must
  /// cover them. `enable_result_sharing` toggles the Section 2.1 merging
  /// (disabled = the paper's Non-Share configuration, Fig 4a).
  Cosmos(std::vector<NodeId> nodes, const net::LatencyMatrix& lat,
         bool enable_result_sharing = true);

  // Engine result taps capture `this` and the broker hands out interior
  // pointers, so an instance must stay at one address (heap-allocate to
  // pass ownership around).
  Cosmos(const Cosmos&) = delete;
  Cosmos& operator=(const Cosmos&) = delete;

  /// Registers a source stream published at `node`.
  void register_source(const std::string& stream, stream::Schema schema,
                       NodeId node);

  /// Deploys `spec` on processor `host`. If a mergeable query already runs
  /// there, the two are folded into one covering query and both users are
  /// re-wired onto the shared result stream.
  void submit(const query::QuerySpec& spec, NodeId host, ResultCallback cb);

  // --- Ingest modes -------------------------------------------------------
  //
  // push() is the synchronous mode: each call matches, routes, executes the
  // query plans, and delivers results before returning, all on the calling
  // thread. Simple and exactly ordered — the mode every correctness test
  // and the paper-figure benches use.
  //
  // run() is the runtime-backed mode: a whole trace is replayed through the
  // sharded execution runtime (src/runtime/). The calling thread becomes
  // the ingest driver — it batches the trace into global-order-preserving
  // chunks (runtime::Driver) and pipelines each chunk through three
  // stages: *match* (every run is shipped to the shard owning its stream's
  // broker partition, which runs subscription matching and traffic
  // accounting off the driver thread; accounting is identical to push()),
  // *route* (the driver turns the pre-matched deliveries into per-engine
  // row slices of the shared runs), and *dispatch* (slices go to the
  // worker thread owning each processor's engine). Engines are pinned to
  // shards, shard queues are FIFO and bounded (backpressure, never drops),
  // and result delivery runs on the driver thread, so result callbacks
  // never run concurrently and per-query result sequences are identical to
  // push() at any shard count. A Cosmos instance must not be mutated
  // (submit etc.) while run() is executing.

  /// Feeds one source tuple into the system (global timestamp order).
  void push(const std::string& stream, const stream::Tuple& tuple);

  struct RunOptions {
    std::size_t shards = 1;
    std::size_t batch_size = 256;       ///< max tuples per driver chunk
    std::size_t queue_capacity = 64;    ///< per-shard queue, in tasks
    stream::Timestamp tick_ms = 60'000; ///< virtual-clock bound per chunk
    /// Live load-aware operator migration (src/adapt/): off by default;
    /// when enabled (and shards > 1), per-engine load is sampled every
    /// adapt.adapt_every_ms of stream time and engines are re-pinned
    /// between chunks when shard imbalance crosses the threshold. Results
    /// are identical either way — migration only changes *where* an
    /// engine runs, never the order of its input.
    adapt::AdaptOptions adapt;
    /// Explicit initial engine→shard pinning by hosting node (values taken
    /// mod shards). Nodes absent from the map fall back to the default
    /// deterministic round-robin. Benches use this to set up worst-case /
    /// oracle static placements.
    std::unordered_map<NodeId, std::size_t> pin;
    /// When non-empty, span tracing is enabled for this run and a Chrome
    /// trace-event JSON (Perfetto-loadable) is written here at the end:
    /// driver pipeline stages, shard task execution, stalls and adaptation
    /// migrations. Empty (the default) costs nothing on any path.
    std::string trace_path;
  };
  /// Where the driver's serial time goes, stage by stage of the chunk
  /// pipeline (match → route → dispatch, plus p2 result delivery). Since
  /// PR 3, subscription matching runs inside the shards: the driver's
  /// share of it is only the wall-clock wait at the per-chunk match
  /// barrier, which costs no driver CPU and overlaps shard execution.
  struct DriverBreakdown {
    /// Wall time parked at the match barrier (not CPU; overlaps shards).
    double match_wait_seconds = 0.0;
    /// CPU turning shard-produced deliveries into per-engine run slices.
    double route_cpu_seconds = 0.0;
    /// CPU cutting chunks into match tasks and handing tasks to queues.
    double dispatch_cpu_seconds = 0.0;
    /// CPU delivering result tuples to user callbacks (the p2 leg).
    double deliver_cpu_seconds = 0.0;
  };
  /// Driver-side byte/frame counters of one worker channel (federation).
  struct WireLinkStats {
    std::string endpoint;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_received = 0;
    /// Frames the channel discarded without transmitting (close-drain
    /// deadline tail, frames queued behind a send error, injected
    /// drop/partition faults) — non-zero values are reported, not
    /// swallowed.
    std::uint64_t frames_dropped = 0;
    /// First send-side error the channel recorded ("" = none), e.g. a
    /// liveness-deadline trip or the close-drain deadline.
    std::string error;
  };
  /// One worker-shipped registry snapshot (kStatsSample frame): the
  /// fleet-wide observability timeline of a federated run.
  struct WorkerSample {
    std::size_t worker = 0;            ///< shipping worker's index
    stream::Timestamp now_ms = 0;      ///< stream time at sampling
    obs::MetricsSnapshot metrics;      ///< the worker's local registry
  };
  struct FederationStats {
    std::size_t workers = 0;  ///< 0 = the run was not federated
    std::vector<WireLinkStats> links;
    std::size_t migrations = 0;  ///< scripted handoffs executed
    /// Workers that died mid-run and were respawned + resumed (requires
    /// FederationOptions::Recovery::enabled).
    std::size_t recoveries = 0;
    /// Peer links declared dead (kPeerDown): the pair's traffic fell back
    /// to star routing through the driver for the rest of the run.
    std::size_t peer_fallbacks = 0;
    /// kSeqGap reports answered with a data-log replay (executes lost on a
    /// live-but-lossy link, re-sent directly by the driver).
    std::size_t seq_gap_replays = 0;
    /// FederationOptions::faults entries installed on worker channels.
    std::size_t faults_injected = 0;
    /// Frames/bytes the workers sent over worker-to-worker peer links
    /// (kPeerHello + peer-shipped kExecuteBundle), summed across the fleet.
    std::uint64_t peer_frames = 0;
    std::uint64_t peer_bytes = 0;
    /// Bytes of kExecuteBundle frames the *driver* sent. With peer_links
    /// on this is ~0 — runs travel worker-to-worker and the driver only
    /// ships compact kRouteDecision frames (recovery replay is the
    /// exception).
    std::uint64_t driver_execute_bytes = 0;
    /// Serialized join-state bytes actually shipped in kStateHandoff
    /// frames (measured on the wire, not modeled).
    std::uint64_t state_bytes_migrated = 0;
    /// Broker traffic merged across the federation: each worker's p1
    /// matching share plus the driver's p2 result delivery — the same
    /// total the in-process broker would account.
    pubsub::TrafficStats matched_traffic;
    /// Periodic worker registry snapshots, merged driver-side into one
    /// timeline ordered by (now_ms, worker). Populated when
    /// FederationOptions::stats_sample_every_ms > 0 (plus one final sample
    /// per worker at end of session).
    std::vector<WorkerSample> samples;
    /// Run journal accounting (FederationOptions::journal). Bytes and
    /// fsyncs the journal writer issued during the run — the durable-run
    /// overhead bench_federation reports per tuple.
    std::uint64_t journal_bytes = 0;
    std::uint64_t journal_fsyncs = 0;
    /// Resume diagnostics (resume_federated only). rollbacks = newer
    /// segments skipped during recovery (corrupt or uncommitted);
    /// journal_records_dropped = partial-chunk executes + torn/corrupt
    /// tail records discarded; resume_skipped_events = trace events not
    /// re-ingested because the journal's cut already covered them.
    std::uint64_t journal_rollbacks = 0;
    bool journal_torn_tail = false;
    std::uint64_t journal_records_dropped = 0;
    std::size_t resume_skipped_events = 0;
    /// In-memory data-log retention: entries appended over the run vs the
    /// peak held at once. With retention/checkpointing on, peak stays
    /// bounded by the checkpoint-to-checkpoint window instead of growing
    /// with the whole trace (peak == appended when nothing truncates).
    std::size_t data_log_appended = 0;
    std::size_t data_log_peak_entries = 0;
  };

  struct RunReport {
    std::size_t tuples = 0;             ///< trace events ingested
    std::size_t chunks = 0;             ///< driver chunks dispatched
    std::size_t results_delivered = 0;  ///< user callbacks invoked
    double ingest_seconds = 0.0;        ///< wall time: replay + drain
    double drain_seconds = 0.0;         ///< wall time waiting on shards at EOT
    /// CPU seconds the driver thread spent in run(): chunk cutting,
    /// routing, dispatch, result delivery — blocking waits excluded. The
    /// serial stage of the pipeline; max(this, slowest shard busy) is the
    /// parallel critical path.
    double driver_cpu_seconds = 0.0;
    DriverBreakdown driver;             ///< where the serial time went
    runtime::RuntimeStats stats;        ///< per-shard + per-engine counters
    adapt::AdaptationReport adaptation; ///< what the adapt loop did (if on)
    FederationStats federation;         ///< wire stats (run_federated only)
    /// End-to-end tuple latency, ingest to p2 delivery: one sample per
    /// delivered result, measured from its input chunk's ingest stamp
    /// (nanoseconds; see e2e_percentile_us for reporting).
    obs::HistogramSnapshot e2e_latency;
    /// The run's metrics registry at the end: driver-side counters and
    /// histograms (includes the e2e latency histogram under
    /// "e2e_latency_ns").
    obs::MetricsSnapshot metrics;

    [[nodiscard]] double e2e_percentile_us(double p) const noexcept {
      return static_cast<double>(e2e_latency.percentile(p)) / 1000.0;
    }
  };

  /// Replays `events` (non-decreasing global timestamp order) through the
  /// sharded runtime. See the mode comparison above.
  RunReport run(const std::vector<runtime::TraceEvent>& events,
                const RunOptions& options);
  RunReport run(const std::vector<runtime::TraceEvent>& events) {
    return run(events, RunOptions{});
  }

  // --- Federation mode ----------------------------------------------------
  //
  // run_federated() is run() stretched across real processes: each worker
  // is a cosmos_noded daemon reached over a wire::FrameChannel (TCP or
  // Unix-domain), hosting a slice of the engines and matching the source
  // streams it owns. The driver replicates the topology, schemas, p1
  // subscriptions and unit deployments over registration frames, then
  // pipelines driver chunks exactly like run(): one match request per
  // (chunk, owner worker) carries that owner's runs, responses are routed
  // *on the driver* into per-engine row selections (so routing policy lives
  // in one place), one execute bundle per (chunk, target worker) carries
  // each run once plus the per-engine slices, and result tuples come back
  // for p2 delivery on the driver thread. Per-channel FIFO plays the
  // role of shard-queue FIFO, so per-query result sequences stay
  // byte-identical to push() — the federation differential tests assert it
  // across worker counts and live migrations. The per-chunk match barrier
  // is relaxed to a bounded in-flight window (max_inflight_chunks).

  struct FederationOptions {
    /// Worker endpoints ("unix:/path" or "tcp:host:port"), one per
    /// already-listening cosmos_noded process (node::spawn_noded starts
    /// them; wire::connect_to absorbs the startup race).
    std::vector<std::string> workers;
    std::size_t batch_size = 256;        ///< max tuples per driver chunk
    stream::Timestamp tick_ms = 60'000;  ///< virtual-clock bound per chunk
    /// Chunks whose match responses may still be outstanding before the
    /// driver waits — the relaxed match barrier. 1 = run()'s strict
    /// per-chunk barrier.
    std::size_t max_inflight_chunks = 4;
    std::size_t worker_shards = 1;    ///< each worker runtime's shard count
    std::size_t queue_capacity = 64;  ///< per-channel send queue, in frames
    /// Emulated one-way link delay per worker, ms (empty = all zero);
    /// applied to both directions of that worker's channel.
    std::vector<std::int64_t> link_delay_ms;
    /// One scripted live migration: at virtual time `at_ms`, the units
    /// hosted at `engine` drain on their current worker, serialize their
    /// join state, and resume on `to_worker` — the wire analogue of the
    /// adapt subsystem's engine re-pins.
    struct Migration {
      stream::Timestamp at_ms = 0;
      NodeId engine;
      std::size_t to_worker = 0;
    };
    std::vector<Migration> migrations;  ///< in at_ms order
    /// When non-empty, enables span tracing on the driver *and* every
    /// worker (via kHello), merges worker-shipped spans into one timeline
    /// and writes a single Chrome trace-event JSON here — driver lanes at
    /// pid 0, worker i's at pid i+1.
    std::string trace_path;
    /// Stream-time period of worker registry sampling (kStatsSample
    /// frames -> RunReport::federation.samples); <= 0 disables periodic
    /// samples. Workers still ship one final sample at end of session
    /// when tracing or sampling is on.
    stream::Timestamp stats_sample_every_ms = 0;
    /// Peer-link mode: the driver distributes the fleet endpoint table
    /// (kPeerTable), match-owner workers retain their runs, and the
    /// driver's route stage sends one compact kRouteDecision per (chunk,
    /// owner) — execute bundles then travel worker-to-worker instead of
    /// bouncing through the driver. Results are byte-identical either way (per-engine seq
    /// ordering replaces single-channel FIFO); false keeps the star path
    /// as the differential oracle.
    bool peer_links = false;
    /// Worker restart recovery. When enabled, the driver retains every
    /// registration frame and a data log since the last checkpoint; on
    /// dead-worker detection it respawns the daemon on the same endpoint
    /// (node::spawn_noded), replays the registrations, re-hands-off each
    /// hosted engine's checkpointed state (kMigrateIn at the checkpoint's
    /// execute seq), replays the logged executes — the sites' seq dedup
    /// absorbs duplicates — and resumes the run.
    struct Recovery {
      bool enabled = false;
      /// cosmos_noded binary to respawn; empty = $COSMOS_NODED_PATH.
      std::string noded_path;
      /// Give up (sticky session error) past this many recoveries.
      std::size_t max_recoveries = 4;
      /// Stream-time period between recovery checkpoints (flush + per-
      /// engine keep-state handoff). <= 0: only the initial (empty-state)
      /// checkpoint is taken, so recovery replays from the top of the run.
      stream::Timestamp checkpoint_every_ms = 0;
    };
    Recovery recovery;
    /// Liveness (protocol v3). Both ends of every driver<->worker channel
    /// originate kHeartbeat probes when send-idle and declare the peer
    /// dead after `deadline_ms` of total silence: the driver hands a
    /// silent worker to recovery (or fails the session), a worker whose
    /// driver went silent errors out and exits instead of lingering, and
    /// outbound peer links inherit the same knobs. The deadline also paces
    /// the driver's stalled-wait re-sends (lost match requests, flushes,
    /// traffic requests) and the sites' kSeqGap starvation reports, so no
    /// federated wait can block unboundedly on a silent peer.
    /// heartbeat_every_ms <= 0 disables origination; deadline_ms <= 0
    /// disables detection and re-sends (pre-v3 behavior).
    struct Liveness {
      std::int64_t heartbeat_every_ms = 500;
      std::int64_t deadline_ms = 30'000;
    };
    Liveness liveness;
    /// Durable run journal (src/journal): when `dir` is non-empty the
    /// driver persists its recovery state — registration frames, routed
    /// executes, periodic engine-state checkpoints, delivered-result
    /// floors — to an append-only segment file per checkpoint epoch, so a
    /// kill -9'd *driver* restarts with Cosmos::resume_federated and the
    /// combined output stays byte-identical to push(). Independent of
    /// Recovery (worker restart): either works without the other.
    struct Journal {
      std::string dir;  ///< empty = journaling off
      /// Mirrors journal::Fsync (own copy so cosmos.h need not pull the
      /// journal headers into every consumer).
      enum class Fsync : std::uint8_t { kNever, kCommit, kChunk, kEvery };
      /// Process death never loses write()n data; fsync is for machine
      /// crashes. Default syncs checkpoint commits only.
      Fsync fsync = Fsync::kCommit;
      /// Stream-time period between journal checkpoints (same keep-mode
      /// kMigrateOut cut as Recovery's). <= 0: only the initial commit is
      /// taken, so resume replays from the top of the run.
      stream::Timestamp checkpoint_every_ms = 0;
    };
    Journal journal;
    /// Bounded in-memory retention of the driver's data_log and delivered
    /// buffers. A checkpoint already truncates both to its cut; this knob
    /// additionally advances the all-workers-acked floor *between*
    /// checkpoints (a flush barrier at chunk boundaries, no state pull),
    /// pruning data-log entries every worker proved applied. <= 0 leaves
    /// pruning to checkpoints alone.
    struct Retention {
      stream::Timestamp floor_every_ms = 0;
    };
    Retention retention;
    /// Deterministic network fault injection: at stream time `at_ms`
    /// (applied at the next chunk boundary, like migrations) the
    /// fault::FaultPlan parsed from `plan` is installed on the driver's
    /// channel to `worker` with fresh frame counters. `send:` rules act on
    /// driver->worker frames, `recv:` rules on worker->driver frames. A
    /// recovery respawn gets a fresh, fault-free channel. Worker-side
    /// schedules (own channel / peer links) are spawned via cosmos_noded
    /// --fault-driver / --fault-peer instead.
    struct FaultEvent {
      stream::Timestamp at_ms = 0;
      std::size_t worker = 0;
      std::string plan;  ///< fault::FaultPlan::parse spec
    };
    std::vector<FaultEvent> faults;  ///< in at_ms order
    /// Test hook: invoked after each driver chunk is dispatched, with the
    /// 0-based chunk index. The chaos tests use it to SIGKILL a worker at
    /// a deterministic point mid-trace.
    std::function<void(std::size_t chunk)> on_chunk;
    /// Test hook: invoked on the driver thread right after recovery
    /// respawns `worker` as process `pid`, before the replay — the
    /// double-failure chaos tests use it to land a second failure at a
    /// deterministic recovery point.
    std::function<void(std::size_t worker, pid_t pid)> on_respawn;
  };

  /// Replays `events` across the worker processes in `options`. Throws
  /// std::runtime_error when a worker faults or disconnects mid-run (the
  /// session never hangs on a dead peer). The returned report's
  /// `federation` member carries the wire-level stats.
  RunReport run_federated(const std::vector<runtime::TraceEvent>& events,
                          const FederationOptions& options);

  /// Restarts a journaled federated run after a driver crash. Recovers the
  /// newest valid checkpoint from `options.journal.dir` (truncating a torn
  /// tail; rolling back past a corrupt segment; throwing a typed
  /// journal::Error when nothing is recoverable), spawns a fresh worker
  /// fleet on the journaled endpoints, replays the journaled registrations
  /// and executes through the ordinary seq-dedup machinery, suppresses the
  /// results the crashed run already delivered, and resumes ingesting
  /// `events` — the same full trace the original run was given — from the
  /// journaled cut. Options recorded in the journal (worker count,
  /// batch_size, tick_ms, worker_shards, peer_links) override `options`;
  /// scripted migrations and fault schedules are cleared (their stream-time
  /// cues may predate the cut). The pre-crash and resumed runs' combined
  /// deliveries are byte-identical to push().
  RunReport resume_federated(const std::vector<runtime::TraceEvent>& events,
                             const FederationOptions& options);

  /// Link traffic merged across the broker's per-stream partitions. Must
  /// not be called while run() is executing (partitions are then owned by
  /// the shards).
  [[nodiscard]] pubsub::TrafficStats traffic() const {
    return broker_.traffic();
  }
  void reset_traffic() noexcept { broker_.reset_traffic(); }

  /// Number of deployed (merged) execution units; <= submitted queries.
  [[nodiscard]] std::size_t deployed_units() const noexcept {
    return units_.size();
  }
  [[nodiscard]] std::size_t submitted_queries() const noexcept {
    return queries_.size();
  }
  [[nodiscard]] pubsub::BrokerNetwork& broker() noexcept { return broker_; }

 private:
  /// The driver half of a federated run (defined in federation.cpp): the
  /// worker channels, reader-shared response state, the in-flight chunk
  /// window and the migration protocol.
  struct Fed;

  struct Unit {
    std::uint32_t id = 0;
    NodeId host;
    query::QuerySpec spec;  ///< the covering query actually running
    std::vector<QueryId> members;
    std::string result_stream;
    std::unique_ptr<query::CompiledQuery> plan;
    std::vector<SubscriptionId> p1_subs;
    std::size_t result_tap = 0;
  };
  struct UserQuery {
    query::QuerySpec spec;
    ResultCallback callback;
    std::uint32_t unit = UINT32_MAX;
    SubscriptionId p2_sub;
    /// Cached projection of the unit's result columns onto this query's.
    std::vector<std::size_t> p2_keep;
  };

  /// A result tuple emitted by a shard engine, pending p2 delivery on the
  /// driver thread.
  struct ResultEvent {
    std::string stream;
    stream::Tuple tuple;
    /// Ingest stamp of the chunk that produced this result (0 if unknown);
    /// the driver records now_ns() - ingest_ns at p2 delivery.
    std::uint64_t ingest_ns = 0;
  };

  stream::Engine& engine_at(NodeId host);
  void deploy_unit(Unit& unit);
  void teardown_unit(Unit& unit);
  void wire_member(UserQuery& uq, Unit& unit);
  /// p2 leg: routes a result-stream tuple to its member queries' callbacks.
  void deliver_result(const std::string& result_stream,
                      const stream::Tuple& tuple);
  /// Pipelines one driver chunk through match → route → dispatch: ships
  /// each run to the shard owning its stream's broker partition for
  /// subscription matching, waits for the chunk's match barrier, then
  /// turns the pre-matched deliveries into per-engine run slices and hands
  /// them to the engines' shards. `shard_of` is keyed by NodeId::value()
  /// (the runtime's opaque engine id) so the adaptation subsystem can
  /// share the map; it also pins partition owners (publisher nodes).
  void dispatch_chunk(
      runtime::Chunk&& chunk, runtime::Runtime& rt,
      const std::unordered_map<std::uint64_t, std::size_t>& shard_of,
      RunReport& report);
  /// Total window extent (ms) of the units hosted at `node` — the state
  /// model's input for planning-time migration cost.
  [[nodiscard]] double host_window_extent_ms(NodeId node) const;
  /// Live join-state bytes of the units hosted at `node`, *measured*: the
  /// serialized size of the state a migration would actually ship (the
  /// wire handoff payload), not a tuples-times-constant estimate. Only
  /// safe while no shard worker is executing that node's engine (the
  /// migrator calls it post-drain).
  [[nodiscard]] double host_state_bytes(NodeId node) const;

  std::vector<NodeId> nodes_;
  pubsub::BrokerNetwork broker_;
  std::map<NodeId, std::unique_ptr<stream::Engine>> engines_;
  std::map<std::uint32_t, Unit> units_;
  std::unordered_map<QueryId, UserQuery> queries_;
  /// p2 subscription id -> owning query (for delivery dispatch).
  std::unordered_map<SubscriptionId, QueryId> p2_owner_;
  std::uint32_t next_unit_id_ = 0;
  std::uint32_t unit_version_ = 0;
  bool enable_result_sharing_ = true;
  /// Non-null while run() is active: shard engines park result tuples here
  /// instead of delivering inline (delivery happens on the driver thread).
  /// Set before workers start and cleared after they join, so shard threads
  /// always observe the run-mode value.
  runtime::MpscBuffer<ResultEvent>* active_results_ = nullptr;
  std::size_t results_delivered_ = 0;
};

}  // namespace cosmos::middleware
