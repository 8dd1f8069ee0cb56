// The driver half of a federated run: Cosmos::run_federated and its state
// (Cosmos::Fed). Each worker is a cosmos_noded process reached over one
// wire::FrameChannel; the channel's reader thread funnels every inbound
// frame into a small mutex-guarded inbox the driver thread waits on.
//
// Data traffic is chunk-granular (wire protocol v4): per chunk, each owner
// worker gets one kMatchRequest with all of its runs and answers with one
// kMatchResponse; the route stage then sends each target worker one
// kExecuteBundle carrying every run it needs once plus one (engine, seq,
// run, rows) entry per engine slice — the per-chunk slice shape
// Cosmos::dispatch_chunk uses in-process, applied at the wire.
//
// Determinism argument, mirroring run(): routing happens on the driver in
// chunk/run order and assigns every engine slice a per-engine sequence
// number; each site applies an engine's slices strictly in seq order, so
// per-query result sequences are byte-identical to push() at any worker
// count — whether bundles travel the star channels (peer_links=false, FIFO
// makes the seqs trivially in order) or worker-to-worker peer links
// (peer_links=true, the site's holdback/dedup re-establishes seq order).
// Bundling changes only how slices are grouped into frames, never their
// seqs. The per-chunk match barrier of run() is relaxed to a bounded
// window of in-flight chunks (max_inflight_chunks).
//
// Worker restart recovery (FederationOptions::recovery): the driver retains
// every registration frame plus a data log of routed executes since the
// last checkpoint. When a channel to worker i dies mid-run, the driver
// respawns cosmos_noded on the same endpoint, replays the registrations,
// re-hands-off each hosted engine's checkpointed state (kMigrateIn at the
// checkpoint's execute seq), replays the logged executes (site seq dedup
// absorbs what survivors already applied), re-sends whatever barrier was in
// flight, and resumes. Results the dead worker already delivered are
// discarded on re-emission (pending_discard), so the user-visible result
// sequence stays byte-identical to a crash-free run.
#include "cosmos/cosmos.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "fault/fault.h"
#include "journal/journal.h"
#include "node/spawn.h"
#include "obs/trace.h"
#include "wire/channel.h"
#include "wire/messages.h"
#include "wire/socket.h"

namespace cosmos::middleware {

struct Cosmos::Fed {
  Fed(Cosmos& system, const FederationOptions& opts)
      : sys(system),
        options(opts),
        trace(opts.trace_path),
        log_data(opts.recovery.enabled || opts.peer_links ||
                 !opts.faults.empty() || !opts.journal.dir.empty()) {
    trace.add_process_name(0, "driver");
    e2e = &reg.histogram("e2e_latency_ns");
  }

  ~Fed() {
    // Stop treating closes as faults, then tear the channels down (close
    // joins each channel's reader, so after this loop no callback can
    // touch the inbox state above).
    {
      std::lock_guard lock{mu};
      expect_close = true;
    }
    for (auto& w : workers) {
      if (w.channel) w.channel->close();
    }
  }
  Fed(const Fed&) = delete;
  Fed& operator=(const Fed&) = delete;

  Cosmos& sys;
  const FederationOptions& options;
  /// Declared before `workers` (members die in reverse order): the session
  /// destructor drains span rings and writes the merged Chrome trace file,
  /// and must run only after the channel reader threads have joined.
  obs::TraceSession trace;
  /// Driver-side registry; e2e points at its ingest-to-delivery histogram.
  obs::MetricsRegistry reg;
  obs::Histogram* e2e = nullptr;

  // --- inbox: reader threads write, the driver thread waits (guard: mu).
  std::mutex mu;
  std::condition_variable cv;
  std::string error;  ///< first unrecoverable fault; sticky, fails every wait
  std::set<std::size_t> hello_acks;  ///< workers whose (re)hello was acked
  /// flush seq -> the workers that acked it. Keyed per worker (not a bare
  /// count) so recovery can retract a dead worker's ack and demand a fresh
  /// one from its respawned successor.
  std::map<std::uint64_t, std::set<std::size_t>> flush_acks;
  std::unordered_map<std::uint64_t, wire::MatchResponseMsg> match_responses;
  /// One result event, tagged with the worker whose channel delivered it so
  /// recovery can purge a dead worker's undelivered tail (the replay
  /// re-emits it).
  struct InboxResult {
    wire::ResultEventMsg ev;
    std::size_t worker = 0;
  };
  std::vector<InboxResult> results_inbox;  ///< arrival order
  /// engine value -> (handoff, wire bytes). Last-wins per engine: a
  /// recovery re-request can produce a duplicate handoff, byte-identical
  /// because both were cut at the same flush + seq point.
  std::map<std::uint64_t, std::pair<wire::StateHandoffMsg, std::uint64_t>>
      handoffs;
  std::set<std::uint64_t> migrate_acks;  ///< acked engine values
  std::map<std::size_t, wire::TrafficReportMsg> traffic_reports;  ///< by worker
  std::vector<wire::StatsSampleMsg> samples_inbox;  ///< arrival order
  bool expect_close = false;  ///< set before kBye: closes are then orderly
  /// Recovery gate: armed once replicate() + the initial checkpoint are
  /// done (registration faults stay fatal). Guarded by mu because the
  /// reader-side mark_dead consults it.
  bool recovery_armed = false;
  std::vector<char> worker_dead;         ///< 1 while awaiting recovery
  std::deque<std::size_t> dead_pending;  ///< recovery queue, death order
  /// kPeerDown reports awaiting driver-thread handling (star fallback +
  /// replay of the entries the dead link may have swallowed).
  std::deque<wire::PeerDownMsg> peer_down_inbox;
  /// kSeqGap starvation reports awaiting a data-log replay.
  std::deque<wire::SeqGapMsg> seq_gap_inbox;

  // --- driver-thread-only state.
  std::unordered_map<std::string, std::size_t> worker_of_stream;
  std::unordered_map<NodeId, std::size_t> worker_of_engine;
  std::uint64_t next_job = 0;
  std::uint64_t next_flush_seq = 0;
  std::size_t next_migration = 0;
  std::size_t next_fault = 0;  ///< next FederationOptions::faults entry
  std::size_t chunk_index = 0;
  /// (owner, target) peer links declared dead: the pair's batches route
  /// through the driver (star) for the rest of the run. Never un-declared —
  /// star is always correct, and a respawn that re-opens the link merely
  /// leaves this pair conservatively driver-routed.
  std::set<std::pair<std::uint32_t, std::uint32_t>> peer_down_pairs;
  /// Whether routed executes are retained in data_log: recovery replay,
  /// peer-down fallback replay and kSeqGap replay all read it. Without
  /// recovery the log is never truncated by checkpoints (bounded by the
  /// run's trace, acceptable for fault-injection tests).
  const bool log_data;

  /// Per-engine execute sequence frontier: the next seq the driver will
  /// assign. The floor carried on watermarks/flushes to an engine's worker.
  std::unordered_map<std::uint64_t, std::uint64_t> next_exec_seq;
  /// Registration frames replayed verbatim to a respawned worker:
  /// topology, stream registrations, subscriptions, the peer table.
  /// Deployments are excluded — recovery re-deploys via kMigrateIn, which
  /// also restores state and the seq cut.
  std::vector<wire::Frame> reg_log;
  /// One routed engine slice since the last checkpoint. `owner` is the
  /// match owner that ships it in peer-link mode (SIZE_MAX on the star
  /// path, where the driver itself sent the bundle): replay re-sends an
  /// entry when its current target OR its owner is the recovered worker —
  /// covering both a lost shipment and a lost route decision. `chunk`
  /// groups a routed chunk's entries so replay re-bundles them per chunk.
  struct DataLogEntry {
    std::size_t owner = SIZE_MAX;
    NodeId engine;
    std::uint64_t seq = 0;
    wire::SharedRun run;
    std::vector<std::uint32_t> rows;  ///< empty = all rows of `run`
    std::uint64_t ingest_ns = 0;
    std::uint64_t chunk = 0;
  };
  std::vector<DataLogEntry> data_log;
  /// Distinct per routed chunk (and per resumed journal bundle): the
  /// DataLogEntry::chunk grouping key.
  std::uint64_t logged_chunks = 0;
  /// Retention accounting: entries ever appended vs the peak held at once
  /// (the boundedness proof in RunReport::federation).
  std::size_t data_log_appended = 0;
  std::size_t data_log_peak = 0;
  /// engine value -> the highest execute-seq floor every worker has acked
  /// (snapshot of the frontier at the last fleet-wide flush). Entries below
  /// it are applied everywhere, so peer-down / kSeqGap replay can never
  /// need them again — the in-memory data_log prunes below this floor
  /// (checkpoints own the truncation when worker recovery is enabled,
  /// because its replay needs the whole since-checkpoint window).
  std::unordered_map<std::uint64_t, std::uint64_t> acked_floor;
  /// engine value -> its state at the last checkpoint cut.
  struct EngineCheckpoint {
    std::vector<wire::UnitStateMsg> state;
    std::uint64_t exec_seq = 0;
  };
  std::unordered_map<std::uint64_t, EngineCheckpoint> ckpt;
  stream::Timestamp ckpt_clock_ms = 0;  ///< last checkpoint's stream time
  bool has_ckpt_clock = false;
  stream::Timestamp floor_clock_ms = 0;  ///< last retention floor advance
  bool has_floor_clock = false;

  /// Durable run journal (FederationOptions::journal): created by run() for
  /// a fresh journaled run, installed by resume_federated (continuing the
  /// segment chain) for a resumed one. Driver-thread only.
  std::unique_ptr<journal::Writer> jw;
  std::uint64_t next_ckpt_id = 0;
  /// Trace events consumed by dispatched chunks — the journal's resume cut.
  std::uint64_t events_consumed = 0;
  /// Set by resume_federated: the recovered journal state this run resumes
  /// from (null for a fresh run).
  const journal::RecoveredRun* resume_state = nullptr;
  /// Results delivered to user callbacks since the last checkpoint, per
  /// result stream; when a worker dies, the replay re-emits exactly these,
  /// so pending_discard skips that many re-deliveries per stream.
  std::unordered_map<std::string, std::size_t> delivered_since_ckpt;
  std::unordered_map<std::string, std::size_t> pending_discard;
  /// In-flight barriers a respawned worker must re-answer.
  struct OutstandingFlush {
    std::uint64_t seq = 0;
    std::set<std::size_t> waiting;
  };
  std::optional<OutstandingFlush> outstanding_flush;
  std::optional<std::pair<NodeId, std::size_t>> outstanding_ckpt_out;
  bool collecting_traffic = false;
  /// Scripted migrations quiesce the fleet outside the recovery protocol;
  /// a death inside the handshake is unrecoverable (documented limitation).
  bool scripted_migration_active = false;
  stream::Timestamp last_watermark = 0;
  bool has_watermark = false;
  std::uint64_t driver_execute_bytes = 0;

  /// One dispatched run. `match` indexes its owner's PendingMatch (SIZE_MAX:
  /// zero subscriptions, nothing to match); `slot` is its position in that
  /// match request, hence in the response and the owner's retained runs.
  struct PendingRun {
    wire::SharedRun run;
    std::size_t owner = 0;  ///< the stream owner
    std::size_t match = SIZE_MAX;
    std::uint32_t slot = 0;
  };
  /// One (chunk, owner) match request awaiting its response; kept whole so
  /// a stall or a recovery can re-send it.
  struct PendingMatch {
    std::size_t owner = 0;
    wire::MatchRequestMsg request;
  };
  struct PendingChunk {
    std::vector<PendingRun> runs;
    std::vector<PendingMatch> matches;
    stream::Timestamp last_ts = 0;
    std::uint64_t ingest_ns = 0;  ///< Chunk::ingest_ns, echoed on executes
    std::uint64_t index = 0;      ///< chunk_index at dispatch
    /// Trace events consumed through this chunk — journaled on its
    /// chunk-routed marker so resume re-ingests from exactly here.
    std::uint64_t events_through = 0;
  };
  std::deque<PendingChunk> pending;

  RunReport report;

  /// Counter totals of channels retired by recovery, folded into the link
  /// stats at shutdown so a recovered worker's traffic is not lost.
  struct RetiredLink {
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t frames_dropped = 0;
  };
  std::vector<RetiredLink> retired;

  /// Daemons respawned by recovery. Declared before `workers` so the
  /// channels close (and their reader threads join) first; each process
  /// destructor then reaps its already-exited child with a bounded
  /// SIGTERM -> SIGKILL grace.
  std::vector<node::NodeProcess> respawned;
  /// worker index -> its latest entry in `respawned`. When a respawned
  /// incarnation dies too, recover() kills *and reaps* it before dialing
  /// the replacement — the reap is the barrier that the dying listener is
  /// fully gone (see node::NodeProcess::kill for the backlog race).
  std::unordered_map<std::size_t, std::size_t> respawn_of;
  /// The fleet a resumed run spawned for itself (resume_federated): the
  /// crashed driver's workers died with it (driver-death EOF), so resume
  /// owns fresh daemons on the journaled endpoints. Declared before
  /// `workers` for the same close-before-reap ordering as `respawned`.
  std::vector<node::NodeProcess> owned_fleet;

  // Declared last so channel destruction (which joins the reader threads)
  // precedes destruction of everything the reader callbacks capture.
  struct Worker {
    std::string endpoint;
    std::unique_ptr<wire::FrameChannel> channel;
  };
  std::vector<Worker> workers;

  // --- reader-side handlers -----------------------------------------------

  /// Unrecoverable protocol fault (decode error, kError frame): sticky.
  void fail(std::size_t i, const std::string& what) {
    {
      std::lock_guard lock{mu};
      if (error.empty()) {
        error = "worker " + std::to_string(i) + " (" + workers[i].endpoint +
                "): " + what;
      }
    }
    cv.notify_all();
  }

  /// Recovery-lifecycle trace to stderr, gated by COSMOS_FED_DEBUG — the
  /// first tool to reach for when a chaos run wedges or diverges.
  static void dbg(const std::string& msg) {
    if (std::getenv("COSMOS_FED_DEBUG") != nullptr) {
      std::fprintf(stderr, "[fed] %s\n", msg.c_str());
    }
  }

  /// A worker's channel died (or a send to it failed). With recovery armed
  /// the worker is queued for respawn; otherwise the session fails sticky.
  void mark_dead(std::size_t i, const std::string& what) {
    dbg("mark_dead " + std::to_string(i) + ": " + what);
    {
      std::lock_guard lock{mu};
      if (expect_close) return;
      if (recovery_armed) {
        if (worker_dead[i] == 0) {
          worker_dead[i] = 1;
          dead_pending.push_back(i);
        }
      } else if (error.empty()) {
        error = "worker " + std::to_string(i) + " (" + workers[i].endpoint +
                "): " + what;
      }
    }
    cv.notify_all();
  }

  void on_frame(std::size_t i, wire::Frame frame) {
    try {
      switch (frame.type) {
        case wire::FrameType::kHelloAck: {
          (void)wire::decode_hello_ack(frame);
          std::lock_guard lock{mu};
          hello_acks.insert(i);
          break;
        }
        case wire::FrameType::kMatchResponse: {
          auto m = wire::decode_match_response(frame);
          std::lock_guard lock{mu};
          match_responses.emplace(m.job, std::move(m));
          break;
        }
        case wire::FrameType::kResult: {
          auto m = wire::decode_result(frame);
          std::lock_guard lock{mu};
          for (auto& ev : m.events) {
            results_inbox.push_back({std::move(ev), i});
          }
          break;
        }
        case wire::FrameType::kFlushAck: {
          const auto m = wire::decode_flush_ack(frame);
          std::lock_guard lock{mu};
          flush_acks[m.seq].insert(i);
          break;
        }
        case wire::FrameType::kStateHandoff: {
          const std::uint64_t wire_bytes =
              frame.payload.size() + wire::kFrameHeaderBytes;
          auto m = wire::decode_state_handoff(frame);
          const std::uint64_t key = m.engine.value();
          std::lock_guard lock{mu};
          handoffs.insert_or_assign(key,
                                    std::pair{std::move(m), wire_bytes});
          break;
        }
        case wire::FrameType::kMigrateAck: {
          const auto m = wire::decode_migrate_ack(frame);
          std::lock_guard lock{mu};
          migrate_acks.insert(m.engine.value());
          break;
        }
        case wire::FrameType::kTrafficReport: {
          auto m = wire::decode_traffic_report(frame);
          std::lock_guard lock{mu};
          traffic_reports.insert_or_assign(i, std::move(m));
          break;
        }
        case wire::FrameType::kStatsSample: {
          auto m = wire::decode_stats_sample(frame);
          std::lock_guard lock{mu};
          samples_inbox.push_back(std::move(m));
          break;
        }
        case wire::FrameType::kHeartbeat:
          // A worker's idle-probe: receipt alone refreshed the channel
          // watchdog, and the worker's own deadline is fed by the driver's
          // data frames (or its idle-probes), so absorb silently.
          break;
        case wire::FrameType::kPeerDown: {
          auto m = wire::decode_peer_down(frame);
          std::lock_guard lock{mu};
          peer_down_inbox.push_back(std::move(m));
          break;
        }
        case wire::FrameType::kSeqGap: {
          auto m = wire::decode_seq_gap(frame);
          std::lock_guard lock{mu};
          seq_gap_inbox.push_back(std::move(m));
          break;
        }
        case wire::FrameType::kError:
          // The worker saw an unrecoverable transport fault (e.g. a frame
          // that failed to decode): with recovery armed that incarnation is
          // replaced like any other channel death; otherwise it stays a
          // session fault.
          mark_dead(i, wire::decode_error(frame).message);
          break;
        default:
          fail(i, std::string{"unexpected frame "} +
                      wire::to_string(frame.type));
          break;
      }
    } catch (const std::exception& e) {
      fail(i, e.what());
    }
    cv.notify_all();
  }

  void on_close(std::size_t i, const std::string& err) {
    mark_dead(i, err.empty() ? std::string{"disconnected mid-session"} : err);
  }

  // --- driver-side plumbing -----------------------------------------------

  /// Waits until `pred` holds. Dead workers queued in the meantime are
  /// recovered here, on the driver thread, with the lock released — so
  /// every wait in the protocol doubles as the recovery dispatch point and
  /// a dead peer can never hang the session (unrecoverable faults throw).
  /// kPeerDown / kSeqGap reports are dispatched the same way (star
  /// fallback, data-log replay). With `on_stall` set and a liveness
  /// deadline configured, the wait additionally times out every
  /// deadline_ms and invokes `on_stall` (lock released) to re-send the
  /// request it is waiting on — the catch-all for a live worker whose
  /// request a drop fault swallowed. Every protocol re-send is idempotent
  /// (seq dedup, emplace/insert_or_assign dedup, flush-ack sets), so a
  /// spurious stall costs only duplicate frames.
  template <typename Pred>
  void wait_for(std::unique_lock<std::mutex>& lock, Pred pred,
                const std::function<void()>& on_stall = {}) {
    while (true) {
      const auto woken = [&] {
        return !error.empty() || !dead_pending.empty() ||
               !peer_down_inbox.empty() || !seq_gap_inbox.empty() || pred();
      };
      if (on_stall && options.liveness.deadline_ms > 0) {
        if (!cv.wait_for(lock,
                         std::chrono::milliseconds(options.liveness.deadline_ms),
                         woken)) {
          lock.unlock();
          dbg("stalled wait: re-sending");
          on_stall();
          lock.lock();
          continue;
        }
      } else {
        cv.wait(lock, woken);
      }
      if (!error.empty()) {
        throw std::runtime_error{"Cosmos federation: " + error};
      }
      if (!dead_pending.empty()) {
        const std::size_t i = dead_pending.front();
        dead_pending.pop_front();
        lock.unlock();
        dbg("recover begin " + std::to_string(i));
        recover(i);
        dbg("recover end " + std::to_string(i));
        lock.lock();
        continue;
      }
      if (!peer_down_inbox.empty()) {
        const auto m = peer_down_inbox.front();
        peer_down_inbox.pop_front();
        lock.unlock();
        handle_peer_down(m);
        lock.lock();
        continue;
      }
      if (!seq_gap_inbox.empty()) {
        const auto m = seq_gap_inbox.front();
        seq_gap_inbox.pop_front();
        lock.unlock();
        handle_seq_gap(m);
        lock.lock();
        continue;
      }
      return;
    }
  }

  /// Driver-sent bundle: counted in driver_execute_bytes.
  void send_bundle(std::size_t w, wire::Frame frame) {
    driver_execute_bytes += frame.payload.size() + wire::kFrameHeaderBytes;
    send_data(w, std::move(frame));
  }

  /// Re-sends every data-log entry matching `match` as driver bundles, one
  /// per (logged chunk, current target worker) — the shared replay core of
  /// worker recovery, peer-link fallback and kSeqGap repair. Receiving
  /// sites drop seqs below their frontier, so over-replaying is safe. Runs
  /// on the driver thread with the inbox lock released.
  template <typename Match>
  void replay_entries(Match match) {
    std::map<std::size_t, wire::ExecuteBundleMsg> bundles;  // by target
    std::uint64_t chunk = 0;
    const auto flush = [&] {
      for (const auto& [w, b] : bundles) {
        send_bundle(w, wire::encode_execute_bundle(b));
      }
      bundles.clear();
    };
    for (const auto& e : data_log) {
      if (!match(e)) continue;
      if (e.chunk != chunk) flush();
      chunk = e.chunk;
      auto& b = bundles[worker_of_engine.at(e.engine)];
      b.ingest_ns = e.ingest_ns;
      b.add(e.engine, e.seq, e.run, e.rows);
    }
    flush();
  }

  /// A worker reported its outbound peer link dead (re-dials exhausted):
  /// route the pair through the driver from now on and replay the logged
  /// entries that link carried — anything the dead link swallowed is
  /// re-delivered, anything it did deliver is seq-deduped at the site.
  void handle_peer_down(const wire::PeerDownMsg& m) {
    if (!peer_down_pairs.insert({m.from_worker, m.to_worker}).second) {
      return;  // already fallen back; a re-report changes nothing
    }
    dbg("peer link " + std::to_string(m.from_worker) + "->" +
        std::to_string(m.to_worker) + " down (" + m.reason +
        "): falling back to star routing");
    obs::Tracer::instance().instant("peer_fallback", "driver", m.from_worker);
    ++report.federation.peer_fallbacks;
    replay_entries([&](const DataLogEntry& e) {
      return e.owner == m.from_worker &&
             worker_of_engine.at(e.engine) == m.to_worker;
    });
  }

  /// A site reported gate starvation: executes below its gated floors
  /// never arrived (lost on a lossy-but-live link). Replay everything at
  /// or above each starved engine's expected seq.
  void handle_seq_gap(const wire::SeqGapMsg& m) {
    dbg("seq gap from worker " + std::to_string(m.worker_index) + " (" +
        std::to_string(m.missing.size()) + " engines): replaying");
    obs::Tracer::instance().instant("seq_gap_replay", "driver",
                                    m.worker_index);
    ++report.federation.seq_gap_replays;
    replay_entries([&](const DataLogEntry& e) {
      for (const auto& floor : m.missing) {
        if (e.engine == floor.engine && e.seq >= floor.seq) return true;
      }
      return false;
    });
  }

  /// Recovery-internal wait: returns false when worker `i` died again
  /// mid-recovery (it is already re-queued; the caller abandons this
  /// attempt and the outer wait_for retries). Other workers' deaths stay
  /// queued until this recovery completes — no recursion.
  template <typename Pred>
  bool wait_recovery(std::unique_lock<std::mutex>& lock, std::size_t i,
                     Pred pred) {
    cv.wait(lock,
            [&] { return !error.empty() || worker_dead[i] != 0 || pred(); });
    if (!error.empty()) {
      throw std::runtime_error{"Cosmos federation: " + error};
    }
    return worker_dead[i] == 0;
  }

  /// Control-plane send: a failure here is a session fault (registration,
  /// migration and shutdown frames).
  void send(std::size_t w, wire::Frame frame) {
    workers[w].channel->send(std::move(frame));
  }

  /// Data-plane send: skipped while the target is dead (the data log / the
  /// outstanding-barrier state re-sends on recovery), and a send failure
  /// marks the worker dead instead of throwing. Never called with mu held —
  /// send can block on backpressure, and the reader threads that drain the
  /// peer need mu.
  bool send_data(std::size_t w, wire::Frame frame) {
    {
      std::lock_guard lock{mu};
      if (w < worker_dead.size() && worker_dead[w] != 0) return false;
    }
    try {
      workers[w].channel->send(std::move(frame));
      return true;
    } catch (const std::exception& e) {
      mark_dead(w, e.what());
      return false;
    }
  }

  void broadcast(const wire::Frame& frame) {
    for (std::size_t w = 0; w < workers.size(); ++w) send(w, frame);
  }

  /// Broadcast + retain for registration replay to respawned workers (and
  /// journal for replay to a restarted *driver*).
  void broadcast_logged(wire::Frame frame) {
    if (jw) jw->registration(frame);
    broadcast(frame);
    reg_log.push_back(std::move(frame));
  }

  /// Appends one routed slice to the in-memory data log, tracking the
  /// retention counters the boundedness test asserts on.
  void log_append(DataLogEntry&& entry) {
    data_log.push_back(std::move(entry));
    ++data_log_appended;
    data_log_peak = std::max(data_log_peak, data_log.size());
  }

  /// Called after a fleet-wide flush fully acked: every engine's frontier
  /// at that moment is now applied on every worker, so the floor advances
  /// and the data log prunes below it. Worker-restart recovery replays the
  /// whole since-checkpoint window, so with it enabled truncation stays
  /// checkpoint-owned.
  void note_all_acked_floors() {
    if (!log_data) return;
    for (const auto& [engine, seq] : next_exec_seq) acked_floor[engine] = seq;
    if (options.recovery.enabled) return;
    std::erase_if(data_log, [&](const DataLogEntry& e) {
      const auto it = acked_floor.find(e.engine.value());
      return it != acked_floor.end() && e.seq < it->second;
    });
  }

  std::int64_t link_delay(std::size_t i) const {
    return i < options.link_delay_ms.size() ? options.link_delay_ms[i] : 0;
  }

  wire::HelloMsg hello_for(std::size_t i) const {
    wire::HelloMsg hello;
    hello.worker_index = static_cast<std::uint32_t>(i);
    hello.shards = static_cast<std::uint32_t>(
        options.worker_shards == 0 ? 1 : options.worker_shards);
    hello.send_delay_ms = link_delay(i);
    hello.stats_sample_every_ms = options.stats_sample_every_ms;
    hello.trace = options.trace_path.empty() ? 0 : 1;
    hello.peer_links = options.peer_links ? 1 : 0;
    hello.heartbeat_every_ms = options.liveness.heartbeat_every_ms;
    hello.liveness_deadline_ms = options.liveness.deadline_ms;
    return hello;
  }

  wire::FrameChannel::Options channel_options(std::size_t i) const {
    wire::FrameChannel::Options copts;
    copts.send_queue_capacity = options.queue_capacity;
    copts.send_delay_ms = link_delay(i);
    copts.heartbeat_every_ms = options.liveness.heartbeat_every_ms;
    copts.liveness_deadline_ms = options.liveness.deadline_ms;
    return copts;
  }

  /// The seq frontier of every engine hosted at worker `w`, in engine
  /// order — the floors carried on that worker's watermarks and flushes.
  std::vector<wire::EngineFloor> floors_for(std::size_t w) const {
    std::vector<wire::EngineFloor> floors;
    for (const auto& [engine, hw] : worker_of_engine) {
      if (hw != w) continue;
      const auto it = next_exec_seq.find(engine.value());
      floors.push_back(
          {engine, it == next_exec_seq.end() ? 0 : it->second});
    }
    std::sort(floors.begin(), floors.end(),
              [](const wire::EngineFloor& a, const wire::EngineFloor& b) {
                return a.engine.value() < b.engine.value();
              });
    return floors;
  }

  void connect_all() {
    workers.reserve(options.workers.size());
    for (std::size_t i = 0; i < options.workers.size(); ++i) {
      Worker w;
      w.endpoint = options.workers[i];
      w.channel = std::make_unique<wire::FrameChannel>(
          wire::connect_to(wire::Endpoint::parse(w.endpoint)),
          channel_options(i));
      workers.push_back(std::move(w));
    }
    worker_dead.assign(workers.size(), 0);
    retired.resize(workers.size());
    for (std::size_t i = 0; i < workers.size(); ++i) {
      workers[i].channel->start_reader(
          [this, i](wire::Frame f) { on_frame(i, std::move(f)); },
          [this, i](const std::string& err) { on_close(i, err); });
    }
    for (std::size_t i = 0; i < workers.size(); ++i) {
      send(i, wire::encode_hello(hello_for(i)));
    }
    std::unique_lock lock{mu};
    wait_for(lock, [&] { return hello_acks.size() >= workers.size(); });
  }

  /// Ships everything a worker needs to be the driver's twin: the exact
  /// topology (same doubles -> same overlay tree), every source stream's
  /// advertisement, every p1 subscription under its driver-assigned id,
  /// and each unit's deployment to the worker that will host its engine.
  void replicate() {
    const auto& lat = sys.broker_.latency_matrix();
    wire::TopologyMsg topo;
    topo.participants = sys.broker_.participants();
    topo.members = lat.members();
    topo.dense = lat.dense();
    topo.use_index = true;
    broadcast_logged(wire::encode_topology(topo));

    // Result streams stay driver-side: workers host the engines that emit
    // them and ship the tuples back raw; p2 matching/delivery (and its
    // traffic accounting) happens on the driver's own broker.
    std::set<std::string> result_streams;
    for (const auto& [uid, unit] : sys.units_) {
      result_streams.insert(unit.result_stream);
    }

    for (auto* part : sys.broker_.partitions()) {
      if (result_streams.contains(part->stream())) continue;
      wire::RegisterStreamMsg reg_msg;
      reg_msg.stream = part->stream();
      reg_msg.publisher = part->publisher();
      reg_msg.schema = part->schema();
      broadcast_logged(wire::encode_register_stream(reg_msg));
      // Static stream ownership: the publisher node's index modulo the
      // worker count, the same deterministic spread run() uses for shards.
      worker_of_stream.emplace(part->stream(),
                               part->publisher().value() % workers.size());
    }

    for (const auto& [uid, unit] : sys.units_) {
      for (const auto sid : unit.p1_subs) {
        const auto* sub = sys.broker_.subscription(sid);
        if (sub == nullptr) {
          throw std::logic_error{"Cosmos: unit holds a dangling p1 sub"};
        }
        // Broadcast: only the stream's owner ever matches it, but having
        // the full subscription table everywhere means a migrated engine's
        // destination needs no extra registration traffic.
        broadcast_logged(wire::encode_subscribe({*sub}));
      }
    }

    if (options.peer_links) {
      wire::PeerTableMsg table;
      table.endpoints = options.workers;
      broadcast_logged(wire::encode_peer_table(table));
    }

    for (const auto& [uid, unit] : sys.units_) {
      const std::size_t host_worker = unit.host.value() % workers.size();
      worker_of_engine[unit.host] = host_worker;
      wire::DeployUnitMsg deploy;
      deploy.unit_id = unit.id;
      deploy.host = unit.host;
      deploy.result_stream = unit.result_stream;
      deploy.spec = unit.spec;
      send(host_worker, wire::encode_deploy_unit(deploy));
    }

    // Barrier: surfaces registration/deployment faults before any data
    // flows (per-channel FIFO already orders the frames themselves).
    flush_all();

    // Initial (empty-state) checkpoint, then arm recovery: from here on a
    // channel death is a respawn, not a session fault.
    for (const auto& [engine, hw] : worker_of_engine) {
      ckpt.emplace(engine.value(), EngineCheckpoint{});
    }
    if (jw) {
      // Seal segment 1 with the initial (zero-engine) commit: a crash
      // before the first periodic checkpoint is already resumable — every
      // engine restarts empty at seq 0, exactly the ckpt map above.
      journal::CheckpointCommit c;
      c.checkpoint_id = ++next_ckpt_id;
      c.engine_states = 0;
      jw->commit_checkpoint(c);
    }
    {
      std::lock_guard lock{mu};
      recovery_armed = options.recovery.enabled;
    }
  }

  /// replicate() for a resumed run (resume_state set): re-broadcast the
  /// journaled registrations, restore every engine at the journaled
  /// checkpoint cut (kMigrateIn doubles as the deployment, exactly as
  /// worker-restart recovery does), replay the journaled post-checkpoint
  /// executes (site seq dedup absorbs nothing here — the fleet is fresh —
  /// but peer-link batches replay through the star path like any recovery
  /// replay), arm result suppression from the journaled delivered floors,
  /// then open the continued journal segment and seal it with a fresh
  /// checkpoint. After that cut the run is a normal journaled run — and
  /// itself resumable. The journal writer is installed only after the
  /// replay quiesces: the continued segment must hold nothing but the
  /// preamble + the fresh cut before its commit (the recovery parser
  /// rejects pre-commit data records), and every replay-time delivery is
  /// covered by the fresh cut, not a delivered floor.
  void resume_replicate() {
    const journal::RecoveredRun& rec = *resume_state;

    for (const auto& frame : rec.registrations) broadcast_logged(frame);

    // Rebuild the routing tables exactly as replicate() derives them (both
    // are deterministic in sys), then let the journaled engine states
    // override the placement where a pre-crash migration moved an engine.
    std::set<std::string> result_streams;
    for (const auto& [uid, unit] : sys.units_) {
      result_streams.insert(unit.result_stream);
    }
    for (auto* part : sys.broker_.partitions()) {
      if (result_streams.contains(part->stream())) continue;
      worker_of_stream.emplace(part->stream(),
                               part->publisher().value() % workers.size());
    }
    for (const auto& [uid, unit] : sys.units_) {
      worker_of_engine[unit.host] = unit.host.value() % workers.size();
    }
    std::unordered_map<std::uint64_t, const journal::EngineState*> saved;
    for (const auto& es : rec.engines) {
      worker_of_engine[es.engine] = es.worker;
      saved.emplace(es.engine.value(), &es);
    }

    std::vector<std::pair<NodeId, std::size_t>> placement(
        worker_of_engine.begin(), worker_of_engine.end());
    std::sort(placement.begin(), placement.end(),
              [](const auto& a, const auto& b) {
                return a.first.value() < b.first.value();
              });
    for (const auto& [engine, hw] : placement) {
      wire::MigrateInMsg in;
      in.engine = engine;
      for (const auto& [uid, unit] : sys.units_) {
        if (unit.host != engine) continue;
        in.units.push_back(
            {unit.id, unit.host, unit.result_stream, unit.spec});
      }
      EngineCheckpoint ec;
      if (const auto sit = saved.find(engine.value()); sit != saved.end()) {
        in.state = sit->second->units;
        in.exec_seq = sit->second->exec_seq;
        ec.state = sit->second->units;
        ec.exec_seq = sit->second->exec_seq;
      }
      next_exec_seq[engine.value()] = in.exec_seq;
      ckpt.emplace(engine.value(), std::move(ec));
      send(hw, wire::encode_migrate_in(in));
      {
        std::unique_lock lock{mu};
        wait_for(lock,
                 [&] { return migrate_acks.contains(engine.value()); });
        migrate_acks.erase(engine.value());
      }
    }

    // Replay the journaled whole-chunk bundles in route order as driver
    // sends, re-advancing each engine's seq frontier past them. A bundle
    // is re-split by the restored placement (an engine migrated after the
    // cut is back on its checkpoint worker). The slices also seed the
    // in-memory data log: with worker recovery on, the since-checkpoint
    // window must be re-sendable until the fresh cut below resets it.
    for (const auto& b : rec.bundles) {
      const std::uint64_t chunk = ++logged_chunks;
      std::map<std::size_t, wire::ExecuteBundleMsg> by_worker;
      for (const auto& e : b.entries) {
        auto& frontier = next_exec_seq[e.engine.value()];
        frontier = std::max(frontier, e.seq + 1);
        auto& out = by_worker[worker_of_engine.at(e.engine)];
        out.ingest_ns = b.ingest_ns;
        out.add(e.engine, e.seq, b.runs[e.run], e.rows);
        if (log_data) {
          log_append({SIZE_MAX, e.engine, e.seq, b.runs[e.run], e.rows,
                      b.ingest_ns, chunk});
        }
      }
      for (const auto& [w, out] : by_worker) {
        send_bundle(w, wire::encode_execute_bundle(out));
      }
    }

    // Restore stream time after the replay (floors make the sites defer
    // pruning until every replayed execute applied), and arm suppression of
    // the re-emissions the crashed driver already delivered.
    if (rec.has_watermark) {
      last_watermark = rec.watermark;
      has_watermark = true;
      for (std::size_t w = 0; w < workers.size(); ++w) {
        send_data(w,
                  wire::encode_watermark({last_watermark, floors_for(w)}));
      }
    }
    for (const auto& d : rec.delivered) {
      pending_discard[d.stream] = static_cast<std::size_t>(d.count);
    }

    // Quiesce: flush acks follow each worker's replay results on its FIFO
    // channel, so after the barrier every re-emission has been suppressed
    // or delivered — the suppression floor is exactly consumed (delivered
    // records are journaled after their chunk's marker, so every counted
    // result's execute is in the replayed prefix).
    flush_all();
    drain_deliver();
    events_consumed = rec.resume_events;
    chunk_index = rec.resume_chunk;

    // Continue the segment chain and seal the resume with a fresh cut; from
    // here on the run journals normally.
    jw = journal::Writer::continue_at(options.journal.dir, rec.next_segment,
                                      journal_meta(), journal_options());
    for (const auto& f : reg_log) jw->registration(f);
    if (!checkpoint()) {
      // Unreachable: recovery is not armed during resume, so a worker
      // death inside the cut throws instead of bumping the recovery count.
      throw std::runtime_error{
          "Cosmos federation: resume checkpoint aborted"};
    }
    {
      std::lock_guard lock{mu};
      recovery_armed = options.recovery.enabled;
    }
  }

  void flush_targets(const std::set<std::size_t>& targets) {
    const std::uint64_t seq = next_flush_seq++;
    {
      std::lock_guard lock{mu};
      outstanding_flush = OutstandingFlush{seq, targets};
    }
    for (const auto w : targets) {
      send_data(w, wire::encode_flush({seq, floors_for(w)}));
    }
    std::unique_lock lock{mu};
    wait_for(
        lock,
        [&] {
          const auto it = flush_acks.find(seq);
          if (it == flush_acks.end()) return targets.empty();
          for (const auto w : targets) {
            if (!it->second.contains(w)) return false;
          }
          return true;
        },
        /*on_stall=*/[&] {
          // A drop fault may have swallowed the kFlush (or its ack);
          // re-send to whoever has not answered. Duplicate flushes re-ack
          // into the same per-worker set.
          std::set<std::size_t> missing;
          {
            std::lock_guard g{mu};
            const auto it = flush_acks.find(seq);
            for (const auto w : targets) {
              if (it == flush_acks.end() || !it->second.contains(w)) {
                missing.insert(w);
              }
            }
          }
          for (const auto w : missing) {
            send_data(w, wire::encode_flush({seq, floors_for(w)}));
          }
        });
    flush_acks.erase(seq);
    outstanding_flush.reset();
    if (targets.size() >= workers.size()) note_all_acked_floors();
  }

  void flush_worker(std::size_t w) { flush_targets({w}); }

  void flush_all() {
    std::set<std::size_t> all;
    for (std::size_t w = 0; w < workers.size(); ++w) all.insert(w);
    flush_targets(all);
  }

  /// p2 leg: result tuples the readers collected, delivered on the driver
  /// thread in arrival order (per engine that is emission order — one
  /// engine lives on one worker and executes in seq order). Re-emissions
  /// from a recovery replay are skipped through pending_discard without
  /// recounting, so each result reaches the user callback exactly once.
  void drain_deliver() {
    std::vector<InboxResult> batch;
    {
      std::lock_guard lock{mu};
      batch.swap(results_inbox);
    }
    if (batch.empty()) return;
    const double cpu0 = thread_cpu_seconds();
    const obs::Span span{"deliver", "driver", batch.size()};
    const std::uint64_t now = now_ns();
    // Partition out replay re-emissions first: what remains is exactly what
    // reaches the user callbacks, so with journaling on it can be written
    // as the delivered floor *before* any callback runs — a resumed driver
    // then suppresses re-deliveries it can no longer remember making.
    std::vector<const InboxResult*> deliver;
    deliver.reserve(batch.size());
    for (const auto& r : batch) {
      if (!pending_discard.empty()) {
        const auto dit = pending_discard.find(r.ev.stream);
        if (dit != pending_discard.end() && dit->second > 0) {
          --dit->second;
          continue;
        }
      }
      deliver.push_back(&r);
    }
    if (jw && !deliver.empty()) {
      std::map<std::string, std::uint64_t> counts;
      for (const auto* r : deliver) ++counts[r->ev.stream];
      std::vector<journal::DeliveredCount> floor;
      floor.reserve(counts.size());
      for (const auto& [stream, count] : counts) {
        floor.push_back({stream, count});
      }
      jw->delivered(floor);
    }
    for (const auto* r : deliver) {
      const auto& ev = r->ev;
      // Close the end-to-end measurement here: p2 delivery completes on
      // the driver thread, and worker/driver now_ns share a clock epoch
      // (same host, CLOCK_MONOTONIC), so ingest stamps compare directly.
      if (ev.ingest_ns != 0 && now > ev.ingest_ns) {
        e2e->record(now - ev.ingest_ns);
      }
      sys.deliver_result(ev.stream, ev.tuple);
      if (options.recovery.enabled) ++delivered_since_ckpt[ev.stream];
    }
    report.driver.deliver_cpu_seconds += thread_cpu_seconds() - cpu0;
  }

  // --- chunk pipeline ------------------------------------------------------

  void dispatch(runtime::Chunk&& chunk) {
    const double cpu0 = thread_cpu_seconds();
    const obs::Span span{"dispatch", "driver", chunk.runs.size()};
    PendingChunk pc;
    pc.last_ts = chunk.last_ts;
    pc.ingest_ns = chunk.ingest_ns;
    pc.index = chunk_index;
    events_consumed += chunk.tuples;
    pc.events_through = events_consumed;
    pc.runs.reserve(chunk.runs.size());
    std::vector<std::size_t> match_of_owner(workers.size(), SIZE_MAX);
    for (runtime::TupleBatch& run : chunk.runs) {
      auto* part = sys.broker_.partition(run.stream());
      if (part == nullptr) {
        // Same contract as push(): publishing an unadvertised stream is a
        // caller error, not a silent drop.
        throw std::invalid_argument{
            "BrokerNetwork: publish to unadvertised " + run.stream()};
      }
      PendingRun pr;
      pr.run = std::make_shared<const runtime::TupleBatch>(std::move(run));
      // The driver's partition holds exactly the p1 subscriptions the
      // owner worker's does, so the skip-when-unsubscribed fast path can
      // be decided locally without a round trip.
      if (part->subscription_count() > 0) {
        const auto oit = worker_of_stream.find(pr.run->stream());
        if (oit == worker_of_stream.end()) {
          throw std::invalid_argument{
              "Cosmos: federated trace event on non-source stream " +
              pr.run->stream()};
        }
        pr.owner = oit->second;
        // One match request per (chunk, owner), runs in chunk order.
        std::size_t& mi = match_of_owner[pr.owner];
        if (mi == SIZE_MAX) {
          mi = pc.matches.size();
          pc.matches.push_back({pr.owner, {next_job++, {}}});
        }
        pr.match = mi;
        auto& runs = pc.matches[mi].request.runs;
        pr.slot = static_cast<std::uint32_t>(runs.size());
        runs.push_back(pr.run);
      }
      pc.runs.push_back(std::move(pr));
    }
    for (const auto& pm : pc.matches) {
      send_data(pm.owner, wire::encode_match_request(pm.request));
    }
    pending.push_back(std::move(pc));
    ++report.chunks;
    report.driver.dispatch_cpu_seconds += thread_cpu_seconds() - cpu0;
  }

  /// Awaits the oldest in-flight chunk's match responses (one per owner),
  /// routes them into execute bundles, and sends each worker the chunk
  /// watermark with its current seq floors.
  void complete_front() {
    // The front chunk stays in `pending` across the wait: a recovery
    // dispatched from wait_for re-sends match requests by walking
    // `pending`, and popping first would hide exactly the requests that
    // died with the worker (the wait would then never finish).
    const auto& matches = pending.front().matches;
    std::vector<wire::MatchResponseMsg> responses(matches.size());
    {
      const TimePoint wait0 = Clock::now();
      const obs::Span span{"match_wait", "driver",
                           pending.front().runs.size()};
      std::unique_lock lock{mu};
      wait_for(
          lock,
          [&] {
            for (const auto& pm : matches) {
              if (!match_responses.contains(pm.request.job)) return false;
            }
            return true;
          },
          /*on_stall=*/[&] {
            // Re-send every still-unanswered match request: a drop fault
            // can swallow the request (or the response) with the owner
            // alive. Duplicate responses are emplace-deduped.
            for (const auto& pm : matches) {
              bool answered = false;
              {
                std::lock_guard g{mu};
                answered = match_responses.contains(pm.request.job);
              }
              if (!answered) {
                send_data(pm.owner, wire::encode_match_request(pm.request));
              }
            }
          });
      report.driver.match_wait_seconds += seconds_since(wait0);
      for (std::size_t m = 0; m < matches.size(); ++m) {
        auto node = match_responses.extract(matches[m].request.job);
        responses[m] = std::move(node.mapped());
      }
    }
    PendingChunk chunk = std::move(pending.front());
    pending.pop_front();
    for (std::size_t m = 0; m < chunk.matches.size(); ++m) {
      if (responses[m].runs.size() != chunk.matches[m].request.runs.size()) {
        throw wire::Error{
            "Cosmos federation: match response covers " +
            std::to_string(responses[m].runs.size()) + " runs, request had " +
            std::to_string(chunk.matches[m].request.runs.size())};
      }
    }

    route_and_execute(chunk, responses);
    // The chunk-routed marker lands only after every bundle of the chunk
    // is journaled: recovery replays whole-chunk prefixes and regenerates a
    // partial tail by deterministic re-routing (see journal::ChunkRouted).
    if (jw) {
      jw->chunk_routed({chunk.index, chunk.events_through, chunk.last_ts});
    }
    // Watermark after the chunk's bundles: the per-engine floors make the
    // site defer pruning until every older slice (possibly still in
    // flight on a peer link) has been applied, so join-state pruning only
    // drops tuples no future arrival can pair with.
    for (std::size_t w = 0; w < workers.size(); ++w) {
      send_data(w, wire::encode_watermark({chunk.last_ts, floors_for(w)}));
    }
    last_watermark = chunk.last_ts;
    has_watermark = true;
  }

  /// The route stage of run(), frame-producing: union of matched rows per
  /// subscriber engine (a tuple reaches an engine once however many
  /// subscriptions matched), one slice per (run, engine) stamped with its
  /// engine's next seq. Star path: the slices go into one execute bundle
  /// per target worker, sent by the driver. Peer-link path: each match
  /// owner gets one compact kRouteDecision for the chunk and ships bundles
  /// of its retained runs worker-to-worker. With journaling on, one bundle
  /// per target worker holding every slice of the chunk is journaled.
  /// Either way every slice is appended to the data log for replay.
  void route_and_execute(const PendingChunk& chunk,
                         const std::vector<wire::MatchResponseMsg>& responses) {
    const double route_cpu0 = thread_cpu_seconds();
    const obs::Span route_span{"route", "driver", chunk.runs.size()};
    const std::size_t n = workers.size();
    std::vector<wire::ExecuteBundleMsg> star(n);
    // Peer-link mode journals a separate bundle per target holding every
    // slice (star and peer-shipped alike); star mode journals `star`.
    std::vector<wire::ExecuteBundleMsg> journaled(
        jw && options.peer_links ? n : 0);
    std::vector<wire::RouteDecisionMsg> decisions(
        options.peer_links ? chunk.matches.size() : 0);
    const std::uint64_t logged = ++logged_chunks;
    std::map<NodeId, std::vector<char>> mask_of;
    for (const PendingRun& pr : chunk.runs) {
      if (pr.match == SIZE_MAX) continue;  // unsubscribed: nothing matched
      const auto& run = *pr.run;
      mask_of.clear();
      for (const auto& [sub_id, rows] : responses[pr.match].runs[pr.slot]) {
        const auto* sub = sys.broker_.subscription(sub_id);
        if (sub == nullptr) {
          throw wire::Error{
              "Cosmos federation: match response names unknown subscription"};
        }
        if (sys.p2_owner_.contains(sub_id)) continue;
        auto& mask =
            mask_of.try_emplace(sub->subscriber, run.size(), char{0})
                .first->second;
        for (const auto row : rows) {
          if (row >= mask.size()) {
            throw wire::Error{"Cosmos federation: matched row out of range"};
          }
          mask[row] = 1;
        }
      }
      for (const auto& [node, mask] : mask_of) {
        const auto eit = sys.engines_.find(node);
        if (eit == sys.engines_.end() ||
            !eit->second->has_stream(run.stream())) {
          continue;
        }
        std::size_t matched_rows = 0;
        for (const char m : mask) matched_rows += m != 0;
        if (matched_rows == 0) continue;
        const std::uint64_t seq = next_exec_seq[node.value()]++;
        std::vector<std::uint32_t> rows;
        if (matched_rows < run.size()) {
          rows.reserve(matched_rows);
          for (std::uint32_t r = 0; r < mask.size(); ++r) {
            if (mask[r] != 0) rows.push_back(r);
          }
        }
        const std::size_t tgt = worker_of_engine.at(node);
        // A pair whose peer link fell back to star routing (kPeerDown)
        // gets its slices from the driver for the rest of the run.
        const bool peer_path =
            options.peer_links &&
            !peer_down_pairs.contains({static_cast<std::uint32_t>(pr.owner),
                                       static_cast<std::uint32_t>(tgt)});
        if (peer_path) {
          decisions[pr.match].targets.push_back(
              {node, static_cast<std::uint32_t>(tgt), seq, pr.slot, rows});
        } else {
          star[tgt].add(node, seq, pr.run, rows);
        }
        if (!journaled.empty()) journaled[tgt].add(node, seq, pr.run, rows);
        if (log_data) {
          log_append({peer_path ? pr.owner : SIZE_MAX, node, seq, pr.run,
                      std::move(rows), chunk.ingest_ns, logged});
        }
      }
    }
    // Journal before anything ships: once an owner slices and sends
    // worker-to-worker the driver never sees those bytes again.
    for (auto& b : journaled) {
      if (b.entries.empty()) continue;
      b.ingest_ns = chunk.ingest_ns;
      jw->execute(wire::encode_execute_bundle(b));
    }
    for (std::size_t w = 0; w < n; ++w) {
      if (star[w].entries.empty()) continue;
      star[w].ingest_ns = chunk.ingest_ns;
      auto frame = wire::encode_execute_bundle(star[w]);
      if (jw && !options.peer_links) jw->execute(frame);
      send_bundle(w, std::move(frame));
    }
    // Sent even with no targets: the owner frees the retained runs.
    for (std::size_t m = 0; m < decisions.size(); ++m) {
      decisions[m].job = chunk.matches[m].request.job;
      decisions[m].ingest_ns = chunk.ingest_ns;
      send_data(chunk.matches[m].owner,
                wire::encode_route_decision(decisions[m]));
    }
    report.driver.route_cpu_seconds += thread_cpu_seconds() - route_cpu0;
  }

  // --- worker restart recovery ---------------------------------------------

  /// Respawn + resume worker `i`: retire the dead channel, purge inbox
  /// state the dead incarnation owned, respawn cosmos_noded on the same
  /// endpoint, replay registrations, re-hand-off each hosted engine at its
  /// checkpoint cut, replay the data log (survivor sites drop the
  /// duplicates by seq), re-send the in-flight barrier, and arm result
  /// dedup for the streams the worker hosts. Runs on the driver thread,
  /// called from wait_for with the inbox lock released.
  void recover(std::size_t i) {
    if (scripted_migration_active) {
      throw std::runtime_error{
          "Cosmos federation: worker " + std::to_string(i) +
          " died during a scripted migration handshake — unrecoverable"};
    }
    ++report.federation.recoveries;
    if (report.federation.recoveries > options.recovery.max_recoveries) {
      throw std::runtime_error{
          "Cosmos federation: worker " + std::to_string(i) +
          " died; max_recoveries (" +
          std::to_string(options.recovery.max_recoveries) + ") exhausted"};
    }
    obs::Tracer::instance().instant("recover", "driver", i);

    // Retire the dead channel (close joins its reader thread, so no
    // callback can race what follows) and keep its traffic totals.
    Worker& w = workers[i];
    retired[i].bytes_sent += w.channel->bytes_sent();
    retired[i].bytes_received += w.channel->bytes_received();
    retired[i].frames_sent += w.channel->frames_sent();
    retired[i].frames_received += w.channel->frames_received();
    w.channel->close();
    retired[i].frames_dropped += w.channel->frames_dropped();

    // Purge what the dead incarnation owned. Its flush acks are retracted
    // (the respawn must re-answer after the replay) and its undelivered
    // results dropped (the replay re-emits them); results it already
    // delivered are handled by pending_discard below. Match responses stay:
    // matching is deterministic, a duplicate response is emplace-deduped.
    {
      std::lock_guard lock{mu};
      hello_acks.erase(i);
      for (auto& [seq, acks] : flush_acks) acks.erase(i);
      std::erase_if(results_inbox,
                    [&](const InboxResult& r) { return r.worker == i; });
      migrate_acks.clear();  // stale acks from an aborted earlier attempt
    }

    const std::string noded = options.recovery.noded_path.empty()
                                  ? node::default_noded_path()
                                  : options.recovery.noded_path;
    dbg("respawning " + std::to_string(i));
    // If this worker slot was already respawned once, kill *and reap* the
    // previous driver-owned incarnation before dialing a successor: a dying
    // listener's accept backlog can swallow the re-dial (the connect
    // succeeds against a process that will never serve), and the reap is
    // the only barrier that the endpoint is really free. The chaos tests
    // used to carry this waitpid themselves; it lives here now.
    if (const auto rit = respawn_of.find(i); rit != respawn_of.end()) {
      respawned[rit->second].kill();
    }
    // The respawn always gets a fresh, fault-free channel: injected fault
    // plans die with the incarnation they were installed on.
    auto& proc = respawned.emplace_back(node::spawn_noded(noded, w.endpoint));
    respawn_of[i] = respawned.size() - 1;
    if (options.on_respawn) options.on_respawn(i, proc.pid());

    w.channel = std::make_unique<wire::FrameChannel>(
        wire::connect_to(wire::Endpoint::parse(w.endpoint)),
        channel_options(i));
    {
      std::lock_guard lock{mu};
      worker_dead[i] = 0;
    }
    w.channel->start_reader(
        [this, i](wire::Frame f) { on_frame(i, std::move(f)); },
        [this, i](const std::string& err) { on_close(i, err); });

    try {
      w.channel->send(wire::encode_hello(hello_for(i)));
      for (const auto& f : reg_log) w.channel->send(f);
      {
        std::unique_lock lock{mu};
        if (!wait_recovery(lock, i,
                           [&] { return hello_acks.contains(i); })) {
          return;
        }
      }

      // Re-hand-off each hosted engine: units + checkpointed state + the
      // seq cut the site resumes ordering at. kMigrateIn doubles as the
      // deployment, which is why deploys are not in reg_log.
      std::vector<NodeId> hosted;
      for (const auto& [engine, hw] : worker_of_engine) {
        if (hw == i) hosted.push_back(engine);
      }
      std::sort(hosted.begin(), hosted.end(),
                [](const NodeId& a, const NodeId& b) {
                  return a.value() < b.value();
                });
      for (const auto engine : hosted) {
        wire::MigrateInMsg in;
        in.engine = engine;
        for (const auto& [uid, unit] : sys.units_) {
          if (unit.host != engine) continue;
          in.units.push_back(
              {unit.id, unit.host, unit.result_stream, unit.spec});
        }
        const auto cit = ckpt.find(engine.value());
        if (cit != ckpt.end()) {
          in.state = cit->second.state;
          in.exec_seq = cit->second.exec_seq;
        }
        w.channel->send(wire::encode_migrate_in(in));
        {
          std::unique_lock lock{mu};
          if (!wait_recovery(lock, i, [&] {
                return migrate_acks.contains(engine.value());
              })) {
            return;
          }
          migrate_acks.erase(engine.value());
        }
      }

      // Data-log replay, in route order, as driver bundles (the one place
      // peer-link mode still sends runs from the driver). An entry is
      // replayed when its current target is the recovered worker (a lost
      // or half-applied delivery) or its owner is (a lost kRouteDecision /
      // unshipped slice). Survivor sites drop replayed seqs below their
      // frontier.
      replay_entries([&](const DataLogEntry& entry) {
        return worker_of_engine.at(entry.engine) == i || entry.owner == i;
      });

      // Re-send match requests this owner still owes an answer for. In
      // peer-link mode re-match even answered jobs: the retained runs died
      // with the worker, and a pending chunk's kRouteDecision will need
      // them (the duplicate response is emplace-deduped driver-side).
      for (const auto& pc : pending) {
        for (const auto& pm : pc.matches) {
          if (pm.owner != i) continue;
          bool answered = false;
          {
            std::lock_guard lock{mu};
            answered = match_responses.contains(pm.request.job);
          }
          if (answered && !options.peer_links) continue;
          send_data(i, wire::encode_match_request(pm.request));
        }
      }

      // Re-establish stream time, then whatever barrier was in flight —
      // all after the replay on the same FIFO channel, so floors are met
      // in order.
      bool resend_flush = false;
      std::uint64_t flush_seq = 0;
      std::optional<std::pair<NodeId, std::size_t>> ckpt_out;
      bool resend_traffic = false;
      {
        std::lock_guard lock{mu};
        if (outstanding_flush && outstanding_flush->waiting.contains(i)) {
          resend_flush = true;
          flush_seq = outstanding_flush->seq;
        }
        if (outstanding_ckpt_out && outstanding_ckpt_out->second == i &&
            !handoffs.contains(outstanding_ckpt_out->first.value())) {
          // Only when the handoff itself was lost: a handoff that arrived
          // before the death is valid (same flush + seq cut the replay
          // reconverges to), and re-requesting would leave a byte-identical
          // duplicate to go stale in the inbox.
          ckpt_out = outstanding_ckpt_out;
        }
        resend_traffic = collecting_traffic && !traffic_reports.contains(i);
      }
      if (has_watermark) {
        send_data(i, wire::encode_watermark({last_watermark, floors_for(i)}));
      }
      if (resend_flush) {
        send_data(i, wire::encode_flush({flush_seq, floors_for(i)}));
      }
      if (ckpt_out) {
        send_data(i, wire::encode_migrate_out({ckpt_out->first, 1}));
      }
      if (resend_traffic) {
        send_data(i, wire::encode_traffic_request());
      }

      // The replay re-executes everything since the checkpoint on this
      // worker, so its streams' results are re-emitted in full; skip
      // exactly the ones the user callback already saw.
      for (const auto& [uid, unit] : sys.units_) {
        if (worker_of_engine.at(unit.host) != i) continue;
        const auto dit = delivered_since_ckpt.find(unit.result_stream);
        pending_discard[unit.result_stream] =
            dit == delivered_since_ckpt.end() ? 0 : dit->second;
      }
    } catch (const std::exception& e) {
      // The respawn died mid-resume: queue it again (bounded by
      // max_recoveries) and let the outer wait retry.
      mark_dead(i, e.what());
    }
  }

  /// Periodic recovery checkpoint, taken between chunks: quiesce (drain
  /// window + flush + deliver), then pull every engine's state with a
  /// keep-mode kMigrateOut. On success the data log and delivery counts
  /// reset to the new cut. A recovery racing any of the waits aborts the
  /// attempt (the cut would straddle the replay); the next chunk retries.
  bool checkpoint() {
    const std::size_t recoveries0 = report.federation.recoveries;
    const obs::Span span{"checkpoint", "driver", ckpt.size()};
    while (!pending.empty()) complete_front();
    flush_all();
    drain_deliver();
    if (report.federation.recoveries != recoveries0) return false;

    std::vector<std::pair<NodeId, std::size_t>> placement(
        worker_of_engine.begin(), worker_of_engine.end());
    std::sort(placement.begin(), placement.end(),
              [](const auto& a, const auto& b) {
                return a.first.value() < b.first.value();
              });
    // From here on the cut is being journaled into a fresh pending segment;
    // an aborted attempt unlinks it and the previous segment stays live.
    if (jw) jw->begin_checkpoint();
    std::unordered_map<std::uint64_t, EngineCheckpoint> fresh;
    for (const auto& [engine, hw] : placement) {
      {
        std::lock_guard lock{mu};
        handoffs.erase(engine.value());  // stale duplicate from a re-request
        outstanding_ckpt_out = std::pair{engine, hw};
      }
      send_data(hw, wire::encode_migrate_out({engine, /*keep=*/1}));
      wire::StateHandoffMsg handed;
      {
        std::unique_lock lock{mu};
        wait_for(
            lock, [&] { return handoffs.contains(engine.value()); },
            /*on_stall=*/[&] {
              // Keep-mode kMigrateOut lost to a drop fault: re-request.
              // A duplicate handoff is byte-identical (same flush + seq
              // cut) and insert_or_assign-deduped.
              send_data(hw, wire::encode_migrate_out({engine, /*keep=*/1}));
            });
        auto node = handoffs.extract(engine.value());
        handed = std::move(node.mapped().first);
        outstanding_ckpt_out.reset();
      }
      if (report.federation.recoveries != recoveries0) {
        if (jw) jw->abort_checkpoint();
        return false;
      }
      EngineCheckpoint ec;
      ec.state = std::move(handed.units);
      const auto sit = next_exec_seq.find(engine.value());
      ec.exec_seq = sit == next_exec_seq.end() ? 0 : sit->second;
      if (jw) {
        jw->engine_state({engine, static_cast<std::uint32_t>(hw),
                          ec.exec_seq, ec.state});
      }
      fresh.emplace(engine.value(), std::move(ec));
    }
    if (jw) {
      journal::CheckpointCommit c;
      c.checkpoint_id = ++next_ckpt_id;
      c.events_consumed = events_consumed;
      c.chunk_index = chunk_index;
      c.watermark = last_watermark;
      c.has_watermark = has_watermark;
      c.engine_states = placement.size();
      jw->commit_checkpoint(c);
    }
    ckpt = std::move(fresh);
    data_log.clear();
    delivered_since_ckpt.clear();
    pending_discard.clear();
    return true;
  }

  /// Stream-time period between checkpoints: the tighter of the recovery
  /// and journal cadences (0 = neither wants periodic cuts, so only the
  /// initial checkpoint is taken).
  [[nodiscard]] stream::Timestamp checkpoint_period() const {
    stream::Timestamp period = 0;
    if (options.recovery.enabled && options.recovery.checkpoint_every_ms > 0) {
      period = options.recovery.checkpoint_every_ms;
    }
    if (jw && options.journal.checkpoint_every_ms > 0) {
      period = period == 0
                   ? options.journal.checkpoint_every_ms
                   : std::min(period, options.journal.checkpoint_every_ms);
    }
    return period;
  }

  void maybe_checkpoint(stream::Timestamp now) {
    const stream::Timestamp period = checkpoint_period();
    if (period <= 0) return;
    if (!has_ckpt_clock) {
      // Start the period clock at the trace's first chunk; the armed
      // initial checkpoint (empty state, seq 0) covers until then.
      ckpt_clock_ms = now;
      has_ckpt_clock = true;
      return;
    }
    if (now - ckpt_clock_ms < period) return;
    if (checkpoint()) ckpt_clock_ms = now;
  }

  /// Periodic retention-floor advance (FederationOptions::retention),
  /// between checkpoints: drain the window, flush the fleet — the full ack
  /// set advances acked_floor and prunes the data log — and deliver. No
  /// state is pulled, so it is much cheaper than a checkpoint.
  void maybe_floor(stream::Timestamp now) {
    if (options.retention.floor_every_ms <= 0) return;
    if (!has_floor_clock) {
      floor_clock_ms = now;
      has_floor_clock = true;
      return;
    }
    if (now - floor_clock_ms < options.retention.floor_every_ms) return;
    while (!pending.empty()) complete_front();
    flush_all();
    drain_deliver();
    floor_clock_ms = now;
  }

  // --- live migration ------------------------------------------------------

  void run_migrations_due(stream::Timestamp now) {
    while (next_migration < options.migrations.size() &&
           options.migrations[next_migration].at_ms <= now) {
      migrate(options.migrations[next_migration]);
      ++next_migration;
    }
  }

  // --- deterministic fault injection ---------------------------------------

  /// Installs FederationOptions::faults entries that have come due, at the
  /// same chunk-boundary cadence as scripted migrations: the plan (with
  /// fresh frame counters) replaces whatever fault the driver's channel to
  /// that worker carried. Registration traffic predates the first chunk,
  /// so even `after=0` schedules never corrupt the handshake.
  void run_faults_due(stream::Timestamp now) {
    while (next_fault < options.faults.size() &&
           options.faults[next_fault].at_ms <= now) {
      const auto& f = options.faults[next_fault];
      const std::size_t w = f.worker % workers.size();
      workers[w].channel->set_fault(
          std::make_shared<fault::LinkFault>(fault::FaultPlan::parse(f.plan)));
      dbg("fault installed on worker " + std::to_string(w) + ": " + f.plan);
      obs::Tracer::instance().instant("fault_injected", "driver", w);
      ++report.federation.faults_injected;
      ++next_fault;
    }
  }

  /// Drain -> serialize -> handoff: quiesce the source worker, pull the
  /// engine's serialized join state off it, and redeploy units + state on
  /// the destination at the current seq cut. In-flight window must be
  /// empty first — otherwise a pending chunk could still route executes to
  /// the source.
  void migrate(const FederationOptions::Migration& m) {
    const auto wit = worker_of_engine.find(m.engine);
    if (wit == worker_of_engine.end()) {
      throw std::invalid_argument{"Cosmos: migration of unknown engine " +
                                  std::to_string(m.engine.value())};
    }
    const std::size_t src = wit->second;
    const std::size_t dst = m.to_worker % workers.size();
    if (src == dst) return;

    const obs::Span span{"migrate", "driver", m.engine.value()};
    obs::Tracer::instance().instant("migration", "driver", m.engine.value());

    while (!pending.empty()) complete_front();
    flush_worker(src);
    drain_deliver();

    // A worker death inside the handshake below is unrecoverable (the
    // engine's state is mid-flight); recover() throws on this flag.
    scripted_migration_active = true;
    send(src, wire::encode_migrate_out({m.engine}));
    wire::StateHandoffMsg handed;
    std::uint64_t handed_bytes = 0;
    {
      std::unique_lock lock{mu};
      wait_for(lock, [&] { return handoffs.contains(m.engine.value()); });
      auto node = handoffs.extract(m.engine.value());
      handed = std::move(node.mapped().first);
      handed_bytes = node.mapped().second;
    }
    if (handed.engine != m.engine) {
      throw std::runtime_error{
          "Cosmos federation: state handoff for an unexpected engine"};
    }

    wire::MigrateInMsg in;
    in.engine = m.engine;
    for (const auto& [uid, unit] : sys.units_) {
      if (unit.host != m.engine) continue;
      in.units.push_back({unit.id, unit.host, unit.result_stream, unit.spec});
    }
    in.state = std::move(handed.units);
    // Resume seq ordering where the engine left off — without this the
    // destination site would reset to seq 0 and hold back every execute.
    const auto sit = next_exec_seq.find(m.engine.value());
    in.exec_seq = sit == next_exec_seq.end() ? 0 : sit->second;
    send(dst, wire::encode_migrate_in(in));
    {
      std::unique_lock lock{mu};
      wait_for(lock,
               [&] { return migrate_acks.contains(m.engine.value()); });
      migrate_acks.erase(m.engine.value());
    }
    scripted_migration_active = false;

    wit->second = dst;
    ++report.federation.migrations;
    report.federation.state_bytes_migrated += handed_bytes;
  }

  /// Folds every received kStatsSample into the report timeline (ordered
  /// by (now_ms, worker)) and hands worker spans to the trace session,
  /// re-homed under pid = worker index + 1.
  void harvest_samples() {
    std::vector<wire::StatsSampleMsg> batch;
    {
      std::lock_guard lock{mu};
      batch.swap(samples_inbox);
    }
    for (auto& s : batch) {
      WorkerSample sample;
      sample.worker = s.worker_index;
      sample.now_ms = s.now_ms;
      sample.metrics = std::move(s.metrics);
      report.federation.samples.push_back(std::move(sample));
      if (!s.spans.empty()) {
        const std::uint32_t pid = s.worker_index + 1;
        for (auto& span : s.spans) span.pid = pid;
        trace.add_process_name(pid,
                               "worker " + std::to_string(s.worker_index));
        trace.add_foreign(std::move(s.spans));
      }
    }
    std::stable_sort(report.federation.samples.begin(),
                     report.federation.samples.end(),
                     [](const WorkerSample& a, const WorkerSample& b) {
                       return a.now_ms != b.now_ms ? a.now_ms < b.now_ms
                                                   : a.worker < b.worker;
                     });
  }

  // --- durable journal plumbing --------------------------------------------

  /// The run-wide options snapshot journaled in every segment preamble:
  /// everything that shapes chunk cutting and routing, so a resumed run
  /// re-cuts and re-routes exactly as the crashed one did.
  [[nodiscard]] journal::Meta journal_meta() const {
    journal::Meta m;
    m.batch_size = options.batch_size;
    m.tick_ms = options.tick_ms;
    m.worker_shards = static_cast<std::uint32_t>(
        options.worker_shards == 0 ? 1 : options.worker_shards);
    m.peer_links = options.peer_links;
    m.endpoints = options.workers;
    return m;
  }

  [[nodiscard]] journal::Writer::Options journal_options() const {
    journal::Writer::Options o;
    switch (options.journal.fsync) {
      case FederationOptions::Journal::Fsync::kNever:
        o.fsync = journal::Fsync::kNever;
        break;
      case FederationOptions::Journal::Fsync::kCommit:
        o.fsync = journal::Fsync::kCommit;
        break;
      case FederationOptions::Journal::Fsync::kChunk:
        o.fsync = journal::Fsync::kChunk;
        break;
      case FederationOptions::Journal::Fsync::kEvery:
        o.fsync = journal::Fsync::kEvery;
        break;
    }
    return o;
  }

  // --- end of session ------------------------------------------------------

  /// Worker p1 matching shares + the driver's own p2 delivery share = the
  /// totals the in-process broker would have accounted. Also sums the
  /// fleet's peer-link traffic counters. A worker respawned late in the
  /// run reports only its post-respawn counters (documented under-count).
  void collect_traffic() {
    {
      std::lock_guard lock{mu};
      traffic_reports.clear();
      collecting_traffic = true;
    }
    for (std::size_t w = 0; w < workers.size(); ++w) {
      send_data(w, wire::encode_traffic_request());
    }
    pubsub::TrafficStats merged;
    std::uint64_t peer_frames = 0;
    std::uint64_t peer_bytes = 0;
    {
      std::unique_lock lock{mu};
      wait_for(
          lock, [&] { return traffic_reports.size() >= workers.size(); },
          /*on_stall=*/[&] {
            // Re-request from whoever has not reported (request or report
            // lost to a drop fault); reports insert_or_assign-dedup.
            std::set<std::size_t> missing;
            {
              std::lock_guard g{mu};
              for (std::size_t w = 0; w < workers.size(); ++w) {
                if (!traffic_reports.contains(w)) missing.insert(w);
              }
            }
            for (const auto w : missing) {
              send_data(w, wire::encode_traffic_request());
            }
          });
      for (const auto& [w, t] : traffic_reports) {
        merged.merge(t.traffic);
        peer_frames += t.peer_frames;
        peer_bytes += t.peer_bytes;
      }
      collecting_traffic = false;
    }
    merged.merge(sys.broker_.traffic());
    report.federation.matched_traffic = std::move(merged);
    report.federation.peer_frames = peer_frames;
    report.federation.peer_bytes = peer_bytes;
  }

  void shutdown() {
    {
      std::lock_guard lock{mu};
      expect_close = true;
    }
    for (std::size_t w = 0; w < workers.size(); ++w) {
      try {
        send(w, wire::encode_bye());
      } catch (const std::exception&) {
        // Channel already dead; its fault was or will be reported.
      }
      workers[w].channel->close();
    }
    for (std::size_t i = 0; i < workers.size(); ++i) {
      const auto& w = workers[i];
      WireLinkStats link;
      link.endpoint = w.endpoint;
      link.bytes_sent = retired[i].bytes_sent + w.channel->bytes_sent();
      link.bytes_received =
          retired[i].bytes_received + w.channel->bytes_received();
      link.frames_sent = retired[i].frames_sent + w.channel->frames_sent();
      link.frames_received =
          retired[i].frames_received + w.channel->frames_received();
      link.frames_dropped =
          retired[i].frames_dropped + w.channel->frames_dropped();
      link.error = w.channel->send_error();
      report.federation.links.push_back(std::move(link));
    }
  }

  RunReport run(const std::vector<runtime::TraceEvent>& events) {
    connect_all();
    if (resume_state != nullptr) {
      resume_replicate();
    } else {
      if (!options.journal.dir.empty()) {
        jw = journal::Writer::create(options.journal.dir, journal_meta(),
                                     journal_options());
      }
      replicate();
    }

    const std::size_t results_before = sys.results_delivered_;
    const std::size_t window =
        options.max_inflight_chunks == 0 ? 1 : options.max_inflight_chunks;
    const TimePoint ingest_start = Clock::now();
    const double driver_cpu_start = thread_cpu_seconds();

    runtime::Driver driver{
        {options.batch_size, options.tick_ms},
        [&](runtime::Chunk&& chunk) {
          run_migrations_due(chunk.first_ts);
          run_faults_due(chunk.first_ts);
          maybe_checkpoint(chunk.first_ts);
          maybe_floor(chunk.first_ts);
          dispatch(std::move(chunk));
          if (options.on_chunk) options.on_chunk(chunk_index);
          ++chunk_index;
          while (pending.size() >= window) complete_front();
          drain_deliver();  // keep the p2 inbox bounded in practice
        }};
    // A resumed run re-ingests the trace from the journal's resume cut:
    // chunk cutting is prefix-deterministic, so feeding events[skip:] cuts
    // exactly the chunks the crashed driver had not yet routed.
    const std::size_t skip =
        resume_state == nullptr
            ? 0
            : static_cast<std::size_t>(resume_state->resume_events);
    if (skip > events.size()) {
      throw std::invalid_argument{
          "Cosmos: resume journal consumed " + std::to_string(skip) +
          " trace events but the given trace holds only " +
          std::to_string(events.size())};
    }
    for (std::size_t k = skip; k < events.size(); ++k) {
      driver.push(events[k].stream, events[k].tuple);
    }
    driver.finish();

    while (!pending.empty()) complete_front();
    // Flush acks follow each worker's last results on its FIFO channel, so
    // after this barrier the inbox holds every result of the run.
    flush_all();
    drain_deliver();
    report.ingest_seconds = seconds_since(ingest_start);
    report.driver_cpu_seconds = thread_cpu_seconds() - driver_cpu_start;

    collect_traffic();
    // After the final flush barrier every worker's closing sample (sent
    // ahead of its flush ack on the FIFO channel) is already in the inbox.
    harvest_samples();
    shutdown();

    report.tuples = driver.tuples();
    report.results_delivered = sys.results_delivered_ - results_before;
    report.federation.workers = workers.size();
    report.federation.driver_execute_bytes = driver_execute_bytes;
    if (jw) {
      report.federation.journal_bytes = jw->bytes_written();
      report.federation.journal_fsyncs = jw->fsyncs();
    }
    report.federation.data_log_appended = data_log_appended;
    report.federation.data_log_peak_entries = data_log_peak;
    if (resume_state != nullptr) {
      report.federation.journal_rollbacks = resume_state->segments_rolled_back;
      report.federation.journal_torn_tail = resume_state->torn_tail;
      report.federation.journal_records_dropped =
          resume_state->records_dropped;
      report.federation.resume_skipped_events = skip;
    }
    report.e2e_latency = e2e->snapshot();
    report.metrics = reg.snapshot();
    return std::move(report);
  }
};

Cosmos::RunReport Cosmos::run_federated(
    const std::vector<runtime::TraceEvent>& events,
    const FederationOptions& options) {
  if (options.workers.empty()) {
    throw std::invalid_argument{"Cosmos: run_federated needs >= 1 worker"};
  }
  Fed fed{*this, options};
  return fed.run(events);
}

Cosmos::RunReport Cosmos::resume_federated(
    const std::vector<runtime::TraceEvent>& events,
    const FederationOptions& options) {
  if (options.journal.dir.empty()) {
    throw std::invalid_argument{
        "Cosmos: resume_federated needs options.journal.dir"};
  }
  const journal::RecoveredRun rec = journal::recover(options.journal.dir);

  // The journaled meta overrides every option that shapes chunk cutting and
  // routing: the resumed run must re-cut and re-route exactly as the
  // crashed one did. Scripted migrations and faults do not re-run — the
  // journal already reflects whatever they changed before the cut (a moved
  // engine's placement rides in its journaled state record).
  FederationOptions effective = options;
  effective.workers = rec.meta.endpoints;
  effective.batch_size = rec.meta.batch_size;
  effective.tick_ms = rec.meta.tick_ms;
  effective.worker_shards = rec.meta.worker_shards;
  effective.peer_links = rec.meta.peer_links;
  effective.migrations.clear();
  effective.faults.clear();
  if (effective.workers.empty()) {
    throw std::invalid_argument{
        "Cosmos: journal meta names no worker endpoints"};
  }

  Fed fed{*this, effective};
  fed.resume_state = &rec;
  // The crashed driver's workers died with it (driver-death EOF shuts the
  // daemons down), so resume spawns its own fresh fleet on the journaled
  // endpoints before dialing them.
  const std::string noded = effective.recovery.noded_path.empty()
                                ? node::default_noded_path()
                                : effective.recovery.noded_path;
  fed.owned_fleet.reserve(effective.workers.size());
  for (const auto& ep : effective.workers) {
    fed.owned_fleet.push_back(node::spawn_noded(noded, ep));
  }
  return fed.run(events);
}

}  // namespace cosmos::middleware
