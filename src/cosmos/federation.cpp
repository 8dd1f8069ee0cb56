// The wire fleet of the chunk pipeline (cosmos/pipeline.h):
// Cosmos::run_federated, resume_federated and their state (Cosmos::Fed).
// Each worker is a cosmos_noded process reached over one
// wire::FrameChannel; the channel's reader thread funnels every inbound
// frame into a small mutex-guarded inbox the driver thread waits on.
//
// Data traffic is chunk-granular (wire protocol v4): per chunk, each owner
// worker gets one kMatchRequest with all of its runs and answers with one
// kMatchResponse, which the fleet validates into the pipeline's match
// results; each target worker then gets one kExecuteBundle carrying every
// run it needs once plus one (engine, seq, run, rows) entry per routed
// engine slice.
//
// Determinism: the pipeline routes in chunk/run order and the fleet gives
// every engine slice a per-engine sequence number in that order; each site
// applies an engine's slices strictly in seq order, so per-query result
// sequences are byte-identical to push() at any worker count — whether
// bundles travel the star channels (peer_links=false, FIFO makes the seqs
// trivially in order) or worker-to-worker peer links (peer_links=true, the
// site's holdback/dedup re-establishes seq order). Bundling changes only
// how slices are grouped into frames, never their seqs.
//
// One checkpoint: every journal.checkpoint_every_ms of stream time the
// driver cuts — it quiesces the fleet and, when the run keeps engine state
// (worker recovery or a journal), pulls every engine's state in one batched
// keep-mode kMigrateOut round. A scripted migration is a one-engine cut
// plus a re-pin, so a death anywhere in it recovers like any other.
//
// Worker restart recovery (FederationOptions::recovery): the driver retains
// every registration frame plus a data log of routed executes since the
// last cut. When a channel to worker i dies mid-run, the driver respawns
// cosmos_noded on the same endpoint, replays the registrations, and
// restores the worker to the cut (restore(): kMigrateIn of each hosted
// engine's cut state at its execute seq, the logged executes — site seq
// dedup absorbs what survivors already applied — and the watermark), then
// re-sends whatever requests were in flight and resumes. A resumed driver
// restores its fresh fleet the same way from the journal. Results already
// delivered are discarded on re-emission (pending_discard), so the
// user-visible result sequence stays byte-identical to a crash-free run.
#include "cosmos/cosmos.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "cosmos/pipeline.h"
#include "fault/fault.h"
#include "journal/journal.h"
#include "node/spawn.h"
#include "obs/trace.h"
#include "wire/channel.h"
#include "wire/messages.h"
#include "wire/socket.h"

namespace cosmos::middleware {

struct Cosmos::Fed final : Pipeline::Fleet {
  Fed(Cosmos& system, const FederationOptions& opts, Pipeline& pipeline)
      : sys(system),
        options(opts),
        core(pipeline),
        report(pipeline.report()),
        log_data(opts.recovery.enabled || opts.peer_links ||
                 !opts.faults.empty()) {}

  Fed(const Fed&) = delete;  // reader callbacks hold `this`
  Fed& operator=(const Fed&) = delete;
  ~Fed() override {
    // Stop treating closes as faults, then tear the channels down (close
    // joins each channel's reader, so after this loop no callback can
    // touch the inbox state above).
    {
      std::lock_guard lock{mu};
      expect_close = true;
    }
    for (auto& channel : channels) {
      if (channel) channel->close();
    }
  }

  Cosmos& sys;
  const FederationOptions& options;
  /// The pipeline this fleet serves: its quiesce points drain the window
  /// and deliver through it, and its trace session (which outlives the
  /// channel reader threads) takes the workers' spans.
  Pipeline& core;
  RunReport& report;

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
  /// An engine on a worker: the key of a state pull and of a hand-in ack.
  using WorkerEngine = std::pair<std::size_t, NodeId>;
  /// Outstanding pulls -> the keep-mode kMigrateOut asking for each: what
  /// a stall or a recovery of that worker re-sends.
  std::map<WorkerEngine, wire::Frame> pulls;
  /// Answered pulls -> (handoff, wire bytes). The reader keeps only a
  /// handoff that answers an outstanding pull on its own channel, so a
  /// migration's drop or a late duplicate is discarded. Last-wins: a
  /// re-sent pull's duplicate is byte-identical (same flush + seq cut).
  std::map<WorkerEngine, std::pair<wire::StateHandoffMsg, std::uint64_t>>
      handoffs;
  std::set<WorkerEngine> migrate_acks;  ///< acked (worker, engine) hand-ins
  std::map<std::size_t, wire::TrafficReportMsg> traffic_reports;  ///< by worker
  std::vector<wire::StatsSampleMsg> samples_inbox;  ///< arrival order
  bool expect_close = false;  ///< set before kBye: closes are then orderly
  std::set<std::size_t> hung_up;  ///< workers whose channel reader ended
  /// Recovery gate: armed once replicate() + the initial cut are done
  /// (registration faults stay fatal). Guarded by mu because the
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
  /// engine -> hosting worker. Ordered: every per-engine protocol step
  /// (deploys, pulls, journal state records, hand-ins) walks engine order.
  std::map<NodeId, std::size_t> worker_of_engine;
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
  /// peer-down fallback replay and kSeqGap replay read it (a resumed run
  /// seeds it from the journal on its own). Every cut resets it.
  const bool log_data;

  /// Per-engine execute sequence frontier: the next seq the driver will
  /// assign. The floor carried on watermarks/flushes to an engine's worker.
  std::unordered_map<std::uint64_t, std::uint64_t> next_exec_seq;
  /// Registration frames replayed verbatim to a respawned worker:
  /// topology, stream registrations, subscriptions, the peer table.
  /// Deployments are excluded — recovery re-deploys via kMigrateIn, which
  /// also restores state and the seq cut.
  std::vector<wire::Frame> reg_log;
  /// One routed engine slice since the last cut. `owner` is the
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
  /// Data-log accounting: entries ever appended vs the peak held at once
  /// (the boundedness proof in RunReport::federation).
  std::size_t data_log_appended = 0;
  std::size_t data_log_peak = 0;
  /// engine value -> its state at the last cut: the periodic one, or the
  /// migration that last moved it.
  struct EngineCheckpoint {
    std::vector<wire::UnitStateMsg> state;
    std::uint64_t exec_seq = 0;
  };
  std::unordered_map<std::uint64_t, EngineCheckpoint> ckpt;
  /// Stream time of the last cut; the trace's first chunk starts the clock.
  std::optional<stream::Timestamp> last_cut_ms;

  /// Durable run journal (FederationOptions::journal): created by start()
  /// for a fresh journaled run, installed by resume() (continuing the
  /// segment chain) for a resumed one. Driver-thread only.
  std::unique_ptr<journal::Writer> jw;
  std::uint64_t next_ckpt_id = 0;
  /// Trace events consumed by dispatched chunks — the journal's resume cut.
  std::uint64_t events_consumed = 0;
  /// Set by resume_federated: the recovered journal state this run resumes
  /// from (null for a fresh run).
  const journal::RecoveredRun* resume_state = nullptr;
  /// Results delivered to user callbacks since the engine's last cut, per
  /// result stream; when a worker dies, the replay re-emits exactly these.
  std::unordered_map<std::string, std::size_t> delivered_since_ckpt;
  /// (worker, result stream) -> re-emissions still to skip. Keyed by the
  /// re-emitting worker: after a migration, the engine's fresh results on
  /// its destination must not be mistaken for its source's replay.
  std::map<std::pair<std::size_t, std::string>, std::size_t> pending_discard;
  /// In-flight barriers a respawned worker must re-answer.
  struct OutstandingFlush {
    std::uint64_t seq = 0;
    std::set<std::size_t> waiting;
  };
  std::optional<OutstandingFlush> outstanding_flush;
  bool collecting_traffic = false;
  stream::Timestamp last_watermark = 0;
  bool has_watermark = false;
  std::uint64_t driver_execute_bytes = 0;

  /// One (chunk, owner) match request awaiting its response; kept whole so
  /// a stall or a recovery can re-send it. Parallel to the pipeline
  /// chunk's groups.
  struct PendingMatch {
    std::size_t owner = 0;
    wire::MatchRequestMsg request;
  };
  struct PendingChunk {
    std::vector<PendingMatch> matches;
    std::uint64_t index = 0;  ///< chunk_index at dispatch
    /// Trace events consumed through this chunk — journaled on its
    /// chunk-routed marker so resume re-ingests from exactly here.
    std::uint64_t events_through = 0;
  };
  /// Shipped match requests in chunk order, answered or not: what a stall
  /// or a recovery re-sends.
  std::deque<PendingChunk> pending;
  /// The chunk await_match() took off `pending`, for execute().
  PendingChunk routed;
  std::vector<InboxResult> taken;  ///< take_results() scratch

  /// Counter totals of channels retired by recovery, folded into the link
  /// stats at shutdown so a recovered worker's traffic is not lost.
  std::vector<WireLinkStats> retired;

  /// Daemons respawned by recovery. Declared before `channels` so the
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
  /// `channels` for the same close-before-reap ordering as `respawned`.
  std::vector<node::NodeProcess> owned_fleet;

  // One channel per worker (options.workers[i] is its endpoint). Declared
  // last so channel destruction (which joins the reader threads) precedes
  // destruction of everything the reader callbacks capture.
  std::vector<std::unique_ptr<wire::FrameChannel>> channels;

  // --- reader-side handlers -----------------------------------------------

  /// Unrecoverable protocol fault (decode error, kError frame): sticky.
  void fail(std::size_t i, const std::string& what) {
    {
      std::lock_guard lock{mu};
      if (error.empty()) {
        error = "worker " + std::to_string(i) + " (" + options.workers[i] +
                "): " + what;
      }
    }
    cv.notify_all();
  }

  /// A worker's channel died (or a send to it failed). With recovery armed
  /// the worker is queued for respawn; otherwise the session fails sticky.
  void mark_dead(std::size_t i, const std::string& what) {
    {
      std::lock_guard lock{mu};
      if (expect_close) return;
      obs::Tracer::instance().instant("mark_dead", "driver", i);
      if (recovery_armed) {
        if (worker_dead[i] == 0) {
          worker_dead[i] = 1;
          dead_pending.push_back(i);
        }
      } else if (error.empty()) {
        error = "worker " + std::to_string(i) + " (" + options.workers[i] +
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
          const WorkerEngine key{i, m.engine};
          std::lock_guard lock{mu};
          if (pulls.contains(key)) {
            handoffs.insert_or_assign(key,
                                      std::pair{std::move(m), wire_bytes});
          }
          break;
        }
        case wire::FrameType::kMigrateAck: {
          const auto m = wire::decode_migrate_ack(frame);
          std::lock_guard lock{mu};
          migrate_acks.insert({i, m.engine});
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
    {
      std::lock_guard lock{mu};
      hung_up.insert(i);
    }
    cv.notify_all();
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
      if (!run_front(lock, dead_pending, [&](std::size_t i) { recover(i); }) &&
          !run_front(lock, peer_down_inbox,
                     [&](const auto& m) { handle_peer_down(m); }) &&
          !run_front(lock, seq_gap_inbox,
                     [&](const auto& m) { handle_seq_gap(m); })) {
        return;
      }
    }
  }

  /// Pops the front of `queue` and runs `handle` on it with the lock
  /// released; false when the queue is empty.
  template <typename Queue, typename Handle>
  static bool run_front(std::unique_lock<std::mutex>& lock, Queue& queue,
                        Handle handle) {
    if (queue.empty()) return false;
    const auto item = std::move(queue.front());
    queue.pop_front();
    lock.unlock();
    handle(item);
    lock.lock();
    return true;
  }

  /// Waits until `done(item)` holds for every item (evaluated with mu
  /// held). On a stall, `resend(item)` re-sends the request of each item
  /// not yet done: a drop fault can swallow a request or its answer with
  /// the worker alive, and every protocol re-send is idempotent.
  template <typename Items, typename Done, typename Resend>
  void await_all(const Items& items, Done done, Resend resend) {
    std::unique_lock lock{mu};
    wait_for(
        lock,
        [&] { return std::all_of(std::begin(items), std::end(items), done); },
        /*on_stall=*/[&] {
          std::vector<const typename Items::value_type*> missing;
          {
            std::lock_guard g{mu};
            for (const auto& item : items) {
              if (!done(item)) missing.push_back(&item);
            }
          }
          for (const auto* item : missing) resend(*item);
        });
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

  /// Waits for `pred` without dispatching recoveries: returns false when
  /// one of `workers` died meanwhile (it is queued for recovery; the caller
  /// abandons its step, and the outer wait_for recovers it). Other
  /// workers' deaths stay queued until the caller returns — no recursion.
  template <typename Pred>
  bool wait_alive(std::unique_lock<std::mutex>& lock,
                  const std::set<std::size_t>& workers, Pred pred) {
    const auto died = [&] {
      return std::any_of(workers.begin(), workers.end(),
                         [&](std::size_t w) { return worker_dead[w] != 0; });
    };
    cv.wait(lock, [&] { return !error.empty() || died() || pred(); });
    if (!error.empty()) {
      throw std::runtime_error{"Cosmos federation: " + error};
    }
    return !died();
  }

  /// Control-plane send: a failure here is a session fault (registration
  /// and shutdown frames).
  void send(std::size_t w, wire::Frame frame) {
    channels[w]->send(std::move(frame));
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
      channels[w]->send(std::move(frame));
      return true;
    } catch (const std::exception& e) {
      mark_dead(w, e.what());
      return false;
    }
  }

  /// A stalled wait's re-send (see wait_for) of a request worker `w` has
  /// not answered, marked in the trace.
  void resend_stalled(std::size_t w, wire::Frame frame) {
    obs::Tracer::instance().instant("stall_resend", "driver", w);
    send_data(w, std::move(frame));
  }

  /// Broadcast + retain for registration replay to respawned workers (and
  /// journal for replay to a restarted *driver*).
  void broadcast_logged(wire::Frame frame) {
    if (jw) jw->registration(frame);
    for (std::size_t w = 0; w < channels.size(); ++w) send(w, frame);
    reg_log.push_back(std::move(frame));
  }

  /// Appends one routed slice to the in-memory data log, tracking the
  /// retention counters the boundedness test asserts on.
  void log_append(DataLogEntry&& entry) {
    data_log.push_back(std::move(entry));
    ++data_log_appended;
    data_log_peak = std::max(data_log_peak, data_log.size());
  }

  std::int64_t link_delay(std::size_t i) const {
    return i < options.link_delay_ms.size() ? options.link_delay_ms[i] : 0;
  }

  /// Queues worker i's kHello, then lets its channel heartbeat.
  void hello_and_heartbeat(std::size_t i) {
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
    channels[i]->send(wire::encode_hello(hello));
    channels[i]->set_liveness(options.liveness.heartbeat_every_ms,
                              options.liveness.deadline_ms);
  }

  /// Opens worker i's channel and starts its reader. Heartbeats stay off
  /// until hello_and_heartbeat(): a daemon drops a connection whose first
  /// frame is not kHello.
  void dial(std::size_t i) {
    wire::FrameChannel::Options copts;
    copts.send_queue_capacity = options.queue_capacity;
    copts.send_delay_ms = link_delay(i);
    copts.liveness_deadline_ms = options.liveness.deadline_ms;
    channels[i] = std::make_unique<wire::FrameChannel>(
        wire::connect_to(wire::Endpoint::parse(options.workers[i])), copts);
    channels[i]->start_reader(
        [this, i](wire::Frame f) { on_frame(i, std::move(f)); },
        [this, i](const std::string& err) { on_close(i, err); });
  }

  /// Adds `channel`'s traffic counters to `link`.
  static void count_link(WireLinkStats& link,
                         const wire::FrameChannel& channel) {
    link.bytes_sent += channel.bytes_sent();
    link.bytes_received += channel.bytes_received();
    link.frames_sent += channel.frames_sent();
    link.frames_received += channel.frames_received();
    link.frames_dropped += channel.frames_dropped();
  }

  /// The seq frontier of every engine hosted at worker `w`, in engine
  /// order — the floors carried on that worker's watermarks and flushes.
  std::vector<wire::EngineFloor> floors_for(std::size_t w) const {
    std::vector<wire::EngineFloor> floors;
    for (const auto& [engine, hw] : worker_of_engine) {
      if (hw == w) floors.push_back({engine, exec_seq_of(engine)});
    }
    return floors;
  }

  /// `engine`'s execute seq frontier: the next seq the driver will assign.
  std::uint64_t exec_seq_of(NodeId engine) const {
    const auto it = next_exec_seq.find(engine.value());
    return it == next_exec_seq.end() ? 0 : it->second;
  }

  /// Static engine placement: the units hosted at node h run on worker
  /// h % N until a migration moves them.
  void place_engines() {
    for (const auto& [uid, unit] : sys.units_) {
      worker_of_engine[unit.host] = unit.host.value() % channels.size();
    }
  }

  /// The one hand-in: a kMigrateIn to each engine's placed worker with its
  /// units (doubling as their deployment, which is why deploys are not in
  /// reg_log) and its ckpt entry — the state, and the execute seq where the
  /// site resumes ordering the engine's executes. Every kMigrateIn first,
  /// then every kMigrateAck. Returns false when one of those workers died
  /// meanwhile: its recovery hands its engines in again.
  bool hand_in(const std::vector<NodeId>& engines) {
    std::set<WorkerEngine> keys;
    std::set<std::size_t> workers;
    for (const NodeId engine : engines) {
      const std::size_t w = worker_of_engine.at(engine);
      const EngineCheckpoint& ec = ckpt[engine.value()];
      wire::MigrateInMsg in{engine, {}, ec.state, ec.exec_seq};
      for (const auto& [uid, unit] : sys.units_) {
        if (unit.host != engine) continue;
        in.units.push_back({unit.id, unit.host, unit.result_stream, unit.spec});
      }
      send_data(w, wire::encode_migrate_in(in));
      keys.insert({w, engine});
      workers.insert(w);
    }
    const auto acked = [&](const WorkerEngine& k) {
      return migrate_acks.contains(k);
    };
    std::unique_lock lock{mu};
    if (!wait_alive(lock, workers, [&] {
          return std::all_of(keys.begin(), keys.end(), acked);
        })) {
      return false;
    }
    for (const auto& k : keys) migrate_acks.erase(k);
    return true;
  }

  /// The one state pull, shared by cuts and migrations: a keep-mode
  /// kMigrateOut to each engine's hosting worker, every request first,
  /// then one wait for every handoff. A worker that dies mid-pull is
  /// restored to the last cut by recover(), which re-sends the pulls it
  /// still owes. Returns each (handoff, wire bytes) in `engines` order.
  std::vector<std::pair<wire::StateHandoffMsg, std::uint64_t>> pull(
      const std::vector<NodeId>& engines) {
    std::vector<std::pair<WorkerEngine, wire::Frame>> requests;
    requests.reserve(engines.size());
    for (const NodeId engine : engines) {
      requests.emplace_back(WorkerEngine{worker_of_engine.at(engine), engine},
                            wire::encode_migrate_out({engine, /*keep=*/1}));
    }
    {
      std::lock_guard lock{mu};
      for (const auto& [key, frame] : requests) pulls.emplace(key, frame);
    }
    for (const auto& [key, frame] : requests) send_data(key.first, frame);
    await_all(
        requests,
        [&](const auto& r) { return handoffs.contains(r.first); },
        [&](const auto& r) { resend_stalled(r.first.first, r.second); });
    std::vector<std::pair<wire::StateHandoffMsg, std::uint64_t>> out;
    out.reserve(requests.size());
    std::lock_guard lock{mu};
    for (const auto& [key, frame] : requests) {
      out.push_back(std::move(handoffs.extract(key).mapped()));
      pulls.erase(key);
    }
    return out;
  }

  void connect_all() {
    const std::size_t n = options.workers.size();
    channels.resize(n);
    worker_dead.assign(n, 0);
    retired.resize(n);
    // Each channel gets its reader and its kHello as soon as it is dialed:
    // its watchdog counts silence from construction, so a worker dialed
    // first must not wait unserved while slower-starting daemons are
    // still being dialed.
    for (std::size_t i = 0; i < n; ++i) {
      dial(i);
      hello_and_heartbeat(i);
    }
    std::unique_lock lock{mu};
    wait_for(lock, [&] { return hello_acks.size() >= channels.size(); });
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
    broadcast_logged(wire::encode_topology(topo));

    // Only the sources are registered. Result streams stay driver-side:
    // workers host the engines that emit them and ship the tuples back raw;
    // p2 matching/delivery (and its traffic accounting) happens on the
    // driver's own broker.
    for (auto* part : sys.broker_.partitions()) {
      if (!sys.sources_.contains(part->stream())) continue;
      wire::RegisterStreamMsg reg_msg;
      reg_msg.stream = part->stream();
      reg_msg.publisher = part->publisher();
      reg_msg.schema = part->schema();
      broadcast_logged(wire::encode_register_stream(reg_msg));
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

    place_engines();
    for (const auto& [uid, unit] : sys.units_) {
      wire::DeployUnitMsg deploy;
      deploy.unit_id = unit.id;
      deploy.host = unit.host;
      deploy.result_stream = unit.result_stream;
      deploy.spec = unit.spec;
      send(worker_of_engine.at(unit.host), wire::encode_deploy_unit(deploy));
    }

    // Barrier: surfaces registration/deployment faults before any data
    // flows (per-channel FIFO already orders the frames themselves).
    flush_targets(all_workers());

    // Initial (empty-state) cut, then arm recovery: from here on a channel
    // death is a respawn, not a session fault.
    for (const auto& [engine, hw] : worker_of_engine) {
      ckpt.emplace(engine.value(), EngineCheckpoint{});
    }
    if (jw) {
      // Seal segment 1 with the initial (zero-engine) commit: a crash
      // before the first periodic cut is already resumable — every
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
  /// journaled registrations, load the journaled cut (placement — a
  /// pre-cut migration's engine is placed where its state record says —
  /// engine states and seq frontiers, the post-cut whole-chunk bundles as
  /// the data log, the delivered floors, the watermark) and restore the
  /// fresh fleet to it exactly as worker recovery restores one worker.
  /// Then quiesce, and open the continued journal segment sealed with a
  /// fresh cut; after it the run is a normal journaled run, itself
  /// resumable. The journal writer is installed only after the replay
  /// quiesces: the continued segment must hold nothing but the preamble +
  /// the fresh cut before its commit (the recovery parser rejects
  /// pre-commit data records), and every replay-time delivery is covered by
  /// the fresh cut, not a delivered floor.
  void resume() {
    const journal::RecoveredRun& rec = *resume_state;
    for (const auto& frame : rec.registrations) broadcast_logged(frame);

    place_engines();
    for (const auto& [engine, hw] : worker_of_engine) {
      ckpt[engine.value()] = {};
    }
    for (const auto& es : rec.engines) {
      worker_of_engine[es.engine] = es.worker;
      ckpt[es.engine.value()] = {es.units, es.exec_seq};
    }
    for (const auto& [engine, ec] : ckpt) next_exec_seq[engine] = ec.exec_seq;
    // The journaled bundles replay in route order, re-split by the restored
    // placement (an engine migrated after the cut is back on its cut
    // worker), and each engine's seq frontier moves past them.
    for (const auto& b : rec.bundles) {
      const std::uint64_t chunk = ++logged_chunks;
      for (const auto& e : b.entries) {
        auto& frontier = next_exec_seq[e.engine.value()];
        frontier = std::max(frontier, e.seq + 1);
        log_append({SIZE_MAX, e.engine, e.seq, b.runs[e.run], e.rows,
                    b.ingest_ns, chunk});
      }
    }
    for (const auto& d : rec.delivered) {
      delivered_since_ckpt[d.stream] = static_cast<std::size_t>(d.count);
    }
    last_watermark = rec.watermark;
    has_watermark = rec.has_watermark;
    // Unreachable false: recovery is not armed yet, so a worker death
    // throws instead of queueing.
    if (!restore(all_workers())) {
      throw std::runtime_error{"Cosmos federation: resume restore aborted"};
    }

    // Quiesce: flush acks follow each worker's replay results on its FIFO
    // channel, so after the barrier every re-emission has been suppressed
    // or delivered — the suppression floor is exactly consumed (delivered
    // records are journaled after their chunk's marker, so every counted
    // result's execute is in the replayed prefix).
    quiesce(all_workers());
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
    const auto flush = [&](std::size_t w) {
      return wire::encode_flush({seq, floors_for(w)});
    };
    for (const auto w : targets) send_data(w, flush(w));
    // Duplicate flushes re-ack into the same per-worker set.
    await_all(
        targets,
        [&](std::size_t w) {
          const auto it = flush_acks.find(seq);
          return it != flush_acks.end() && it->second.contains(w);
        },
        [&](std::size_t w) { resend_stalled(w, flush(w)); });
    {
      std::lock_guard lock{mu};
      flush_acks.erase(seq);
      outstanding_flush.reset();
    }
  }

  std::set<std::size_t> all_workers() const {
    std::set<std::size_t> all;
    for (std::size_t w = 0; w < channels.size(); ++w) all.insert(w);
    return all;
  }

  /// A quiesce point: route and execute every in-flight chunk, flush
  /// `targets` — each flush ack follows every result of every execute
  /// routed before it on that worker's FIFO channel — and deliver those
  /// results. Returns when the window had drained: where a cut's or a
  /// migration's DriverBreakdown::checkpoint_seconds start.
  TimePoint quiesce(const std::set<std::size_t>& targets) {
    core.drain_window();
    const TimePoint drained = Clock::now();
    flush_targets(targets);
    core.deliver();
    return drained;
  }

  /// Charges the wall time from `start` to its scope's end to
  /// DriverBreakdown::checkpoint_seconds.
  struct CutClock {
    RunReport& report;
    TimePoint start;
    ~CutClock() { report.driver.checkpoint_seconds += seconds_since(start); }
  };

  // --- the pipeline's fleet interface -------------------------------------

  void start() override {
    connect_all();
    if (resume_state != nullptr) {
      resume();
      return;
    }
    if (!options.journal.dir.empty()) {
      jw = journal::Writer::create(options.journal.dir, journal_meta(),
                                   journal_options());
    }
    replicate();
  }

  /// Static stream ownership: the publisher node's index modulo the worker
  /// count, the same deterministic spread run() uses for shards.
  std::size_t owner_of(const pubsub::BrokerPartition& part) const override {
    return part.publisher().value() % channels.size();
  }

  /// Fault schedules, scripted migrations and cuts come due at chunk
  /// boundaries, by the next chunk's first timestamp — faults first, so a
  /// schedule can land on a migration's own frames.
  void before_chunk(stream::Timestamp first_ts) override {
    run_faults_due(first_ts);
    run_migrations_due(first_ts);
    maybe_checkpoint(first_ts);
  }

  /// One kMatchRequest per group, to its owner.
  void match(const Pipeline::Chunk& chunk) override {
    PendingChunk pc;
    pc.index = chunk_index;
    events_consumed += chunk.tuples;
    pc.events_through = events_consumed;
    for (const auto& group : chunk.groups) {
      PendingMatch pm{group.owner, {next_job++, {}}};
      for (const auto r : group.runs) {
        pm.request.runs.push_back(chunk.runs[r].batch);
      }
      send_data(pm.owner, wire::encode_match_request(pm.request));
      pc.matches.push_back(std::move(pm));
    }
    pending.push_back(std::move(pc));
    if (options.on_chunk) options.on_chunk(chunk_index);
    ++chunk_index;
  }

  /// Awaits the oldest chunk's match responses (one per owner) and
  /// validates them into the pipeline's match results: a response of the
  /// wrong shape, an unknown subscription or a row out of range is a
  /// wire::Error.
  void await_match(const Pipeline::Chunk& chunk,
                   Pipeline::Matches& matches) override {
    // The front chunk stays in `pending` across the wait: a recovery
    // dispatched from wait_for re-sends match requests by walking
    // `pending`, and popping first would hide exactly the requests that
    // died with the worker (the wait would then never finish).
    const auto& front = pending.front().matches;
    // Duplicate responses are emplace-deduped.
    await_all(
        front,
        [&](const PendingMatch& pm) {
          return match_responses.contains(pm.request.job);
        },
        [&](const PendingMatch& pm) {
          resend_stalled(pm.owner, wire::encode_match_request(pm.request));
        });
    std::vector<wire::MatchResponseMsg> responses(front.size());
    {
      std::lock_guard lock{mu};
      for (std::size_t m = 0; m < front.size(); ++m) {
        auto node = match_responses.extract(front[m].request.job);
        responses[m] = std::move(node.mapped());
      }
    }
    routed = std::move(pending.front());
    pending.pop_front();
    for (std::size_t m = 0; m < responses.size(); ++m) {
      const Pipeline::Group& group = chunk.groups[m];
      if (responses[m].runs.size() != group.runs.size()) {
        throw wire::Error{
            "Cosmos federation: match response covers " +
            std::to_string(responses[m].runs.size()) + " runs, request had " +
            std::to_string(group.runs.size())};
      }
      for (std::size_t slot = 0; slot < group.runs.size(); ++slot) {
        const std::uint32_t r = group.runs[slot];
        const runtime::TupleBatch& run = *chunk.runs[r].batch;
        for (auto& [sub_id, rows] : responses[m].runs[slot]) {
          const auto* sub = sys.broker_.subscription(sub_id);
          if (sub == nullptr) {
            throw wire::Error{
                "Cosmos federation: match response names unknown "
                "subscription"};
          }
          for (const auto row : rows) {
            if (row >= run.size()) {
              throw wire::Error{"Cosmos federation: matched row out of range"};
            }
          }
          matches[r].push_back({sub, &run, std::move(rows)});
        }
      }
    }
  }

  /// Stamps every routed slice with its engine's next seq and ships it:
  /// star path, one driver-sent execute bundle per target worker; peer-link
  /// path, one compact kRouteDecision per match owner, which ships bundles
  /// of its retained runs worker-to-worker. Every slice goes to the data
  /// log; with journaling on, one bundle per target worker holding every
  /// slice of the chunk is journaled, then the chunk-routed marker. Last,
  /// every worker gets the chunk's watermark.
  void execute(const Pipeline::Chunk& chunk,
               std::vector<Pipeline::Slice> slices) override {
    const std::size_t n = channels.size();
    std::vector<wire::ExecuteBundleMsg> star(n);
    // Peer-link mode journals a separate bundle per target holding every
    // slice (star and peer-shipped alike); star mode journals `star`.
    std::vector<wire::ExecuteBundleMsg> journaled(
        jw && options.peer_links ? n : 0);
    std::vector<wire::RouteDecisionMsg> decisions(
        options.peer_links ? routed.matches.size() : 0);
    const std::uint64_t logged = ++logged_chunks;
    for (auto& slice : slices) {
      const Pipeline::Run& run = chunk.runs[slice.run];
      const std::size_t owner = chunk.groups[run.group].owner;
      const std::uint64_t seq = next_exec_seq[slice.engine.value()]++;
      const std::size_t tgt = worker_of_engine.at(slice.engine);
      // A pair whose peer link fell back to star routing (kPeerDown) gets
      // its slices from the driver for the rest of the run.
      const bool peer_path =
          options.peer_links &&
          !peer_down_pairs.contains({static_cast<std::uint32_t>(owner),
                                     static_cast<std::uint32_t>(tgt)});
      if (peer_path) {
        decisions[run.group].targets.push_back(
            {slice.engine, static_cast<std::uint32_t>(tgt), seq, run.slot,
             slice.rows});
      } else {
        star[tgt].add(slice.engine, seq, run.batch, slice.rows);
      }
      if (!journaled.empty()) {
        journaled[tgt].add(slice.engine, seq, run.batch, slice.rows);
      }
      if (log_data) {
        log_append({peer_path ? owner : SIZE_MAX, slice.engine, seq,
                    run.batch, std::move(slice.rows), chunk.ingest_ns,
                    logged});
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
      decisions[m].job = routed.matches[m].request.job;
      decisions[m].ingest_ns = chunk.ingest_ns;
      send_data(routed.matches[m].owner,
                wire::encode_route_decision(decisions[m]));
    }
    // The chunk-routed marker lands only after every bundle of the chunk
    // is journaled: recovery replays whole-chunk prefixes and regenerates a
    // partial tail by deterministic re-routing (see journal::ChunkRouted).
    if (jw) {
      jw->chunk_routed({routed.index, routed.events_through, chunk.last_ts});
    }
    // Watermark after the chunk's bundles: the per-engine floors make the
    // site defer pruning until every older slice (possibly still in
    // flight on a peer link) has been applied, so join-state pruning only
    // drops tuples no future arrival can pair with.
    for (std::size_t w = 0; w < n; ++w) {
      send_data(w, wire::encode_watermark({chunk.last_ts, floors_for(w)}));
    }
    last_watermark = chunk.last_ts;
    has_watermark = true;
  }

  /// The results the readers collected, in arrival order (per engine that
  /// is emission order). Recovery-replay re-emissions are dropped through
  /// pending_discard, so each result reaches its callback once. With
  /// journaling on, the rest is written as the delivered floor *before*
  /// any callback runs — a resumed driver then suppresses re-deliveries it
  /// can no longer remember making.
  void take_results(std::vector<wire::ResultEventMsg>& out) override {
    out.clear();
    {
      std::lock_guard lock{mu};
      taken.swap(results_inbox);
    }
    for (auto& r : taken) {
      if (!pending_discard.empty()) {
        const auto dit = pending_discard.find({r.worker, r.ev.stream});
        if (dit != pending_discard.end() && dit->second > 0) {
          --dit->second;
          continue;
        }
      }
      out.push_back(std::move(r.ev));
    }
    taken.clear();
    if (out.empty()) return;
    if (jw) {
      std::map<std::string, std::uint64_t> counts;
      for (const auto& ev : out) ++counts[ev.stream];
      std::vector<journal::DeliveredCount> floor;
      floor.reserve(counts.size());
      for (const auto& [stream, count] : counts) {
        floor.push_back({stream, count});
      }
      jw->delivered(floor);
    }
    if (options.recovery.enabled) {
      for (const auto& ev : out) ++delivered_since_ckpt[ev.stream];
    }
  }

  /// Flush acks follow each worker's last results on its FIFO channel, so
  /// after this barrier the inbox holds every result of the run.
  void finish() override { flush_targets(all_workers()); }

  void close() override {
    collect_traffic();
    // After the final flush barrier every worker's closing sample (sent
    // ahead of its flush ack on the FIFO channel) is already in the inbox.
    harvest_samples();
    shutdown();

    report.federation.workers = channels.size();
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
      report.federation.resume_skipped_events =
          static_cast<std::size_t>(resume_state->resume_events);
    }
  }

  // --- worker restart recovery ---------------------------------------------

  /// Respawn + resume worker `i`: retire the dead channel, purge inbox
  /// state the dead incarnation owned, respawn cosmos_noded on the same
  /// endpoint, replay registrations, restore it to the last cut, and
  /// re-send what it still owed: match requests, the in-flight flush, state
  /// pulls and the traffic request. Runs on the driver thread, called from
  /// wait_for with the inbox lock released.
  void recover(std::size_t i) {
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
    channels[i]->close();
    count_link(retired[i], *channels[i]);

    // Purge what the dead incarnation owned. Its flush acks are retracted
    // (the respawn must re-answer after the replay) and its undelivered
    // results dropped (the replay re-emits them); results it already
    // delivered are handled by pending_discard in restore(). Match
    // responses and handoffs stay: matching is deterministic, and a
    // handoff that arrived before the death is valid (same flush + seq cut
    // the replay reconverges to).
    {
      std::lock_guard lock{mu};
      hello_acks.erase(i);
      hung_up.erase(i);
      for (auto& [seq, acks] : flush_acks) acks.erase(i);
      std::erase_if(results_inbox,
                    [&](const InboxResult& r) { return r.worker == i; });
      std::erase_if(migrate_acks,
                    [&](const WorkerEngine& k) { return k.first == i; });
    }

    const std::string noded = options.recovery.noded_path.empty()
                                  ? node::default_noded_path()
                                  : options.recovery.noded_path;
    // If this worker slot was already respawned once, kill *and reap* the
    // previous driver-owned incarnation before dialing a successor: a dying
    // listener's accept backlog can swallow the re-dial (the connect
    // succeeds against a process that will never serve), and the reap is
    // the only barrier that the endpoint is really free.
    if (const auto rit = respawn_of.find(i); rit != respawn_of.end()) {
      respawned[rit->second].kill();
    }
    // The respawn always gets a fresh, fault-free channel: injected fault
    // plans die with the incarnation they were installed on.
    auto& proc =
        respawned.emplace_back(node::spawn_noded(noded, options.workers[i]));
    respawn_of[i] = respawned.size() - 1;
    if (options.on_respawn) options.on_respawn(i, proc.pid());

    {
      std::lock_guard lock{mu};
      worker_dead[i] = 0;
    }
    dial(i);

    try {
      hello_and_heartbeat(i);
      for (const auto& f : reg_log) channels[i]->send(f);
      {
        std::unique_lock lock{mu};
        if (!wait_alive(lock, {i}, [&] { return hello_acks.contains(i); })) {
          return;
        }
      }
      if (!restore({i})) return;

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

      // Then whatever requests were in flight — after the replay on the
      // same FIFO channel, so floors are met in order. A pull is re-sent
      // only when its handoff was lost.
      std::optional<std::uint64_t> flush_seq;
      std::vector<wire::Frame> owed_pulls;
      bool resend_traffic = false;
      {
        std::lock_guard lock{mu};
        if (outstanding_flush && outstanding_flush->waiting.contains(i)) {
          flush_seq = outstanding_flush->seq;
        }
        for (const auto& [key, frame] : pulls) {
          if (key.first == i && !handoffs.contains(key)) {
            owed_pulls.push_back(frame);
          }
        }
        resend_traffic = collecting_traffic && !traffic_reports.contains(i);
      }
      if (flush_seq) {
        send_data(i, wire::encode_flush({*flush_seq, floors_for(i)}));
      }
      for (auto& frame : owed_pulls) send_data(i, std::move(frame));
      if (resend_traffic) {
        send_data(i, wire::encode_traffic_request());
      }
    } catch (const std::exception& e) {
      // The respawn died mid-resume: queue it again (bounded by
      // max_recoveries) and let the outer wait retry.
      mark_dead(i, e.what());
    }
  }

  /// The one restore, for worker recovery and driver resume: hands in
  /// every engine placed on `workers` from ckpt, replays the data-log
  /// entries whose current target (a lost or half-applied delivery) or
  /// match owner (a lost kRouteDecision / unshipped slice) is one of them
  /// — as driver bundles, the one place peer-link mode still sends runs
  /// from the driver; other sites drop replayed seqs below their frontier —
  /// re-sends the watermark, and arms pending_discard: the replay
  /// re-emits every result since each engine's cut, so the ones the user
  /// callbacks already saw are skipped. Returns false when one of
  /// `workers` died again (it is re-queued; the caller abandons).
  bool restore(const std::set<std::size_t>& workers) {
    std::vector<NodeId> engines;
    for (const auto& [engine, w] : worker_of_engine) {
      if (workers.contains(w)) engines.push_back(engine);
    }
    if (!hand_in(engines)) return false;
    replay_entries([&](const DataLogEntry& entry) {
      return workers.contains(worker_of_engine.at(entry.engine)) ||
             workers.contains(entry.owner);
    });
    if (has_watermark) {
      for (const std::size_t w : workers) {
        send_data(w, wire::encode_watermark({last_watermark, floors_for(w)}));
      }
    }
    std::erase_if(pending_discard, [&](const auto& d) {
      return workers.contains(d.first.first);
    });
    for (const auto& [uid, unit] : sys.units_) {
      const std::size_t w = worker_of_engine.at(unit.host);
      const auto dit = delivered_since_ckpt.find(unit.result_stream);
      if (workers.contains(w) && dit != delivered_since_ckpt.end()) {
        pending_discard[{w, unit.result_stream}] = dit->second;
      }
    }
    return true;
  }

  /// The one cut, taken between chunks: quiesce the fleet, then keep what
  /// the run keeps. With worker recovery or a journal, every engine's
  /// state is pulled (one batched keep-mode round) and becomes the new ckpt
  /// (journaled in engine order when on); with only a data log the cut is
  /// stateless. Either way the data log and delivery counts reset to the
  /// cut — after the full flush every logged slice is applied everywhere.
  /// A recovery racing the cut aborts it (its replay re-emits results the
  /// cut would forget to skip); the next chunk retries.
  bool checkpoint() {
    const std::size_t recoveries0 = report.federation.recoveries;
    const obs::Span span{"checkpoint", "driver", ckpt.size()};
    const CutClock clock{report, quiesce(all_workers())};
    if (report.federation.recoveries != recoveries0) return false;

    if (options.recovery.enabled || jw) {
      // From here on the cut is journaled into a fresh pending segment; an
      // aborted attempt unlinks it and the previous segment stays live.
      if (jw) jw->begin_checkpoint();
      std::vector<NodeId> engines;
      for (const auto& [engine, hw] : worker_of_engine) {
        engines.push_back(engine);
      }
      auto handed = pull(engines);
      if (report.federation.recoveries != recoveries0) {
        if (jw) jw->abort_checkpoint();
        return false;
      }
      for (std::size_t k = 0; k < engines.size(); ++k) {
        journal::EngineState es{
            engines[k],
            static_cast<std::uint32_t>(worker_of_engine.at(engines[k])),
            exec_seq_of(engines[k]), std::move(handed[k].first.units)};
        if (jw) jw->engine_state(es);
        ckpt[engines[k].value()] = {std::move(es.units), es.exec_seq};
      }
      if (jw) {
        journal::CheckpointCommit c;
        c.checkpoint_id = ++next_ckpt_id;
        c.events_consumed = events_consumed;
        c.chunk_index = chunk_index;
        c.watermark = last_watermark;
        c.has_watermark = has_watermark;
        c.engine_states = engines.size();
        jw->commit_checkpoint(c);
      }
    }
    data_log.clear();
    delivered_since_ckpt.clear();
    pending_discard.clear();
    ++report.federation.checkpoints;
    return true;
  }

  /// The one cadence (FederationOptions::Journal::checkpoint_every_ms): a
  /// cut comes due once that much stream time passed since the last one.
  /// The initial cut (empty state, seq 0) covers the run until the first.
  /// A run that keeps neither engine state nor a data log has nothing to
  /// cut.
  void maybe_checkpoint(stream::Timestamp now) {
    const stream::Timestamp period = options.journal.checkpoint_every_ms;
    if (period <= 0 || (!jw && !log_data)) return;
    if (!last_cut_ms) {
      last_cut_ms = now;
    } else if (now - *last_cut_ms >= period && checkpoint()) {
      last_cut_ms = now;
    }
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
      const std::size_t w = f.worker % channels.size();
      channels[w]->set_fault(
          std::make_shared<fault::LinkFault>(fault::FaultPlan::parse(f.plan)));
      obs::Tracer::instance().instant("fault_injected", "driver", w);
      ++report.federation.faults_injected;
      ++next_fault;
    }
  }

  /// A migration is a one-engine cut plus a re-pin: quiesce the source,
  /// pull the engine's state through the shared pull (a source death
  /// re-hosts it from the last cut and re-sends the pull), make that state
  /// the engine's ckpt entry at the current seq, move its placement, drop
  /// it at the source and hand it in at the destination (a destination
  /// death re-hands it in from that entry). The drop is sent right after
  /// the re-pin, so it can only reach the incarnation hosting the engine;
  /// the reader discards its handoff, which answers no pull.
  void migrate(const FederationOptions::Migration& m) {
    const auto wit = worker_of_engine.find(m.engine);
    if (wit == worker_of_engine.end()) {
      throw std::invalid_argument{"Cosmos: migration of unknown engine " +
                                  std::to_string(m.engine.value())};
    }
    const std::size_t src = wit->second;
    const std::size_t dst = m.to_worker % channels.size();
    if (src == dst) return;

    const obs::Span span{"migrate", "driver", m.engine.value()};
    obs::Tracer::instance().instant("migration", "driver", m.engine.value());
    const CutClock clock{report, quiesce({src})};
    auto [handed, bytes] = std::move(pull({m.engine}).front());
    ckpt[m.engine.value()] = {std::move(handed.units), exec_seq_of(m.engine)};
    for (const auto& [uid, unit] : sys.units_) {
      if (unit.host == m.engine) delivered_since_ckpt.erase(unit.result_stream);
    }
    wit->second = dst;
    send_data(src, wire::encode_migrate_out({m.engine, /*keep=*/0}));
    (void)hand_in({m.engine});
    ++report.federation.migrations;
    report.federation.state_bytes_migrated += bytes;
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
        core.trace().add_process_name(
            pid, "worker " + std::to_string(s.worker_index));
        core.trace().add_foreign(std::move(s.spans));
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
    // Indexed by FederationOptions::Journal::Fsync, which mirrors it.
    constexpr journal::Fsync kFsync[] = {
        journal::Fsync::kNever, journal::Fsync::kCommit,
        journal::Fsync::kChunk, journal::Fsync::kEvery};
    journal::Writer::Options o;
    o.fsync = kFsync[static_cast<std::size_t>(options.journal.fsync)];
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
    for (std::size_t w = 0; w < channels.size(); ++w) {
      send_data(w, wire::encode_traffic_request());
    }
    // Reports insert_or_assign-dedup.
    await_all(
        all_workers(),
        [&](std::size_t w) { return traffic_reports.contains(w); },
        [&](std::size_t w) {
          resend_stalled(w, wire::encode_traffic_request());
        });
    pubsub::TrafficStats merged;
    std::uint64_t peer_frames = 0;
    std::uint64_t peer_bytes = 0;
    {
      std::lock_guard lock{mu};
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
    for (std::size_t w = 0; w < channels.size(); ++w) {
      try {
        send(w, wire::encode_bye());
      } catch (const std::exception&) {
        // Channel already dead; its fault was or will be reported.
      }
    }
    // Orderly close: a worker answers kBye with its last frames and hangs
    // up. Shutting a socket down first would fail a worker still echoing
    // an earlier heartbeat (EPIPE, exit 1), so wait — bounded, as a
    // channel's close drain is — for every worker's EOF.
    {
      std::unique_lock lock{mu};
      cv.wait_for(lock, std::chrono::seconds(5),
                  [&] { return hung_up.size() >= channels.size(); });
    }
    for (std::size_t i = 0; i < channels.size(); ++i) {
      channels[i]->close();
      WireLinkStats link = retired[i];
      link.endpoint = options.workers[i];
      count_link(link, *channels[i]);
      link.error = channels[i]->send_error();
      report.federation.links.push_back(std::move(link));
    }
  }
};

namespace {

Pipeline::Options pipeline_options(const Cosmos::FederationOptions& options) {
  return {options.batch_size, options.tick_ms, options.max_inflight_chunks,
          options.trace_path};
}

}  // namespace

Cosmos::RunReport Cosmos::run_federated(
    const std::vector<runtime::TraceEvent>& events,
    const FederationOptions& options) {
  if (options.workers.empty()) {
    throw std::invalid_argument{"Cosmos: run_federated needs >= 1 worker"};
  }
  // The pipeline outlives the fleet: its trace session is written only
  // after the channel reader threads have joined.
  Pipeline core{*this, pipeline_options(options)};
  Fed fed{*this, options, core};
  return core.run(fed, events);
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

  // A resumed run re-ingests the trace from the journal's resume cut:
  // chunk cutting is prefix-deterministic, so feeding events[skip:] cuts
  // exactly the chunks the crashed driver had not yet routed.
  const auto skip = static_cast<std::size_t>(rec.resume_events);
  if (skip > events.size()) {
    throw std::invalid_argument{
        "Cosmos: resume journal consumed " + std::to_string(skip) +
        " trace events but the given trace holds only " +
        std::to_string(events.size())};
  }

  Pipeline core{*this, pipeline_options(effective)};
  Fed fed{*this, effective, core};
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
  return core.run(fed, events, skip);
}

}  // namespace cosmos::middleware
