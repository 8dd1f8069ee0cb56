// Federation chaos differential: a worker SIGKILLed mid-trace must be
// respawned on the same endpoint, replayed from the last checkpoint, and
// resumed — with per-query result sequences byte-identical to the
// synchronous push() mode. Exercised across seeds, worker counts and both
// execute-shipping topologies (star and peer links), which makes this the
// end-to-end regression for the whole recovery tail: stale-socket rebind,
// registration replay, checkpointed state re-handoff, data-log replay and
// the sites' per-engine seq dedup. A scripted migration is a one-engine
// cut, so a worker that dies on any of its frames — the source on the state
// pull or on the drop, the destination on the hand-in — recovers the same
// way.
//
// Also here (they need real cosmos_noded processes): the peer-link traffic
// accounting guarantee — with peer_links on, execute batches travel
// worker-to-worker and the driver ships ~no execute bytes — and the
// NodeProcess supervision contract (poll / terminate / kill / exit_status).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <csignal>
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "cosmos/cosmos.h"
#include "node/spawn.h"
#include "support/random_workload.h"

namespace cosmos::middleware {
namespace {

using testsupport::ResultLog;
using testsupport::build_system;
using testsupport::make_workload;

struct Fleet {
  std::vector<node::NodeProcess> procs;
  std::vector<std::string> endpoints;
};

Fleet spawn_fleet(std::size_t n, const std::string& tag) {
  static int counter = 0;
  Fleet fleet;
  const std::string noded = node::default_noded_path();
  for (std::size_t i = 0; i < n; ++i) {
    const std::string endpoint = "unix:/tmp/cosmos_chaos_" + tag + "_" +
                                 std::to_string(::getpid()) + "_" +
                                 std::to_string(counter++) + ".sock";
    fleet.procs.push_back(node::spawn_noded(noded, endpoint));
    fleet.endpoints.push_back(endpoint);
  }
  return fleet;
}

TEST(FederationChaos, KillRespawnResumeMatchesPush) {
  // COSMOS_CHAOS_TRACE, when set, collects the merged Chrome trace of the
  // first configuration that cuts, for CI validation
  // (scripts/check_trace.py): it must show a checkpoint and a recovery.
  const char* trace_env = std::getenv("COSMOS_CHAOS_TRACE");
  bool trace_written = false;

  for (const std::uint64_t seed : {2, 5}) {
    const auto w = make_workload(seed);

    ResultLog push_log;
    {
      auto sys = build_system(w, push_log);
      for (const auto& ev : w.events) sys->push(ev.stream, ev.tuple);
    }

    struct Config {
      std::size_t workers;
      bool peer_links;
      stream::Timestamp checkpoint_every_ms;
    };
    for (const Config cfg :
         {Config{2, false, 0}, Config{2, true, 60'000}, Config{4, false, 0},
          Config{4, true, 0}}) {
      auto fleet = spawn_fleet(cfg.workers, "kill");
      ResultLog fed_log;
      auto sys = build_system(w, fed_log);

      Cosmos::FederationOptions opts;
      opts.workers = fleet.endpoints;
      opts.batch_size = 16;  // small chunks: the kill lands mid-trace
      opts.tick_ms = 20 * 60'000;
      opts.peer_links = cfg.peer_links;
      opts.recovery.enabled = true;
      opts.recovery.noded_path = node::default_noded_path();
      opts.journal.checkpoint_every_ms = cfg.checkpoint_every_ms;
      if (trace_env != nullptr && !trace_written &&
          cfg.checkpoint_every_ms > 0) {
        opts.trace_path = trace_env;
        trace_written = true;
      }
      // SIGKILL one worker, once, at a deterministic chunk boundary. The
      // driver must detect the dead peer, respawn the daemon on the very
      // same endpoint (stale socket file and all), replay, and resume.
      const std::size_t victim = 1 % cfg.workers;
      bool killed = false;
      opts.on_chunk = [&](std::size_t chunk) {
        if (chunk == 2 && !killed) {
          fleet.procs[victim].kill();
          killed = true;
        }
      };

      const auto report = sys->run_federated(w.events, opts);

      ASSERT_TRUE(killed) << "trace too short to land the kill: seed="
                          << seed << " workers=" << cfg.workers;
      EXPECT_EQ(report.federation.recoveries, 1u);
      EXPECT_EQ(report.tuples, w.events.size());
      EXPECT_EQ(report.federation.checkpoints > 0,
                cfg.checkpoint_every_ms > 0);
      ASSERT_EQ(fed_log, push_log)
          << "chaos differential mismatch: seed=" << seed
          << " workers=" << cfg.workers
          << " peer_links=" << cfg.peer_links
          << " checkpoint_every_ms=" << cfg.checkpoint_every_ms;

      // The victim died on our SIGKILL; everyone else (including the
      // respawned daemon, owned by the driver) ends orderly.
      EXPECT_EQ(fleet.procs[victim].exit_status(), -SIGKILL);
      for (std::size_t i = 0; i < fleet.procs.size(); ++i) {
        if (i != victim) EXPECT_EQ(fleet.procs[i].wait(), 0);
      }
    }
  }
}

TEST(FederationChaos, KillSameWorkerTwiceRecoversTwice) {
  // Double failure, same slot: the victim's *respawn* is SIGKILLed a few
  // chunks after the first recovery completes. The second recovery must
  // replay on top of the first (registration log and data log are still
  // coherent), bounded only by max_recoveries.
  const auto w = make_workload(2);
  ResultLog push_log;
  {
    auto sys = build_system(w, push_log);
    for (const auto& ev : w.events) sys->push(ev.stream, ev.tuple);
  }

  auto fleet = spawn_fleet(2, "twice");
  ResultLog fed_log;
  auto sys = build_system(w, fed_log);

  Cosmos::FederationOptions opts;
  opts.workers = fleet.endpoints;
  opts.batch_size = 16;
  opts.tick_ms = 20 * 60'000;
  opts.recovery.enabled = true;
  opts.recovery.noded_path = node::default_noded_path();
  const std::size_t victim = 1;
  pid_t respawn_pid = -1;
  std::size_t respawn_chunk = 0;
  std::size_t kills = 0;
  opts.on_respawn = [&](std::size_t worker, pid_t pid) {
    if (worker == victim) respawn_pid = pid;
  };
  opts.on_chunk = [&](std::size_t chunk) {
    if (chunk == 2 && kills == 0) {
      fleet.procs[victim].kill();
      ++kills;
      respawn_chunk = chunk;
    } else if (kills == 1 && respawn_pid > 0 && chunk >= respawn_chunk + 2) {
      node::kill_and_reap(respawn_pid);
      ++kills;
    }
  };

  const auto report = sys->run_federated(w.events, opts);

  ASSERT_EQ(kills, 2u) << "trace too short to land both kills";
  EXPECT_EQ(report.federation.recoveries, 2u);
  ASSERT_EQ(fed_log, push_log) << "double-kill differential mismatch";
  for (std::size_t i = 0; i < fleet.procs.size(); ++i) {
    if (i != victim) EXPECT_EQ(fleet.procs[i].wait(), 0);
  }
}

TEST(FederationChaos, KillDuringRecoveryReplayRecoversBoth) {
  // Double failure, overlapping: worker 0 dies while worker 1's recovery
  // is mid-replay (the on_respawn hook fires between respawn and replay).
  // The second death queues behind the first recovery and is dispatched
  // right after it completes — the wait_for loop's no-recursion contract.
  const auto w = make_workload(5);
  ResultLog push_log;
  {
    auto sys = build_system(w, push_log);
    for (const auto& ev : w.events) sys->push(ev.stream, ev.tuple);
  }

  auto fleet = spawn_fleet(2, "overlap");
  ResultLog fed_log;
  auto sys = build_system(w, fed_log);

  Cosmos::FederationOptions opts;
  opts.workers = fleet.endpoints;
  opts.batch_size = 16;
  opts.tick_ms = 20 * 60'000;
  opts.recovery.enabled = true;
  opts.recovery.noded_path = node::default_noded_path();
  bool killed_first = false;
  bool killed_second = false;
  opts.on_chunk = [&](std::size_t chunk) {
    if (chunk == 2 && !killed_first) {
      fleet.procs[1].kill();
      killed_first = true;
    }
  };
  opts.on_respawn = [&](std::size_t worker, pid_t) {
    if (worker == 1 && !killed_second) {
      fleet.procs[0].kill();
      killed_second = true;
    }
  };

  const auto report = sys->run_federated(w.events, opts);

  ASSERT_TRUE(killed_first && killed_second);
  EXPECT_EQ(report.federation.recoveries, 2u);
  ASSERT_EQ(fed_log, push_log) << "overlapping-kill differential mismatch";
}

/// The frame of a scripted migration a worker dies on.
enum class MigrationDeath {
  kSourceOnPull,
  kSourceOnDrop,
  kDestinationOnHandIn,
};

/// One mid-migration death: a corrupt-frame fault, installed at the
/// migration's own chunk boundary (faults come due first), kills the
/// victim on the named frame; the run must recover once, migrate once and
/// stay byte-identical to push().
void expect_migration_death_recovers(MigrationDeath death, bool peer_links) {
  SCOPED_TRACE(std::string{peer_links ? "peer" : "star"} + " death=" +
               std::to_string(static_cast<int>(death)));
  const auto w = make_workload(2);
  ResultLog push_log;
  {
    auto sys = build_system(w, push_log);
    for (const auto& ev : w.events) sys->push(ev.stream, ev.tuple);
  }

  auto fleet = spawn_fleet(2, "middeath");
  ResultLog fed_log;
  auto sys = build_system(w, fed_log);

  // Move the first query's engine off its initial worker (host % 2).
  const NodeId engine = std::get<1>(w.queries.front());
  const std::size_t src = engine.value() % 2;
  const std::size_t dst = 1 - src;
  const stream::Timestamp at = w.events[w.events.size() / 2].tuple.ts;

  Cosmos::FederationOptions opts;
  opts.workers = fleet.endpoints;
  opts.batch_size = 16;
  opts.tick_ms = 20 * 60'000;
  opts.peer_links = peer_links;
  opts.recovery.enabled = true;
  opts.recovery.noded_path = node::default_noded_path();
  // Frames are counted from the boundary: with a window of one chunk
  // nothing is in flight there, and without heartbeats the driver's only
  // frames to the source are the flush (0), the state pull (1) and the
  // drop (2), and to the destination the hand-in (0).
  opts.max_inflight_chunks = 1;
  opts.liveness.heartbeat_every_ms = 0;
  opts.liveness.deadline_ms = 0;
  opts.migrations.push_back({at, engine, dst});
  std::size_t victim = src;
  const char* plan = "send:corrupt@after=1,for=1";
  if (death == MigrationDeath::kSourceOnDrop) {
    plan = "send:corrupt@after=2,for=1";
  } else if (death == MigrationDeath::kDestinationOnHandIn) {
    victim = dst;
    plan = "send:corrupt@after=0,for=1";
  }
  opts.faults.push_back({at, victim, plan});
  // The victim exits on its own after reporting kError; reap it before the
  // driver re-dials its endpoint, or the dial can land in the dying
  // listener's backlog and cost a second recovery.
  opts.on_respawn = [&](std::size_t worker, pid_t) {
    if (worker == victim) fleet.procs[victim].kill();
  };

  const auto report = sys->run_federated(w.events, opts);

  EXPECT_EQ(report.federation.faults_injected, 1u);
  EXPECT_EQ(report.federation.migrations, 1u);
  EXPECT_EQ(report.federation.recoveries, 1u);
  EXPECT_GT(report.federation.state_bytes_migrated, 0u);
  ASSERT_EQ(fed_log, push_log) << "mid-migration death changed results";
  EXPECT_NE(fleet.procs[victim].wait(), 0);
  EXPECT_EQ(fleet.procs[1 - victim].wait(), 0);
}

TEST(FederationChaos, SourceDiesOnMigrationStatePull) {
  for (const bool peer : {false, true}) {
    expect_migration_death_recovers(MigrationDeath::kSourceOnPull, peer);
  }
}

TEST(FederationChaos, SourceDiesOnMigrationDrop) {
  for (const bool peer : {false, true}) {
    expect_migration_death_recovers(MigrationDeath::kSourceOnDrop, peer);
  }
}

TEST(FederationChaos, DestinationDiesOnMigrationHandIn) {
  for (const bool peer : {false, true}) {
    expect_migration_death_recovers(MigrationDeath::kDestinationOnHandIn,
                                    peer);
  }
}

TEST(FederationChaos, PeerLinksKeepExecuteBytesOffDriver) {
  const auto w = make_workload(3);
  ResultLog push_log;
  {
    auto sys = build_system(w, push_log);
    for (const auto& ev : w.events) sys->push(ev.stream, ev.tuple);
  }

  for (const bool peer : {false, true}) {
    auto fleet = spawn_fleet(2, peer ? "peer" : "star");
    ResultLog fed_log;
    auto sys = build_system(w, fed_log);
    Cosmos::FederationOptions opts;
    opts.workers = fleet.endpoints;
    opts.batch_size = 32;
    opts.tick_ms = 20 * 60'000;
    opts.peer_links = peer;
    const auto report = sys->run_federated(w.events, opts);

    ASSERT_EQ(fed_log, push_log) << "peer_links=" << peer;
    if (peer) {
      // No recovery replay happened, so the driver shipped *zero* execute
      // bytes: batches traveled worker-to-worker over peer links.
      EXPECT_EQ(report.federation.driver_execute_bytes, 0u);
      EXPECT_GT(report.federation.peer_frames, 0u);
      EXPECT_GT(report.federation.peer_bytes, 0u);
    } else {
      EXPECT_GT(report.federation.driver_execute_bytes, 0u);
      EXPECT_EQ(report.federation.peer_frames, 0u);
      EXPECT_EQ(report.federation.peer_bytes, 0u);
    }
    for (auto& p : fleet.procs) EXPECT_EQ(p.wait(), 0);
  }
}

TEST(FederationChaos, DaemonRebindsEndpointAfterSigkill) {
  // The daemon-level face of the stale-socket fix: kill -9 leaves the
  // bound socket file behind; a respawn on the same endpoint must bind,
  // listen, and serve.
  const std::string endpoint = "unix:/tmp/cosmos_chaos_rebind_" +
                               std::to_string(::getpid()) + ".sock";
  const std::string noded = node::default_noded_path();
  auto first = node::spawn_noded(noded, endpoint);
  first.kill();
  EXPECT_EQ(first.exit_status(), -SIGKILL);

  auto second = node::spawn_noded(noded, endpoint);
  const auto w = make_workload(1);
  ResultLog push_log;
  {
    auto sys = build_system(w, push_log);
    for (const auto& ev : w.events) sys->push(ev.stream, ev.tuple);
  }
  ResultLog fed_log;
  auto sys = build_system(w, fed_log);
  Cosmos::FederationOptions opts;
  opts.workers = {endpoint};
  const auto report = sys->run_federated(w.events, opts);
  EXPECT_EQ(report.tuples, w.events.size());
  ASSERT_EQ(fed_log, push_log);
  EXPECT_EQ(second.wait(), 0);
}

TEST(FederationChaos, NodeProcessSupervisionContract) {
  const std::string endpoint = "unix:/tmp/cosmos_chaos_super_" +
                               std::to_string(::getpid()) + ".sock";
  auto proc = node::spawn_noded(node::default_noded_path(), endpoint);
  ASSERT_TRUE(proc.running());
  // Still serving: nothing to reap yet.
  EXPECT_EQ(proc.poll(), std::nullopt);
  EXPECT_EQ(proc.exit_status(), std::nullopt);

  // Graceful stop: SIGTERM with a bounded grace period. cosmos_noded has
  // no SIGTERM handler, so it dies on the signal — the point is terminate()
  // returns promptly and records the status.
  const int status = proc.terminate(2'000);
  EXPECT_EQ(status, -SIGTERM);
  EXPECT_EQ(proc.exit_status(), -SIGTERM);
  // Idempotent after the reap.
  EXPECT_EQ(proc.poll(), std::optional<int>{-SIGTERM});
  EXPECT_EQ(proc.terminate(), -SIGTERM);
  EXPECT_EQ(proc.wait(), -SIGTERM);
}

}  // namespace
}  // namespace cosmos::middleware
