// Federation liveness + network-fault differentials. Where the chaos suite
// kills worker processes outright (kill -9: the channel reports EOF), these
// scenarios are the harder half of the failure model: peers that are alive
// but silent (SIGSTOP), links that are up but lossy (drop, corrupt), slow
// (delay), or one-way dead (partition). Every scenario must end with
// per-query result sequences byte-identical to the synchronous push() mode,
// with detections/recoveries/fallbacks counted in RunReport::federation —
// and no federated wait may block unboundedly on a silent peer.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "cosmos/cosmos.h"
#include "node/spawn.h"
#include "support/random_workload.h"
#include "wire/messages.h"
#include "wire/socket.h"

namespace cosmos::middleware {
namespace {

using testsupport::ResultLog;
using testsupport::build_system;
using testsupport::make_workload;

struct Fleet {
  std::vector<node::NodeProcess> procs;
  std::vector<std::string> endpoints;
};

Fleet spawn_fleet(std::size_t n, const std::string& tag,
                  const std::vector<std::string>& extra_args = {}) {
  static int counter = 0;
  Fleet fleet;
  const std::string noded = node::default_noded_path();
  for (std::size_t i = 0; i < n; ++i) {
    const std::string endpoint = "unix:/tmp/cosmos_faults_" + tag + "_" +
                                 std::to_string(::getpid()) + "_" +
                                 std::to_string(counter++) + ".sock";
    fleet.procs.push_back(node::spawn_noded(noded, endpoint, extra_args));
    fleet.endpoints.push_back(endpoint);
  }
  return fleet;
}

ResultLog push_baseline(const testsupport::RandomWorkload& w) {
  ResultLog log;
  auto sys = build_system(w, log);
  for (const auto& ev : w.events) sys->push(ev.stream, ev.tuple);
  return log;
}

/// One configuration of the SIGSTOP matrix. Each is its own test instance,
/// so ctest spreads the matrix over its jobs.
struct SigstopCase {
  std::uint64_t seed;
  std::size_t workers;
  bool peer_links;
};

/// Names the instance in ctest, e.g. ".../seed2_w2_star".
void PrintTo(const SigstopCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_w" << c.workers
      << (c.peer_links ? "_peer" : "_star");
}

class FederationFaultsSigstop : public ::testing::TestWithParam<SigstopCase> {
};

TEST_P(FederationFaultsSigstop, WorkerDetectedAndRecovered) {
  // A SIGSTOPped worker is the canonical silent failure: the process is
  // alive, its sockets stay open, it just never answers. The liveness
  // watchdog must declare it dead within the deadline and hand it to the
  // same respawn/replay recovery that handles kill -9 — byte-identically.
  const SigstopCase cfg = GetParam();
  const auto w = make_workload(cfg.seed);
  const auto push_log = push_baseline(w);

  auto fleet = spawn_fleet(cfg.workers, "stop");
  ResultLog fed_log;
  auto sys = build_system(w, fed_log);

  Cosmos::FederationOptions opts;
  opts.workers = fleet.endpoints;
  opts.batch_size = 16;  // small chunks: the stop lands mid-trace
  opts.tick_ms = 20 * 60'000;
  opts.peer_links = cfg.peer_links;
  opts.recovery.enabled = true;
  opts.recovery.noded_path = node::default_noded_path();
  opts.liveness.heartbeat_every_ms = 100;
  opts.liveness.deadline_ms = 600;
  // Only the first configuration writes the merged trace CI validates.
  const char* trace_env = std::getenv("COSMOS_FAULTS_TRACE");
  if (trace_env != nullptr && cfg.seed == 2 && cfg.workers == 2 &&
      !cfg.peer_links) {
    opts.trace_path = trace_env;
  }
  const std::size_t victim = 1 % cfg.workers;
  bool stopped = false;
  opts.on_chunk = [&](std::size_t chunk) {
    if (chunk == 2 && !stopped) {
      ::kill(fleet.procs[victim].pid(), SIGSTOP);
      stopped = true;
    }
  };

  const auto report = sys->run_federated(w.events, opts);

  ASSERT_TRUE(stopped) << "trace too short to land the stop: seed="
                       << cfg.seed << " workers=" << cfg.workers;
  EXPECT_GE(report.federation.recoveries, 1u);
  EXPECT_EQ(report.tuples, w.events.size());
  ASSERT_EQ(fed_log, push_log)
      << "sigstop differential mismatch: seed=" << cfg.seed
      << " workers=" << cfg.workers << " peer_links=" << cfg.peer_links;

  // The stopped orphan still holds the old endpoint; SIGKILL reaps a
  // stopped process without needing SIGCONT first.
  fleet.procs[victim].kill();
  EXPECT_EQ(fleet.procs[victim].exit_status(), -SIGKILL);
  for (std::size_t i = 0; i < fleet.procs.size(); ++i) {
    if (i != victim) EXPECT_EQ(fleet.procs[i].wait(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FederationFaultsSigstop,
    ::testing::Values(SigstopCase{2, 2, false}, SigstopCase{2, 2, true},
                      SigstopCase{2, 4, false}, SigstopCase{2, 4, true},
                      SigstopCase{5, 2, false}, SigstopCase{5, 2, true},
                      SigstopCase{5, 4, false}, SigstopCase{5, 4, true}));

TEST(FederationFaults, SigstopSigcontUnderDeadlineIsNotAFailure) {
  // The false-positive guard: a worker paused for less than the deadline
  // (GC pause, scheduler hiccup) must NOT be declared dead — the run
  // completes with zero recoveries.
  const auto w = make_workload(3);
  const auto push_log = push_baseline(w);

  auto fleet = spawn_fleet(2, "pause");
  ResultLog fed_log;
  auto sys = build_system(w, fed_log);

  Cosmos::FederationOptions opts;
  opts.workers = fleet.endpoints;
  opts.batch_size = 16;
  opts.tick_ms = 20 * 60'000;
  opts.recovery.enabled = true;
  opts.recovery.noded_path = node::default_noded_path();
  opts.liveness.heartbeat_every_ms = 100;
  opts.liveness.deadline_ms = 2'000;
  bool paused = false;
  opts.on_chunk = [&](std::size_t chunk) {
    if (chunk == 2 && !paused) {
      ::kill(fleet.procs[1].pid(), SIGSTOP);
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      ::kill(fleet.procs[1].pid(), SIGCONT);
      paused = true;
    }
  };

  const auto report = sys->run_federated(w.events, opts);

  ASSERT_TRUE(paused);
  EXPECT_EQ(report.federation.recoveries, 0u);
  ASSERT_EQ(fed_log, push_log);
  for (auto& p : fleet.procs) EXPECT_EQ(p.wait(), 0);
}

TEST(FederationFaults, OneWayPeerPartitionFallsBackToStar) {
  // Peer-link mode with every outbound worker-to-worker link one-way
  // partitioned: the dialed connection opens (the link looks "up") but
  // every sent frame vanishes, so the kPeerHello ack never comes back.
  // The bounded handshake wait — paced by the liveness deadline — times
  // out, the one re-dial burns against the same persistent partition, the
  // worker reports kPeerDown, and the driver star-routes the pair and
  // replays the entries the link swallowed. No worker dies; results stay
  // byte-identical.
  const auto w = make_workload(2);
  const auto push_log = push_baseline(w);

  auto fleet = spawn_fleet(2, "part", {"--fault-peer", "send:partition"});
  ResultLog fed_log;
  auto sys = build_system(w, fed_log);

  Cosmos::FederationOptions opts;
  opts.workers = fleet.endpoints;
  opts.batch_size = 16;
  opts.tick_ms = 20 * 60'000;
  opts.peer_links = true;
  opts.liveness.heartbeat_every_ms = 100;
  opts.liveness.deadline_ms = 500;

  const auto report = sys->run_federated(w.events, opts);

  EXPECT_GE(report.federation.peer_fallbacks, 1u);
  EXPECT_EQ(report.federation.recoveries, 0u);
  ASSERT_EQ(fed_log, push_log) << "peer-partition differential mismatch";
  for (auto& p : fleet.procs) EXPECT_EQ(p.wait(), 0);
}

TEST(FederationFaults, SlowLinkIsNotDeclaredDead) {
  // A trickling/delayed link is slow, not dead: heartbeats and data still
  // flow, so a 100 ms per-frame delay under a 1 s deadline must complete
  // with zero recoveries — the detection is calibrated against silence,
  // not latency.
  const auto w = make_workload(4);
  const auto push_log = push_baseline(w);

  auto fleet = spawn_fleet(2, "slow");
  ResultLog fed_log;
  auto sys = build_system(w, fed_log);

  Cosmos::FederationOptions opts;
  opts.workers = fleet.endpoints;
  opts.batch_size = 16;
  opts.tick_ms = 20 * 60'000;
  opts.liveness.heartbeat_every_ms = 100;
  opts.liveness.deadline_ms = 1'000;
  opts.faults.push_back({0, 1, "send:delay@ms=100"});

  const auto report = sys->run_federated(w.events, opts);

  EXPECT_EQ(report.federation.faults_injected, 1u);
  EXPECT_EQ(report.federation.recoveries, 0u);
  ASSERT_EQ(fed_log, push_log) << "slow-link differential mismatch";
  for (auto& p : fleet.procs) EXPECT_EQ(p.wait(), 0);
}

TEST(FederationFaults, SessionCloseWaitsForWorkersToHangUp) {
  // A 1 ms heartbeat keeps probes in flight up to kBye, and a trickled
  // worker->driver link keeps each worker behind on echoing them. Closing
  // the sockets right after kBye would make a worker's next echo fail with
  // EPIPE and the worker exit 1; the driver must wait for each worker to
  // hang up, so every worker exits 0.
  auto w = make_workload(4);
  w.events.resize(40);
  const auto push_log = push_baseline(w);
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    auto fleet =
        spawn_fleet(2, "bye", {"--fault-driver", "send:trickle@ms=10"});
    ResultLog fed_log;
    auto sys = build_system(w, fed_log);
    Cosmos::FederationOptions opts;
    opts.workers = fleet.endpoints;
    opts.batch_size = 16;
    opts.tick_ms = 20 * 60'000;
    opts.liveness.heartbeat_every_ms = 1;
    opts.liveness.deadline_ms = 2'000;
    const auto report = sys->run_federated(w.events, opts);
    EXPECT_EQ(report.federation.recoveries, 0u);
    ASSERT_EQ(fed_log, push_log);
    for (auto& p : fleet.procs) EXPECT_EQ(p.wait(), 0);
  }
}

TEST(FederationFaults, CorruptFrameTriggersRecovery) {
  // One corrupted header byte on the driver->worker link: the worker's
  // strict decoder rejects the frame, reports kError, and dies; the driver
  // treats that incarnation like any dead worker — respawn, replay,
  // byte-identical results.
  const auto w = make_workload(5);
  const auto push_log = push_baseline(w);

  auto fleet = spawn_fleet(2, "corrupt");
  ResultLog fed_log;
  auto sys = build_system(w, fed_log);

  Cosmos::FederationOptions opts;
  opts.workers = fleet.endpoints;
  opts.batch_size = 16;
  opts.tick_ms = 20 * 60'000;
  opts.recovery.enabled = true;
  opts.recovery.noded_path = node::default_noded_path();
  opts.liveness.heartbeat_every_ms = 100;
  opts.liveness.deadline_ms = 2'000;
  opts.faults.push_back({0, 1, "send:corrupt@after=5,for=1,seed=7"});

  const auto report = sys->run_federated(w.events, opts);

  EXPECT_EQ(report.federation.faults_injected, 1u);
  // At least one recovery (the poisoned incarnation), occasionally two:
  // the worker exits on its own schedule after sending kError, and the
  // driver's re-dial can land in the dying process's still-live listener
  // backlog — a reset that costs a second, benign recovery. Bounded by
  // max_recoveries either way; byte identity is the real contract.
  EXPECT_GE(report.federation.recoveries, 1u);
  EXPECT_LE(report.federation.recoveries, 2u);
  ASSERT_EQ(fed_log, push_log) << "corrupt-frame differential mismatch";
  // Worker 1's first incarnation died on the poisoned session (exit 1);
  // its respawn is driver-owned and ends orderly.
  EXPECT_EQ(fleet.procs[0].wait(), 0);
  EXPECT_NE(fleet.procs[1].wait(), 0);
}

TEST(FederationFaults, DuplicatedAndReorderedFramesAreAbsorbed) {
  // Duplication and a single adjacent swap on the driver->worker link:
  // per-engine seq dedup absorbs replays, the site's floor gating restores
  // watermark/flush order, and the flush-ack set dedups double acks — all
  // without declaring anything dead.
  const auto w = make_workload(6);
  const auto push_log = push_baseline(w);

  auto fleet = spawn_fleet(2, "dupre");
  ResultLog fed_log;
  auto sys = build_system(w, fed_log);

  Cosmos::FederationOptions opts;
  opts.workers = fleet.endpoints;
  opts.batch_size = 16;
  opts.tick_ms = 20 * 60'000;
  opts.liveness.heartbeat_every_ms = 100;
  opts.liveness.deadline_ms = 1'000;
  opts.faults.push_back({0, 1, "send:dup@after=0,for=20;send:reorder@after=4"});

  const auto report = sys->run_federated(w.events, opts);

  EXPECT_EQ(report.federation.faults_injected, 1u);
  EXPECT_EQ(report.federation.recoveries, 0u);
  ASSERT_EQ(fed_log, push_log) << "dup/reorder differential mismatch";
  for (auto& p : fleet.procs) EXPECT_EQ(p.wait(), 0);
}

TEST(FederationFaults, WorkerExitsWhenDriverGoesSilent) {
  // The worker side of the liveness pact: a driver that hellos and then
  // goes silent (without closing — the socket stays open) must not leave
  // the daemon lingering forever. The worker's own deadline trips and the
  // process exits with an error.
  const std::string endpoint = "unix:/tmp/cosmos_faults_silentdrv_" +
                               std::to_string(::getpid()) + ".sock";
  auto proc = node::spawn_noded(node::default_noded_path(), endpoint);

  wire::Socket driver = wire::connect_to(wire::Endpoint::parse(endpoint));
  wire::HelloMsg hello;
  hello.worker_index = 0;
  hello.shards = 1;
  hello.heartbeat_every_ms = 50;
  hello.liveness_deadline_ms = 300;
  wire::send_frame(driver, wire::encode_hello(hello));
  const auto ack = wire::recv_frame(driver);
  ASSERT_TRUE(ack.has_value());
  ASSERT_EQ(ack->type, wire::FrameType::kHelloAck);

  // Go silent; keep the socket open so this is silence, not EOF.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::optional<int> status;
  while (std::chrono::steady_clock::now() < deadline) {
    status = proc.poll();
    if (status.has_value()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(status.has_value())
      << "worker lingered past the liveness deadline";
  EXPECT_NE(*status, 0);  // died on the deadline, not an orderly bye
}

}  // namespace
}  // namespace cosmos::middleware
