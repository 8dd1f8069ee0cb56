// Multi-process federation differential: a driver plus N real cosmos_noded
// worker processes over Unix-domain sockets must deliver byte-identical
// per-query result sequences to the synchronous push() mode (itself first
// checked against the naive reference evaluator) — across
// worker counts, in-flight windows, worker shard counts, and scripted live
// migrations (which must ship real serialized state over the wire). Plus
// the fault path: a worker killed mid-run surfaces as a clean throw, never
// a hang.
//
// Workloads are the same seeded random ones the in-process differential
// uses (tests/support/random_workload.h), so any divergence here is
// attributable to the wire path.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cosmos/cosmos.h"
#include "journal/journal.h"
#include "node/spawn.h"
#include "support/random_workload.h"
#include "support/reference_eval.h"
#include "support/reference_match.h"
#include "wire/messages.h"

namespace cosmos::middleware {
namespace {

using testsupport::ResultLog;
using testsupport::build_system;
using testsupport::make_workload;
using testsupport::reference_log;

struct Fleet {
  std::vector<node::NodeProcess> procs;
  std::vector<std::string> endpoints;
};

Fleet spawn_fleet(std::size_t n, const std::string& tag) {
  static int counter = 0;
  Fleet fleet;
  const std::string noded = node::default_noded_path();
  for (std::size_t i = 0; i < n; ++i) {
    const std::string endpoint = "unix:/tmp/cosmos_fedtest_" + tag + "_" +
                                 std::to_string(::getpid()) + "_" +
                                 std::to_string(counter++) + ".sock";
    fleet.procs.push_back(node::spawn_noded(noded, endpoint));
    fleet.endpoints.push_back(endpoint);
  }
  return fleet;
}

/// Checks `w` against the reference evaluator, then replays it across
/// worker counts, in-flight windows, worker shard counts and batch sizes,
/// diffing each federated result log against push(). Returns push()'s
/// result count.
std::size_t expect_fleets_match_push(const testsupport::RandomWorkload& w,
                                     std::uint64_t seed) {
  ResultLog push_log;
  {
    auto sys = build_system(w, push_log);
    for (const auto& ev : w.events) sys->push(ev.stream, ev.tuple);
  }
  std::size_t results = 0;
  for (const auto& [q, lines] : push_log) results += lines.size();
  EXPECT_EQ(push_log, reference_log(w))
      << "push() disagrees with the reference evaluator: seed=" << seed
      << "  (replay: COSMOS_DIFF_SEED=" << seed << ")";

  struct Config {
    std::size_t workers;
    std::size_t inflight;
    std::size_t shards;
    std::size_t batch;
  };
  for (const Config cfg : {Config{2, 1, 1, 64}, Config{2, 4, 2, 16},
                           Config{4, 4, 1, 64}}) {
    auto fleet = spawn_fleet(cfg.workers, "diff");
    ResultLog fed_log;
    auto sys = build_system(w, fed_log);
    Cosmos::FederationOptions opts;
    opts.workers = fleet.endpoints;
    opts.batch_size = cfg.batch;
    opts.max_inflight_chunks = cfg.inflight;
    opts.worker_shards = cfg.shards;
    opts.queue_capacity = 8;  // small: exercise channel backpressure
    opts.tick_ms = 20 * 60'000;
    const auto report = sys->run_federated(w.events, opts);

    EXPECT_EQ(report.tuples, w.events.size());
    EXPECT_EQ(report.federation.workers, cfg.workers);
    EXPECT_EQ(report.federation.links.size(), cfg.workers);
    for (const auto& link : report.federation.links) {
      EXPECT_GT(link.frames_sent, 0u);
      EXPECT_GT(link.bytes_sent, link.frames_sent * 12);
    }
    EXPECT_EQ(fed_log, push_log)
        << "federation mismatch: seed=" << seed << " workers=" << cfg.workers
        << " inflight=" << cfg.inflight << " shards=" << cfg.shards
        << " batch=" << cfg.batch << "  (replay: COSMOS_DIFF_SEED=" << seed
        << ")";

    for (auto& p : fleet.procs) EXPECT_EQ(p.wait(), 0);
    if (::testing::Test::HasFailure()) return results;
  }
  return results;
}

/// COSMOS_DIFF_SEED replays a single failing workload; 0 = every seed.
std::uint64_t only_seed() {
  const char* s = std::getenv("COSMOS_DIFF_SEED");
  return s == nullptr ? 0 : std::strtoull(s, nullptr, 10);
}

TEST(Federation, MatchesPushAcrossWorkerCountsAndWindows) {
  std::size_t total_results = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    if (only_seed() != 0 && seed != only_seed()) continue;
    total_results += expect_fleets_match_push(make_workload(seed), seed);
    if (HasFailure()) return;
  }
  EXPECT_GT(total_results, 0u);
}

TEST(Federation, MergingWorkloadsMatchPushAcrossWorkerCountsAndWindows) {
  // Every seed here merges units: shared covering queries run on the
  // workers while their split p2 subscriptions deliver on the driver.
  std::size_t total_results = 0;
  for (std::uint64_t seed = 2; seed <= 4; ++seed) {
    if (only_seed() != 0 && seed != only_seed()) continue;
    const auto w = testsupport::make_merging_workload(seed);
    {
      ResultLog log;
      const auto sys = build_system(w, log);
      ASSERT_LT(sys->deployed_units(), sys->submitted_queries())
          << "seed=" << seed;
    }
    total_results += expect_fleets_match_push(w, seed);
    if (HasFailure()) return;
  }
  EXPECT_GT(total_results, 0u);
}

TEST(Federation, TrafficAccountingMatchesInProcess) {
  const auto w = make_workload(3);
  ResultLog in_log;
  pubsub::TrafficStats in_traffic;
  {
    auto sys = build_system(w, in_log);
    for (const auto& ev : w.events) sys->push(ev.stream, ev.tuple);
    in_traffic = sys->traffic();
  }
  ASSERT_GT(in_traffic.bytes, 0.0);

  auto fleet = spawn_fleet(2, "traffic");
  ResultLog fed_log;
  auto sys = build_system(w, fed_log);
  Cosmos::FederationOptions opts;
  opts.workers = fleet.endpoints;
  const auto report = sys->run_federated(w.events, opts);
  // Worker p1 shares + driver p2 share must reproduce the in-process
  // broker's traffic exactly, link by link (same matching, same
  // accounting code).
  EXPECT_EQ(pubsub::testsupport::link_traffic_diff(
                report.federation.matched_traffic, in_traffic),
            "");
  EXPECT_EQ(fed_log, in_log);
  for (auto& p : fleet.procs) EXPECT_EQ(p.wait(), 0);
}

TEST(Federation, MergingWorkloadRegistersOnlyLiveStreams) {
  // Submits that merge units: each merge retires a result stream
  // version, and replicate() must register (and journal) only the sources
  // — result streams stay driver-side.
  auto w = make_workload(1);
  w.queries = {
      {"SELECT S2.* FROM Station1 [Range 30 Minutes] S1, Station2 [Now] S2 "
       "WHERE S1.snowHeight > S2.snowHeight AND S1.snowHeight >= 10",
       NodeId{2}, NodeId{3}},
      {"SELECT S1.snowHeight, S1.timestamp, S2.snowHeight, S2.timestamp "
       "FROM Station1 [Range 1 Hour] S1, Station2 [Now] S2 "
       "WHERE S1.snowHeight > S2.snowHeight",
       NodeId{2}, NodeId{4}},
      {"SELECT * FROM Station3 [Now] S1 WHERE S1.snowHeight > 20.0",
       NodeId{3}, NodeId{5}},
      {"SELECT * FROM Station3 [Now] S1 WHERE S1.snowHeight > 5.0",
       NodeId{3}, NodeId{2}}};
  ResultLog push_log;
  {
    auto sys = build_system(w, push_log);
    for (const auto& ev : w.events) sys->push(ev.stream, ev.tuple);
  }

  std::string dir = "/tmp/cosmos_fedtest_journal_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  auto fleet = spawn_fleet(2, "live");
  ResultLog fed_log;
  std::set<std::string> sources;
  {
    auto sys = build_system(w, fed_log);
    for (auto* part : sys->broker().partitions()) {
      if (part->stream().rfind("cosmos.result.", 0) != 0) {
        sources.insert(part->stream());
      }
    }
    ASSERT_EQ(sys->deployed_units(), 2u);  // both pairs merged
    ASSERT_EQ(sys->broker().partitions().size(),
              sources.size() + sys->deployed_units());
    Cosmos::FederationOptions opts;
    opts.workers = fleet.endpoints;
    opts.journal.dir = dir;
    (void)sys->run_federated(w.events, opts);
  }
  EXPECT_EQ(fed_log, push_log);
  for (auto& p : fleet.procs) EXPECT_EQ(p.wait(), 0);

  std::set<std::string> registered;
  for (const auto& frame : journal::recover(dir).registrations) {
    if (frame.type == wire::FrameType::kRegisterStream) {
      registered.insert(wire::decode_register_stream(frame).stream);
    }
  }
  EXPECT_EQ(registered, sources);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(Federation, ScriptedMigrationShipsStateAndPreservesResults) {
  // Seeds chosen so the workload has windowed joins with live state; the
  // migration moves every deployed engine in turn mid-trace.
  for (const std::uint64_t seed : {2, 7}) {
    const auto w = make_workload(seed);

    ResultLog push_log;
    {
      auto sys = build_system(w, push_log);
      for (const auto& ev : w.events) sys->push(ev.stream, ev.tuple);
    }

    auto fleet = spawn_fleet(2, "mig");
    ResultLog fed_log;
    auto sys = build_system(w, fed_log);

    // Schedule a mid-trace migration of every unit host to the opposite
    // worker. Host nodes come from the workload's query placements.
    const stream::Timestamp mid =
        w.events[w.events.size() / 2].tuple.ts;
    Cosmos::FederationOptions opts;
    opts.workers = fleet.endpoints;
    opts.batch_size = 32;
    std::set<NodeId::value_type> hosts;
    for (const auto& [text, host, proxy] : w.queries) {
      hosts.insert(host.value());
    }
    for (const auto hv : hosts) {
      Cosmos::FederationOptions::Migration m;
      m.at_ms = mid;
      m.engine = NodeId{hv};
      m.to_worker = (hv % 2) + 1;  // flip to the other worker
      opts.migrations.push_back(m);
    }
    const auto report = sys->run_federated(w.events, opts);

    EXPECT_GT(report.federation.migrations, 0u);
    // The tentpole guarantee: migrated state is real serialized bytes on
    // the wire, not a modeled estimate.
    EXPECT_GT(report.federation.state_bytes_migrated, 0u);
    ASSERT_EQ(fed_log, push_log)
        << "migration differential mismatch: seed=" << seed;
    for (auto& p : fleet.procs) EXPECT_EQ(p.wait(), 0);
  }
}

TEST(Federation, TracingAndStatsSamplingPreserveResultsAndMergeTraces) {
  // Observability across the wire must be a pure observer: with span
  // tracing and periodic worker stats sampling on, the federated result
  // log stays byte-identical to push(), worker registry samples arrive,
  // and the merged Chrome trace holds both driver (pid 0) and worker
  // (pid >= 1) spans.
  const auto w = make_workload(5);
  ResultLog push_log;
  {
    auto sys = build_system(w, push_log);
    for (const auto& ev : w.events) sys->push(ev.stream, ev.tuple);
  }

  const std::string trace_path = ::testing::TempDir() + "fed_trace_" +
                                 std::to_string(::getpid()) + ".json";
  auto fleet = spawn_fleet(2, "trace");
  ResultLog fed_log;
  auto sys = build_system(w, fed_log);
  Cosmos::FederationOptions opts;
  opts.workers = fleet.endpoints;
  opts.batch_size = 32;
  opts.tick_ms = 20 * 60'000;
  opts.trace_path = trace_path;
  opts.stats_sample_every_ms = 60 * 60'000;
  const auto report = sys->run_federated(w.events, opts);

  ASSERT_EQ(fed_log, push_log) << "tracing perturbed the result stream";
  EXPECT_GT(report.e2e_latency.count, 0u);

  // Every worker shipped at least its final flush-time sample, and the
  // samples carry the node-side shard counters.
  ASSERT_FALSE(report.federation.samples.empty());
  std::set<std::size_t> sampled_workers;
  std::uint64_t sampled_tuples = 0;
  for (const auto& s : report.federation.samples) {
    sampled_workers.insert(s.worker);
    if (const auto* tuples = s.metrics.counter("shard.tuples")) {
      sampled_tuples += *tuples;
    }
  }
  EXPECT_EQ(sampled_workers.size(), 2u);
  EXPECT_GT(sampled_tuples, 0u);

  for (auto& p : fleet.procs) EXPECT_EQ(p.wait(), 0);

  std::ifstream in{trace_path};
  ASSERT_TRUE(in.good()) << trace_path;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  std::remove(trace_path.c_str());
  // Driver pipeline spans and worker-side shard spans share the file,
  // re-homed to per-process lanes.
  for (const char* needle :
       {"\"match_wait\"", "\"route\"", "\"dispatch\"", "\"deliver\"",
        "\"task\"", "\"pid\":1", "\"pid\":2", "\"worker 0\"",
        "\"worker 1\"", "\"ph\":\"M\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
}

TEST(Federation, DeadWorkerMidRunThrowsCleanly) {
  const auto w = make_workload(4);
  auto fleet = spawn_fleet(2, "dead");
  ResultLog log;
  auto sys = build_system(w, log);
  Cosmos::FederationOptions opts;
  opts.workers = fleet.endpoints;
  opts.batch_size = 8;

  // Kill worker 0 after the driver has connected but while the trace is
  // replaying: every wait in the protocol is fault-aware, so the run must
  // throw (mentioning the worker), not hang.
  std::thread killer{[&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    fleet.procs[0].kill();
  }};
  try {
    (void)sys->run_federated(w.events, opts);
    // A tiny trace can legitimately finish before the kill lands.
  } catch (const std::exception& e) {
    // Either the reader reported the dead peer ("worker N (...)") or a
    // send into the dead channel failed — both are clean throws.
    EXPECT_FALSE(std::string{e.what()}.empty());
  }
  killer.join();
}

TEST(Federation, EveryModeRefusesNonSourceStreams) {
  // A unit's result stream is advertised on the broker but is no source:
  // every mode refuses it, like an unadvertised name, before anything is
  // matched or accounted, and the instance stays usable afterwards.
  const auto w = make_workload(1);
  ResultLog clean_log;
  {
    auto sys = build_system(w, clean_log);
    for (const auto& ev : w.events) sys->push(ev.stream, ev.tuple);
  }
  ResultLog log;
  auto sys = build_system(w, log);
  std::string result_stream;
  for (auto* part : sys->broker().partitions()) {
    if (part->stream().rfind("cosmos.result.", 0) == 0) {
      result_stream = part->stream();
    }
  }
  ASSERT_FALSE(result_stream.empty());

  const auto expect_refused = [](const std::string& stream, auto call) {
    try {
      call();
      ADD_FAILURE() << "accepted " << stream;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find(stream), std::string::npos)
          << e.what();
    }
  };
  const auto before = sys->traffic();
  for (const std::string& stream : {result_stream, std::string{"Nowhere"}}) {
    const auto& first = w.events.front();
    expect_refused(stream, [&] { sys->push(stream, first.tuple); });
    EXPECT_EQ(pubsub::testsupport::link_traffic_diff(sys->traffic(), before),
              "")
        << "a refused push() accounted traffic: " << stream;
    // The refused event shares the first chunk with a source event, which
    // must not be matched or executed either.
    const std::vector<runtime::TraceEvent> trace{first,
                                                 {stream, first.tuple}};
    expect_refused(stream, [&] { (void)sys->run(trace); });
    auto fleet = spawn_fleet(2, "refuse");
    Cosmos::FederationOptions opts;
    opts.workers = fleet.endpoints;
    expect_refused(stream, [&] { (void)sys->run_federated(trace, opts); });
  }
  EXPECT_EQ(pubsub::testsupport::link_traffic_diff(sys->traffic(), before),
            "");
  EXPECT_TRUE(log.empty());
  for (const auto& ev : w.events) sys->push(ev.stream, ev.tuple);
  EXPECT_EQ(log, clean_log);
}

TEST(Federation, RefusesEmptyWorkerList) {
  const auto w = make_workload(1);
  ResultLog log;
  auto sys = build_system(w, log);
  EXPECT_THROW((void)sys->run_federated(w.events, {}), std::invalid_argument);
}

}  // namespace
}  // namespace cosmos::middleware
