// In-memory retention boundedness: the driver's replay data log must not
// grow with the trace when cuts are on — independent of journaling. A cut
// (journal.checkpoint_every_ms) ends in a fleet-wide flush ack: every
// logged slice is then applied on every worker, so the log resets. Without
// worker recovery or a journal the cut pulls no state. The differential
// half of each case proves pruning never changes delivered results.
#include <gtest/gtest.h>

#include <optional>
#include <string>
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
    const std::string endpoint = "unix:/tmp/cosmos_rettest_" + tag + "_" +
                                 std::to_string(::getpid()) + "_" +
                                 std::to_string(counter++) + ".sock";
    fleet.procs.push_back(node::spawn_noded(noded, endpoint));
    fleet.endpoints.push_back(endpoint);
  }
  return fleet;
}

/// The cuts a run of `events` takes at `period`: one at every chunk
/// boundary where `period` of stream time has passed since the last cut,
/// the clock starting at the first chunk.
std::size_t cuts_in(const std::vector<runtime::TraceEvent>& events,
                    runtime::Driver::Options chunking,
                    stream::Timestamp period) {
  std::size_t cuts = 0;
  std::optional<stream::Timestamp> last;
  runtime::Driver::replay(events, chunking, [&](runtime::Chunk&& chunk) {
    if (!last) {
      last = chunk.first_ts;
    } else if (chunk.first_ts - *last >= period) {
      last = chunk.first_ts;
      ++cuts;
    }
  });
  return cuts;
}

TEST(FederationRetention, FloorsBoundTheDataLog) {
  const auto w = make_workload(3);
  ResultLog push_log;
  {
    auto sys = build_system(w, push_log);
    for (const auto& ev : w.events) sys->push(ev.stream, ev.tuple);
  }

  // peer_links forces data logging (replay source for lossy peer sends),
  // which is exactly the buffer retention has to bound. No recovery and no
  // journal: the cuts are stateless.
  constexpr std::size_t kBatch = 16;
  constexpr stream::Timestamp kTick = 20 * 60'000;
  auto run = [&](stream::Timestamp cut_every_ms, ResultLog& log) {
    auto fleet = spawn_fleet(2, cut_every_ms > 0 ? "floor" : "nofloor");
    auto sys = build_system(w, log);
    Cosmos::FederationOptions opts;
    opts.workers = fleet.endpoints;
    opts.batch_size = kBatch;
    opts.tick_ms = kTick;
    opts.peer_links = true;
    opts.journal.checkpoint_every_ms = cut_every_ms;
    const auto report = sys->run_federated(w.events, opts);
    for (auto& p : fleet.procs) EXPECT_EQ(p.wait(), 0);
    return report;
  };

  ResultLog unbounded_log;
  const auto unbounded = run(0, unbounded_log);
  ASSERT_EQ(unbounded_log, push_log);
  ASSERT_GT(unbounded.federation.data_log_appended, 0u);
  // No cuts: the log holds every entry ever appended at the end.
  EXPECT_EQ(unbounded.federation.data_log_peak_entries,
            unbounded.federation.data_log_appended);
  EXPECT_EQ(unbounded.federation.checkpoints, 0u);
  EXPECT_EQ(unbounded.driver.checkpoint_seconds, 0.0);

  // A 30-minute period over a 2-hour trace of 20-minute chunks: the cuts
  // land on chunk boundaries, so count them from the chunking itself.
  constexpr stream::Timestamp kPeriod = 30 * 60'000;
  const std::size_t expected = cuts_in(w.events, {kBatch, kTick}, kPeriod);
  ASSERT_GT(expected, 1u);
  ResultLog bounded_log;
  const auto bounded = run(kPeriod, bounded_log);
  ASSERT_EQ(bounded_log, push_log) << "retention pruning changed results";
  EXPECT_EQ(bounded.federation.checkpoints, expected);
  EXPECT_GT(bounded.driver.checkpoint_seconds, 0.0);
  // Same trace, same routing: appends are identical; only the peak moves.
  EXPECT_EQ(bounded.federation.data_log_appended,
            unbounded.federation.data_log_appended);
  EXPECT_LT(bounded.federation.data_log_peak_entries,
            bounded.federation.data_log_appended)
      << "cuts never pruned the data log";
}

TEST(FederationRetention, FloorsComposeWithWorkerRecovery) {
  // Recovery needs the data log *from the last cut*, not forever: with
  // cuts pulling state and resetting the log every period, a mid-trace
  // worker kill must still replay correctly.
  const auto w = make_workload(6);
  ResultLog push_log;
  {
    auto sys = build_system(w, push_log);
    for (const auto& ev : w.events) sys->push(ev.stream, ev.tuple);
  }

  auto fleet = spawn_fleet(2, "recov");
  ResultLog fed_log;
  auto sys = build_system(w, fed_log);
  Cosmos::FederationOptions opts;
  opts.workers = fleet.endpoints;
  opts.batch_size = 16;
  opts.tick_ms = 20 * 60'000;
  opts.recovery.enabled = true;
  opts.recovery.noded_path = node::default_noded_path();
  opts.journal.checkpoint_every_ms = 20 * 60'000;
  bool killed = false;
  opts.on_chunk = [&](std::size_t chunk) {
    if (chunk == 3 && !killed) {
      fleet.procs[1].kill();
      killed = true;
    }
  };
  const auto report = sys->run_federated(w.events, opts);

  ASSERT_TRUE(killed) << "trace too short to land the kill";
  EXPECT_EQ(report.federation.recoveries, 1u);
  EXPECT_GT(report.federation.checkpoints, 0u);
  EXPECT_LT(report.federation.data_log_peak_entries,
            report.federation.data_log_appended);
  ASSERT_EQ(fed_log, push_log)
      << "retention + recovery differential mismatch";
}

}  // namespace
}  // namespace cosmos::middleware
