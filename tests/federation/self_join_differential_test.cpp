// Self-join differential: two-way joins whose aliases both read one station
// stream, with different windows and a filter on each alias. A plan with
// two sources on one stream attaches one engine tap that hands each row to
// the left alias, then to the right one, so a row can join itself and the
// left side always holds a row before the right side probes with it —
// whatever the batch size. Every mode must deliver exactly what the naive
// reference evaluator (tests/support/reference_eval.h) computes:
//  - push();
//  - run() at {1, 4} shards x batch {1, 64, 1024};
//  - run_federated on 2 worker processes.
//
// The trace and topology are the seeded random workloads of
// tests/support/random_workload.h; only the query mix is replaced.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cosmos/cosmos.h"
#include "node/spawn.h"
#include "support/random_workload.h"
#include "support/reference_eval.h"

namespace cosmos::middleware {
namespace {

using testsupport::RandomWorkload;
using testsupport::ResultLog;
using testsupport::build_system;
using testsupport::make_workload;
using testsupport::reference_log;

/// The seed's trace with self-join queries over its two busiest stations.
RandomWorkload self_join_workload(std::uint64_t seed) {
  RandomWorkload w = make_workload(seed);
  std::map<std::string, std::size_t> rate;
  for (const auto& ev : w.events) ++rate[ev.stream];
  std::vector<std::pair<std::size_t, std::string>> busiest;
  for (const auto& [stream, n] : rate) busiest.emplace_back(n, stream);
  std::sort(busiest.rbegin(), busiest.rend());
  const std::string& a = busiest.at(0).second;
  const std::string& b = busiest.at(1).second;
  const NodeId h1 = w.nodes[2];
  const NodeId h2 = w.nodes[3];
  const NodeId proxy = w.nodes[4];
  const std::string cols =
      "SELECT S1.snowHeight, S1.timestamp, S2.snowHeight, S2.timestamp ";
  w.queries = {
      {cols + "FROM " + a + " [Range 30 Minutes] S1, " + a +
           " [Now] S2 WHERE S1.snowHeight > S2.snowHeight AND "
           "S1.temperature < 2.5 AND S2.temperature >= -4.5",
       h1, proxy},
      // Narrower left window on the same host: result sharing may fold it
      // into the query above.
      {cols + "FROM " + a + " [Range 10 Minutes] S1, " + a +
           " [Now] S2 WHERE S1.snowHeight > S2.snowHeight AND "
           "S1.temperature < 2.5 AND S2.temperature >= -4.5",
       h1, proxy},
      // [Now] on the left and >=: a row that passes both filters joins
      // itself when it reaches the right side.
      {"SELECT * FROM " + b + " [Now] S1, " + b +
           " [Range 20 Minutes] S2 WHERE S1.snowHeight >= S2.snowHeight AND "
           "S1.temperature > -4.5 AND S2.snowHeight < 20",
       h2, proxy},
      // A two-stream join sharing a host with a self-join.
      {cols + "FROM " + a + " [Range 15 Minutes] S1, " + b +
           " [Now] S2 WHERE S1.snowHeight > S2.snowHeight",
       h2, proxy},
  };
  return w;
}

std::vector<std::string> spawn_workers(std::size_t n,
                                       std::vector<node::NodeProcess>& procs) {
  static int counter = 0;
  std::vector<std::string> endpoints;
  const std::string noded = node::default_noded_path();
  for (std::size_t i = 0; i < n; ++i) {
    const std::string endpoint = "unix:/tmp/cosmos_selfjoin_" +
                                 std::to_string(::getpid()) + "_" +
                                 std::to_string(counter++) + ".sock";
    procs.push_back(node::spawn_noded(noded, endpoint));
    endpoints.push_back(endpoint);
  }
  return endpoints;
}

TEST(SelfJoin, EveryModeMatchesReferenceEvaluator) {
  std::size_t self_matches = 0;
  for (const std::uint64_t seed : {1, 2, 3, 4}) {
    const auto w = self_join_workload(seed);
    const ResultLog reference = reference_log(w);
    ASSERT_FALSE(reference.empty()) << "seed=" << seed;
    // Query 2's rows that joined themselves (equal snowHeight, equal ts).
    if (const auto it = reference.find(QueryId{2}); it != reference.end()) {
      for (const auto& line : it->second) {
        const auto fields = line.substr(line.find('|') + 1);
        const auto half = fields.size() / 2;
        if (fields.substr(0, half) == fields.substr(half + 1)) {
          ++self_matches;
        }
      }
    }

    ResultLog push_log;
    {
      auto sys = build_system(w, push_log);
      for (const auto& ev : w.events) sys->push(ev.stream, ev.tuple);
    }
    ASSERT_EQ(push_log, reference) << "push(): seed=" << seed;

    for (const std::size_t shards : {1, 4}) {
      for (const std::size_t batch : {1, 64, 1024}) {
        ResultLog run_log;
        auto sys = build_system(w, run_log);
        Cosmos::RunOptions opts;
        opts.shards = shards;
        opts.batch_size = batch;
        opts.tick_ms = 20 * 60'000;
        (void)sys->run(w.events, opts);
        ASSERT_EQ(run_log, reference)
            << "run(): seed=" << seed << " shards=" << shards
            << " batch=" << batch;
      }
    }

    std::vector<node::NodeProcess> procs;
    ResultLog fed_log;
    auto sys = build_system(w, fed_log);
    Cosmos::FederationOptions opts;
    opts.workers = spawn_workers(2, procs);
    opts.batch_size = 64;
    opts.tick_ms = 20 * 60'000;
    (void)sys->run_federated(w.events, opts);
    ASSERT_EQ(fed_log, reference) << "run_federated: seed=" << seed;
    for (auto& p : procs) EXPECT_EQ(p.wait(), 0);
  }
  // The sweep must exercise rows joining themselves, not only older rows.
  EXPECT_GT(self_matches, 0u);
}

}  // namespace
}  // namespace cosmos::middleware
