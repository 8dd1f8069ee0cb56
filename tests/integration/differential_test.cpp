// Randomized differential harness: the load-bearing invariant of the whole
// execution stack is that the runtime-backed Cosmos::run() delivers
// byte-identical per-query result sequences to the synchronous push() mode
// — at any shard count, any batch size, and with adaptation on or off —
// and that push() delivers exactly what the naive reference evaluator
// (tests/support/reference_eval.h) computes for each query on its own.
// The seeded workloads come from tests/support/random_workload.h (shared
// with the multi-process federation differential); each is checked
// against the reference, then replayed through every configuration in the
// {1,4,8} shards x {1,64,1024} batch x {adapt off, adapt on} grid, diffing
// the full result logs against push(), and its broker traffic against
// push()'s on every directed link (bytes and message counts).
//
// A second sweep replays make_merging_workload's seeds, whose queries share
// hosts and sources so that units merge (Section 2.1).
//
// On failure the seed and configuration are printed; replay one seed with
//   COSMOS_DIFF_SEED=<seed> ./tests_integration_differential_test
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "cosmos/cosmos.h"
#include "obs/trace.h"
#include "support/random_workload.h"
#include "support/reference_eval.h"
#include "support/reference_match.h"

namespace cosmos::middleware {
namespace {

using testsupport::ResultLog;
using testsupport::build_system;
using testsupport::make_workload;
using testsupport::reference_log;

/// Checks `w` against the reference evaluator, then replays it through the
/// whole run() grid, diffing result logs and per-link traffic against
/// push(). Returns push()'s result count.
std::size_t expect_grid_matches_push(const testsupport::RandomWorkload& w,
                                     std::uint64_t seed) {
  ResultLog push_log;
  pubsub::TrafficStats push_traffic;
  {
    auto sys = build_system(w, push_log);
    for (const auto& ev : w.events) sys->push(ev.stream, ev.tuple);
    push_traffic = sys->traffic();
  }
  std::size_t results = 0;
  for (const auto& [q, lines] : push_log) results += lines.size();
  EXPECT_EQ(push_log, reference_log(w))
      << "push() disagrees with the reference evaluator: seed=" << seed
      << "  (replay: COSMOS_DIFF_SEED=" << seed << ")";

  for (const std::size_t shards : {1, 4, 8}) {
    for (const std::size_t batch : {1, 64, 1024}) {
      for (const bool adapt_on : {false, true}) {
        ResultLog run_log;
        auto sys = build_system(w, run_log);
        Cosmos::RunOptions opts;
        opts.shards = shards;
        opts.batch_size = batch;
        opts.queue_capacity = 3;  // small: exercise backpressure
        opts.tick_ms = 20 * 60'000;
        opts.adapt.enabled = adapt_on;
        // Aggressive knobs so adaptation actually migrates mid-trace.
        opts.adapt.adapt_every_ms = 15 * 60'000;
        opts.adapt.imbalance_threshold = 1.01;
        opts.adapt.ewma_alpha = 1.0;
        opts.adapt.min_gain_seconds = 0.0;
        opts.adapt.max_moves_per_round = 8;
        const auto report = sys->run(w.events, opts);
        EXPECT_EQ(report.tuples, w.events.size());
        EXPECT_EQ(run_log, push_log)
            << "differential mismatch: seed=" << seed << " shards=" << shards
            << " batch=" << batch << " adapt=" << (adapt_on ? "on" : "off")
            << "  (replay: COSMOS_DIFF_SEED=" << seed << ")";
        EXPECT_EQ(pubsub::testsupport::link_traffic_diff(sys->traffic(),
                                                         push_traffic),
                  "")
            << "traffic mismatch: seed=" << seed << " shards=" << shards
            << " batch=" << batch;
        if (::testing::Test::HasFailure()) return results;
      }
    }
  }
  return results;
}

/// COSMOS_DIFF_SEED replays a single failing workload; 0 = every seed.
std::uint64_t only_seed() {
  const char* s = std::getenv("COSMOS_DIFF_SEED");
  return s == nullptr ? 0 : std::strtoull(s, nullptr, 10);
}

TEST(Differential, RunMatchesPushAcrossShardsBatchesAndAdaptation) {
  std::size_t total_results = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    if (only_seed() != 0 && seed != only_seed()) continue;
    total_results += expect_grid_matches_push(make_workload(seed), seed);
    if (HasFailure()) return;
  }
  // The sweep must exercise real result flow, not vacuous empty logs.
  EXPECT_GT(total_results, 0u);
}

TEST(Differential, MergingWorkloadsMatchPushAcrossShardsBatchesAndAdaptation) {
  // Every seed here merges units, so the grid runs shared covering
  // queries with split p2 subscriptions.
  std::size_t total_results = 0;
  for (std::uint64_t seed = 2; seed <= 9; ++seed) {
    if (only_seed() != 0 && seed != only_seed()) continue;
    const auto w = testsupport::make_merging_workload(seed);
    {
      ResultLog log;
      const auto sys = build_system(w, log);
      ASSERT_LT(sys->deployed_units(), sys->submitted_queries())
          << "seed=" << seed;
    }
    total_results += expect_grid_matches_push(w, seed);
    if (HasFailure()) return;
  }
  EXPECT_GT(total_results, 0u);
}

TEST(Differential, TracingAndLatencyRecordingDoNotPerturbResults) {
  // Observability must be a pure observer: with span tracing and the e2e
  // latency histogram live, the result log stays byte-identical to push(),
  // and the run leaves behind a loadable Chrome trace plus a populated
  // latency histogram.
  const auto w = make_workload(3);

  ResultLog push_log;
  {
    auto sys = build_system(w, push_log);
    for (const auto& ev : w.events) sys->push(ev.stream, ev.tuple);
  }

  const std::string trace_path = ::testing::TempDir() + "diff_trace_" +
                                 std::to_string(::getpid()) + ".json";
  ResultLog run_log;
  auto sys = build_system(w, run_log);
  Cosmos::RunOptions opts;
  opts.shards = 4;
  opts.batch_size = 64;
  opts.tick_ms = 20 * 60'000;
  opts.trace_path = trace_path;
  const auto report = sys->run(w.events, opts);

  EXPECT_EQ(run_log, push_log);
  EXPECT_GT(report.e2e_latency.count, 0u);
  EXPECT_GT(report.e2e_latency.percentile(50.0), 0u);
  ASSERT_NE(report.metrics.histogram("e2e_latency_ns"), nullptr);
  EXPECT_EQ(report.metrics.histogram("e2e_latency_ns")->count,
            report.e2e_latency.count);

  std::ifstream in{trace_path};
  ASSERT_TRUE(in.good()) << trace_path;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  std::remove(trace_path.c_str());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Driver pipeline stages and shard work all have lanes in the trace.
  for (const char* name : {"\"match_wait\"", "\"route\"", "\"dispatch\"",
                           "\"deliver\"", "\"task\""}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
  // Recording stopped with the run: the tracer is disabled again.
  EXPECT_FALSE(obs::Tracer::instance().enabled());
}

}  // namespace
}  // namespace cosmos::middleware
