// Massive-fanout subscription-matching bench: the attribute-predicate
// index (SubscriptionIndex inside BrokerPartition) vs a linear
// every-filter-every-row scan, swept over subscription counts.
//
// The workload is sim::make_fanout_subscriptions — Zipf-distributed
// station equalities, temperature bands, and a small unindexable remainder
// — matched against a Zipf-skewed station trace published on one stream.
// The station domain and band selectivity scale with the population
// (constant per-station subscriber density, constant per-band match
// probability): more users watch more stations, so population size is the
// only variable the sweep changes and per-row delivery work stays flat
// while the linear matcher's cost grows with the subscription count. For
// each population size both matchers process the identical batch sequence;
// the bench fails if their deliveries or delivered-row checksums differ.
// The linear matcher is the oracle and lives here: every subscription's
// filter compiled leniently against the stream schema and run over the
// whole batch (filter_batch_unresolved_false), deliveries in the broker's
// first-match order. It matches only; the broker also accounts link
// traffic, which the pub/sub differential tests check.
//
// The gated metric is the matched-throughput ratio at 10k subscriptions
// (acceptance bar: >= 10x with selective filters) plus its monotone growth
// from 1k to 10k; absolutes (rows/s) are reported for the previous-run
// artifact comparison. --smoke shrinks rows and skips the 100k population
// to fit the CI budget.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "net/topology.h"
#include "pubsub/broker_network.h"
#include "runtime/tuple_batch.h"
#include "sim/workload.h"
#include "stream/compiled_predicate.h"

using namespace cosmos;
using namespace cosmos::bench;

namespace {

struct MatchRun {
  double cpu_s = 0.0;
  std::size_t deliveries = 0;
  std::size_t delivered_rows = 0;
  std::uint64_t checksum = 0;  ///< order-sensitive (sub id, row ts) fold

  void add(SubscriptionId sub, const runtime::TupleBatch& batch,
           const std::vector<std::uint32_t>& rows) {
    ++deliveries;
    delivered_rows += rows.size();
    for (const auto r : rows) {
      checksum = checksum * 1099511628211ULL +
                 (static_cast<std::uint64_t>(sub.value()) << 20 ^
                  static_cast<std::uint64_t>(batch.ts(r)));
    }
  }
};

MatchRun run_index(const std::vector<NodeId>& nodes,
                   const net::LatencyMatrix& lat,
                   const std::vector<pubsub::Subscription>& subs,
                   const std::vector<runtime::TupleBatch>& batches) {
  pubsub::BrokerNetwork net{nodes, lat};
  net.advertise("S", NodeId{0}, sim::sensor_schema());
  for (const auto& sub : subs) net.subscribe(sub);

  MatchRun out;
  const double t0 = thread_cpu_seconds();
  for (const auto& batch : batches) {
    net.publish_batch("S", batch, [&out](const pubsub::BatchDelivery& d) {
      out.add(d.sub->id, *d.source, d.rows);
    });
  }
  out.cpu_s = thread_cpu_seconds() - t0;
  return out;
}

/// The oracle: subscription i (id i, as BrokerNetwork::subscribe assigns
/// them) evaluated in full on every row.
MatchRun run_linear(const std::vector<pubsub::Subscription>& subs,
                    const std::vector<runtime::TupleBatch>& batches) {
  const stream::Schema schema = sim::sensor_schema();
  std::vector<stream::CompiledPredicate> filters;
  for (const auto& sub : subs) {
    filters.push_back(stream::CompiledPredicate::compile_lenient(
        sub.filter, {{"", &schema, SIZE_MAX}}));
  }
  std::vector<std::vector<std::uint32_t>> rows_of(subs.size());
  std::vector<std::size_t> matched;

  MatchRun out;
  const double t0 = thread_cpu_seconds();
  for (const auto& batch : batches) {
    matched.clear();
    for (std::size_t s = 0; s < filters.size(); ++s) {
      filters[s].filter_batch_unresolved_false(batch, nullptr, rows_of[s]);
      if (!rows_of[s].empty()) matched.push_back(s);
    }
    // First-match order: by first matched row, ties by subscription.
    std::sort(matched.begin(), matched.end(),
              [&](std::size_t a, std::size_t b) {
                return std::pair{rows_of[a].front(), a} <
                       std::pair{rows_of[b].front(), b};
              });
    for (const auto s : matched) {
      out.add(SubscriptionId{static_cast<SubscriptionId::value_type>(s)},
              batch, rows_of[s]);
      rows_of[s].clear();
    }
  }
  out.cpu_s = thread_cpu_seconds() - t0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::uint64_t seed = env_seed(42);
  const std::size_t rows = smoke ? 6'000 : 20'000;
  constexpr std::size_t kBatchRows = 512;
  std::vector<std::size_t> populations{100, 1'000, 10'000};
  if (!smoke) populations.push_back(100'000);

  std::printf("# subscription-match scale bench (%s): %zu trace rows, "
              "batch=%zu, linear scan is the oracle\n",
              smoke ? "smoke" : "full", rows, kBatchRows);

  // 4-node line overlay (publisher at one end, subscribers spread over all
  // four homes) — the matching cost under test is overlay-independent.
  net::Topology topo{4};
  topo.add_edge(NodeId{0}, NodeId{1}, 10.0);
  topo.add_edge(NodeId{1}, NodeId{2}, 100.0);
  topo.add_edge(NodeId{2}, NodeId{3}, 10.0);
  const std::vector<NodeId> nodes{NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}};
  const net::LatencyMatrix lat{topo, nodes};

  std::vector<std::pair<std::string, double>> metrics;
  bool identical = true;
  double prev_speedup = 0.0;
  double monotone_1k_10k = 0.0;
  for (const std::size_t n : populations) {
    sim::FanoutParams fp;
    fp.subscribers = n;
    // Density-constant scaling: per-station subscriber count and per-band
    // match probability are population-independent.
    fp.stations = std::max<std::size_t>(500, n / 5);
    fp.band_width = 0.01 * 10'000.0 / static_cast<double>(n);
    Rng sub_rng{seed + 1};
    const auto subs = sim::make_fanout_subscriptions(fp, sub_rng);

    Rng trace_rng{seed};
    sim::SkewedTraceParams tp;
    tp.stations = fp.stations;
    tp.total_tuples = rows;
    tp.duration_ms = static_cast<std::int64_t>(rows) * 50;
    const auto trace = sim::make_skewed_trace(tp, trace_rng);
    std::vector<runtime::TupleBatch> batches;
    batches.emplace_back("S");
    for (const auto& reading : trace) {
      if (batches.back().size() == kBatchRows) batches.emplace_back("S");
      batches.back().push_back(reading.tuple);
    }

    const MatchRun linear = run_linear(subs, batches);
    const MatchRun indexed = run_index(nodes, lat, subs, batches);
    if (indexed.deliveries != linear.deliveries ||
        indexed.delivered_rows != linear.delivered_rows ||
        indexed.checksum != linear.checksum) {
      std::fprintf(stderr,
                   "!! matchers disagree at %zu subs: deliveries %zu/%zu "
                   "rows %zu/%zu checksum %llu/%llu\n",
                   n, indexed.deliveries, linear.deliveries,
                   indexed.delivered_rows, linear.delivered_rows,
                   static_cast<unsigned long long>(indexed.checksum),
                   static_cast<unsigned long long>(linear.checksum));
      identical = false;
    }
    const double linear_tput = static_cast<double>(rows) / linear.cpu_s;
    const double index_tput = static_cast<double>(rows) / indexed.cpu_s;
    const double speedup = linear.cpu_s / indexed.cpu_s;
    std::printf("subs=%-7zu matched_rows=%-8zu linear=%8.0f rows/s  "
                "index=%9.0f rows/s  speedup=%6.1fx\n",
                n, linear.delivered_rows, linear_tput, index_tput, speedup);

    const std::string tag =
        n >= 1000 ? std::to_string(n / 1000) + "k" : std::to_string(n);
    metrics.emplace_back("match_index_speedup_" + tag, speedup);
    if (n == 1'000) prev_speedup = speedup;
    if (n == 10'000) {
      monotone_1k_10k = speedup / prev_speedup;
      metrics.emplace_back("match_index_rows_per_s_10k", index_tput);
      metrics.emplace_back("match_linear_rows_per_s_10k", linear_tput);
    }
  }
  metrics.emplace_back("match_monotone_1k_10k", monotone_1k_10k);
  metrics.emplace_back("results_identical", identical ? 1.0 : 0.0);
  write_bench_json("match_scale", metrics);
  if (!identical) return 1;
  return 0;
}
