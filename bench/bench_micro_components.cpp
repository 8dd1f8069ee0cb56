// Component micro-benchmarks (google-benchmark): the hot paths of the
// middleware — bit-vector overlap, query-graph construction, coarsening,
// mapping, diffusion, online insertion, pub/sub matching.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "coord/diffusion.h"
#include "graph/coarsen.h"
#include "pubsub/broker_network.h"
#include "sim/sensor_trace.h"

using namespace cosmos;
using namespace cosmos::bench;

namespace {

void BM_BitVectorOverlap(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  Rng rng{1};
  BitVector a{bits}, b{bits};
  std::vector<double> w(bits);
  for (std::size_t i = 0; i < bits; ++i) {
    if (rng.next_bool(0.01)) a.set(i);
    if (rng.next_bool(0.01)) b.set(i);
    w[i] = rng.next_double(1.0, 10.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.weighted_intersection(b, w));
  }
}
BENCHMARK(BM_BitVectorOverlap)->Arg(2000)->Arg(20000);

void BM_QueryGraphBuild(benchmark::State& state) {
  SimSetup setup{0.1, 4, 1};
  const auto profiles =
      setup.workload->make_queries(static_cast<std::size_t>(state.range(0)));
  graph::EdgeModel model{setup.workload->space()};
  std::vector<graph::QueryVertex> items;
  for (const auto& p : profiles) items.push_back(graph::to_query_vertex(p));
  for (auto _ : state) {
    Rng rng{2};
    benchmark::DoNotOptimize(
        graph::build_query_graph(items, model, {}, nullptr, rng));
  }
}
BENCHMARK(BM_QueryGraphBuild)->Arg(200)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_Coarsen(benchmark::State& state) {
  SimSetup setup{0.1, 4, 1};
  const auto profiles = setup.workload->make_queries(1000);
  graph::EdgeModel model{setup.workload->space()};
  std::vector<graph::QueryVertex> items;
  for (const auto& p : profiles) items.push_back(graph::to_query_vertex(p));
  Rng grng{3};
  const auto qg = graph::build_query_graph(items, model, {}, nullptr, grng);
  for (auto _ : state) {
    Rng rng{4};
    benchmark::DoNotOptimize(graph::coarsen(qg, 64, &model, rng));
  }
}
BENCHMARK(BM_Coarsen)->Unit(benchmark::kMillisecond);

void BM_Diffusion(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<coord::DiffusionEdge> edges;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) edges.push_back({a, b, 1.0});
  }
  Rng rng{5};
  std::vector<double> imbalance(n);
  double sum = 0;
  for (auto& x : imbalance) {
    x = rng.next_double(-5, 5);
    sum += x;
  }
  for (auto& x : imbalance) x -= sum / static_cast<double>(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(coord::solve_diffusion(n, edges, imbalance));
  }
}
BENCHMARK(BM_Diffusion)->Arg(8)->Arg(32);

void BM_OnlineInsert(benchmark::State& state) {
  SimSetup setup{0.1, 4, 1};
  auto dist = setup.make_distributor(2);
  dist.distribute(setup.workload->make_queries(2000));
  auto stream = setup.workload->make_queries(100000);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist.insert_query(stream[i++ % stream.size()]));
  }
}
BENCHMARK(BM_OnlineInsert);

void BM_PubSubPublish(benchmark::State& state) {
  Rng rng{6};
  const auto topo = net::make_wide_area_mesh(30, 6, rng);
  std::vector<NodeId> all;
  for (std::uint32_t i = 0; i < 30; ++i) all.push_back(NodeId{i});
  const net::LatencyMatrix lat{topo, all};
  pubsub::BrokerNetwork broker{all, lat};
  broker.advertise("S", NodeId{0}, sim::sensor_schema());
  for (int i = 0; i < 500; ++i) {
    pubsub::Subscription sub;
    sub.subscriber = all[1 + rng.next_below(29)];
    sub.streams = {"S"};
    sub.filter = stream::Predicate::cmp(
        {"", "snowHeight"}, stream::CmpOp::kGe,
        stream::Value{rng.next_double(0.0, 40.0)});
    broker.subscribe(std::move(sub));
  }
  stream::Tuple t;
  t.ts = 0;
  t.values = {stream::Value{20.0}, stream::Value{-3.0},
              stream::Value{std::int64_t{0}}, stream::Value{std::int64_t{0}}};
  std::size_t delivered = 0;
  runtime::TupleBatch row{"S"};
  for (auto _ : state) {
    ++t.ts;
    t.values[3] = stream::Value{t.ts};
    row.clear();
    row.push_back(t);
    broker.publish_batch("S", row,
                         [&delivered](const pubsub::BatchDelivery& d) {
                           delivered += d.rows.size();
                         });
  }
  benchmark::DoNotOptimize(delivered);
}
BENCHMARK(BM_PubSubPublish);

}  // namespace

BENCHMARK_MAIN();
