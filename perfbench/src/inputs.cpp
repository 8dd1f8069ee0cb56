#include "inputs.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "net/topology.h"
#include "sim/sensor_trace.h"

namespace perfbench {

using cosmos::NodeId;
using cosmos::QueryId;
using cosmos::Rng;
namespace query = cosmos::query;
namespace stream = cosmos::stream;
namespace sim = cosmos::sim;

namespace {

constexpr struct {
  Workload w;
  const char* name;
} kNames[] = {{Workload::kJoinPush, "join-push"},
              {Workload::kJoinSharded, "join-sharded"},
              {Workload::kJoinFederated, "join-federated"},
              {Workload::kSelectFanout, "select-fanout"}};

/// Publishing node of a station stream ("Station<k>", k 1-based).
NodeId source_of(const Inputs& in, const std::string& stream) {
  return in.sources[(std::stoul(stream.substr(7)) - 1) % kSources];
}

/// The bench_runtime_throughput join: a 120..299 min range window on S1, a
/// 2 min window on S2, a 45 s time band and two field compares. Nothing is
/// pushed below the join, so every S2 arrival probes S1's whole window.
/// S1 goes round-robin over the stations and S2 is S1 shifted by `offset`
/// (1..19), so every station is S2 as often as it is S1: how much work one
/// tuple triggers, and so the latency of its results, does not hinge on how
/// a seed happened to spread the S2 draws. The window is drawn.
query::QuerySpec join_query(QueryId id, NodeId proxy, std::size_t offset,
                            Rng& rng) {
  const std::size_t a = id.value() % kStations;
  const std::size_t b = (a + offset) % kStations;
  query::QuerySpec spec;
  spec.id = id;
  spec.proxy = proxy;
  const auto range_min = 120 + rng.next_below(180);
  spec.sources = {
      {sim::station_stream_name(a), "S1",
       stream::WindowSpec::range_millis(
           static_cast<std::int64_t>(range_min) * 60'000)},
      {sim::station_stream_name(b), "S2",
       stream::WindowSpec::range_millis(120'000)}};
  spec.select = {{"S1", "snowHeight"},
                 {"S1", "timestamp"},
                 {"S2", "snowHeight"},
                 {"S2", "timestamp"}};
  spec.where = stream::Predicate::conj(
      {stream::Predicate::time_band({"S2", "timestamp"}, {"S1", "timestamp"},
                                    45'000),
       stream::Predicate::cmp(stream::FieldRef{"S1", "snowHeight"},
                              stream::CmpOp::kGt,
                              stream::FieldRef{"S2", "snowHeight"}),
       stream::Predicate::cmp(stream::FieldRef{"S1", "temperature"},
                              stream::CmpOp::kGt,
                              stream::FieldRef{"S2", "temperature"})});
  return spec;
}

/// A [Now] selection on one station with constant thresholds on a coarse
/// grid. Stations are drawn as floor(20 u^3), so a few hot stations carry
/// most queries and result sharing folds them into few units; `u` is
/// stratified (one draw per 1/N slice, in shuffled order) so every seed has
/// the same station skew. The snow threshold sits on a quintile of the
/// station's own readings (rounded to whole cm), so selectivity does not
/// hinge on where a seed's random walk drifted.
query::QuerySpec select_query(QueryId id, NodeId proxy, double u,
                              const std::vector<std::vector<double>>& snow_q,
                              Rng& rng) {
  const auto st = std::min<std::size_t>(
      kStations - 1, static_cast<std::size_t>(20.0 * u * u * u));
  static constexpr double kTemps[] = {-7.0, -5.0, -3.0};
  const double temp = kTemps[rng.next_below(3)];
  const double snow = snow_q[st][rng.next_below(snow_q[st].size())];
  query::QuerySpec spec;
  spec.id = id;
  spec.proxy = proxy;
  spec.sources = {
      {sim::station_stream_name(st), "S", stream::WindowSpec::now()}};
  spec.select = {{"S", "snowHeight"}, {"S", "temperature"}, {"S", "timestamp"}};
  spec.where = stream::Predicate::conj(
      {stream::Predicate::cmp(stream::FieldRef{"S", "temperature"},
                              stream::CmpOp::kGt, stream::Value{temp}),
       stream::Predicate::cmp(stream::FieldRef{"S", "snowHeight"},
                              stream::CmpOp::kGt, stream::Value{snow})});
  return spec;
}

}  // namespace

bool parse_workload(const std::string& name, Workload& out) {
  for (const auto& n : kNames) {
    if (name == n.name) {
      out = n.w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload w) {
  for (const auto& n : kNames) {
    if (n.w == w) return n.name;
  }
  return "?";
}

Inputs make_inputs(Workload w, std::uint64_t seed) {
  Inputs in;
  // The deployment is fixed; the seed draws the trace and the queries. A
  // per-seed topology would move the weighted cost by a fifth between
  // seeds, which would swamp any change a later optimisation makes to it.
  Rng rng{kTopologySeed};
  const auto topo = cosmos::net::make_wide_area_mesh(kNodes, kSites, rng);
  for (std::size_t i = 0; i < kNodes; ++i) {
    in.nodes.push_back(NodeId{static_cast<NodeId::value_type>(i)});
  }
  in.lat = cosmos::net::LatencyMatrix{topo, in.nodes};
  in.sources.assign(in.nodes.begin(), in.nodes.begin() + kSources);
  in.processors.assign(in.nodes.begin() + kSources, in.nodes.end());

  sim::SensorTraceParams tp;
  tp.stations = kStations;
  tp.readings_per_station = kReadings;
  Rng trng{seed + 1};
  const auto trace = sim::make_sensor_trace(tp, trng);
  in.events.reserve(trace.size());
  for (const auto& r : trace) {
    in.events.push_back({sim::station_stream_name(r.station), r.tuple});
  }

  Rng qrng{seed + 2};
  // Proxies go round-robin over the processors, so every seed spreads its
  // users over the deployment alike.
  const auto proxy = [&in](std::size_t i) {
    return in.processors[i % in.processors.size()];
  };
  if (w == Workload::kSelectFanout) {
    std::vector<std::vector<double>> snow(kStations);
    for (const auto& r : trace) {
      snow[r.station].push_back(r.tuple.values[0].as_double());
    }
    std::vector<std::vector<double>> quintiles(kStations);
    for (std::size_t st = 0; st < kStations; ++st) {
      auto& v = snow[st];
      std::sort(v.begin(), v.end());
      for (const double q : {0.2, 0.4, 0.6, 0.8}) {
        quintiles[st].push_back(
            std::round(v[static_cast<std::size_t>(q * (v.size() - 1))]));
      }
    }
    std::vector<std::size_t> slice(kSelectQueries);
    for (std::size_t i = 0; i < slice.size(); ++i) slice[i] = i;
    qrng.shuffle(slice);
    for (std::size_t i = 0; i < kSelectQueries; ++i) {
      const double u = (static_cast<double>(slice[i]) + qrng.next_double()) /
                       static_cast<double>(kSelectQueries);
      in.specs.push_back(select_query(QueryId{static_cast<std::uint32_t>(i)},
                                      proxy(i), u, quintiles, qrng));
    }
  } else {
    std::size_t offset = 0;
    for (std::size_t i = 0; i < kJoinQueries; ++i) {
      // One S2 offset per round of kStations queries.
      if (i % kStations == 0) offset = 1 + qrng.next_below(kStations - 1);
      in.specs.push_back(join_query(QueryId{static_cast<std::uint32_t>(i)},
                                    proxy(i), offset, qrng));
    }
  }

  // Greedy latency-aware placement with a load cap (the leaf-coordinator
  // rule of bench_runtime_throughput): the processor closest to the proxy
  // and the query's sources that still has room.
  std::vector<double> load(in.processors.size(), 0.0);
  const double cap = 1.1 * static_cast<double>(in.specs.size()) /
                     static_cast<double>(in.processors.size());
  for (const auto& spec : in.specs) {
    std::size_t best = 0;
    double best_cost = 1e300;
    for (std::size_t p = 0; p < in.processors.size(); ++p) {
      if (load[p] + 1.0 > cap) continue;
      double c = in.lat.latency(in.processors[p], spec.proxy);
      for (const auto& src : spec.sources) {
        c += in.lat.latency(in.processors[p], source_of(in, src.stream));
      }
      if (c < best_cost) {
        best_cost = c;
        best = p;
      }
    }
    load[best] += 1.0;
    in.host.push_back(in.processors[best]);
  }
  return in;
}

}  // namespace perfbench
