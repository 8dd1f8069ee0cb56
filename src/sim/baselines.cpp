#include "sim/baselines.h"

#include "common/clock.h"

namespace cosmos::sim {

Placement naive_placement(std::span<const query::InterestProfile> profiles) {
  Placement out;
  out.reserve(profiles.size());
  for (const auto& p : profiles) out.emplace(p.query, p.proxy);
  return out;
}

Placement random_placement(std::span<const query::InterestProfile> profiles,
                           const net::Deployment& deployment, Rng& rng) {
  Placement out;
  out.reserve(profiles.size());
  for (const auto& p : profiles) {
    out.emplace(p.query, deployment.processors[rng.next_below(
                             deployment.processors.size())]);
  }
  return out;
}

CentralizedResult centralized_placement(
    std::span<const query::InterestProfile> profiles,
    const net::Deployment& deployment, const query::SubstreamSpace& space,
    const graph::MappingParams& mapping,
    const graph::QueryGraphBuildParams& build, bool refine, Rng& rng) {
  const auto start = Clock::now();

  graph::EdgeModel model{space};
  std::vector<graph::QueryVertex> items;
  items.reserve(profiles.size());
  for (const auto& p : profiles) items.push_back(graph::to_query_vertex(p));
  graph::QueryGraph qg =
      graph::build_query_graph(items, model, build, nullptr, rng);

  // Global network graph: all processors assignable, all sources anchors.
  graph::NetworkGraph ng;
  for (const NodeId p : deployment.processors) {
    ng.add_vertex({"proc", deployment.capability[p.value()], true, p});
  }
  for (const NodeId s : deployment.sources) {
    ng.add_vertex({"src", 0.0, false, s});
  }
  ng.finalize_vertices();
  for (graph::NetworkGraph::VertexIndex a = 0; a < ng.size(); ++a) {
    for (graph::NetworkGraph::VertexIndex b = a + 1; b < ng.size(); ++b) {
      ng.set_distance(
          a, b, deployment.latencies.latency(ng.vertex(a).node,
                                             ng.vertex(b).node));
    }
  }
  // Anchor n-vertices of the query graph to their network-graph twins: in
  // the centralized view every node is present, so clu can index directly.
  for (graph::QueryGraph::VertexIndex i = 0; i < qg.size(); ++i) {
    auto& v = qg.vertex(i);
    if (!v.is_n()) continue;
    const auto k = ng.find_by_node(v.node);
    v.clu = k != graph::NetworkGraph::kNone && ng.vertex(k).assignable
                ? static_cast<int>(k)
                : -1;
  }

  graph::MappingParams params = mapping;
  params.refine = refine;
  const auto result = graph::map_query_graph(qg, ng, params, rng);

  CentralizedResult out;
  out.wec = result.wec;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    out.placement.emplace(profiles[i].query,
                          ng.vertex(result.assignment[i]).node);
  }
  out.seconds = seconds_since(start);
  return out;
}

}  // namespace cosmos::sim
