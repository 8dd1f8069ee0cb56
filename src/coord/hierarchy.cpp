#include "coord/hierarchy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/clock.h"
#include "coord/diffusion.h"

namespace cosmos::coord {

/// A (possibly coarse) group of queries flowing through the hierarchy.
/// `parts` holds the one-level-finer constituents (empty for single
/// queries); `origin` is the tree node whose summary created the record
/// (the paper's vertex tag), the current processor's L0 node for queries.
struct HierarchicalDistributor::Record {
  graph::QueryVertex payload;
  std::vector<Record*> parts;
  std::uint32_t origin = UINT32_MAX;
};

HierarchicalDistributor::HierarchicalDistributor(
    const net::Deployment& deployment, const CoordinatorTree& tree,
    const query::SubstreamSpace& space, HierarchyParams params,
    std::uint64_t seed)
    : deployment_(&deployment),
      tree_(&tree),
      space_(&space),
      model_(space),
      params_(params),
      rng_(seed) {
  aggregates_.resize(tree.size());
  for (auto& a : aggregates_) a.interest = BitVector{space.size()};
}

HierarchicalDistributor::~HierarchicalDistributor() = default;
HierarchicalDistributor::HierarchicalDistributor(
    HierarchicalDistributor&&) noexcept = default;
HierarchicalDistributor& HierarchicalDistributor::operator=(
    HierarchicalDistributor&&) noexcept = default;

HierarchicalDistributor::Record* HierarchicalDistributor::make_query_record(
    const query::InterestProfile& p) {
  auto rec = std::make_unique<Record>();
  rec->payload = graph::to_query_vertex(p);
  Record* out = rec.get();
  arena_.push_back(std::move(rec));
  return out;
}

void HierarchicalDistributor::collect_queries(const Record* r,
                                              std::vector<QueryId>& out) const {
  if (r->parts.empty()) {
    out.insert(out.end(), r->payload.queries.begin(), r->payload.queries.end());
    return;
  }
  for (const Record* part : r->parts) collect_queries(part, out);
}

int HierarchicalDistributor::child_covering(std::uint32_t tree_node,
                                            std::uint32_t origin) const {
  if (origin == UINT32_MAX) return -1;
  std::uint32_t cur = origin;
  while (cur != UINT32_MAX && cur != tree_node) {
    const std::uint32_t parent = tree_->node(cur).parent;
    if (parent == tree_node) {
      const auto& children = tree_->node(tree_node).children;
      for (std::size_t i = 0; i < children.size(); ++i) {
        if (children[i] == cur) return static_cast<int>(i);
      }
      return -1;
    }
    cur = parent;
  }
  return -1;
}

int HierarchicalDistributor::child_covering_node(std::uint32_t tree_node,
                                                 NodeId n) const {
  const std::uint32_t leaf = tree_->find_leaf(n);
  if (leaf == UINT32_MAX) return -1;
  if (leaf == tree_node) return -1;  // the node itself, not a child
  return child_covering(tree_node, leaf);
}

graph::NetworkGraph HierarchicalDistributor::make_network_graph(
    std::uint32_t tree_node, const graph::QueryGraph& qg) const {
  graph::NetworkGraph ng;
  const auto& tn = tree_->node(tree_node);
  // Children first: child index == network vertex index == clu value.
  for (const std::uint32_t child : tn.children) {
    const auto& cn = tree_->node(child);
    ng.add_vertex({"child@" + std::to_string(cn.site.value()), cn.capability,
                   /*assignable=*/true, cn.site});
  }
  // Anchors for n-vertices not covered by any child.
  for (graph::QueryGraph::VertexIndex i = 0; i < qg.size(); ++i) {
    const auto& v = qg.vertex(i);
    if (!v.is_n() || v.clu >= 0) continue;
    if (ng.find_by_node(v.node) != graph::NetworkGraph::kNone) continue;
    ng.add_vertex({"anchor@" + std::to_string(v.node.value()), 0.0,
                   /*assignable=*/false, v.node});
  }
  ng.finalize_vertices();
  const auto& lat = deployment_->latencies;
  for (graph::NetworkGraph::VertexIndex a = 0; a < ng.size(); ++a) {
    for (graph::NetworkGraph::VertexIndex b = a + 1; b < ng.size(); ++b) {
      ng.set_distance(a, b, lat.latency(ng.vertex(a).node, ng.vertex(b).node));
    }
  }
  return ng;
}

HierarchicalDistributor::Record* HierarchicalDistributor::build_summary(
    std::uint32_t tree_node, std::vector<Record*> fine_records,
    std::vector<Record*>* out_records) {
  // Summarize `fine_records` into at most vmax coarse records tagged with
  // this coordinator. Small inputs pass through unchanged.
  if (fine_records.size() <= params_.vmax) {
    *out_records = std::move(fine_records);
    return nullptr;
  }
  std::vector<graph::QueryVertex> items;
  items.reserve(fine_records.size());
  for (const Record* r : fine_records) items.push_back(r->payload);

  const std::function<int(NodeId)> clu_of = [this, tree_node](NodeId n) {
    return child_covering_node(tree_node, n);
  };
  graph::QueryGraph qg =
      graph::build_query_graph(items, model_, params_.build, &clu_of, rng_);
  const auto coarse = graph::coarsen(qg, params_.vmax, &model_, rng_);

  out_records->clear();
  for (graph::QueryGraph::VertexIndex c = 0; c < coarse.graph.size(); ++c) {
    const auto& cv = coarse.graph.vertex(c);
    if (cv.queries.empty()) continue;  // pure n-vertex, not a record
    auto rec = std::make_unique<Record>();
    rec->payload = cv;
    rec->payload.kind = graph::QVertexKind::kQuery;  // records carry no pin
    rec->payload.node = NodeId::invalid();
    rec->payload.clu = -1;
    rec->origin = tree_node;
    for (const auto fine_idx : coarse.members[c]) {
      if (fine_idx < fine_records.size()) {  // skip merged n-vertices
        rec->parts.push_back(fine_records[fine_idx]);
      }
    }
    out_records->push_back(rec.get());
    arena_.push_back(std::move(rec));
  }
  return nullptr;
}

DistributionTiming HierarchicalDistributor::distribute(
    std::span<const query::InterestProfile> profiles) {
  arena_.clear();
  placement_.clear();
  profiles_.clear();
  for (const auto& p : profiles) profiles_.emplace(p.query, p);

  DistributionTiming timing;
  std::vector<double> up_seconds(tree_->size(), 0.0);

  // Query records grouped by the leaf cluster of their proxy (queries enter
  // the system at their proxies, Section 3.4).
  std::vector<std::vector<Record*>> records_at(tree_->size());
  for (const auto& p : profiles) {
    const std::uint32_t leaf = tree_->leaf_of(p.proxy);
    records_at[leaf].push_back(make_query_record(p));
  }

  // Bottom-up summaries (run conceptually in parallel per subtree).
  std::vector<std::vector<Record*>> summary_of(tree_->size());
  const std::function<void(std::uint32_t)> summarize =
      [&](std::uint32_t tn_idx) {
        const auto& tn = tree_->node(tn_idx);
        std::vector<Record*> gathered = std::move(records_at[tn_idx]);
        double child_path = 0.0;
        for (const std::uint32_t child : tn.children) {
          summarize(child);
          child_path = std::max(child_path, up_seconds[child]);
          gathered.insert(gathered.end(), summary_of[child].begin(),
                          summary_of[child].end());
        }
        const auto start = Clock::now();
        build_summary(tn_idx, std::move(gathered), &summary_of[tn_idx]);
        const double own = seconds_since(start);
        timing.total_seconds += own;
        up_seconds[tn_idx] = child_path + own;
      };

  const std::uint32_t root = tree_->root();
  std::vector<Record*> root_items;
  {
    double up_path = 0.0;
    for (const std::uint32_t child : tree_->node(root).children) {
      summarize(child);
      up_path = std::max(up_path, up_seconds[child]);
      root_items.insert(root_items.end(), summary_of[child].begin(),
                        summary_of[child].end());
    }
    timing.response_seconds = up_path;
  }

  distribute_at(root, std::move(root_items), timing,
                timing.response_seconds);
  rebuild_aggregates();
  return timing;
}

void HierarchicalDistributor::distribute_at(std::uint32_t tree_node,
                                            std::vector<Record*> items,
                                            DistributionTiming& timing,
                                            double path_seconds) {
  const auto& tn = tree_->node(tree_node);
  if (tn.level == 0) {
    place_records(tree_node, items);
    timing.response_seconds = std::max(timing.response_seconds, path_seconds);
    return;
  }
  if (items.empty()) return;

  const auto start = Clock::now();

  std::vector<graph::QueryVertex> payloads;
  payloads.reserve(items.size());
  for (const Record* r : items) payloads.push_back(r->payload);
  const std::function<int(NodeId)> clu_of = [this, tree_node](NodeId n) {
    return child_covering_node(tree_node, n);
  };
  graph::QueryGraph qg = graph::build_query_graph(payloads, model_,
                                                  params_.build, &clu_of, rng_);
  graph::NetworkGraph ng = make_network_graph(tree_node, qg);

  // Map items to children: directly, or through one more coarsening level
  // when the working graph is large (the mapping runs on the coarse graph
  // and the assignment is pushed back to the items, Section 3.5).
  std::vector<graph::NetworkGraph::VertexIndex> item_target(items.size());
  if (items.size() > params_.vmax) {
    const auto coarse = graph::coarsen(qg, params_.vmax, &model_, rng_);
    const auto result =
        graph::map_query_graph(coarse.graph, ng, params_.mapping, rng_);
    for (std::size_t i = 0; i < items.size(); ++i) {
      item_target[i] = result.assignment[coarse.coarse_of[i]];
    }
  } else {
    const auto result = graph::map_query_graph(qg, ng, params_.mapping, rng_);
    for (std::size_t i = 0; i < items.size(); ++i) {
      item_target[i] = result.assignment[i];
    }
  }

  const double own = seconds_since(start);
  timing.total_seconds += own;

  // Uncoarsen one level and recurse per child.
  const std::size_t child_count = tn.children.size();
  std::vector<std::vector<Record*>> child_items(child_count);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto target = item_target[i];
    if (target >= child_count) {
      throw std::logic_error{"distribute_at: item mapped to anchor"};
    }
    if (items[i]->parts.empty()) {
      child_items[target].push_back(items[i]);
    } else {
      child_items[target].insert(child_items[target].end(),
                                 items[i]->parts.begin(),
                                 items[i]->parts.end());
    }
  }
  for (std::size_t c = 0; c < child_count; ++c) {
    distribute_at(tn.children[c], std::move(child_items[c]), timing,
                  path_seconds + own);
  }
}

void HierarchicalDistributor::place_records(std::uint32_t level0_node,
                                            const std::vector<Record*>& items) {
  const NodeId site = tree_->node(level0_node).site;
  std::vector<QueryId> queries;
  for (const Record* r : items) collect_queries(r, queries);
  for (const QueryId q : queries) placement_[q] = site;
}

void HierarchicalDistributor::place_at(
    const std::vector<std::pair<QueryId, NodeId>>& placement,
    std::span<const query::InterestProfile> profiles) {
  profiles_.clear();
  placement_.clear();
  for (const auto& p : profiles) profiles_.emplace(p.query, p);
  for (const auto& [q, node] : placement) {
    if (!profiles_.contains(q)) {
      throw std::invalid_argument{"place_at: unknown query"};
    }
    placement_[q] = node;
  }
  rebuild_aggregates();
}

void HierarchicalDistributor::rebuild_aggregates() {
  for (auto& a : aggregates_) {
    a.interest = BitVector{space_->size()};
    a.load = 0.0;
  }
  for (const auto& [q, node] : placement_) {
    const auto& p = profiles_.at(q);
    std::uint32_t cur = tree_->leaf_of(node);
    while (cur != UINT32_MAX) {
      aggregates_[cur].interest.merge(p.interest);
      aggregates_[cur].load += p.load;
      if (cur == tree_->root()) break;
      cur = tree_->node(cur).parent;
    }
  }
}

NodeId HierarchicalDistributor::insert_query(
    const query::InterestProfile& profile) {
  const auto sources = profile.rate_by_source(*space_);
  const auto& lat = deployment_->latencies;

  std::uint32_t cur = tree_->root();
  while (tree_->node(cur).level > 0) {
    const auto& tn = tree_->node(cur);
    const auto& children = tn.children;
    // Aggregate overlap with each child subtree (the new vertex's q-q edge
    // weights after coarsening to child granularity).
    std::vector<double> overlap(children.size());
    std::vector<double> load(children.size());
    double total_load = profile.load;
    double total_cap = 0.0;
    for (std::size_t j = 0; j < children.size(); ++j) {
      overlap[j] = profile.interest.weighted_intersection(
          aggregates_[children[j]].interest, space_->rates());
      load[j] = aggregates_[children[j]].load;
      total_load += load[j];
      total_cap += tree_->node(children[j]).capability;
    }

    std::size_t best = SIZE_MAX;
    double best_cost = std::numeric_limits<double>::infinity();
    std::size_t best_violating = SIZE_MAX;
    double best_violation = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < children.size(); ++i) {
      const NodeId site_i = tree_->node(children[i]).site;
      double delta = 0.0;
      for (const auto& [src, rate] : sources) {
        delta += rate * lat.latency(site_i, src);
      }
      if (profile.proxy.valid() && profile.output_rate > 0) {
        delta += profile.output_rate * lat.latency(site_i, profile.proxy);
      }
      for (std::size_t j = 0; j < children.size(); ++j) {
        if (j != i && overlap[j] > 0) {
          delta += overlap[j] *
                   lat.latency(site_i, tree_->node(children[j]).site);
        }
      }
      const double cap = (1.0 + params_.mapping.alpha) *
                         tree_->node(children[i]).capability * total_load /
                         total_cap;
      if (load[i] + profile.load <= cap) {
        if (delta < best_cost) {
          best_cost = delta;
          best = i;
        }
      } else {
        const double violation = load[i] + profile.load - cap;
        if (violation < best_violation) {
          best_violation = violation;
          best_violating = i;
        }
      }
    }
    cur = children[best != SIZE_MAX ? best : best_violating];
  }

  const NodeId site = tree_->node(cur).site;
  profiles_[profile.query] = profile;
  placement_[profile.query] = site;
  // Update aggregates along the leaf->root path.
  std::uint32_t up = cur;
  while (up != UINT32_MAX) {
    aggregates_[up].interest.merge(profile.interest);
    aggregates_[up].load += profile.load;
    if (up == tree_->root()) break;
    up = tree_->node(up).parent;
  }
  return site;
}

void HierarchicalDistributor::remove_query(QueryId q) {
  const auto it = placement_.find(q);
  if (it == placement_.end()) return;
  const auto& p = profiles_.at(q);
  std::uint32_t up = tree_->leaf_of(it->second);
  // Loads shrink exactly; interest unions stay conservative (a superset)
  // until the next rebuild, matching the paper's periodic statistics flow.
  while (up != UINT32_MAX) {
    aggregates_[up].load = std::max(0.0, aggregates_[up].load - p.load);
    if (up == tree_->root()) break;
    up = tree_->node(up).parent;
  }
  placement_.erase(it);
  profiles_.erase(q);
}

void HierarchicalDistributor::refresh_statistics() {
  for (auto& [q, p] : profiles_) query::refresh_load(p, *space_);
  rebuild_aggregates();
}

std::vector<double> HierarchicalDistributor::processor_loads() const {
  std::vector<double> loads(deployment_->processors.size(), 0.0);
  std::unordered_map<NodeId, std::size_t> index;
  for (std::size_t i = 0; i < deployment_->processors.size(); ++i) {
    index.emplace(deployment_->processors[i], i);
  }
  for (const auto& [q, node] : placement_) {
    loads[index.at(node)] += profiles_.at(q).load;
  }
  return loads;
}

AdaptationReport HierarchicalDistributor::adapt() {
  const auto before = placement_;
  arena_.clear();

  // Rebuild summaries bottom-up over the *current* placement.
  std::vector<std::vector<Record*>> records_at(tree_->size());
  for (const auto& [q, node] : placement_) {
    Record* rec = make_query_record(profiles_.at(q));
    rec->origin = tree_->leaf_of(node);
    records_at[rec->origin].push_back(rec);
  }
  std::vector<std::vector<Record*>> summary_of(tree_->size());
  const std::function<void(std::uint32_t)> summarize =
      [&](std::uint32_t tn_idx) {
        const auto& tn = tree_->node(tn_idx);
        std::vector<Record*> gathered = std::move(records_at[tn_idx]);
        for (const std::uint32_t child : tn.children) {
          summarize(child);
          gathered.insert(gathered.end(), summary_of[child].begin(),
                          summary_of[child].end());
        }
        build_summary(tn_idx, std::move(gathered), &summary_of[tn_idx]);
      };

  const std::uint32_t root = tree_->root();
  std::vector<Record*> root_items;
  for (const std::uint32_t child : tree_->node(root).children) {
    summarize(child);
    root_items.insert(root_items.end(), summary_of[child].begin(),
                      summary_of[child].end());
  }

  adapt_at(root, std::move(root_items));
  rebuild_aggregates();

  AdaptationReport report;
  for (const auto& [q, node] : placement_) {
    const auto it = before.find(q);
    if (it != before.end() && it->second != node) {
      ++report.migrated_queries;
      report.migrated_state += profiles_.at(q).state_size;
    }
  }
  return report;
}

void HierarchicalDistributor::adapt_at(std::uint32_t tree_node,
                                       std::vector<Record*> items) {
  const auto& tn = tree_->node(tree_node);
  if (tn.level == 0) {
    place_records(tree_node, items);
    return;
  }
  if (items.empty()) {
    // Still recurse so emptied subtrees clear out their members.
    for (const std::uint32_t child : tn.children) adapt_at(child, {});
    return;
  }

  std::vector<graph::QueryVertex> payloads;
  payloads.reserve(items.size());
  for (const Record* r : items) payloads.push_back(r->payload);
  const std::function<int(NodeId)> clu_of = [this, tree_node](NodeId n) {
    return child_covering_node(tree_node, n);
  };
  graph::QueryGraph qg = graph::build_query_graph(payloads, model_,
                                                  params_.build, &clu_of, rng_);
  graph::NetworkGraph ng = make_network_graph(tree_node, qg);
  const std::size_t child_count = tn.children.size();

  const std::vector<double> caps =
      graph::load_caps(qg, ng, params_.mapping.alpha);
  std::vector<double> load(ng.size(), 0.0);
  std::vector<graph::NetworkGraph::VertexIndex> assign(qg.size(),
                                                       graph::NetworkGraph::kNone);
  std::vector<char> dirty(items.size(), 0);
  std::vector<int> original(items.size(), -1);

  // Pin n-vertices; items keep their current child or are greedily placed
  // when they migrated in from another subtree.
  for (graph::QueryGraph::VertexIndex i = 0; i < qg.size(); ++i) {
    if (qg.vertex(i).is_n()) {
      assign[i] = graph::pinned_target(qg.vertex(i), ng);
    }
  }
  std::vector<std::size_t> incoming;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const int cc = child_covering(tree_node, items[i]->origin);
    if (cc >= 0) {
      assign[i] = static_cast<graph::NetworkGraph::VertexIndex>(cc);
      original[i] = cc;
      load[cc] += items[i]->payload.weight;
    } else {
      incoming.push_back(i);
    }
  }
  for (const std::size_t i : incoming) {
    const auto k = graph::place_one(qg, ng, assign,
                                    static_cast<graph::QueryGraph::VertexIndex>(i),
                                    load, caps);
    assign[i] = k;
    load[k] += items[i]->payload.weight;
    dirty[i] = 1;
  }

  // ---- Phase 1: load re-balancing via diffusion (Algorithm 3) ----
  {
    const double total_cap = ng.total_capability();
    const double total_load = qg.total_query_weight();
    std::vector<double> imbalance(child_count, 0.0);
    for (std::size_t c = 0; c < child_count; ++c) {
      const double target =
          total_cap > 0 ? ng.vertex(static_cast<graph::NetworkGraph::VertexIndex>(c))
                                  .capability *
                              total_load / total_cap
                        : 0.0;
      imbalance[c] = load[c] - target;
    }
    std::vector<DiffusionEdge> edges;
    for (std::size_t a = 0; a < child_count; ++a) {
      for (std::size_t b = a + 1; b < child_count; ++b) {
        edges.push_back({a, b, 1.0});
      }
    }
    auto flows = solve_diffusion(child_count, edges, imbalance);
    rng_.shuffle(flows);

    for (auto& flow : flows) {
      double remaining = flow.amount;
      while (remaining > 0) {
        // Candidate vertices on the overloaded side, ranked by benefit.
        double max_benefit = -std::numeric_limits<double>::infinity();
        std::vector<std::size_t> on_from;
        std::vector<double> benefit_of(items.size(), 0.0);
        for (std::size_t i = 0; i < items.size(); ++i) {
          if (assign[i] != flow.from) continue;
          const double b = graph::remap_gain(
              qg, ng, assign, static_cast<graph::QueryGraph::VertexIndex>(i),
              static_cast<graph::NetworkGraph::VertexIndex>(flow.to));
          on_from.push_back(i);
          benefit_of[i] = b;
          max_benefit = std::max(max_benefit, b);
        }
        if (on_from.empty()) break;
        const double window =
            std::abs(max_benefit) * params_.rebalance_x_percent / 100.0;
        std::vector<std::size_t> V;
        for (const std::size_t i : on_from) {
          if (benefit_of[i] >= max_benefit - window) V.push_back(i);
        }
        std::vector<std::size_t> Vd;
        for (const std::size_t i : V) {
          if (dirty[i]) Vd.push_back(i);
        }
        if (Vd.empty()) Vd = V;
        // Densest vertex whose weight the remaining flow mostly covers.
        std::size_t pick = SIZE_MAX;
        double best_density = -1.0;
        for (const std::size_t i : Vd) {
          const double w = items[i]->payload.weight;
          if (w <= 0 || remaining < params_.diffusion_fill * w) continue;
          const double density =
              w / std::max(1.0, items[i]->payload.state_size);
          if (density > best_density) {
            best_density = density;
            pick = i;
          }
        }
        if (pick == SIZE_MAX) break;
        const double w = items[pick]->payload.weight;
        load[flow.from] -= w;
        load[flow.to] += w;
        assign[pick] = static_cast<graph::NetworkGraph::VertexIndex>(flow.to);
        dirty[pick] = 1;
        remaining -= w;
      }
    }
  }

  // ---- Phase 2: distribution refinement ----
  {
    std::vector<std::size_t> order(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) order[i] = i;
    rng_.shuffle(order);
    for (const std::size_t i : order) {
      const double w = items[i]->payload.weight;
      const auto vi = static_cast<graph::QueryGraph::VertexIndex>(i);
      // (1) Move a displaced vertex home when that keeps load balance and
      //     does not worsen the WEC (undoes profitless migrations).
      if (original[i] >= 0 &&
          assign[i] != static_cast<std::uint32_t>(original[i])) {
        const auto home =
            static_cast<graph::NetworkGraph::VertexIndex>(original[i]);
        if (load[home] + w <= caps[home] &&
            graph::remap_gain(qg, ng, assign, vi, home) >= 0) {
          load[assign[i]] -= w;
          load[home] += w;
          assign[i] = home;
          dirty[i] = 0;
          continue;
        }
      }
      // (2) Move to a child that strictly reduces the WEC within load.
      graph::NetworkGraph::VertexIndex best = graph::NetworkGraph::kNone;
      double best_gain = 0.0;
      for (std::size_t c = 0; c < child_count; ++c) {
        const auto k = static_cast<graph::NetworkGraph::VertexIndex>(c);
        if (k == assign[i] || load[k] + w > caps[k]) continue;
        const double gain = graph::remap_gain(qg, ng, assign, vi, k);
        if (gain > best_gain) {
          best_gain = gain;
          best = k;
        }
      }
      if (best != graph::NetworkGraph::kNone) {
        load[assign[i]] -= w;
        load[best] += w;
        assign[i] = best;
        dirty[i] = 1;
      }
    }
  }

  // Recurse with one-level-finer items.
  std::vector<std::vector<Record*>> child_items(child_count);
  for (std::size_t i = 0; i < items.size(); ++i) {
    auto& bucket = child_items[assign[i]];
    if (items[i]->parts.empty()) {
      bucket.push_back(items[i]);
    } else {
      bucket.insert(bucket.end(), items[i]->parts.begin(),
                    items[i]->parts.end());
    }
  }
  for (std::size_t c = 0; c < child_count; ++c) {
    adapt_at(tn.children[c], std::move(child_items[c]));
  }
}

}  // namespace cosmos::coord
