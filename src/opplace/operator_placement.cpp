#include "opplace/operator_placement.h"

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>

#include "common/clock.h"
#include "query/containment.h"

namespace cosmos::opplace {
namespace {

using query::QuerySpec;
using stream::Predicate;
using stream::PredicatePtr;

/// Single-alias selection conjuncts of `spec` for `alias`, alias-stripped.
PredicatePtr selection_of(const QuerySpec& spec, const std::string& alias) {
  std::vector<PredicatePtr> all;
  std::vector<PredicatePtr> mine;
  if (!stream::collect_conjuncts(spec.where, all)) {
    return Predicate::always_true();
  }
  const std::unordered_map<std::string, std::string> strip{{alias, ""}};
  for (const auto& p : all) {
    const auto refs = [&]() -> std::vector<stream::FieldRef> {
      switch (p->kind()) {
        case Predicate::Kind::kCompareConst:
          return {static_cast<const stream::CompareConst&>(*p).lhs()};
        case Predicate::Kind::kCompareField: {
          const auto& cf = static_cast<const stream::CompareField&>(*p);
          return {cf.lhs(), cf.rhs()};
        }
        default:
          return {};
      }
    }();
    if (refs.empty()) continue;
    bool only_this = true;
    for (const auto& r : refs) {
      if (r.alias != alias) only_this = false;
    }
    if (only_this) {
      mine.push_back(query::rename_predicate_aliases(p, strip));
    }
  }
  return Predicate::conj(std::move(mine));
}

double tuple_bytes(const stream::Tuple& t) {
  double bytes = 16.0;  // header
  for (const auto& v : t.values) {
    bytes += v.type() == stream::ValueType::kString
                 ? static_cast<double>(v.as_string().size())
                 : 8.0;
  }
  return bytes;
}

}  // namespace

OperatorPlacementSystem::OperatorPlacementSystem(
    std::map<std::string, SourceStream> sources,
    std::vector<NodeId> processors, const net::LatencyMatrix& lat,
    double alpha)
    : sources_(std::move(sources)),
      processors_(std::move(processors)),
      lat_(&lat),
      alpha_(alpha) {
  if (processors_.empty()) {
    throw std::invalid_argument{"OperatorPlacementSystem: no processors"};
  }
}

void OperatorPlacementSystem::deploy(std::span<const query::QuerySpec> queries,
                                     Rng& rng) {
  const auto start = Clock::now();

  // ---- Phase 1: global operator graph with shared selections ----
  struct PerQuery {
    const QuerySpec* spec;
    std::vector<std::pair<std::string, std::string>> sig_keys;  // per source
    double input_weight = 0.0;  // placement load proxy
  };
  std::vector<PerQuery> per_query;
  per_query.reserve(queries.size());
  for (const auto& q : queries) {
    PerQuery pq;
    pq.spec = &q;
    for (const auto& src : q.sources) {
      auto filter = selection_of(q, src.alias);
      const std::pair<std::string, std::string> key{src.stream,
                                                    filter->to_string()};
      auto [it, inserted] = signatures_.try_emplace(
          key, Signature{src.stream, std::move(filter), {}});
      (void)it;
      pq.sig_keys.push_back(key);
      pq.input_weight += 1.0;  // one stream's worth of input
    }
    per_query.push_back(std::move(pq));
  }
  stats_.selection_signatures = signatures_.size();
  stats_.evaluation_ops = queries.size();

  // NiagaraCQ-style group optimization: pairwise containment analysis over
  // the collected expression signatures (the paper's phase 1 "optimized
  // global operator graph"). This is the quadratically-growing part of the
  // baseline; the result (coverage relations) would drive group sharing.
  {
    std::vector<const Signature*> sigs;
    sigs.reserve(signatures_.size());
    for (const auto& [key, sig] : signatures_) sigs.push_back(&sig);
    std::size_t coverages = 0;
    for (std::size_t i = 0; i < sigs.size(); ++i) {
      for (std::size_t j = 0; j < sigs.size(); ++j) {
        if (i == j || sigs[i]->stream != sigs[j]->stream) continue;
        std::vector<PredicatePtr> ci, cj;
        if (!stream::collect_conjuncts(sigs[i]->filter, ci) ||
            !stream::collect_conjuncts(sigs[j]->filter, cj)) {
          continue;
        }
        std::set<std::string> j_set;
        for (const auto& p : cj) j_set.insert(p->to_string());
        bool covers = true;
        for (const auto& p : ci) {
          if (!j_set.contains(p->to_string())) covers = false;
        }
        if (covers) ++coverages;
      }
    }
    (void)coverages;
  }

  // ---- Phase 2: place each evaluation operator ----
  // Cost of hosting query q at processor p: sum over inputs of
  // d(source, p) plus d(p, proxy), all equally rate-weighted (the
  // per-signature rates are only known at runtime; the optimizer uses the
  // static estimate, as the baseline papers do).
  const double total_weight = [&] {
    double w = 0;
    for (const auto& pq : per_query) w += pq.input_weight;
    return w;
  }();
  const double cap = (1.0 + alpha_) * total_weight /
                     static_cast<double>(processors_.size());
  std::vector<double> load(processors_.size(), 0.0);

  const auto host_cost = [&](const PerQuery& pq, NodeId p) {
    double c = 0.0;
    for (const auto& src : pq.spec->sources) {
      c += lat_->latency(sources_.at(src.stream).node, p);
    }
    if (pq.spec->proxy.valid()) c += lat_->latency(p, pq.spec->proxy);
    return c;
  };

  std::vector<std::size_t> chosen(per_query.size());
  for (std::size_t i = 0; i < per_query.size(); ++i) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_p = 0;
    for (std::size_t p = 0; p < processors_.size(); ++p) {
      if (load[p] + per_query[i].input_weight > cap) continue;
      const double c = host_cost(per_query[i], processors_[p]);
      if (c < best) {
        best = c;
        best_p = p;
      }
    }
    chosen[i] = best_p;
    load[best_p] += per_query[i].input_weight;
  }
  // Local improvement sweeps, to convergence ([3]'s iterative refinement).
  for (int sweep = 0; sweep < 25; ++sweep) {
    bool changed = false;
    std::vector<std::size_t> order(per_query.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.shuffle(order);
    for (const auto i : order) {
      const double cur = host_cost(per_query[i], processors_[chosen[i]]);
      for (std::size_t p = 0; p < processors_.size(); ++p) {
        if (p == chosen[i] ||
            load[p] + per_query[i].input_weight > cap) {
          continue;
        }
        if (host_cost(per_query[i], processors_[p]) < cur) {
          load[chosen[i]] -= per_query[i].input_weight;
          load[p] += per_query[i].input_weight;
          chosen[i] = p;
          changed = true;
          break;
        }
      }
    }
    if (!changed) break;
  }
  stats_.optimize_seconds = seconds_since(start);

  // ---- Instantiate plans and consumer lists ----
  for (std::size_t i = 0; i < per_query.size(); ++i) {
    const NodeId host = processors_[chosen[i]];
    DeployedQuery dq;
    dq.spec = *per_query[i].spec;
    dq.host = host;
    auto& engine = engines_[host];
    if (!engine) engine = std::make_unique<stream::Engine>();
    for (const auto& src : dq.spec.sources) {
      if (!engine->has_stream(src.stream)) {
        engine->register_stream(src.stream,
                                sources_.at(src.stream).schema);
      }
    }
    dq.result_stream =
        "opplace.result." + std::to_string(dq.spec.id.value());
    dq.plan = std::make_unique<query::CompiledQuery>(*engine, dq.spec,
                                                     dq.result_stream);
    // Result delivery accounting.
    const NodeId proxy = dq.spec.proxy;
    engine->attach(dq.result_stream,
                   [this, host, proxy](const stream::Tuple& t) {
                     ++results_delivered_;
                     if (proxy.valid() && proxy != host) {
                       const double b = tuple_bytes(t);
                       traffic_.bytes += b;
                       traffic_.weighted_cost +=
                           b * lat_->latency(host, proxy);
                     }
                   });
    host_.emplace(dq.spec.id, host);
    for (const auto& key : per_query[i].sig_keys) {
      auto& sig = signatures_.at(key);
      if (std::find(sig.consumer_hosts.begin(), sig.consumer_hosts.end(),
                    host) == sig.consumer_hosts.end()) {
        sig.consumer_hosts.push_back(host);
      }
    }
    queries_.push_back(std::move(dq));
  }
}

void OperatorPlacementSystem::push(const std::string& stream,
                                   const stream::Tuple& tuple) {
  const auto src_it = sources_.find(stream);
  if (src_it == sources_.end()) {
    throw std::invalid_argument{"OperatorPlacementSystem: unknown stream " +
                                stream};
  }
  const auto& schema = src_it->second.schema;
  const NodeId origin = src_it->second.node;
  const std::vector<stream::Binding> env{{"", &schema, &tuple}};
  const double bytes = tuple_bytes(tuple);

  // Run every shared selection on this stream at the source; ship passing
  // tuples once per (signature, consumer host) pair — client-server, no
  // cross-signature sharing.
  std::set<NodeId> fed;
  for (auto& [key, sig] : signatures_) {
    if (sig.stream != stream) continue;
    if (!sig.filter->eval(env)) continue;
    for (const NodeId host : sig.consumer_hosts) {
      traffic_.bytes += bytes;
      traffic_.weighted_cost += bytes * lat_->latency(origin, host);
      fed.insert(host);
    }
  }
  // Hosts receiving at least one copy evaluate their plans (plans re-apply
  // their own filters, so a single engine publish per host is correct).
  for (const NodeId host : fed) {
    auto& engine = engines_.at(host);
    if (engine->has_stream(stream)) engine->publish(stream, tuple);
  }
}

}  // namespace cosmos::opplace
