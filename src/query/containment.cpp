#include "query/containment.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <unordered_map>

namespace cosmos::query {
namespace {

using stream::CmpOp;
using stream::CompareConst;
using stream::CompareField;
using stream::FieldRef;
using stream::Predicate;
using stream::PredicatePtr;
using stream::TimeBand;

/// Canonical text for a predicate leaf; CompareField leaves are oriented so
/// the lexically-smaller side is on the left (a > b and b < a compare equal).
std::string canonical(const PredicatePtr& p) {
  if (p->kind() == Predicate::Kind::kCompareField) {
    const auto& cf = static_cast<const CompareField&>(*p);
    if (cf.rhs().to_string() < cf.lhs().to_string()) {
      return cf.rhs().to_string() + " " +
             stream::to_string(stream::flip(cf.op())) + " " +
             cf.lhs().to_string();
    }
  }
  return p->to_string();
}

/// Rewrites alias names in a predicate tree; unknown aliases pass through.
PredicatePtr rename_aliases(
    const PredicatePtr& p,
    const std::unordered_map<std::string, std::string>& map) {
  const auto rename = [&map](const FieldRef& f) {
    const auto it = map.find(f.alias);
    return it == map.end() ? f : FieldRef{it->second, f.field};
  };
  switch (p->kind()) {
    case Predicate::Kind::kTrue:
      return p;
    case Predicate::Kind::kCompareConst: {
      const auto& cc = static_cast<const CompareConst&>(*p);
      return Predicate::cmp(rename(cc.lhs()), cc.op(), cc.rhs());
    }
    case Predicate::Kind::kCompareField: {
      const auto& cf = static_cast<const CompareField&>(*p);
      return Predicate::cmp(rename(cf.lhs()), cf.op(), rename(cf.rhs()));
    }
    case Predicate::Kind::kTimeBand: {
      const auto& tb = static_cast<const TimeBand&>(*p);
      return Predicate::time_band(rename(tb.newer()), rename(tb.older()),
                                  tb.band_ms());
    }
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr: {
      const auto& bj = static_cast<const stream::BoolJunction&>(*p);
      std::vector<PredicatePtr> children;
      children.reserve(bj.children().size());
      for (const auto& c : bj.children()) {
        children.push_back(rename_aliases(c, map));
      }
      return p->kind() == Predicate::Kind::kAnd
                 ? Predicate::conj(std::move(children))
                 : Predicate::disj(std::move(children));
    }
    case Predicate::Kind::kNot: {
      const auto& np = static_cast<const stream::NotPredicate&>(*p);
      return Predicate::negate(rename_aliases(np.child(), map));
    }
  }
  return p;
}

/// Conjuncts of q.where, or nullopt if the WHERE is not a pure conjunction.
std::optional<std::vector<PredicatePtr>> conjuncts_of(const QuerySpec& q) {
  std::vector<PredicatePtr> out;
  if (!stream::collect_conjuncts(q.where, out)) return std::nullopt;
  return out;
}

/// Alias map from b's aliases to a's, matching sources by stream name. A
/// stream read by several aliases (a self-join) pairs its aliases in source
/// order, so the left alias stays left: a row reaches a self-join's left
/// side before its right side, and a merge must not swap the two. nullopt
/// when the two queries do not read the same streams equally often.
std::optional<std::unordered_map<std::string, std::string>> alias_map_b_to_a(
    const QuerySpec& a, const QuerySpec& b) {
  if (a.sources.size() != b.sources.size()) return std::nullopt;
  std::unordered_map<std::string, std::string> map;
  std::vector<bool> taken(a.sources.size(), false);
  for (const auto& s : b.sources) {
    std::size_t j = 0;
    while (j < a.sources.size() &&
           (taken[j] || a.sources[j].stream != s.stream)) {
      ++j;
    }
    if (j == a.sources.size()) return std::nullopt;
    taken[j] = true;
    map.emplace(s.alias, a.sources[j].alias);
  }
  return map;
}

/// True if the leaf references more than one alias (a join conjunct).
bool is_join_conjunct(const PredicatePtr& p) {
  if (p->kind() == Predicate::Kind::kCompareField) {
    const auto& cf = static_cast<const CompareField&>(*p);
    return cf.lhs().alias != cf.rhs().alias;
  }
  if (p->kind() == Predicate::Kind::kTimeBand) {
    const auto& tb = static_cast<const TimeBand&>(*p);
    return tb.newer().alias != tb.older().alias;
  }
  return false;
}

std::multiset<std::string> canonical_set(const std::vector<PredicatePtr>& v) {
  std::multiset<std::string> out;
  for (const auto& p : v) out.insert(canonical(p));
  return out;
}

/// Select list as a set of "alias.field" with "alias.*" wildcards expanded
/// lazily: wildcard is represented as "alias.*" and absorbs specific fields.
struct SelectSet {
  bool all = false;  // SELECT *
  std::set<std::string> wildcard_aliases;
  std::set<std::pair<std::string, std::string>> fields;  // (alias, field)

  void add(const SelectItem& item) {
    if (item.is_wildcard()) {
      wildcard_aliases.insert(item.alias);
    } else {
      fields.emplace(item.alias, item.field);
    }
  }
  [[nodiscard]] bool covers(const SelectSet& other) const {
    if (all) return true;
    if (other.all) return false;
    for (const auto& w : other.wildcard_aliases) {
      if (!wildcard_aliases.contains(w)) return false;
    }
    for (const auto& f : other.fields) {
      if (!wildcard_aliases.contains(f.first) && !fields.contains(f)) {
        return false;
      }
    }
    return true;
  }
};

SelectSet select_set(const QuerySpec& q,
                     const std::unordered_map<std::string, std::string>* map) {
  SelectSet s;
  s.all = q.select_all;
  for (const auto& item : q.select) {
    std::string alias = item.alias;
    if (map != nullptr) {
      const auto it = map->find(alias);
      if (it != map->end()) alias = it->second;
    }
    s.add({alias, item.field});
  }
  return s;
}

}  // namespace

stream::PredicatePtr rename_predicate_aliases(
    const stream::PredicatePtr& p,
    const std::unordered_map<std::string, std::string>& map) {
  return rename_aliases(p, map);
}

ResultSplit make_result_split(const QuerySpec& original,
                              const QuerySpec& merged) {
  if (!contains(merged, original)) {
    throw std::invalid_argument{
        "make_result_split: merged does not contain original"};
  }
  const auto map = alias_map_b_to_a(merged, original);  // original -> merged
  ResultSplit split;
  split.original = original.id;

  const auto merged_conj = conjuncts_of(merged);
  const auto orig_conj_raw = conjuncts_of(original);
  const auto merged_set = canonical_set(*merged_conj);
  for (const auto& p : *orig_conj_raw) {
    const auto renamed = rename_aliases(p, *map);
    if (!merged_set.contains(canonical(renamed))) {
      split.residual_filters.push_back(renamed);
    }
  }
  for (const auto& src : original.sources) {
    const auto it = map->find(src.alias);
    const SourceRef* m_src = merged.source_by_alias(it->second);
    if (m_src->window.extent_ms() > src.window.extent_ms()) {
      split.window_bands.push_back({it->second, src.window.extent_ms()});
    }
  }
  split.select_all = original.select_all;
  for (const auto& item : original.select) {
    const auto it = map->find(item.alias);
    split.select.push_back(
        {it == map->end() ? item.alias : it->second, item.field});
  }
  return split;
}

bool equivalent(const PredicatePtr& a, const PredicatePtr& b) {
  std::vector<PredicatePtr> ca, cb;
  if (stream::collect_conjuncts(a, ca) && stream::collect_conjuncts(b, cb)) {
    return canonical_set(ca) == canonical_set(cb);
  }
  return a->to_string() == b->to_string();
}

bool contains(const QuerySpec& sup, const QuerySpec& sub) {
  const auto map = alias_map_b_to_a(sup, sub);
  if (!map) return false;

  // Windows: sup must be at least as wide on every source.
  for (const auto& s_sub : sub.sources) {
    const auto it = map->find(s_sub.alias);
    const SourceRef* s_sup = sup.source_by_alias(it->second);
    if (s_sup == nullptr || !s_sup->window.covers(s_sub.window)) return false;
  }

  // Predicates: every sup conjunct must appear among sub's conjuncts
  // (sup is less restrictive).
  const auto sup_conj = conjuncts_of(sup);
  auto sub_conj_raw = conjuncts_of(sub);
  if (!sup_conj || !sub_conj_raw) return false;
  std::vector<PredicatePtr> sub_conj;
  sub_conj.reserve(sub_conj_raw->size());
  for (const auto& p : *sub_conj_raw) {
    sub_conj.push_back(rename_aliases(p, *map));
  }
  const auto sub_set = canonical_set(sub_conj);
  for (const auto& p : *sup_conj) {
    if (!sub_set.contains(canonical(p))) return false;
  }

  // Projection: sup must emit every column sub emits.
  return select_set(sup, nullptr).covers(select_set(sub, &*map));
}

std::optional<MergedQuery> merge_queries(const QuerySpec& a,
                                         const QuerySpec& b,
                                         QueryId merged_id) {
  const auto map = alias_map_b_to_a(a, b);
  if (!map) return std::nullopt;

  const auto a_conj = conjuncts_of(a);
  const auto b_conj_raw = conjuncts_of(b);
  if (!a_conj || !b_conj_raw) return std::nullopt;
  std::vector<PredicatePtr> b_conj;
  b_conj.reserve(b_conj_raw->size());
  for (const auto& p : *b_conj_raw) {
    b_conj.push_back(rename_aliases(p, *map));
  }

  // Join conjuncts must agree exactly; different join conditions mean the
  // results do not overlap structurally.
  std::vector<PredicatePtr> a_joins, b_joins;
  for (const auto& p : *a_conj) {
    if (is_join_conjunct(p)) a_joins.push_back(p);
  }
  for (const auto& p : b_conj) {
    if (is_join_conjunct(p)) b_joins.push_back(p);
  }
  if (canonical_set(a_joins) != canonical_set(b_joins)) return std::nullopt;

  // Common selection conjuncts stay in the merged query; the rest become
  // per-original residual filters.
  const auto b_set = canonical_set(b_conj);
  const auto a_set = canonical_set(*a_conj);
  std::vector<PredicatePtr> common, residual_a, residual_b;
  for (const auto& p : *a_conj) {
    if (b_set.contains(canonical(p))) {
      common.push_back(p);
    } else {
      residual_a.push_back(p);
    }
  }
  for (const auto& p : b_conj) {
    if (!a_set.contains(canonical(p))) residual_b.push_back(p);
  }

  MergedQuery out;
  out.merged.id = merged_id;
  out.merged.proxy = a.proxy;
  out.merged.where = stream::Predicate::conj(common);

  // Sources: wider window per stream; record bands for the narrower side.
  out.split_a.original = a.id;
  out.split_b.original = b.id;
  for (const auto& sa : a.sources) {
    const auto* sb = [&]() -> const SourceRef* {
      for (const auto& s : b.sources) {
        if (map->at(s.alias) == sa.alias) return &s;
      }
      return nullptr;
    }();
    SourceRef merged_src = sa;
    merged_src.window =
        sa.window.covers(sb->window) ? sa.window : sb->window;
    out.merged.sources.push_back(merged_src);

    if (!sa.window.covers(sb->window) &&
        sa.window.extent_ms() < merged_src.window.extent_ms()) {
      out.split_a.window_bands.push_back({sa.alias, sa.window.extent_ms()});
    }
    if (!sb->window.covers(sa.window) &&
        sb->window.extent_ms() < merged_src.window.extent_ms()) {
      out.split_b.window_bands.push_back({sa.alias, sb->window.extent_ms()});
    }
  }

  out.split_a.residual_filters = std::move(residual_a);
  out.split_b.residual_filters = std::move(residual_b);
  out.split_a.select_all = a.select_all;
  out.split_a.select = a.select;
  out.split_b.select_all = b.select_all;
  for (const auto& item : b.select) {
    const auto it = map->find(item.alias);
    out.split_b.select.push_back(
        {it == map->end() ? item.alias : it->second, item.field});
  }

  // Merged projection: union of both select lists, plus the columns the
  // residual filters and window bands will need downstream.
  if (a.select_all || b.select_all) {
    out.merged.select_all = true;
  } else {
    SelectSet u = select_set(a, nullptr);
    const SelectSet sb_set = select_set(b, &*map);
    u.wildcard_aliases.insert(sb_set.wildcard_aliases.begin(),
                              sb_set.wildcard_aliases.end());
    u.fields.insert(sb_set.fields.begin(), sb_set.fields.end());

    const auto need_field = [&u](const FieldRef& f) {
      if (!f.alias.empty() && !u.wildcard_aliases.contains(f.alias)) {
        u.fields.emplace(f.alias, f.field);
      }
    };
    for (const auto* split : {&out.split_a, &out.split_b}) {
      for (const auto& band : split->window_bands) {
        need_field({band.alias, "timestamp"});
      }
      for (const auto& p : split->residual_filters) {
        std::vector<PredicatePtr> leaves;
        stream::collect_conjuncts(p, leaves);
        for (const auto& leaf : leaves) {
          if (leaf->kind() == Predicate::Kind::kCompareConst) {
            need_field(static_cast<const CompareConst&>(*leaf).lhs());
          } else if (leaf->kind() == Predicate::Kind::kCompareField) {
            need_field(static_cast<const CompareField&>(*leaf).lhs());
            need_field(static_cast<const CompareField&>(*leaf).rhs());
          } else if (leaf->kind() == Predicate::Kind::kTimeBand) {
            need_field(static_cast<const TimeBand&>(*leaf).newer());
            need_field(static_cast<const TimeBand&>(*leaf).older());
          }
        }
      }
    }
    // Window bands compare against the newest timestamp in the result; make
    // sure every source's timestamp is available when any band exists.
    if (!out.split_a.window_bands.empty() ||
        !out.split_b.window_bands.empty()) {
      for (const auto& s : out.merged.sources) {
        need_field({s.alias, "timestamp"});
      }
    }

    for (const auto& w : u.wildcard_aliases) {
      out.merged.select.push_back({w, ""});
    }
    for (const auto& [alias, field] : u.fields) {
      if (!u.wildcard_aliases.contains(alias)) {
        out.merged.select.push_back({alias, field});
      }
    }
    out.merged.select_all = false;
  }
  return out;
}

}  // namespace cosmos::query
