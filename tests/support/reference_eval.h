// Naive reference evaluator: the oracle every differential suite checks the
// execution modes against. It shares no execution code with them.
//
// Each user query is evaluated on its own, over the globally ordered
// trace, with no unit merging, no pub/sub broker, no compiled predicates
// and none of the src/stream operators:
//  - predicates run through the interpreted stream::Predicate::eval;
//  - windows run through stream::WindowSpec::contains;
//  - a two-way window join is a nested loop that never prunes. On each
//    arrival it probes the other side's buffer in arrival order, then
//    inserts the tuple. A tuple on a stream that feeds both aliases (a
//    self-join) arrives on the left first.
// One- and two-source queries are supported; a larger query throws.
// Header-only: the test build compiles only *_test.cpp files.
#pragma once

#include <algorithm>
#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cql/parser.h"
#include "query/query_spec.h"
#include "runtime/driver.h"
#include "sim/sensor_trace.h"
#include "stream/predicate.h"
#include "stream/schema.h"
#include "stream/window.h"
#include "support/random_workload.h"

namespace cosmos::middleware::testsupport {

/// A two-way sliding-window join as a nested loop over unpruned buffers.
class NestedLoopJoin {
 public:
  struct Side {
    std::string alias;
    const stream::Schema* schema = nullptr;
    stream::WindowSpec window;
  };

  NestedLoopJoin(Side left, Side right, stream::PredicatePtr predicate)
      : left_(std::move(left)),
        right_(std::move(right)),
        predicate_(std::move(predicate)) {}

  /// One arrival on the left (`on_left`) or right side. Calls
  /// emit(left_tuple, right_tuple) for every buffered tuple of the other
  /// side, in arrival order, that is inside that side's window at `t.ts`
  /// and satisfies the predicate; then buffers `t`.
  template <typename Emit>
  void arrive(bool on_left, const stream::Tuple& t, Emit&& emit) {
    const auto& other = on_left ? right_buf_ : left_buf_;
    const Side& other_side = on_left ? right_ : left_;
    for (const stream::Tuple& c : other) {
      if (!other_side.window.contains(c.ts, t.ts)) continue;
      const stream::Tuple& l = on_left ? t : c;
      const stream::Tuple& r = on_left ? c : t;
      const std::vector<stream::Binding> env{
          {left_.alias, left_.schema, &l}, {right_.alias, right_.schema, &r}};
      if (predicate_->eval(env)) emit(l, r);
    }
    (on_left ? left_buf_ : right_buf_).push_back(t);
  }

  /// The join output row of a match: left values then right values,
  /// stamped with the newer timestamp.
  [[nodiscard]] static stream::Tuple concat(const stream::Tuple& l,
                                            const stream::Tuple& r) {
    stream::Tuple out{std::max(l.ts, r.ts), l.values};
    out.values.insert(out.values.end(), r.values.begin(), r.values.end());
    return out;
  }

 private:
  Side left_;
  Side right_;
  stream::PredicatePtr predicate_;
  std::vector<stream::Tuple> left_buf_;
  std::vector<stream::Tuple> right_buf_;
};

/// The result columns of `spec`, as field references resolved against
/// the bound source tuples. SELECT * and `alias.*` expand to every schema
/// field of the alias, plus its "timestamp" pseudo-field when the schema
/// has no such column.
inline std::vector<stream::FieldRef> reference_columns(
    const query::QuerySpec& spec,
    const std::map<std::string, stream::Schema>& schemas) {
  std::vector<stream::FieldRef> cols;
  const auto expand = [&](const query::SourceRef& src) {
    const stream::Schema& schema = schemas.at(src.stream);
    for (const auto& f : schema.fields()) cols.push_back({src.alias, f.name});
    if (!schema.index_of("timestamp")) {
      cols.push_back({src.alias, "timestamp"});
    }
  };
  if (spec.select_all) {
    for (const auto& src : spec.sources) expand(src);
    return cols;
  }
  for (const auto& item : spec.select) {
    if (item.is_wildcard()) {
      expand(*spec.source_by_alias(item.alias));
    } else {
      cols.push_back({item.alias, item.field});
    }
  }
  return cols;
}

/// Evaluates `spec` alone over `events` (global timestamp order) and
/// returns its result tuples in production order. `schemas` maps every
/// stream the query reads to its schema.
inline std::vector<stream::Tuple> reference_evaluate(
    const query::QuerySpec& spec,
    const std::map<std::string, stream::Schema>& schemas,
    const std::vector<runtime::TraceEvent>& events) {
  if (spec.sources.empty() || spec.sources.size() > 2) {
    throw std::invalid_argument{"reference_evaluate: " +
                                std::to_string(spec.sources.size()) +
                                "-source query unsupported"};
  }
  const auto cols = reference_columns(spec, schemas);
  std::vector<stream::Tuple> out;
  const auto produce = [&](stream::Timestamp ts,
                           const std::vector<stream::Binding>& env) {
    stream::Tuple row{ts, {}};
    for (const auto& c : cols) {
      row.values.push_back(stream::resolve_field(c, env));
    }
    out.push_back(std::move(row));
  };

  const query::SourceRef& a = spec.sources[0];
  if (spec.sources.size() == 1) {
    const stream::Schema& schema = schemas.at(a.stream);
    for (const auto& ev : events) {
      if (ev.stream != a.stream) continue;
      const std::vector<stream::Binding> env{{a.alias, &schema, &ev.tuple}};
      if (spec.where->eval(env)) produce(ev.tuple.ts, env);
    }
    return out;
  }

  const query::SourceRef& b = spec.sources[1];
  const stream::Schema& sa = schemas.at(a.stream);
  const stream::Schema& sb = schemas.at(b.stream);
  NestedLoopJoin join{{a.alias, &sa, a.window},
                      {b.alias, &sb, b.window},
                      spec.where};
  const auto emit = [&](const stream::Tuple& l, const stream::Tuple& r) {
    produce(std::max(l.ts, r.ts), {{a.alias, &sa, &l}, {b.alias, &sb, &r}});
  };
  for (const auto& ev : events) {
    if (ev.stream == a.stream) join.arrive(/*on_left=*/true, ev.tuple, emit);
    if (ev.stream == b.stream) join.arrive(/*on_left=*/false, ev.tuple, emit);
  }
  return out;
}

/// One ResultLog line, formatted as build_system's result callback does.
inline std::string reference_line(const stream::Tuple& t) {
  std::string line = std::to_string(t.ts);
  for (const auto& v : t.values) line += "|" + v.to_string();
  return line;
}

/// The reference result log of a random workload: every query parsed and
/// numbered as build_system submits it, evaluated on its own. Queries with
/// no results have no entry, as in a delivered log.
inline ResultLog reference_log(const RandomWorkload& w) {
  std::map<std::string, stream::Schema> schemas;
  for (std::size_t st = 0; st < w.stations; ++st) {
    schemas.emplace(station(st), sim::sensor_schema());
  }
  ResultLog log;
  std::size_t qid = 0;
  for (const auto& [text, host, proxy] : w.queries) {
    const QueryId id{static_cast<QueryId::value_type>(qid++)};
    for (const auto& t : reference_evaluate(cql::parse_query(text, id, proxy),
                                            schemas, w.events)) {
      log[id].push_back(reference_line(t));
    }
  }
  return log;
}

}  // namespace cosmos::middleware::testsupport
