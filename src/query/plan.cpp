#include "query/plan.h"

#include <functional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "runtime/tuple_batch.h"

namespace cosmos::query {
namespace {

using stream::CompareConst;
using stream::CompareField;
using stream::FieldRef;
using stream::Predicate;
using stream::PredicatePtr;
using stream::Schema;
using stream::Tuple;

/// Rewrites FieldRef{alias, field} to FieldRef{"", "alias.field"} so a
/// predicate can run against a flattened (joined) schema. The "timestamp"
/// pseudo-field becomes the materialized "<alias>.timestamp" column.
FieldRef flatten_ref(const FieldRef& f) {
  if (f.alias.empty()) return f;
  return {"", f.alias + "." + f.field};
}

PredicatePtr flatten_predicate(const PredicatePtr& p) {
  switch (p->kind()) {
    case Predicate::Kind::kTrue:
      return p;
    case Predicate::Kind::kCompareConst: {
      const auto& cc = static_cast<const CompareConst&>(*p);
      return Predicate::cmp(flatten_ref(cc.lhs()), cc.op(), cc.rhs());
    }
    case Predicate::Kind::kCompareField: {
      const auto& cf = static_cast<const CompareField&>(*p);
      return Predicate::cmp(flatten_ref(cf.lhs()), cf.op(),
                            flatten_ref(cf.rhs()));
    }
    case Predicate::Kind::kTimeBand: {
      const auto& tb = static_cast<const stream::TimeBand&>(*p);
      return Predicate::time_band(flatten_ref(tb.newer()),
                                  flatten_ref(tb.older()), tb.band_ms());
    }
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr: {
      const auto& bj = static_cast<const stream::BoolJunction&>(*p);
      std::vector<PredicatePtr> children;
      for (const auto& c : bj.children()) {
        children.push_back(flatten_predicate(c));
      }
      return p->kind() == Predicate::Kind::kAnd
                 ? Predicate::conj(std::move(children))
                 : Predicate::disj(std::move(children));
    }
    case Predicate::Kind::kNot: {
      const auto& np = static_cast<const stream::NotPredicate&>(*p);
      return Predicate::negate(flatten_predicate(np.child()));
    }
  }
  return p;
}

/// Aliases referenced by a leaf conjunct.
std::unordered_set<std::string> referenced_aliases(const PredicatePtr& p) {
  std::unordered_set<std::string> out;
  switch (p->kind()) {
    case Predicate::Kind::kCompareConst:
      out.insert(static_cast<const CompareConst&>(*p).lhs().alias);
      break;
    case Predicate::Kind::kCompareField: {
      const auto& cf = static_cast<const CompareField&>(*p);
      out.insert(cf.lhs().alias);
      out.insert(cf.rhs().alias);
      break;
    }
    case Predicate::Kind::kTimeBand: {
      const auto& tb = static_cast<const stream::TimeBand&>(*p);
      out.insert(tb.newer().alias);
      out.insert(tb.older().alias);
      break;
    }
    default:
      break;
  }
  return out;
}

/// Flattened per-alias schema: "<alias>.<field>" columns plus a
/// materialized "<alias>.timestamp" column (appended when absent).
Schema lift_schema(const Schema& raw, const std::string& alias,
                   bool& has_ts_column) {
  std::vector<stream::Field> fields;
  has_ts_column = false;
  for (const auto& f : raw.fields()) {
    fields.push_back({alias + "." + f.name, f.type});
    if (f.name == "timestamp") has_ts_column = true;
  }
  if (!has_ts_column) {
    fields.push_back({alias + ".timestamp", stream::ValueType::kInt});
  }
  return Schema{std::move(fields)};
}

}  // namespace

struct CompiledQuery::Stage {
  std::unique_ptr<stream::FilterOp> filter;
  std::unique_ptr<stream::WindowJoinOp> join;
  std::unique_ptr<stream::ProjectOp> project;
  Schema schema;  // output schema of the stage (stable address for Bindings)
  // Chain scratch. Engines execute single-threaded (pinned to one runtime
  // shard), and the chain is acyclic, so per-stage reuse is safe.
  runtime::TupleBatch batch_scratch;       ///< join/project output rows
  std::vector<std::uint32_t> sel_scratch;  ///< filter selection output
};

namespace {
/// One chain hop: a batch plus the selected rows (nullptr = all).
using BatchSink =
    std::function<void(const runtime::TupleBatch&,
                       const std::vector<std::uint32_t>*)>;
}  // namespace

stream::Schema flattened_schema(const stream::Engine& engine,
                                const QuerySpec& spec) {
  Schema acc;
  for (std::size_t i = 0; i < spec.sources.size(); ++i) {
    bool has_ts = false;
    Schema lifted =
        lift_schema(engine.schema(spec.sources[i].stream),
                    spec.sources[i].alias, has_ts);
    if (i == 0) {
      acc = std::move(lifted);
    } else {
      std::vector<stream::Field> fields = acc.fields();
      for (const auto& f : lifted.fields()) fields.push_back(f);
      acc = Schema{std::move(fields)};
    }
  }
  return acc;
}

CompiledQuery::CompiledQuery(stream::Engine& engine, const QuerySpec& spec,
                             std::string result_stream)
    : engine_(engine), result_stream_(std::move(result_stream)) {
  validate(spec);

  std::vector<PredicatePtr> conjuncts;
  if (!stream::collect_conjuncts(spec.where, conjuncts)) {
    // Non-conjunctive WHERE: evaluate the whole tree in the residual stage.
    conjuncts.clear();
  }

  // Partition conjuncts: single-alias ones go below the join; the rest (and
  // a non-conjunctive WHERE) are re-checked after the last join.
  std::unordered_map<std::string, std::vector<PredicatePtr>> per_alias;
  std::vector<PredicatePtr> residual;
  if (conjuncts.empty() &&
      spec.where->kind() != Predicate::Kind::kTrue) {
    residual.push_back(spec.where);
  } else {
    for (const auto& c : conjuncts) {
      auto aliases = referenced_aliases(c);
      aliases.erase("");
      if (aliases.size() == 1) {
        per_alias[*aliases.begin()].push_back(c);
      } else {
        residual.push_back(c);
      }
    }
  }
  // Window constraints re-imposed on the final result: for every source
  // with a bounded window, require result_ts - source_ts <= extent. (For
  // two-way joins the join operator already enforces this; the residual
  // band makes left-deep cascades of 3+ sources window-correct too.)
  if (spec.sources.size() > 2) {
    for (const auto& s : spec.sources) {
      if (s.window.kind != stream::WindowSpec::Kind::kUnbounded) {
        residual.push_back(Predicate::time_band(
            FieldRef{"", "timestamp"}, FieldRef{s.alias, "timestamp"},
            s.window.extent_ms()));
      }
    }
  }

  // --- build stages back to front ---
  const Schema full_schema = flattened_schema(engine_, spec);

  // Final sink: projection then publish.
  std::vector<std::size_t> keep;
  std::vector<stream::Field> result_fields;
  if (spec.select_all) {
    for (std::size_t i = 0; i < full_schema.size(); ++i) {
      keep.push_back(i);
      result_fields.push_back(full_schema.field(i));
    }
  } else {
    for (const auto& item : spec.select) {
      if (item.is_wildcard()) {
        const std::string prefix = item.alias + ".";
        for (std::size_t i = 0; i < full_schema.size(); ++i) {
          if (full_schema.field(i).name.starts_with(prefix)) {
            keep.push_back(i);
            result_fields.push_back(full_schema.field(i));
          }
        }
      } else {
        const auto idx = full_schema.index_of(item.alias + "." + item.field);
        if (!idx) {
          throw std::invalid_argument{"CompiledQuery: unknown select column " +
                                      item.to_string()};
        }
        keep.push_back(*idx);
        result_fields.push_back(full_schema.field(*idx));
      }
    }
  }
  result_schema_ = Schema{std::move(result_fields)};
  engine_.register_stream(result_stream_, result_schema_);

  // Per-source entry chains (filter -> join side) take *raw* source
  // batches plus a selection.
  struct SourceEntry {
    Schema lifted;
    bool has_ts = false;
    BatchSink entry;
  };
  std::vector<SourceEntry> entries(spec.sources.size());
  for (std::size_t i = 0; i < spec.sources.size(); ++i) {
    entries[i].lifted = lift_schema(engine_.schema(spec.sources[i].stream),
                                    spec.sources[i].alias, entries[i].has_ts);
  }

  // Single-source plans run their chain directly over raw source batches;
  // the appended "<alias>.timestamp" column (when the raw schema lacks one)
  // is then virtual — operators read it from the row timestamp.
  const std::size_t post_join_virtual_ts =
      spec.sources.size() == 1 && !entries[0].has_ts ? full_schema.size() - 1
                                                     : SIZE_MAX;

  auto& project_stage = *stages_.emplace_back(std::make_unique<Stage>());
  project_stage.batch_scratch = runtime::TupleBatch{result_stream_};
  project_stage.project =
      std::make_unique<stream::ProjectOp>(keep, post_join_virtual_ts);
  // One hop through a stage's FilterOp: refine the selection in the stage
  // scratch and forward survivors (shared by the residual and per-alias
  // filter wiring below).
  const auto make_filter_hop = [](Stage* stp, BatchSink down) {
    return [stp, down = std::move(down)](
               const runtime::TupleBatch& b,
               const std::vector<std::uint32_t>* sel) {
      stp->sel_scratch.clear();
      stp->filter->push_batch(b, sel, stp->sel_scratch);
      if (stp->sel_scratch.empty()) return;
      down(b, &stp->sel_scratch);
    };
  };

  BatchSink after_joins = [this, ps = &project_stage](
                              const runtime::TupleBatch& b,
                              const std::vector<std::uint32_t>* sel) {
    ps->batch_scratch.clear();
    ps->project->push_batch(b, sel, ps->batch_scratch);
    if (ps->batch_scratch.empty()) return;
    emitted_ += ps->batch_scratch.size();
    engine_.publish_batch(result_stream_, ps->batch_scratch);
  };

  if (!residual.empty()) {
    std::vector<PredicatePtr> flat;
    for (const auto& p : residual) flat.push_back(flatten_predicate(p));
    auto& st = *stages_.emplace_back(std::make_unique<Stage>());
    st.schema = full_schema;
    st.filter = std::make_unique<stream::FilterOp>(
        "", &st.schema, Predicate::conj(std::move(flat)),
        post_join_virtual_ts);
    after_joins = make_filter_hop(&st, std::move(after_joins));
  }

  if (spec.sources.size() == 1) {
    // No join: the source filter feeds the residual/projection directly,
    // reading the appended timestamp column virtually.
    entries[0].entry = after_joins;
  } else {
    // Left-deep cascade: acc = src0 ⋈ src1 ⋈ ... Window of the accumulated
    // side is the widest of its constituents (exact for 2-way; residual
    // bands fix 3+-way).
    std::vector<Schema> acc_schema(spec.sources.size());
    acc_schema[0] = entries[0].lifted;
    for (std::size_t i = 1; i < spec.sources.size(); ++i) {
      std::vector<stream::Field> fs = acc_schema[i - 1].fields();
      for (const auto& f : entries[i].lifted.fields()) fs.push_back(f);
      acc_schema[i] = Schema{std::move(fs)};
    }

    BatchSink downstream = std::move(after_joins);
    // Build joins from the last to the first so each join's downstream
    // chain exists.
    std::vector<stream::WindowJoinOp*> join_ops(spec.sources.size(), nullptr);
    std::vector<Stage*> join_stage(spec.sources.size(), nullptr);
    // Chain after each join — where its output batches go (shared by the
    // join's left feed and its source's right feed).
    std::vector<BatchSink> join_down(spec.sources.size());
    // One hop feeding a join side: collect the join's output rows into the
    // stage scratch, forward non-empty results downstream.
    const auto make_feed = [](stream::WindowJoinOp* op, Stage* stp,
                              BatchSink down, bool is_left, bool lift_ts) {
      return [op, stp, down = std::move(down), is_left, lift_ts](
                 const runtime::TupleBatch& b,
                 const std::vector<std::uint32_t>* sel) {
        stp->batch_scratch.clear();
        if (is_left) {
          op->push_batch_left(b, sel, lift_ts, stp->batch_scratch);
        } else {
          op->push_batch_right(b, sel, lift_ts, stp->batch_scratch);
        }
        if (!stp->batch_scratch.empty()) down(stp->batch_scratch, nullptr);
      };
    };
    for (std::size_t i = spec.sources.size() - 1; i >= 1; --i) {
      // Join predicate: conjuncts fully resolvable once source i arrives
      // (reference alias i and only aliases < i otherwise).
      std::unordered_set<std::string> available;
      for (std::size_t j = 0; j < i; ++j) {
        available.insert(spec.sources[j].alias);
      }
      std::vector<PredicatePtr> join_preds;
      for (const auto& c : conjuncts) {
        auto aliases = referenced_aliases(c);
        aliases.erase("");
        if (aliases.size() < 2) continue;
        if (!aliases.contains(spec.sources[i].alias)) continue;
        bool ok = true;
        for (const auto& a : aliases) {
          if (a != spec.sources[i].alias && !available.contains(a)) {
            ok = false;
          }
        }
        if (ok) join_preds.push_back(flatten_predicate(c));
      }

      auto& st = *stages_.emplace_back(std::make_unique<Stage>());
      st.schema = acc_schema[i - 1];
      // Accumulated side window: widest constituent window.
      stream::WindowSpec acc_window = spec.sources[0].window;
      for (std::size_t j = 1; j < i; ++j) {
        if (spec.sources[j].window.covers(acc_window)) {
          acc_window = spec.sources[j].window;
        }
      }
      auto& st_r = *stages_.emplace_back(std::make_unique<Stage>());
      st_r.schema = entries[i].lifted;
      st.join = std::make_unique<stream::WindowJoinOp>(
          stream::WindowJoinOp::Side{"", &st.schema, acc_window},
          stream::WindowJoinOp::Side{"", &st_r.schema,
                                     spec.sources[i].window},
          Predicate::conj(std::move(join_preds)));
      join_ops[i] = st.join.get();
      join_stage[i] = &st;
      join_down[i] = downstream;
      // Interior left feeds carry join-output batches, which are already
      // physically lifted; only the raw source feeds lift.
      downstream = make_feed(st.join.get(), &st, std::move(downstream),
                             /*is_left=*/true, /*lift_ts=*/false);
      if (i == 1) break;  // size_t underflow guard
    }
    entries[0].entry =
        make_feed(join_ops[1], join_stage[1], join_down[1],
                  /*is_left=*/true, /*lift_ts=*/!entries[0].has_ts);
    for (std::size_t i = 1; i < spec.sources.size(); ++i) {
      entries[i].entry =
          make_feed(join_ops[i], join_stage[i], join_down[i],
                    /*is_left=*/false, /*lift_ts=*/!entries[i].has_ts);
    }
  }

  // Per-alias filters run first, over the raw batch (the lift happens only
  // for survivors, inside the join).
  std::vector<std::string> streams;  // distinct input streams, source order
  std::unordered_map<std::string, std::vector<BatchSink>> feeds;
  for (std::size_t i = 0; i < spec.sources.size(); ++i) {
    const auto& src = spec.sources[i];
    BatchSink into = std::move(entries[i].entry);
    if (const auto it = per_alias.find(src.alias); it != per_alias.end()) {
      std::vector<PredicatePtr> flat;
      for (const auto& p : it->second) flat.push_back(flatten_predicate(p));
      auto& st = *stages_.emplace_back(std::make_unique<Stage>());
      st.schema = entries[i].lifted;
      st.filter = std::make_unique<stream::FilterOp>(
          "", &st.schema, Predicate::conj(std::move(flat)),
          entries[i].has_ts ? SIZE_MAX : entries[i].lifted.size() - 1);
      into = make_filter_hop(&st, std::move(into));
    }
    auto& list = feeds[src.stream];
    if (list.empty()) streams.push_back(src.stream);
    list.push_back(std::move(into));
  }

  // One batch tap per input stream. A stream feeding several aliases (a
  // self-join) hands each row to each of them in source order, as a
  // one-row selection: the left side has seen a row before the right side
  // probes with it, whatever the batch size.
  for (const auto& name : streams) {
    std::vector<BatchSink> list = std::move(feeds.at(name));
    stream::Engine::BatchTap tap;
    if (list.size() == 1) {
      tap = [feed = std::move(list.front())](const runtime::TupleBatch& b) {
        feed(b, nullptr);
      };
    } else {
      tap = [list = std::move(list)](const runtime::TupleBatch& b) {
        std::vector<std::uint32_t> row(1);
        for (std::uint32_t r = 0; r < b.size(); ++r) {
          row[0] = r;
          for (const auto& feed : list) feed(b, &row);
        }
      };
    }
    taps_.emplace_back(name, engine_.attach(name, std::move(tap)));
  }
}

CompiledQuery::~CompiledQuery() {
  for (const auto& [name, tap] : taps_) engine_.detach(name, tap);
}

std::size_t CompiledQuery::state_tuples() const noexcept {
  std::size_t n = 0;
  for (const auto& stage : stages_) {
    if (stage->join) {
      n += stage->join->left_state_size() + stage->join->right_state_size();
    }
  }
  return n;
}

std::vector<stream::WindowJoinOp::State> CompiledQuery::export_join_state()
    const {
  std::vector<stream::WindowJoinOp::State> out;
  for (const auto& stage : stages_) {
    if (stage->join) out.push_back(stage->join->export_state());
  }
  return out;
}

void CompiledQuery::import_join_state(
    std::vector<stream::WindowJoinOp::State> joins) {
  std::vector<stream::WindowJoinOp*> ops;
  for (const auto& stage : stages_) {
    if (stage->join) ops.push_back(stage->join.get());
  }
  if (ops.size() != joins.size()) {
    throw std::invalid_argument{
        "CompiledQuery::import_join_state: plan has " +
        std::to_string(ops.size()) + " joins, snapshot has " +
        std::to_string(joins.size())};
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i]->import_state(std::move(joins[i]));
  }
}

void CompiledQuery::advance_watermark(stream::Timestamp watermark) {
  for (const auto& stage : stages_) {
    if (stage->join) stage->join->advance_watermark(watermark);
  }
}

stream::PredicatePtr make_split_predicate(const ResultSplit& split) {
  std::vector<PredicatePtr> conj;
  for (const auto& p : split.residual_filters) {
    conj.push_back(flatten_predicate(p));
  }
  for (const auto& band : split.window_bands) {
    conj.push_back(Predicate::time_band(
        FieldRef{"", "timestamp"},
        FieldRef{"", band.alias + ".timestamp"}, band.band_ms));
  }
  return Predicate::conj(std::move(conj));
}

std::vector<std::size_t> split_projection_indices(
    const ResultSplit& split, const stream::Schema& merged_schema) {
  std::vector<std::size_t> keep;
  if (split.select_all) {
    for (std::size_t i = 0; i < merged_schema.size(); ++i) keep.push_back(i);
    return keep;
  }
  for (const auto& item : split.select) {
    if (item.is_wildcard()) {
      const std::string prefix = item.alias + ".";
      for (std::size_t i = 0; i < merged_schema.size(); ++i) {
        if (merged_schema.field(i).name.starts_with(prefix)) {
          keep.push_back(i);
        }
      }
    } else {
      const auto idx = merged_schema.index_of(item.alias + "." + item.field);
      if (!idx) {
        throw std::invalid_argument{
            "split_projection_indices: merged stream lacks column " +
            item.to_string()};
      }
      keep.push_back(*idx);
    }
  }
  return keep;
}

}  // namespace cosmos::query
