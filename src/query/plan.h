// Compilation of QuerySpecs into running operator pipelines on an Engine.
//
// The pipeline shape is the classic SPJ plan: per-source filters (pushing
// single-alias conjuncts below the join), a left-deep cascade of
// sliding-window joins, a residual filter re-checking window bands, and a
// final projection. Field names are flattened to "alias.field" as soon as a
// tuple enters the plan so that joined tuples keep per-source provenance
// (including per-source timestamps, which result splitting needs).
//
// Every predicate is compiled to a column-slot program at build time
// (stream/compiled_predicate.h), and each plan is wired once, as a batch
// chain that every execution mode drives (push() with one-row batches,
// run() and the federation workers with driver chunks): per-source filters
// evaluate compiled predicates straight over the raw TupleBatch (the
// appended "<alias>.timestamp" column is virtual — read from the row
// timestamp), selection vectors flow between stages, join probes use
// per-side hash indexes when the predicate has equality keys, and tuples
// are only materialized entering join state or the published result batch.
// Each input stream gets one engine tap. A stream feeding several aliases
// (a self-join) hands each row to each alias in source order as a one-row
// selection, so the left side holds a row before the right side probes
// with it, at any batch size.
//
// The oracle for plans is the naive reference evaluator in
// tests/support/reference_eval.h, which evaluates each query on its own
// with interpreted predicates and a nested-loop join.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "query/containment.h"
#include "query/query_spec.h"
#include "stream/engine.h"
#include "stream/operators.h"

namespace cosmos::query {

/// A live query: subscribed to its input streams, publishing its result
/// stream. Destroying the object detaches it from the engine.
class CompiledQuery {
 public:
  /// Registers `result_stream` on the engine and wires the pipeline.
  /// Throws std::invalid_argument on unknown streams/fields.
  CompiledQuery(stream::Engine& engine, const QuerySpec& spec,
                std::string result_stream);
  ~CompiledQuery();

  CompiledQuery(const CompiledQuery&) = delete;
  CompiledQuery& operator=(const CompiledQuery&) = delete;

  [[nodiscard]] const std::string& result_stream() const noexcept {
    return result_stream_;
  }
  [[nodiscard]] const stream::Schema& result_schema() const noexcept {
    return result_schema_;
  }
  [[nodiscard]] std::size_t results_emitted() const noexcept {
    return emitted_;
  }

  /// Tuples currently buffered in the plan's window-join state — the live
  /// operator state a migration would have to ship (adapt's measured
  /// migration cost). Safe to call only while no worker is executing the
  /// owning engine.
  [[nodiscard]] std::size_t state_tuples() const noexcept;

  /// Snapshot / restore of the plan's window-join state, one entry per
  /// join-bearing stage in plan order. Plan construction is deterministic
  /// from (spec, result_stream), so a CompiledQuery built remotely from the
  /// same pair accepts the export positionally — this is the migration
  /// handoff payload. Same safety rule as state_tuples(): only call across
  /// a drain, while no worker executes the owning engine.
  [[nodiscard]] std::vector<stream::WindowJoinOp::State> export_join_state()
      const;
  /// Throws std::invalid_argument if the join count differs from the plan's.
  void import_join_state(std::vector<stream::WindowJoinOp::State> joins);

  /// Advances every join's watermark to `watermark` (no-op where already
  /// past), pruning window state that no in-order future arrival can match.
  /// Lets an external clock expire state on streams that have gone idle —
  /// federated watermark frames drive this.
  void advance_watermark(stream::Timestamp watermark);

 private:
  struct Stage;
  stream::Engine& engine_;
  std::string result_stream_;
  stream::Schema result_schema_;
  std::size_t emitted_ = 0;
  std::vector<std::pair<std::string, std::size_t>> taps_;  // stream, tap id
  std::deque<std::unique_ptr<Stage>> stages_;              // owns operators
};

/// Prefixed ("alias.field") schema of a query's raw join result, before
/// projection. Every alias gets an explicit "<alias>.timestamp" column.
[[nodiscard]] stream::Schema flattened_schema(const stream::Engine& engine,
                                              const QuerySpec& spec);

/// Builds the re-filtering predicate a consumer attaches to a *merged*
/// result stream to recover one original query (the paper's p² subscription
/// content): residual filters AND window bands, expressed over the merged
/// stream's flattened schema.
[[nodiscard]] stream::PredicatePtr make_split_predicate(
    const ResultSplit& split);

/// Column indices of `split`'s projection within the merged stream schema.
[[nodiscard]] std::vector<std::size_t> split_projection_indices(
    const ResultSplit& split, const stream::Schema& merged_schema);

}  // namespace cosmos::query
