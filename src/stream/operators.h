// Batch-at-a-time streaming operators: filter, project, sliding-window join.
//
// Every operator has one entry shape: a runtime::TupleBatch plus a
// selection vector (ascending row ids; nullptr = all rows) in, a refined
// selection or an output batch out. The caller (query/plan.cpp) chains
// them; there are no per-row callbacks. Every execution mode drives this
// one path: push() hands plans one-row batches, run() and the federation
// workers hand them driver chunks. Tuples are timestamp-ordered per input
// stream (enforced by the engine).
//
// Predicates are compiled once at construction (stream/compiled_predicate.h):
// field references resolve to column slots at build time, so construction
// throws std::invalid_argument on fields the bound schemas cannot resolve.
// The oracle for these operators is the naive reference evaluator in
// tests/support/reference_eval.h (interpreted predicates, a nested-loop
// join that never prunes), which shares no code with them.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "stream/compiled_predicate.h"
#include "stream/predicate.h"
#include "stream/schema.h"
#include "stream/window.h"

namespace cosmos::runtime {
class TupleBatch;
}

namespace cosmos::stream {

/// Single-input filter: selects the rows satisfying the predicate.
class FilterOp {
 public:
  /// `alias` is the name the predicate uses to reference this input.
  /// `virtual_ts_col` (when not SIZE_MAX) names the schema column that is
  /// absent from batch rows and evaluates to the row timestamp instead —
  /// the plan's appended "<alias>.timestamp" column, letting the filter
  /// run directly over raw source batches without lifting them.
  /// Compiles the predicate at construction; throws std::invalid_argument
  /// on null arguments or unresolvable fields.
  FilterOp(std::string alias, const Schema* schema,
           const PredicatePtr& predicate,
           std::size_t virtual_ts_col = SIZE_MAX);

  /// Evaluates the rows listed in `sel` (all rows when nullptr) and
  /// appends passing row ids to `out` in ascending order.
  void push_batch(const runtime::TupleBatch& batch,
                  const std::vector<std::uint32_t>* sel,
                  std::vector<std::uint32_t>& out);

  [[nodiscard]] std::size_t seen() const noexcept { return seen_; }
  [[nodiscard]] std::size_t passed() const noexcept { return passed_; }

 private:
  CompiledPredicate compiled_;
  std::size_t seen_ = 0;
  std::size_t passed_ = 0;
};

/// Single-input projection onto a subset of fields (by input index).
class ProjectOp {
 public:
  /// `virtual_ts_col`: as for FilterOp — a keep index equal to it reads
  /// the row timestamp.
  explicit ProjectOp(std::vector<std::size_t> keep_indices,
                     std::size_t virtual_ts_col = SIZE_MAX);

  /// Appends the projection of the selected rows to `out`.
  void push_batch(const runtime::TupleBatch& batch,
                  const std::vector<std::uint32_t>* sel,
                  runtime::TupleBatch& out);

 private:
  std::vector<std::size_t> keep_;
  std::size_t virtual_ts_col_;
  std::vector<Value> row_scratch_;  ///< reused per batch row (no per-row alloc)
};

/// Two-input sliding-window join. On arrival of a tuple from one side it is
/// matched against the other side's window contents under the join
/// predicate; output tuples concatenate left then right values and carry the
/// newer timestamp.
///
/// Input contract: each side's tuples arrive in non-decreasing timestamp
/// order (the engine's per-stream rule), and no tuple is older than the
/// max timestamp already seen across *both* sides — the watermark. This is
/// exactly what the middleware guarantees (Cosmos::push documents global
/// order; runtime::Driver throws on violations). A standalone caller that
/// regresses one side's event time behind the other side's may find
/// watermark-pruned state no longer matching, where the old arrival-driven
/// prune would have (under-pruned) state still joining.
///
/// The probe follows from the predicate. At construction its equality
/// conjuncts over opposite sides are extracted (split_equi_conjuncts); when
/// there is at least one, each side keeps a hash index on its key columns
/// and probes touch only key-equal candidates, re-checking the window plus
/// the compiled residual predicate. A join without an extractable key scans
/// the other side's window. Both probes visit candidates in arrival order,
/// so a keyed join emits exactly the sequence the same join written
/// without a key would. Both buffers are pruned eagerly
/// whenever the watermark — the max timestamp seen on either input —
/// advances, so an idle opposite side no longer pins stale state
/// (state_size feeds the migration planner's cost model).
class WindowJoinOp {
 public:
  struct Side {
    std::string alias;
    const Schema* schema = nullptr;
    WindowSpec window;
  };
  WindowJoinOp(Side left, Side right, const PredicatePtr& predicate);

  /// Pushes every selected row of `batch` (in order) through
  /// probe-then-insert on one side, appending join outputs to `out`. When
  /// `lift_append_ts` is set the rows are raw source rows one column
  /// narrower than the side schema, whose lifted form appends the row
  /// timestamp — the plan's lift, fused into the join's own
  /// materialization.
  void push_batch_left(const runtime::TupleBatch& batch,
                       const std::vector<std::uint32_t>* sel,
                       bool lift_append_ts, runtime::TupleBatch& out);
  void push_batch_right(const runtime::TupleBatch& batch,
                        const std::vector<std::uint32_t>* sel,
                        bool lift_append_ts, runtime::TupleBatch& out);

  /// Advances the watermark (max input timestamp seen so far) and prunes
  /// both windows against it. Called implicitly by every push; exposed so
  /// an external clock can expire state on idle inputs too.
  void advance_watermark(Timestamp watermark);

  /// Serializable snapshot of the operator's live state: the watermark and
  /// both window buffers in arrival (== timestamp) order. This is the
  /// payload a migration ships; the hash index and sequence counters are
  /// derived state that import_state rebuilds by replaying the insert path,
  /// so export → import on an identically-constructed operator reproduces
  /// bit-identical future behavior.
  struct State {
    Timestamp watermark = INT64_MIN;
    std::vector<Tuple> left;
    std::vector<Tuple> right;
  };
  [[nodiscard]] State export_state() const;
  /// Replaces all live state with `state`. Tuples must be in the order
  /// export_state produced (arrival order); nothing is re-pruned here.
  void import_state(State state);

  [[nodiscard]] std::size_t left_state_size() const noexcept {
    return left_rt_.buf.size();
  }
  [[nodiscard]] std::size_t right_state_size() const noexcept {
    return right_rt_.buf.size();
  }
  [[nodiscard]] std::size_t emitted() const noexcept { return emitted_; }
  /// Number of extracted equality conjuncts (0 = scanning probe).
  [[nodiscard]] std::size_t equi_key_count() const noexcept {
    return keys_.size();
  }

 private:
  struct SideRuntime {
    std::deque<Tuple> buf;        ///< arrival order == timestamp order
    std::uint64_t first_seq = 0;  ///< seq of buf.front()
    std::uint64_t next_seq = 0;   ///< seq the next insert receives
    /// Equi-key hash -> ascending seqs of buffered tuples with that hash.
    std::unordered_map<std::size_t, std::deque<std::uint64_t>> index;
  };

  void push_one(Tuple t, bool is_left, runtime::TupleBatch& out);
  void push_batch_side(const runtime::TupleBatch& batch,
                       const std::vector<std::uint32_t>* sel,
                       bool lift_append_ts, bool is_left,
                       runtime::TupleBatch& out);
  void probe(const Tuple& incoming, bool incoming_is_left,
             runtime::TupleBatch& out);
  void emit(const Tuple& lt, const Tuple& rt, runtime::TupleBatch& out);
  void prune_side(SideRuntime& s, const WindowSpec& window, bool is_left);
  [[nodiscard]] std::size_t key_hash(const Tuple& t, bool of_left) const;

  Side left_;
  Side right_;
  std::vector<EquiKey> keys_;  ///< empty = scanning probe
  /// Probe programs per incoming direction (bindings [incoming, other]):
  /// the predicate minus the extracted equality keys. Without keys that is
  /// the whole predicate, which the scanning probe evaluates.
  CompiledPredicate residual_left_in_;
  CompiledPredicate residual_right_in_;
  Timestamp watermark_ = INT64_MIN;
  SideRuntime left_rt_;
  SideRuntime right_rt_;
  std::vector<Value> row_scratch_;  ///< reused per emitted row
  std::size_t emitted_ = 0;
};

}  // namespace cosmos::stream
