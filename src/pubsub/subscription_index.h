// Attribute-predicate index over compiled subscription filters: how
// BrokerPartition::match_batch avoids evaluating every subscription's
// filter on every row (Θ(subs × rows) even when almost nothing matches).
//
// The index makes the common filter shapes probeable by indexing the
// *predicates themselves*: at add() time the filter's top-level
// conjunction is decomposed (stream::split_const_conjuncts) and one anchor
// is indexed —
//
//  - a single-column `== constant` conjunct goes into a per-column hash
//    table keyed by the constant (numeric constants through their double
//    view, mirroring the hash join's cross-type bucketing; strings in
//    their own table);
//  - otherwise the filter's range conjuncts (<, <=, >, >=) on its first
//    range column merge into one [lo, hi] interval held in that column's
//    sorted interval lists: two-sided bands sorted ascending by lo with
//    the column's widest band tracked (a probe stabs the window
//    [v - max_width, v] with two binary searches — output-sensitive even
//    when band endpoints cluster), lo-only intervals sorted ascending by
//    lo (prefix run), hi-only intervals sorted descending by hi (prefix
//    run); every run entry is a true anchor match up to boundary
//    strictness;
//  - everything else (may-throw lenient filters, OR/NOT trees, filters
//    with no usable constant conjunct, statically ill-typed trees) stays
//    on a small scan-list fallback the partition evaluates in full.
//
// probe_batch() walks the batch column by column and yields *candidates*:
// slots whose anchor conjuncts provably hold on the row. Anchors are
// re-verified with exact Value semantics, so the double sort/hash keys only
// ever over-approximate (int constants beyond 2^53 bucket by their rounded
// double but never false-match). The caller
// then runs each candidate's compiled residual — the filter minus the
// anchored conjuncts, in original order — which keeps match results
// identical to evaluating the full filter row by row. Known divergence, by
// design (the same shape as the hash join's): on schema-violating rows (a
// runtime value type contradicting the declared column type, or rows
// narrower than the schema) full evaluation may throw where the index
// reports no match; indexing is gated on statically well-typed
// conjunctions, so conforming rows cannot tell the difference. The pub/sub
// differential tests check matching against an interpreted linear scan
// (tests/support/reference_match.h).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/tuple_batch.h"
#include "stream/compiled_predicate.h"

namespace cosmos::pubsub {

class SubscriptionIndex {
 public:
  /// Stable slot id in the owning partition's subscription table.
  using Slot = std::uint32_t;

  enum class Placement : std::uint8_t { kEquality, kRange, kScan };

  /// `schema` is the partition schema filters are resolved against; it
  /// must outlive the index.
  explicit SubscriptionIndex(const stream::Schema* schema)
      : schema_(schema) {}

  /// Indexes the filter of the subscription occupying `slot` (which must
  /// not currently be indexed). `compiled` is the partition's lenient
  /// compilation of the same filter — its may_throw() routes unresolvable
  /// filters to the scan list. Returns where the filter landed.
  Placement add(Slot slot, const stream::PredicatePtr& filter,
                const stream::CompiledPredicate& compiled);
  /// Un-indexes `slot` (incremental: touches only the one bucket/list the
  /// slot anchors in). No-op for unknown slots.
  void remove(Slot slot);

  [[nodiscard]] std::size_t equality_entries() const noexcept {
    return eq_count_;
  }
  [[nodiscard]] std::size_t range_entries() const noexcept {
    return range_count_;
  }
  /// Fallback slots, ascending; the partition evaluates their full
  /// compiled filters on every row.
  [[nodiscard]] const std::vector<Slot>& scan_slots() const noexcept {
    return scan_;
  }
  /// Compiled residual of an indexed slot (conjuncts minus the anchor, in
  /// original order), or nullptr when the anchor covered the whole filter.
  [[nodiscard]] const stream::CompiledPredicate* residual(Slot slot) const {
    const auto it = residuals_.find(slot);
    return it == residuals_.end() ? nullptr : &it->second;
  }

  /// Batch probe, column-at-a-time: candidates[slot] receives the
  /// ascending row ids whose anchor held, `touched` the slots that got any
  /// (unsorted). `candidates` is the caller's scratch, sized to at least
  /// the slot-table size with every list empty on entry; the caller clears
  /// the touched lists after use.
  void probe_batch(const runtime::TupleBatch& batch,
                   std::vector<std::vector<std::uint32_t>>& candidates,
                   std::vector<Slot>& touched) const;

 private:
  struct EqEntry {
    Slot slot = 0;
    stream::Value constant;  ///< exact re-verify (double keys may collide)
  };
  struct RangeEntry {
    Slot slot = 0;
    double key = 0.0;  ///< double view of the anchoring endpoint
    bool has_lo = false;
    bool has_hi = false;
    stream::CmpOp lo_op = stream::CmpOp::kGt;  ///< kGt or kGe
    stream::CmpOp hi_op = stream::CmpOp::kLt;  ///< kLt or kLe
    stream::Value lo;
    stream::Value hi;
  };
  struct ColumnIndex {
    std::unordered_map<double, std::vector<EqEntry>> eq_num;
    std::unordered_map<std::string, std::vector<EqEntry>> eq_str;
    /// Two-sided bands, ascending by lo key. A stab only visits keys in
    /// [v - max_band_width, v]: any band containing v has lo >= v - width.
    /// max_band_width never shrinks on removal (stale widths only widen
    /// the window — a superset — never miss).
    std::vector<RangeEntry> bands;
    double max_band_width = 0.0;
    std::vector<RangeEntry> lower;  ///< lo-only, ascending by key
    std::vector<RangeEntry> upper;  ///< hi-only, descending by key
    [[nodiscard]] bool empty() const noexcept {
      return eq_num.empty() && eq_str.empty() && bands.empty() &&
             lower.empty() && upper.empty();
    }
  };
  enum class Where : std::uint8_t {
    kEqNum,
    kEqStr,
    kBands,
    kLower,
    kUpper,
    kScan
  };
  struct Locator {
    Where where = Where::kScan;
    std::uint32_t col = 0;
    double num_key = 0.0;
    std::string str_key;
  };

  [[nodiscard]] static bool range_matches(const RangeEntry& e,
                                          const stream::Value& v) {
    // v is numeric here (string probe values never reach the lists).
    if (e.has_lo && !stream::apply_cmp(e.lo_op, v.compare(e.lo))) {
      return false;
    }
    if (e.has_hi && !stream::apply_cmp(e.hi_op, v.compare(e.hi))) {
      return false;
    }
    return true;
  }

  /// Calls fn(slot) for every anchor in `cidx` that holds on `v`.
  template <typename Fn>
  void for_candidates(const ColumnIndex& cidx, const stream::Value& v,
                      Fn&& fn) const {
    if (v.type() == stream::ValueType::kString) {
      // Numeric anchors never match a string value (the oracle throws on
      // such schema-violating rows; see the divergence note above).
      const auto it = cidx.eq_str.find(v.as_string());
      if (it != cidx.eq_str.end()) {
        for (const EqEntry& e : it->second) fn(e.slot);
      }
      return;
    }
    const double dv = v.as_double();
    if (!cidx.eq_num.empty()) {
      const auto it = cidx.eq_num.find(dv);
      if (it != cidx.eq_num.end()) {
        for (const EqEntry& e : it->second) {
          if (v.compare(e.constant) == 0) fn(e.slot);
        }
      }
    }
    // Double keys are monotone views of the exact bounds, so every window
    // below is a superset of the true matches and the exact re-verify
    // decides. NaN probes compare false with every key, degrading each
    // window to the whole list — the re-verify then reproduces the
    // oracle's NaN semantics (NaN compares "greater").
    if (!cidx.bands.empty()) {
      // A band containing v satisfies lo <= v and lo >= hi - width >=
      // v - max_band_width.
      const auto first = std::lower_bound(
          cidx.bands.begin(), cidx.bands.end(), dv - cidx.max_band_width,
          [](const RangeEntry& e, double val) { return e.key < val; });
      const auto last = std::upper_bound(
          first, cidx.bands.end(), dv,
          [](double val, const RangeEntry& e) { return val < e.key; });
      for (auto it = first; it != last; ++it) {
        if (range_matches(*it, v)) fn(it->slot);
      }
    }
    // lower (lo-only, ascending): a true match needs lo <= v => key <= dv.
    const auto lo_end = std::upper_bound(
        cidx.lower.begin(), cidx.lower.end(), dv,
        [](double val, const RangeEntry& e) { return val < e.key; });
    for (auto it = cidx.lower.begin(); it != lo_end; ++it) {
      if (range_matches(*it, v)) fn(it->slot);
    }
    // upper (hi-only, descending): a true match needs hi >= v => key >= dv.
    const auto hi_end = std::upper_bound(
        cidx.upper.begin(), cidx.upper.end(), dv,
        [](double val, const RangeEntry& e) { return val > e.key; });
    for (auto it = cidx.upper.begin(); it != hi_end; ++it) {
      if (range_matches(*it, v)) fn(it->slot);
    }
  }

  const stream::Schema* schema_;
  /// Value column id (or FieldSlot::kTsCol for the row timestamp) to the
  /// anchors hosted on that column.
  std::unordered_map<std::uint32_t, ColumnIndex> columns_;
  std::vector<Slot> scan_;  ///< ascending
  std::unordered_map<Slot, stream::CompiledPredicate> residuals_;
  std::unordered_map<Slot, Locator> locators_;
  std::size_t eq_count_ = 0;
  std::size_t range_count_ = 0;
};

}  // namespace cosmos::pubsub
