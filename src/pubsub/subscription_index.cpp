#include "pubsub/subscription_index.h"

namespace cosmos::pubsub {

namespace {

using stream::CmpOp;
using stream::ConstConjunct;
using stream::Value;

[[nodiscard]] bool is_lower_op(CmpOp op) noexcept {
  return op == CmpOp::kGt || op == CmpOp::kGe;
}
[[nodiscard]] bool is_range_op(CmpOp op) noexcept {
  return op == CmpOp::kLt || op == CmpOp::kLe || op == CmpOp::kGt ||
         op == CmpOp::kGe;
}

}  // namespace

SubscriptionIndex::Placement SubscriptionIndex::add(
    Slot slot, const stream::PredicatePtr& filter,
    const stream::CompiledPredicate& compiled) {
  const std::vector<stream::BindingSpec> bindings{{"", schema_, SIZE_MAX}};
  stream::FilterSplit split;
  // A may-throw filter resolves fields lazily; reordering its conjuncts
  // would change which rows throw, so it must stay on the scan list.
  if (!compiled.may_throw()) {
    split = stream::split_const_conjuncts(filter, bindings);
  }

  Locator loc;
  std::vector<std::size_t> anchored;  // conjunct positions the anchor covers
  if (split.conjunctive && split.statically_safe) {
    const ConstConjunct* eq = nullptr;
    for (const ConstConjunct& c : split.indexable) {
      if (c.op == CmpOp::kEq) {
        eq = &c;
        break;
      }
    }
    if (eq != nullptr) {
      anchored.push_back(eq->position);
      ColumnIndex& cidx = columns_[eq->slot.col];
      loc.col = eq->slot.col;
      if (eq->constant.type() == stream::ValueType::kString) {
        loc.where = Where::kEqStr;
        loc.str_key = eq->constant.as_string();
        cidx.eq_str[loc.str_key].push_back({slot, eq->constant});
      } else {
        loc.where = Where::kEqNum;
        loc.num_key = eq->constant.as_double();
        cidx.eq_num[loc.num_key].push_back({slot, eq->constant});
      }
      ++eq_count_;
    } else {
      // No equality anchor: the first numeric range conjunct picks the
      // anchor column; every range conjunct on that column merges into
      // one [lo, hi] interval (tightest bounds, strict wins ties).
      const ConstConjunct* first = nullptr;
      for (const ConstConjunct& c : split.indexable) {
        if (is_range_op(c.op) && c.constant.is_numeric()) {
          first = &c;
          break;
        }
      }
      if (first != nullptr) {
        RangeEntry e;
        e.slot = slot;
        for (const ConstConjunct& c : split.indexable) {
          if (!(c.slot == first->slot) || !is_range_op(c.op) ||
              !c.constant.is_numeric()) {
            continue;
          }
          anchored.push_back(c.position);
          if (is_lower_op(c.op)) {
            const CmpOp op = c.op == CmpOp::kGt ? CmpOp::kGt : CmpOp::kGe;
            if (!e.has_lo || c.constant.compare(e.lo) > 0) {
              e.has_lo = true;
              e.lo = c.constant;
              e.lo_op = op;
            } else if (c.constant.compare(e.lo) == 0 && op == CmpOp::kGt) {
              e.lo_op = CmpOp::kGt;
            }
          } else {
            const CmpOp op = c.op == CmpOp::kLt ? CmpOp::kLt : CmpOp::kLe;
            if (!e.has_hi || c.constant.compare(e.hi) < 0) {
              e.has_hi = true;
              e.hi = c.constant;
              e.hi_op = op;
            } else if (c.constant.compare(e.hi) == 0 && op == CmpOp::kLt) {
              e.hi_op = CmpOp::kLt;
            }
          }
        }
        ColumnIndex& cidx = columns_[first->slot.col];
        loc.col = first->slot.col;
        if (e.has_lo && e.has_hi) {
          e.key = e.lo.as_double();
          loc.where = Where::kBands;
          cidx.max_band_width =
              std::max(cidx.max_band_width, e.hi.as_double() - e.key);
          cidx.bands.insert(
              std::upper_bound(cidx.bands.begin(), cidx.bands.end(), e.key,
                               [](double k, const RangeEntry& r) {
                                 return k < r.key;
                               }),
              std::move(e));
        } else if (e.has_lo) {
          e.key = e.lo.as_double();
          loc.where = Where::kLower;
          cidx.lower.insert(
              std::upper_bound(cidx.lower.begin(), cidx.lower.end(), e.key,
                               [](double k, const RangeEntry& r) {
                                 return k < r.key;
                               }),
              std::move(e));
        } else {
          e.key = e.hi.as_double();
          loc.where = Where::kUpper;
          cidx.upper.insert(
              std::upper_bound(cidx.upper.begin(), cidx.upper.end(), e.key,
                               [](double k, const RangeEntry& r) {
                                 return k > r.key;
                               }),
              std::move(e));
        }
        ++range_count_;
      }
    }
  }

  if (anchored.empty()) {
    loc.where = Where::kScan;
    scan_.insert(std::lower_bound(scan_.begin(), scan_.end(), slot), slot);
    locators_[slot] = std::move(loc);
    return Placement::kScan;
  }

  // Residual: the conjuncts the anchor did not cover, in original order.
  std::vector<stream::PredicatePtr> rest;
  rest.reserve(split.conjuncts.size() - anchored.size());
  for (std::size_t i = 0; i < split.conjuncts.size(); ++i) {
    if (std::find(anchored.begin(), anchored.end(), i) == anchored.end()) {
      rest.push_back(split.conjuncts[i]);
    }
  }
  if (!rest.empty()) {
    residuals_.emplace(slot,
                       stream::CompiledPredicate::compile(
                           stream::Predicate::conj(std::move(rest)),
                           bindings));
  }
  const Placement placed = loc.where == Where::kEqNum ||
                                   loc.where == Where::kEqStr
                               ? Placement::kEquality
                               : Placement::kRange;
  locators_[slot] = std::move(loc);
  return placed;
}

void SubscriptionIndex::remove(Slot slot) {
  const auto it = locators_.find(slot);
  if (it == locators_.end()) return;
  const Locator& loc = it->second;
  const auto drop_slot = [slot](auto& entries) {
    std::erase_if(entries,
                  [slot](const auto& e) { return e.slot == slot; });
  };
  switch (loc.where) {
    case Where::kScan: {
      const auto sit = std::lower_bound(scan_.begin(), scan_.end(), slot);
      if (sit != scan_.end() && *sit == slot) scan_.erase(sit);
      break;
    }
    case Where::kEqNum: {
      ColumnIndex& cidx = columns_.at(loc.col);
      const auto bit = cidx.eq_num.find(loc.num_key);
      drop_slot(bit->second);
      if (bit->second.empty()) cidx.eq_num.erase(bit);
      if (cidx.empty()) columns_.erase(loc.col);
      --eq_count_;
      break;
    }
    case Where::kEqStr: {
      ColumnIndex& cidx = columns_.at(loc.col);
      const auto bit = cidx.eq_str.find(loc.str_key);
      drop_slot(bit->second);
      if (bit->second.empty()) cidx.eq_str.erase(bit);
      if (cidx.empty()) columns_.erase(loc.col);
      --eq_count_;
      break;
    }
    case Where::kBands:
    case Where::kLower:
    case Where::kUpper: {
      ColumnIndex& cidx = columns_.at(loc.col);
      // max_band_width is left as-is: stale widths widen the stab window
      // (still a superset), never miss.
      drop_slot(loc.where == Where::kBands
                    ? cidx.bands
                    : loc.where == Where::kLower ? cidx.lower : cidx.upper);
      if (cidx.empty()) columns_.erase(loc.col);
      --range_count_;
      break;
    }
  }
  residuals_.erase(slot);
  locators_.erase(it);
}

void SubscriptionIndex::probe_batch(
    const runtime::TupleBatch& batch,
    std::vector<std::vector<std::uint32_t>>& candidates,
    std::vector<Slot>& touched) const {
  const stream::Timestamp* ts = batch.ts_data();
  const Value* vals = batch.values_data();
  const std::size_t width = batch.width();
  const auto n = static_cast<std::uint32_t>(batch.size());
  for (const auto& [col, cidx] : columns_) {
    if (col != stream::FieldSlot::kTsCol && col >= width) continue;
    for (std::uint32_t r = 0; r < n; ++r) {
      const auto sink = [&candidates, &touched, r](Slot s) {
        if (candidates[s].empty()) touched.push_back(s);
        candidates[s].push_back(r);
      };
      if (col == stream::FieldSlot::kTsCol) {
        for_candidates(cidx, Value{static_cast<std::int64_t>(ts[r])}, sink);
      } else {
        for_candidates(cidx, vals[std::size_t{r} * width + col], sink);
      }
    }
  }
}

}  // namespace cosmos::pubsub
