#include "stream/operators.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "runtime/tuple_batch.h"

namespace cosmos::stream {
namespace {

/// Value a slot reads from a materialized tuple (side implied by caller);
/// `scratch` backs timestamp slots.
const Value& slot_value(const Tuple& t, const FieldSlot& s, Value& scratch) {
  if (s.col == FieldSlot::kTsCol) {
    scratch = Value{static_cast<std::int64_t>(t.ts)};
    return scratch;
  }
  return t.values.at(s.col);
}

}  // namespace

FilterOp::FilterOp(std::string alias, const Schema* schema,
                   const PredicatePtr& predicate, std::size_t virtual_ts_col) {
  if (schema == nullptr || predicate == nullptr) {
    throw std::invalid_argument{"FilterOp: null schema/predicate"};
  }
  compiled_ = CompiledPredicate::compile(
      predicate, {{std::move(alias), schema, virtual_ts_col}});
}

void FilterOp::push_batch(const runtime::TupleBatch& batch,
                          const std::vector<std::uint32_t>* sel,
                          std::vector<std::uint32_t>& out) {
  seen_ += sel != nullptr ? sel->size() : batch.size();
  const std::size_t before = out.size();
  compiled_.filter_batch(batch, sel, out);
  passed_ += out.size() - before;
}

ProjectOp::ProjectOp(std::vector<std::size_t> keep_indices,
                     std::size_t virtual_ts_col)
    : keep_(std::move(keep_indices)), virtual_ts_col_(virtual_ts_col) {}

void ProjectOp::push_batch(const runtime::TupleBatch& batch,
                           const std::vector<std::uint32_t>* sel,
                           runtime::TupleBatch& out) {
  const std::size_t width = batch.width();
  const Value* values = batch.values_data();
  const auto project_row = [&](std::uint32_t r) {
    if (r >= batch.size()) {
      throw std::out_of_range{"ProjectOp: selected row " + std::to_string(r) +
                              " out of range"};
    }
    const Timestamp ts = batch.ts_data()[r];
    // push_row move-iterates the elements out but leaves the vector (and
    // its capacity) behind, so the scratch row costs no per-row alloc.
    row_scratch_.clear();
    row_scratch_.reserve(keep_.size());
    const Value* row = values + std::size_t{r} * width;
    for (const std::size_t k : keep_) {
      if (k == virtual_ts_col_) {
        row_scratch_.emplace_back(static_cast<std::int64_t>(ts));
      } else if (k < width) {
        row_scratch_.push_back(row[k]);
      } else {
        throw std::out_of_range{"ProjectOp: column " + std::to_string(k) +
                                " out of range"};
      }
    }
    out.push_row(ts, std::move(row_scratch_));
  };
  if (sel == nullptr) {
    for (std::uint32_t r = 0; r < batch.size(); ++r) project_row(r);
  } else {
    for (const std::uint32_t r : *sel) project_row(r);
  }
}

WindowJoinOp::WindowJoinOp(Side left, Side right,
                           const PredicatePtr& predicate)
    : left_(std::move(left)), right_(std::move(right)) {
  if (left_.schema == nullptr || right_.schema == nullptr ||
      predicate == nullptr) {
    throw std::invalid_argument{"WindowJoinOp: null argument"};
  }
  // Compile-time plan: resolve every field, split out hash-joinable
  // equality conjuncts, and build one probe program per incoming direction
  // (the evaluation env is [incoming side, other side], so the binding
  // order flips with the direction).
  const std::vector<BindingSpec> lr{{left_.alias, left_.schema, SIZE_MAX},
                                    {right_.alias, right_.schema, SIZE_MAX}};
  const std::vector<BindingSpec> rl{{right_.alias, right_.schema, SIZE_MAX},
                                    {left_.alias, left_.schema, SIZE_MAX}};
  // Extracted keys resolved by construction, and every other conjunct stays
  // in the residual, so compiling the residual rejects unresolvable fields.
  JoinSplit split = split_equi_conjuncts(predicate, lr);
  residual_left_in_ = CompiledPredicate::compile(split.residual, lr);
  residual_right_in_ = CompiledPredicate::compile(split.residual, rl);
  keys_ = std::move(split.keys);
}

void WindowJoinOp::push_batch_left(const runtime::TupleBatch& batch,
                                   const std::vector<std::uint32_t>* sel,
                                   bool lift_append_ts,
                                   runtime::TupleBatch& out) {
  push_batch_side(batch, sel, lift_append_ts, /*is_left=*/true, out);
}

void WindowJoinOp::push_batch_right(const runtime::TupleBatch& batch,
                                    const std::vector<std::uint32_t>* sel,
                                    bool lift_append_ts,
                                    runtime::TupleBatch& out) {
  push_batch_side(batch, sel, lift_append_ts, /*is_left=*/false, out);
}

void WindowJoinOp::push_batch_side(const runtime::TupleBatch& batch,
                                   const std::vector<std::uint32_t>* sel,
                                   bool lift_append_ts, bool is_left,
                                   runtime::TupleBatch& out) {
  const auto one = [&](std::uint32_t r) {
    Tuple t = batch.row(r);
    if (lift_append_ts) {
      t.values.emplace_back(static_cast<std::int64_t>(t.ts));
    }
    push_one(std::move(t), is_left, out);
  };
  if (sel == nullptr) {
    for (std::uint32_t r = 0; r < batch.size(); ++r) one(r);
  } else {
    for (const std::uint32_t r : *sel) one(r);
  }
}

void WindowJoinOp::advance_watermark(Timestamp watermark) {
  if (watermark <= watermark_) return;
  watermark_ = watermark;
  prune_side(left_rt_, left_.window, /*is_left=*/true);
  prune_side(right_rt_, right_.window, /*is_left=*/false);
}

WindowJoinOp::State WindowJoinOp::export_state() const {
  State s;
  s.watermark = watermark_;
  s.left.assign(left_rt_.buf.begin(), left_rt_.buf.end());
  s.right.assign(right_rt_.buf.begin(), right_rt_.buf.end());
  return s;
}

void WindowJoinOp::import_state(State state) {
  watermark_ = state.watermark;
  const auto load = [this](std::vector<Tuple>&& tuples, SideRuntime& rt,
                           bool is_left) {
    rt.buf.clear();
    rt.index.clear();
    rt.first_seq = 0;
    rt.next_seq = 0;
    for (Tuple& t : tuples) {
      // Same insert path as push_one, sans probe: buckets end up holding
      // ascending seqs, which prune_side's pop-front relies on.
      if (!keys_.empty()) {
        rt.index[key_hash(t, is_left)].push_back(rt.next_seq);
      }
      ++rt.next_seq;
      rt.buf.push_back(std::move(t));
    }
  };
  load(std::move(state.left), left_rt_, /*is_left=*/true);
  load(std::move(state.right), right_rt_, /*is_left=*/false);
}

void WindowJoinOp::prune_side(SideRuntime& s, const WindowSpec& window,
                              bool is_left) {
  while (!s.buf.empty() && !window.contains(s.buf.front().ts, watermark_)) {
    if (!keys_.empty()) {
      // The evicted tuple is the globally oldest buffered one, so its seq
      // is the front of its bucket.
      const auto it = s.index.find(key_hash(s.buf.front(), is_left));
      it->second.pop_front();
      if (it->second.empty()) s.index.erase(it);
    }
    s.buf.pop_front();
    ++s.first_seq;
  }
}

std::size_t WindowJoinOp::key_hash(const Tuple& t, bool of_left) const {
  std::size_t h = 0x9e3779b97f4a7c15ull;
  Value scratch;
  for (const EquiKey& k : keys_) {
    const Value& v = slot_value(t, of_left ? k.left : k.right, scratch);
    // Cross-type numeric equality (int 3 == double 3.0) must hash equal:
    // numerics hash through their double view, strings through the bytes.
    const std::size_t hv =
        v.type() == ValueType::kString
            ? std::hash<std::string>{}(v.as_string())
            : std::hash<double>{}(v.as_double());
    h ^= hv + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

void WindowJoinOp::push_one(Tuple t, bool is_left, runtime::TupleBatch& out) {
  advance_watermark(t.ts);
  probe(t, is_left, out);
  SideRuntime& own = is_left ? left_rt_ : right_rt_;
  if (!keys_.empty()) {
    own.index[key_hash(t, is_left)].push_back(own.next_seq);
  }
  ++own.next_seq;
  own.buf.push_back(std::move(t));
}

void WindowJoinOp::probe(const Tuple& incoming, bool incoming_is_left,
                         runtime::TupleBatch& out) {
  SideRuntime& other = incoming_is_left ? right_rt_ : left_rt_;
  const Side& other_side = incoming_is_left ? right_ : left_;
  if (other.buf.empty()) return;
  const CompiledPredicate& residual =
      incoming_is_left ? residual_left_in_ : residual_right_in_;

  if (!keys_.empty()) {
    const auto it = other.index.find(key_hash(incoming, incoming_is_left));
    if (it == other.index.end()) return;
    Value sa;
    Value sb;
    for (const std::uint64_t seq : it->second) {
      const Tuple& cand =
          other.buf[static_cast<std::size_t>(seq - other.first_seq)];
      if (!other_side.window.contains(cand.ts, incoming.ts)) continue;
      // Re-check key equality: the bucket only guarantees equal hashes.
      bool keys_equal = true;
      for (const EquiKey& k : keys_) {
        const FieldSlot& own_slot = incoming_is_left ? k.left : k.right;
        const FieldSlot& other_slot = incoming_is_left ? k.right : k.left;
        if (!(slot_value(incoming, own_slot, sa) ==
              slot_value(cand, other_slot, sb))) {
          keys_equal = false;
          break;
        }
      }
      if (!keys_equal) continue;
      if (!residual.eval(incoming, cand)) continue;
      emit(incoming_is_left ? incoming : cand,
           incoming_is_left ? cand : incoming, out);
    }
    return;
  }

  for (const Tuple& cand : other.buf) {
    if (!other_side.window.contains(cand.ts, incoming.ts)) continue;
    if (!residual.eval(incoming, cand)) continue;
    emit(incoming_is_left ? incoming : cand,
         incoming_is_left ? cand : incoming, out);
  }
}

void WindowJoinOp::emit(const Tuple& lt, const Tuple& rt,
                        runtime::TupleBatch& out) {
  ++emitted_;
  // Scratch row reused across emits: push_row drains the elements but the
  // vector keeps its capacity.
  row_scratch_.clear();
  row_scratch_.reserve(lt.values.size() + rt.values.size());
  row_scratch_.insert(row_scratch_.end(), lt.values.begin(), lt.values.end());
  row_scratch_.insert(row_scratch_.end(), rt.values.begin(), rt.values.end());
  out.push_row(std::max(lt.ts, rt.ts), std::move(row_scratch_));
}

}  // namespace cosmos::stream
