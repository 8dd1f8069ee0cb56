// Batch-path and hash-join coverage for the streaming operators: the four
// execution shapes of WindowJoinOp — {hash probe, scan probe} x {one-row
// batches, same-side run batches} — must each emit exactly what the
// nested-loop reference join (tests/support/reference_eval.h) emits over
// randomized workloads, batch filters/projections must equal per-row
// evaluation, and watermark-driven pruning must expire both windows even
// when one side goes idle.
#include "stream/operators.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "runtime/tuple_batch.h"
#include "support/reference_eval.h"

namespace cosmos::stream {
namespace {

using middleware::testsupport::NestedLoopJoin;

std::string fmt(const Tuple& t) {
  std::string out = std::to_string(t.ts);
  for (const auto& v : t.values) out += "|" + v.to_string();
  return out;
}

std::vector<std::string> flatten(const runtime::TupleBatch& b) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < b.size(); ++i) out.push_back(fmt(b.row(i)));
  return out;
}

/// One arrival as a one-row batch (the shape push() drives); returns the
/// rendered output rows.
std::vector<std::string> push_row(WindowJoinOp& j, bool left, const Tuple& t) {
  runtime::TupleBatch in{left ? "L" : "R"};
  in.push_back(t);
  runtime::TupleBatch out{"out"};
  if (left) {
    j.push_batch_left(in, nullptr, /*lift_append_ts=*/false, out);
  } else {
    j.push_batch_right(in, nullptr, /*lift_append_ts=*/false, out);
  }
  return flatten(out);
}

TEST(FilterOpBatch, MatchesScalarPath) {
  // The compiled batch filter keeps exactly the rows the interpreted
  // predicate accepts one by one.
  const Schema s{{{"v", ValueType::kInt}}};
  const auto pred = Predicate::cmp({"S", "v"}, CmpOp::kGt, Value{2});
  FilterOp batch{"S", &s, pred};

  runtime::TupleBatch b{"S"};
  std::vector<std::uint32_t> expected;
  for (int i = 0; i < 8; ++i) {
    const Tuple t{i, {Value{i % 5}}};
    if (pred->eval({{"S", &s, &t}})) {
      expected.push_back(static_cast<std::uint32_t>(i));
    }
    b.push_back(t);
  }
  std::vector<std::uint32_t> sel;
  batch.push_batch(b, nullptr, sel);
  EXPECT_EQ(sel, expected);
  EXPECT_EQ(batch.seen(), 8u);
  EXPECT_EQ(batch.passed(), expected.size());

  // A selection narrows the rows evaluated.
  const std::vector<std::uint32_t> subset{0, 3, 7};
  sel.clear();
  batch.push_batch(b, &subset, sel);
  EXPECT_EQ(sel, (std::vector<std::uint32_t>{3}));
}

TEST(ProjectOpBatch, MatchesScalarAndReadsVirtualTimestamp) {
  // Lifted schema: {v, ts}; keep = {ts, v} with column 1 virtual, so the
  // projection of a raw row {v} equals that of its lifted form {v, ts}.
  ProjectOp batch{{1, 0}, 1};
  ProjectOp physical{{1, 0}};

  runtime::TupleBatch raw{"S"};     // raw rows: just {v}
  runtime::TupleBatch lifted{"S"};  // physically lifted rows: {v, ts}
  std::vector<std::string> expected;
  for (int i = 0; i < 5; ++i) {
    const Tuple r{100 + i, {Value{i}}};
    raw.push_back(r);
    lifted.push_back(Tuple{r.ts, {Value{i}, Value{r.ts}}});
    expected.push_back(fmt(Tuple{r.ts, {Value{r.ts}, Value{i}}}));
  }
  runtime::TupleBatch out{"S"};
  batch.push_batch(raw, nullptr, out);
  EXPECT_EQ(flatten(out), expected);
  out.clear();
  physical.push_batch(lifted, nullptr, out);
  EXPECT_EQ(flatten(out), expected);

  // Selection subset.
  out.clear();
  const std::vector<std::uint32_t> sel{1, 3};
  batch.push_batch(raw, &sel, out);
  EXPECT_EQ(flatten(out),
            (std::vector<std::string>{expected[1], expected[3]}));
}

struct JoinHarness {
  Schema left{{{"k", ValueType::kInt},
               {"w", ValueType::kDouble},
               {"L.timestamp", ValueType::kInt}}};
  Schema right{{{"j", ValueType::kInt},
                {"u", ValueType::kDouble},
                {"R.timestamp", ValueType::kInt}}};

  /// L.k = R.j AND L.w > R.u: the equality conjunct is a hash key.
  PredicatePtr equi_pred() {
    return Predicate::conj(
        {Predicate::cmp(FieldRef{"L", "k"}, CmpOp::kEq, FieldRef{"R", "j"}),
         Predicate::cmp(FieldRef{"L", "w"}, CmpOp::kGt, FieldRef{"R", "u"})});
  }
  /// The same join without an extractable key: the scan probe.
  PredicatePtr keyless_pred() {
    return Predicate::conj(
        {Predicate::cmp(FieldRef{"L", "k"}, CmpOp::kGe, FieldRef{"R", "j"}),
         Predicate::cmp(FieldRef{"L", "k"}, CmpOp::kLe, FieldRef{"R", "j"}),
         Predicate::cmp(FieldRef{"L", "w"}, CmpOp::kGt, FieldRef{"R", "u"})});
  }

  Tuple mk(Rng& rng, Timestamp ts) {
    return Tuple{ts,
                 {Value{rng.next_range(0, 6)},
                  Value{rng.next_double(-3.0, 3.0)}, Value{ts}}};
  }
};

TEST(WindowJoinOpHash, FourExecutionShapesAgree) {
  JoinHarness h;
  // A globally ordered interleaving of left/right arrivals with enough key
  // collisions to join often, including equal timestamps.
  struct Arrival {
    bool left;
    Tuple t;
  };
  struct Windows {
    WindowSpec left;
    WindowSpec right;
  };
  for (const std::uint64_t seed : {1ull, 7ull, 99ull}) {
    for (const Windows win :
         {Windows{WindowSpec::range_millis(200), WindowSpec::range_millis(350)},
          Windows{WindowSpec::now(), WindowSpec::range_millis(60)},
          Windows{WindowSpec::unbounded(), WindowSpec::now()}}) {
      Rng rng{seed};
      std::vector<Arrival> arrivals;
      Timestamp ts = 0;
      for (int i = 0; i < 200; ++i) {
        ts += static_cast<Timestamp>(rng.next_below(30));
        arrivals.push_back({rng.next_bool(0.5), h.mk(rng, ts)});
      }

      std::vector<std::string> reference;
      NestedLoopJoin ref{{"L", &h.left, win.left},
                         {"R", &h.right, win.right},
                         h.equi_pred()};
      for (const auto& a : arrivals) {
        ref.arrive(a.left, a.t, [&](const Tuple& l, const Tuple& r) {
          reference.push_back(fmt(NestedLoopJoin::concat(l, r)));
        });
      }
      ASSERT_GT(reference.size(), 0u) << "seed " << seed;

      for (const bool keyed : {true, false}) {
        const auto make = [&] {
          return WindowJoinOp{{"L", &h.left, win.left},
                              {"R", &h.right, win.right},
                              keyed ? h.equi_pred() : h.keyless_pred()};
        };
        // One-row batches, one per arrival.
        WindowJoinOp rows = make();
        EXPECT_EQ(rows.equi_key_count(), keyed ? 1u : 0u);
        std::vector<std::string> out_rows;
        for (const auto& a : arrivals) {
          for (auto& line : push_row(rows, a.left, a.t)) {
            out_rows.push_back(std::move(line));
          }
        }
        ASSERT_EQ(out_rows, reference) << "seed " << seed << " keyed "
                                       << keyed << " one-row batches";
        EXPECT_EQ(rows.emitted(), reference.size());

        // Maximal same-side run batches (the driver's chunk shape).
        WindowJoinOp runs = make();
        std::vector<std::string> out_runs;
        runtime::TupleBatch run{"run"};
        bool run_left = arrivals.front().left;
        const auto flush = [&] {
          if (run.empty()) return;
          runtime::TupleBatch out{"out"};
          if (run_left) {
            runs.push_batch_left(run, nullptr, /*lift_append_ts=*/false, out);
          } else {
            runs.push_batch_right(run, nullptr, /*lift_append_ts=*/false, out);
          }
          for (const auto& line : flatten(out)) out_runs.push_back(line);
          run.clear();
        };
        for (const auto& a : arrivals) {
          if (a.left != run_left) {
            flush();
            run_left = a.left;
          }
          run.push_back(a.t);
        }
        flush();
        ASSERT_EQ(out_runs, reference)
            << "seed " << seed << " keyed " << keyed << " run batches";
        EXPECT_EQ(runs.left_state_size(), rows.left_state_size());
        EXPECT_EQ(runs.right_state_size(), rows.right_state_size());
      }
    }
  }
}

TEST(WindowJoinOpHash, CrossTypeNumericKeysMatch) {
  // int 3 on one side, double 3.0 on the other: Value equality is numeric
  // cross-type, so the hash index must bucket them together.
  const Schema ls{{{"k", ValueType::kInt}}};
  const Schema rs{{{"j", ValueType::kDouble}}};
  WindowJoinOp j{{"L", &ls, WindowSpec::range_millis(100)},
                 {"R", &rs, WindowSpec::range_millis(100)},
                 Predicate::cmp(FieldRef{"L", "k"}, CmpOp::kEq,
                                FieldRef{"R", "j"})};
  ASSERT_EQ(j.equi_key_count(), 1u);
  EXPECT_TRUE(push_row(j, true, Tuple{0, {Value{3}}}).empty());
  EXPECT_EQ(push_row(j, false, Tuple{1, {Value{3.0}}}),
            (std::vector<std::string>{"1|3|3.000000"}));
  EXPECT_TRUE(push_row(j, false, Tuple{2, {Value{4.0}}}).empty());
}

TEST(WindowJoinOpPrune, IdleOppositeSidePrunesOnWatermarkAdvance) {
  // Regression for the arrival-driven-only prune: a side that keeps
  // receiving tuples must expire its *own* window even when the other
  // side stays idle (join state feeds the migration cost model).
  const Schema ls{{{"a", ValueType::kInt}}};
  const Schema rs{{{"b", ValueType::kInt}}};
  WindowJoinOp j{{"L", &ls, WindowSpec::range_millis(50)},
                 {"R", &rs, WindowSpec::range_millis(50)},
                 Predicate::always_true()};
  push_row(j, true, Tuple{0, {Value{1}}});
  push_row(j, true, Tuple{100, {Value{2}}});
  push_row(j, true, Tuple{200, {Value{3}}});
  // Only ts=200 is inside the 50ms window at watermark 200.
  EXPECT_EQ(j.left_state_size(), 1u);

  // And the explicit external-clock hook prunes without any arrival.
  j.advance_watermark(1'000);
  EXPECT_EQ(j.left_state_size(), 0u);
}

TEST(WindowJoinOpPrune, PrunedTuplesNoLongerJoin) {
  const Schema ls{{{"a", ValueType::kInt}}};
  const Schema rs{{{"b", ValueType::kInt}}};
  WindowJoinOp j{{"L", &ls, WindowSpec::range_millis(50)},
                 {"R", &rs, WindowSpec::range_millis(50)},
                 Predicate::cmp(FieldRef{"L", "a"}, CmpOp::kEq,
                                FieldRef{"R", "b"})};
  push_row(j, true, Tuple{0, {Value{7}}});
  push_row(j, true, Tuple{100, {Value{7}}});
  // Joins only the ts=100 left row.
  EXPECT_EQ(push_row(j, false, Tuple{120, {Value{7}}}),
            (std::vector<std::string>{"120|7|7"}));
}

TEST(WindowJoinOpBatch, LiftAppendsTimestampColumn) {
  // Raw source rows lack the timestamp column; the join's fused lift must
  // produce the same outputs as pushes of physically lifted rows.
  const Schema ls{{{"v", ValueType::kInt}, {"L.timestamp", ValueType::kInt}}};
  const Schema rs{{{"u", ValueType::kInt}, {"R.timestamp", ValueType::kInt}}};
  const auto pred = Predicate::cmp(FieldRef{"", "v"}, CmpOp::kEq,
                                   FieldRef{"", "u"});
  WindowJoinOp physical{{"", &ls, WindowSpec::range_millis(100)},
                        {"", &rs, WindowSpec::range_millis(100)},
                        pred};
  push_row(physical, true, Tuple{10, {Value{1}, Value{10}}});
  const auto expected =
      push_row(physical, false, Tuple{20, {Value{1}, Value{20}}});

  WindowJoinOp fused{{"", &ls, WindowSpec::range_millis(100)},
                     {"", &rs, WindowSpec::range_millis(100)},
                     pred};
  runtime::TupleBatch raw_l{"L"};
  raw_l.push_back(Tuple{10, {Value{1}}});
  runtime::TupleBatch raw_r{"R"};
  raw_r.push_back(Tuple{20, {Value{1}}});
  runtime::TupleBatch out{"out"};
  fused.push_batch_left(raw_l, nullptr, /*lift_append_ts=*/true, out);
  fused.push_batch_right(raw_r, nullptr, /*lift_append_ts=*/true, out);
  EXPECT_EQ(flatten(out), expected);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.row(0).values.size(), 4u);  // v, L.ts, u, R.ts
}

}  // namespace
}  // namespace cosmos::stream
