#include "stream/operators.h"

#include <gtest/gtest.h>

#include <vector>

#include "runtime/tuple_batch.h"

namespace cosmos::stream {
namespace {

Schema simple_schema() {
  return Schema{{{"v", ValueType::kInt}}};
}

Tuple mk(Timestamp ts, std::int64_t v) { return Tuple{ts, {Value{v}}}; }

TEST(FilterOp, ForwardsMatchesOnly) {
  const Schema s = simple_schema();
  FilterOp f{"S", &s, Predicate::cmp({"S", "v"}, CmpOp::kGt, Value{5})};
  runtime::TupleBatch b{"S"};
  b.push_back(mk(1, 3));
  b.push_back(mk(2, 7));
  b.push_back(mk(3, 6));
  std::vector<std::uint32_t> sel;
  f.push_batch(b, nullptr, sel);
  EXPECT_EQ(f.seen(), 3u);
  EXPECT_EQ(f.passed(), 2u);
  EXPECT_EQ(sel, (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(b.at(sel[0], 0).as_int(), 7);
}

TEST(FilterOp, RejectsNullArguments) {
  const Schema s = simple_schema();
  EXPECT_THROW(FilterOp("S", nullptr, Predicate::always_true()),
               std::invalid_argument);
  EXPECT_THROW(FilterOp("S", &s, nullptr), std::invalid_argument);
}

TEST(ProjectOp, KeepsRequestedColumns) {
  ProjectOp p{{2, 0}};
  runtime::TupleBatch in{"S"};
  in.push_back(Tuple{5, {Value{1}, Value{2}, Value{3}}});
  runtime::TupleBatch out{"S"};
  p.push_batch(in, nullptr, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.width(), 2u);
  EXPECT_EQ(out.at(0, 0).as_int(), 3);
  EXPECT_EQ(out.at(0, 1).as_int(), 1);
  EXPECT_EQ(out.ts(0), 5);
}

class JoinTest : public ::testing::Test {
 protected:
  Schema left_{{{"a", ValueType::kInt}}};
  Schema right_{{{"b", ValueType::kInt}}};
  std::vector<Tuple> out_;

  WindowJoinOp make(WindowSpec lw, WindowSpec rw, PredicatePtr pred) {
    return WindowJoinOp{{"L", &left_, lw}, {"R", &right_, rw}, std::move(pred)};
  }
  /// One arrival as a one-row batch (the shape push() drives); the join's
  /// output rows are appended to out_.
  void push(WindowJoinOp& j, bool left, const Tuple& t) {
    runtime::TupleBatch in{left ? "L" : "R"};
    in.push_back(t);
    runtime::TupleBatch out{"out"};
    if (left) {
      j.push_batch_left(in, nullptr, /*lift_append_ts=*/false, out);
    } else {
      j.push_batch_right(in, nullptr, /*lift_append_ts=*/false, out);
    }
    for (std::size_t i = 0; i < out.size(); ++i) out_.push_back(out.row(i));
  }
  void push_left(WindowJoinOp& j, const Tuple& t) { push(j, true, t); }
  void push_right(WindowJoinOp& j, const Tuple& t) { push(j, false, t); }
};

TEST_F(JoinTest, EquiJoinWithinWindow) {
  auto j = make(WindowSpec::range_millis(100), WindowSpec::range_millis(100),
                Predicate::cmp({"L", "a"}, CmpOp::kEq, FieldRef{"R", "b"}));
  push_left(j, mk(0, 1));
  push_left(j, mk(10, 2));
  push_right(j, mk(20, 2));  // matches L(10,2)
  ASSERT_EQ(out_.size(), 1u);
  EXPECT_EQ(out_[0].at(0).as_int(), 2);  // L.a
  EXPECT_EQ(out_[0].at(1).as_int(), 2);  // R.b
  EXPECT_EQ(out_[0].ts, 20);
  EXPECT_EQ(j.emitted(), 1u);
}

TEST_F(JoinTest, WindowExpiryPrunesState) {
  auto j = make(WindowSpec::range_millis(50), WindowSpec::range_millis(50),
                Predicate::always_true());
  push_left(j, mk(0, 1));
  push_left(j, mk(100, 2));
  push_right(j, mk(120, 9));  // only L(100) within 50ms
  ASSERT_EQ(out_.size(), 1u);
  EXPECT_EQ(out_[0].at(0).as_int(), 2);
  EXPECT_LE(j.left_state_size(), 2u);
}

TEST_F(JoinTest, NowWindowJoinsSameTimestampOnly) {
  auto j = make(WindowSpec::range_millis(1'000), WindowSpec::now(),
                Predicate::always_true());
  push_right(j, mk(10, 1));
  push_left(j, mk(10, 5));  // R(10) is "now" for ts=10
  EXPECT_EQ(out_.size(), 1u);
  push_left(j, mk(20, 6));  // R(10) expired under Now window
  EXPECT_EQ(out_.size(), 1u);
}

TEST_F(JoinTest, BandPredicateJoin) {
  // The paper's S1.snowHeight > S2.snowHeight shape.
  auto j = make(WindowSpec::range_millis(100), WindowSpec::range_millis(100),
                Predicate::cmp({"L", "a"}, CmpOp::kGt, FieldRef{"R", "b"}));
  push_left(j, mk(0, 10));
  push_right(j, mk(1, 5));   // 10 > 5 -> match
  push_right(j, mk(2, 15));  // 10 > 15 -> no
  EXPECT_EQ(out_.size(), 1u);
}

TEST_F(JoinTest, SymmetricProbing) {
  auto j = make(WindowSpec::range_millis(100), WindowSpec::range_millis(100),
                Predicate::always_true());
  push_left(j, mk(0, 1));
  push_right(j, mk(1, 2));  // pairs with L
  push_left(j, mk(2, 3));   // pairs with R
  EXPECT_EQ(out_.size(), 2u);
  // Output column order is always left-then-right regardless of arrival.
  EXPECT_EQ(out_[1].at(0).as_int(), 3);
  EXPECT_EQ(out_[1].at(1).as_int(), 2);
}

TEST_F(JoinTest, CartesianCountWithinWindow) {
  auto j = make(WindowSpec::range_millis(1'000), WindowSpec::range_millis(1'000),
                Predicate::always_true());
  for (int i = 0; i < 3; ++i) push_left(j, mk(i, i));
  for (int i = 0; i < 4; ++i) push_right(j, mk(10 + i, i));
  EXPECT_EQ(out_.size(), 12u);  // 3 x 4
}

}  // namespace
}  // namespace cosmos::stream
