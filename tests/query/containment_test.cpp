// Containment and result-stream merging tests, centered on the paper's
// Q3/Q4 -> Q5 example (Table 1, Section 2.1).
#include "query/containment.h"

#include <gtest/gtest.h>

#include "cql/parser.h"

namespace cosmos::query {
namespace {

QuerySpec q3() {
  return cql::parse_query(
      "SELECT S2.* "
      "FROM Station1 [Range 30 Minutes] S1, Station2 [Now] S2 "
      "WHERE S1.snowHeight > S2.snowHeight AND S1.snowHeight >= 10",
      QueryId{3});
}

QuerySpec q4() {
  return cql::parse_query(
      "SELECT S1.snowHeight, S1.timestamp, S2.snowHeight, S2.timestamp "
      "FROM Station1 [Range 1 Hour] S1, Station2 [Now] S2 "
      "WHERE S1.snowHeight > S2.snowHeight",
      QueryId{4});
}

TEST(Containment, Q4DoesNotContainQ3BecauseOfProjection) {
  // Q4's window and predicate cover Q3's, but Q4 projects specific columns
  // while Q3 wants all of S2.
  EXPECT_FALSE(contains(q4(), q3()));
}

TEST(Containment, WiderWindowAndWeakerPredicateContains) {
  const auto wide = cql::parse_query(
      "SELECT * FROM Station1 [Range 1 Hour] S1, Station2 [Now] S2 "
      "WHERE S1.snowHeight > S2.snowHeight");
  EXPECT_TRUE(contains(wide, q3()));
  EXPECT_TRUE(contains(wide, q4()));
  EXPECT_FALSE(contains(q3(), wide));  // narrower window cannot contain
}

TEST(Containment, SelfContainment) {
  EXPECT_TRUE(contains(q3(), q3()));
  EXPECT_TRUE(contains(q4(), q4()));
}

TEST(Containment, AliasRenamingIsHandled) {
  const auto a = cql::parse_query(
      "SELECT * FROM Station1 [Now] X, Station2 [Now] Y "
      "WHERE X.snowHeight > Y.snowHeight");
  const auto b = cql::parse_query(
      "SELECT * FROM Station1 [Now] S1, Station2 [Now] S2 "
      "WHERE S1.snowHeight > S2.snowHeight AND S1.snowHeight >= 10");
  EXPECT_TRUE(contains(a, b));
  EXPECT_FALSE(contains(b, a));
}

TEST(Containment, SelfJoinPairsAliasesInSourceOrder) {
  // Both aliases read Station1. Pairing them in source order keeps the
  // left alias left: a self-join's left side sees each row first, so a
  // merge that swapped the two sides would change the result.
  const auto wide = cql::parse_query(
      "SELECT * FROM Station1 [Range 30 Minutes] P, Station1 [Now] Q "
      "WHERE P.snowHeight > Q.snowHeight");
  const auto narrow = cql::parse_query(
      "SELECT * FROM Station1 [Range 10 Minutes] A, Station1 [Now] B "
      "WHERE A.snowHeight > B.snowHeight AND B.temperature < 2.5");
  const auto swapped = cql::parse_query(
      "SELECT * FROM Station1 [Now] A, Station1 [Range 10 Minutes] B "
      "WHERE B.snowHeight > A.snowHeight");
  EXPECT_TRUE(contains(wide, wide));
  EXPECT_TRUE(contains(wide, narrow));
  EXPECT_FALSE(contains(narrow, wide));
  EXPECT_FALSE(contains(wide, swapped));

  const auto merged = merge_queries(wide, narrow, QueryId{9});
  ASSERT_TRUE(merged.has_value());
  ASSERT_EQ(merged->merged.sources.size(), 2u);
  EXPECT_EQ(merged->merged.sources[0].window,
            stream::WindowSpec::range_millis(30 * 60'000));
  EXPECT_EQ(merged->merged.sources[1].window, stream::WindowSpec::now());
  // The narrower left window comes back as a band on the left alias.
  ASSERT_EQ(merged->split_b.window_bands.size(), 1u);
  EXPECT_EQ(merged->split_b.window_bands[0].alias, "P");
  EXPECT_EQ(merged->split_b.window_bands[0].band_ms, 10 * 60'000);
}

TEST(Containment, DifferentStreamsNeverContain) {
  const auto a = cql::parse_query("SELECT * FROM A [Now] X");
  const auto b = cql::parse_query("SELECT * FROM B [Now] X");
  EXPECT_FALSE(contains(a, b));
}

TEST(Equivalent, ConjunctOrderIrrelevant) {
  const auto a = cql::parse_query("SELECT * FROM S WHERE S.a > 1 AND S.b < 2");
  const auto b = cql::parse_query("SELECT * FROM S WHERE S.b < 2 AND S.a > 1");
  EXPECT_TRUE(equivalent(a.where, b.where));
  const auto c = cql::parse_query("SELECT * FROM S WHERE S.a > 1");
  EXPECT_FALSE(equivalent(a.where, c.where));
}

TEST(Equivalent, FlippedFieldComparison) {
  const auto a = cql::parse_query("SELECT * FROM S, T WHERE S.a > T.b");
  const auto b = cql::parse_query("SELECT * FROM S, T WHERE T.b < S.a");
  EXPECT_TRUE(equivalent(a.where, b.where));
}

class MergeQ3Q4 : public ::testing::Test {
 protected:
  void SetUp() override {
    auto m = merge_queries(q3(), q4(), QueryId{5});
    ASSERT_TRUE(m.has_value());
    merged_ = std::move(*m);
  }
  MergedQuery merged_;
};

TEST_F(MergeQ3Q4, MergedIsQ5Shape) {
  // Q5: windows are the wider ones; WHERE keeps only the common conjunct.
  const auto& q5 = merged_.merged;
  ASSERT_EQ(q5.sources.size(), 2u);
  EXPECT_EQ(q5.source_by_alias("S1")->window,
            stream::WindowSpec::range_millis(3'600'000));
  EXPECT_EQ(q5.source_by_alias("S2")->window, stream::WindowSpec::now());
  std::vector<stream::PredicatePtr> conj;
  ASSERT_TRUE(stream::collect_conjuncts(q5.where, conj));
  ASSERT_EQ(conj.size(), 1u);
  EXPECT_EQ(conj[0]->to_string(), "S1.snowHeight > S2.snowHeight");
}

TEST_F(MergeQ3Q4, MergedContainsBothInputs) {
  EXPECT_TRUE(contains(merged_.merged, q3()));
  EXPECT_TRUE(contains(merged_.merged, q4()));
}

TEST_F(MergeQ3Q4, MergedSelectCoversPaperQ5) {
  // Paper Q5 selects S2.*, S1.snowHeight, S1.timestamp.
  const auto& sel = merged_.merged.select;
  EXPECT_FALSE(merged_.merged.select_all);
  const auto has = [&sel](const std::string& alias, const std::string& field) {
    for (const auto& item : sel) {
      if (item.alias == alias && item.field == field) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("S2", ""));  // S2.*
  EXPECT_TRUE(has("S1", "snowHeight"));
  EXPECT_TRUE(has("S1", "timestamp"));
}

TEST_F(MergeQ3Q4, SplitForQ3CarriesResidualAndBand) {
  // p3_2 = { -30min <= S1.ts - S2.ts <= 0  AND  S1.snowHeight >= 10 }.
  const auto& split = merged_.split_a;
  EXPECT_EQ(split.original, QueryId{3});
  ASSERT_EQ(split.residual_filters.size(), 1u);
  EXPECT_EQ(split.residual_filters[0]->to_string(), "S1.snowHeight >= 10");
  ASSERT_EQ(split.window_bands.size(), 1u);
  EXPECT_EQ(split.window_bands[0].alias, "S1");
  EXPECT_EQ(split.window_bands[0].band_ms, 30 * 60'000);
  ASSERT_EQ(split.select.size(), 1u);
  EXPECT_TRUE(split.select[0].is_wildcard());
}

TEST_F(MergeQ3Q4, SplitForQ4IsPureProjection) {
  // Q4 matches the merged window and predicate: no residual, no band.
  const auto& split = merged_.split_b;
  EXPECT_EQ(split.original, QueryId{4});
  EXPECT_TRUE(split.residual_filters.empty());
  EXPECT_TRUE(split.window_bands.empty());
  EXPECT_EQ(split.select.size(), 4u);
}

TEST(Merge, RejectsDifferentJoinPredicates) {
  const auto a = cql::parse_query(
      "SELECT * FROM A [Now] X, B [Now] Y WHERE X.u = Y.u");
  const auto b = cql::parse_query(
      "SELECT * FROM A [Now] X, B [Now] Y WHERE X.v = Y.v");
  EXPECT_FALSE(merge_queries(a, b, QueryId{9}).has_value());
}

TEST(Merge, RejectsDifferentStreams) {
  const auto a = cql::parse_query("SELECT * FROM A [Now] X");
  const auto b = cql::parse_query("SELECT * FROM B [Now] X");
  EXPECT_FALSE(merge_queries(a, b, QueryId{9}).has_value());
}

TEST(Merge, IdenticalQueriesMergeTrivially) {
  const auto m = merge_queries(q4(), q4(), QueryId{9});
  ASSERT_TRUE(m.has_value());
  EXPECT_TRUE(m->split_a.residual_filters.empty());
  EXPECT_TRUE(m->split_b.residual_filters.empty());
  EXPECT_TRUE(m->split_a.window_bands.empty());
}

TEST(Merge, SingleStreamSelectionMerge) {
  const auto a = cql::parse_query(
      "SELECT * FROM S [Now] S WHERE S.a > 10 AND S.b < 5");
  const auto b =
      cql::parse_query("SELECT * FROM S [Now] S WHERE S.a > 10 AND S.c = 1");
  const auto m = merge_queries(a, b, QueryId{9});
  ASSERT_TRUE(m.has_value());
  std::vector<stream::PredicatePtr> conj;
  ASSERT_TRUE(stream::collect_conjuncts(m->merged.where, conj));
  ASSERT_EQ(conj.size(), 1u);  // only the common S.a > 10 survives
  EXPECT_EQ(conj[0]->to_string(), "S.a > 10");
  EXPECT_EQ(m->split_a.residual_filters.size(), 1u);
  EXPECT_EQ(m->split_b.residual_filters.size(), 1u);
}

}  // namespace
}  // namespace cosmos::query
