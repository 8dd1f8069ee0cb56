// Unit tests for the attribute-predicate SubscriptionIndex: placement
// policy (equality hash vs merged interval bands vs scan-list fallback),
// probe candidates against a brute-force anchor check, residual coverage,
// and incremental remove/re-add maintenance.
#include "pubsub/subscription_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "runtime/tuple_batch.h"
#include "stream/predicate.h"

namespace cosmos::pubsub {
namespace {

using stream::CmpOp;
using stream::CompiledPredicate;
using stream::FieldRef;
using stream::Predicate;
using stream::PredicatePtr;
using stream::Schema;
using stream::Tuple;
using stream::Value;
using stream::ValueType;

Schema station_schema() {
  return Schema{{{"snowHeight", ValueType::kDouble},
                 {"temperature", ValueType::kDouble},
                 {"stationId", ValueType::kInt},
                 {"label", ValueType::kString}}};
}

CompiledPredicate lenient(const PredicatePtr& p, const Schema& s) {
  return CompiledPredicate::compile_lenient(p, {{"", &s, SIZE_MAX}});
}

/// probe_batch() on a one-row batch: the slots whose anchor holds on
/// `row`, ascending (candidates still owe their residual check).
std::vector<SubscriptionIndex::Slot> probe_row(const SubscriptionIndex& idx,
                                               const Tuple& row,
                                               std::size_t slots = 8) {
  runtime::TupleBatch batch{"S"};
  batch.push_back(row);
  std::vector<std::vector<std::uint32_t>> cands(slots);
  std::vector<SubscriptionIndex::Slot> touched;
  idx.probe_batch(batch, cands, touched);
  std::sort(touched.begin(), touched.end());
  return touched;
}

TEST(SubscriptionIndex, PlacementPolicy) {
  const Schema s = station_schema();
  SubscriptionIndex idx{&s};

  // Equality anchor wins even with ranges present.
  const auto eq_and_range = Predicate::conj(
      {Predicate::cmp(FieldRef{"", "snowHeight"}, CmpOp::kGt, Value{5.0}),
       Predicate::cmp(FieldRef{"", "stationId"}, CmpOp::kEq, Value{3})});
  EXPECT_EQ(idx.add(0, eq_and_range, lenient(eq_and_range, s)),
            SubscriptionIndex::Placement::kEquality);
  EXPECT_NE(idx.residual(0), nullptr);  // the range conjunct remains

  // Pure band: both sides merge into one interval, no residual left.
  const auto band = Predicate::conj(
      {Predicate::cmp(FieldRef{"", "snowHeight"}, CmpOp::kGe, Value{10.0}),
       Predicate::cmp(FieldRef{"", "snowHeight"}, CmpOp::kLt, Value{12.0})});
  EXPECT_EQ(idx.add(1, band, lenient(band, s)),
            SubscriptionIndex::Placement::kRange);
  EXPECT_EQ(idx.residual(1), nullptr);

  // String equality is indexable; string ranges are not.
  const auto str_eq =
      Predicate::cmp(FieldRef{"", "label"}, CmpOp::kEq, Value{"alp"});
  EXPECT_EQ(idx.add(2, str_eq, lenient(str_eq, s)),
            SubscriptionIndex::Placement::kEquality);
  const auto str_range =
      Predicate::cmp(FieldRef{"", "label"}, CmpOp::kLt, Value{"m"});
  EXPECT_EQ(idx.add(3, str_range, lenient(str_range, s)),
            SubscriptionIndex::Placement::kScan);

  // Unindexable shapes: OR, lenient may-throw, catch-all, type clash.
  const auto ors = Predicate::disj(
      {Predicate::cmp(FieldRef{"", "stationId"}, CmpOp::kEq, Value{1}),
       Predicate::cmp(FieldRef{"", "stationId"}, CmpOp::kEq, Value{2})});
  EXPECT_EQ(idx.add(4, ors, lenient(ors, s)),
            SubscriptionIndex::Placement::kScan);
  const auto unresolved =
      Predicate::cmp(FieldRef{"", "humidity"}, CmpOp::kGt, Value{0.5});
  EXPECT_EQ(idx.add(5, unresolved, lenient(unresolved, s)),
            SubscriptionIndex::Placement::kScan);
  const auto always = Predicate::always_true();
  EXPECT_EQ(idx.add(6, always, lenient(always, s)),
            SubscriptionIndex::Placement::kScan);
  const auto clash = Predicate::conj(
      {Predicate::cmp(FieldRef{"", "stationId"}, CmpOp::kEq, Value{1}),
       Predicate::cmp(FieldRef{"", "label"}, CmpOp::kGt, Value{3.0})});
  EXPECT_EQ(idx.add(7, clash, lenient(clash, s)),
            SubscriptionIndex::Placement::kScan);

  EXPECT_EQ(idx.equality_entries(), 2u);
  EXPECT_EQ(idx.range_entries(), 1u);
  EXPECT_EQ(idx.scan_slots(),
            (std::vector<SubscriptionIndex::Slot>{3, 4, 5, 6, 7}));
}

TEST(SubscriptionIndex, TimestampAnchor) {
  const Schema s = station_schema();
  SubscriptionIndex idx{&s};
  const auto p =
      Predicate::cmp(FieldRef{"", "timestamp"}, CmpOp::kGe, Value{100});
  EXPECT_EQ(idx.add(0, p, lenient(p, s)),
            SubscriptionIndex::Placement::kRange);
  const std::vector<Value> vals{Value{1.0}, Value{1.0}, Value{0},
                                Value{"x"}};
  EXPECT_TRUE(probe_row(idx, Tuple{99, vals}).empty());
  EXPECT_EQ(probe_row(idx, Tuple{100, vals}),
            (std::vector<SubscriptionIndex::Slot>{0}));
}

/// Brute-force differential: random anchored filters, random rows; the
/// probe's candidates joined with their residuals must reproduce full
/// filter evaluation exactly, on one-row batches and on a whole batch.
TEST(SubscriptionIndex, ProbeCandidatesMatchBruteForce) {
  const Schema s = station_schema();
  Rng rng{2024};
  for (int round = 0; round < 20; ++round) {
    SubscriptionIndex idx{&s};
    std::vector<PredicatePtr> filters;
    std::vector<CompiledPredicate> compiled;
    const std::size_t n = 40;
    for (std::size_t i = 0; i < n; ++i) {
      PredicatePtr p;
      switch (rng.next_below(5)) {
        case 0:
          p = Predicate::cmp(FieldRef{"", "stationId"}, CmpOp::kEq,
                             Value{rng.next_range(0, 5)});
          break;
        case 1: {
          const double lo = rng.next_double(-2.0, 2.0);
          p = Predicate::conj(
              {Predicate::cmp(FieldRef{"", "temperature"}, CmpOp::kGe,
                              Value{lo}),
               Predicate::cmp(FieldRef{"", "temperature"}, CmpOp::kLe,
                              Value{lo + rng.next_double(0.0, 1.0)})});
          break;
        }
        case 2:
          p = Predicate::cmp(FieldRef{"", "snowHeight"},
                             rng.next_bool(0.5) ? CmpOp::kGt : CmpOp::kLe,
                             Value{rng.next_double(-2.0, 2.0)});
          break;
        case 3:
          p = Predicate::conj(
              {Predicate::cmp(FieldRef{"", "stationId"}, CmpOp::kEq,
                              Value{rng.next_range(0, 5)}),
               Predicate::cmp(FieldRef{"", "snowHeight"}, CmpOp::kGt,
                              Value{rng.next_double(-2.0, 2.0)})});
          break;
        default:
          p = Predicate::cmp(FieldRef{"", "label"}, CmpOp::kEq,
                             Value{std::string(
                                 1, static_cast<char>(
                                        'a' + rng.next_below(3)))});
          break;
      }
      filters.push_back(p);
      compiled.push_back(lenient(p, s));
      const auto placed = idx.add(static_cast<SubscriptionIndex::Slot>(i), p,
                                  compiled.back());
      ASSERT_NE(placed, SubscriptionIndex::Placement::kScan);
    }

    runtime::TupleBatch batch{"S"};
    for (int r = 0; r < 64; ++r) {
      batch.push_back(Tuple{
          static_cast<stream::Timestamp>(r),
          {Value{rng.next_double(-2.0, 2.0)}, Value{rng.next_double(-2.0, 2.0)},
           Value{rng.next_range(0, 5)},
           Value{std::string(1, static_cast<char>('a' + rng.next_below(3)))}}});
    }

    // One-row probes, row by row.
    for (std::size_t r = 0; r < batch.size(); ++r) {
      const Tuple row = batch.row(r);
      const CompiledPredicate::Row cr{row.ts, row.values.data(),
                                      row.values.size()};
      std::vector<bool> matched(n, false);
      for (const auto slot : probe_row(idx, row, n)) {
        const auto* res = idx.residual(slot);
        if (res == nullptr || res->eval(&cr)) matched[slot] = true;
      }
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(matched[i], compiled[i].eval(&cr))
            << "round " << round << " row " << r << " filter "
            << filters[i]->to_string();
      }
    }

    // Batched probes, whole batch at once.
    std::vector<std::vector<std::uint32_t>> cands(n);
    std::vector<SubscriptionIndex::Slot> touched;
    idx.probe_batch(batch, cands, touched);
    std::vector<std::vector<std::uint32_t>> rows_of(n);
    for (const auto slot : touched) {
      if (const auto* res = idx.residual(slot)) {
        res->filter_batch(batch, &cands[slot], rows_of[slot]);
      } else {
        rows_of[slot] = cands[slot];
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<std::uint32_t> expect;
      compiled[i].filter_batch(batch, nullptr, expect);
      EXPECT_EQ(rows_of[i], expect) << filters[i]->to_string();
    }
  }
}

TEST(SubscriptionIndex, RemoveIsIncrementalAndSlotsAreReusable) {
  const Schema s = station_schema();
  SubscriptionIndex idx{&s};
  const auto eq =
      Predicate::cmp(FieldRef{"", "stationId"}, CmpOp::kEq, Value{7});
  const auto band = Predicate::conj(
      {Predicate::cmp(FieldRef{"", "temperature"}, CmpOp::kGe, Value{-1.0}),
       Predicate::cmp(FieldRef{"", "temperature"}, CmpOp::kLt, Value{1.0})});
  idx.add(0, eq, lenient(eq, s));
  idx.add(1, band, lenient(band, s));
  idx.add(2, eq, lenient(eq, s));

  const Tuple row{5, {Value{0.0}, Value{0.0}, Value{7}, Value{"x"}}};
  EXPECT_EQ(probe_row(idx, row),
            (std::vector<SubscriptionIndex::Slot>{0, 1, 2}));

  idx.remove(0);
  EXPECT_EQ(idx.equality_entries(), 1u);
  EXPECT_EQ(probe_row(idx, row), (std::vector<SubscriptionIndex::Slot>{1, 2}));
  idx.remove(1);
  EXPECT_EQ(idx.range_entries(), 0u);
  idx.remove(1);  // unknown slot: no-op

  // Re-adding a freed slot with a different shape relocates it.
  const auto unresolved =
      Predicate::cmp(FieldRef{"", "nope"}, CmpOp::kGt, Value{0});
  EXPECT_EQ(idx.add(0, unresolved, lenient(unresolved, s)),
            SubscriptionIndex::Placement::kScan);
  EXPECT_EQ(probe_row(idx, row), (std::vector<SubscriptionIndex::Slot>{2}));
  EXPECT_EQ(idx.scan_slots(), (std::vector<SubscriptionIndex::Slot>{0}));
}

}  // namespace
}  // namespace cosmos::pubsub
