// End-to-end plan tests, including the paper's Fig 4 result-sharing claim:
// running the merged query Q5 and re-filtering its result stream yields
// exactly what running Q3/Q4 directly would.
#include "query/plan.h"

#include <gtest/gtest.h>

#include "cql/parser.h"
#include "query/containment.h"
#include "runtime/tuple_batch.h"
#include "sim/sensor_trace.h"
#include "stream/engine.h"
#include "support/reference_eval.h"

namespace cosmos::query {
namespace {

using stream::Engine;
using stream::Tuple;
using stream::Value;

class PlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_.register_stream("Station1", sim::sensor_schema());
    engine_.register_stream("Station2", sim::sensor_schema());
  }

  void feed_trace(std::size_t readings, std::uint64_t seed) {
    sim::SensorTraceParams p;
    p.stations = 2;
    p.readings_per_station = readings;
    p.period_ms = 60'000;  // one reading per minute
    Rng rng{seed};
    for (const auto& r : sim::make_sensor_trace(p, rng)) {
      engine_.publish(sim::station_stream_name(r.station), r.tuple);
    }
  }

  Engine engine_;
};

TEST_F(PlanTest, SingleStreamFilterAndProject) {
  const auto q = cql::parse_query(
      "SELECT snowHeight FROM Station1 [Now] S1 WHERE S1.snowHeight >= 20");
  CompiledQuery cq{engine_, q, "r1"};
  std::vector<Tuple> out;
  engine_.attach("r1", [&](const Tuple& t) { out.push_back(t); });
  feed_trace(50, 42);
  ASSERT_FALSE(out.empty());
  EXPECT_LT(out.size(), 50u);  // filter is selective
  for (const auto& t : out) {
    ASSERT_EQ(t.values.size(), 1u);
    EXPECT_GE(t.at(0).as_double(), 20.0);
  }
}

TEST_F(PlanTest, JoinPlanMatchesSemanticReference) {
  // Q3 from the paper. Reference: brute-force evaluation over the trace.
  const auto q = cql::parse_query(
      "SELECT S2.* "
      "FROM Station1 [Range 30 Minutes] S1, Station2 [Now] S2 "
      "WHERE S1.snowHeight > S2.snowHeight AND S1.snowHeight >= 10");
  CompiledQuery cq{engine_, q, "r3"};
  std::size_t plan_results = 0;
  engine_.attach("r3", [&](const Tuple&) { ++plan_results; });

  sim::SensorTraceParams p;
  p.stations = 2;
  p.readings_per_station = 60;
  p.period_ms = 60'000;
  Rng rng{7};
  const auto trace = sim::make_sensor_trace(p, rng);

  // Reference count: for each S2 tuple, S1 tuples in the previous 30 min
  // (including now) with greater snowHeight >= 10.
  std::size_t expected = 0;
  for (const auto& r2 : trace) {
    if (r2.station != 1) continue;
    for (const auto& r1 : trace) {
      if (r1.station != 0) continue;
      const auto dt = r2.tuple.ts - r1.tuple.ts;
      if (dt < 0 || dt > 30 * 60'000) continue;
      const double h1 = r1.tuple.at(0).as_double();
      const double h2 = r2.tuple.at(0).as_double();
      if (h1 > h2 && h1 >= 10.0) ++expected;
    }
  }
  for (const auto& r : trace) {
    engine_.publish(sim::station_stream_name(r.station), r.tuple);
  }
  EXPECT_EQ(plan_results, expected);
  EXPECT_GT(plan_results, 0u);
}

TEST_F(PlanTest, ResultSchemaHasPrefixedNames) {
  const auto q = cql::parse_query(
      "SELECT S2.*, S1.snowHeight "
      "FROM Station1 [Range 1 Hour] S1, Station2 [Now] S2 "
      "WHERE S1.snowHeight > S2.snowHeight");
  CompiledQuery cq{engine_, q, "r"};
  EXPECT_TRUE(cq.result_schema().index_of("S2.snowHeight").has_value());
  EXPECT_TRUE(cq.result_schema().index_of("S1.snowHeight").has_value());
  EXPECT_FALSE(cq.result_schema().index_of("S1.temperature").has_value());
}

TEST_F(PlanTest, DestructorDetachesTaps) {
  const auto q = cql::parse_query("SELECT * FROM Station1 [Now] S1");
  {
    CompiledQuery cq{engine_, q, "tmp"};
    feed_trace(3, 1);
    EXPECT_GT(engine_.published_count("tmp"), 0u);
  }
  const auto before = engine_.published_count("tmp");
  // New tuples no longer flow into "tmp" after cq is destroyed.
  stream::Tuple t;
  t.ts = 100'000'000;
  t.values = {Value{1.0}, Value{1.0}, Value{std::int64_t{0}},
              Value{std::int64_t{100'000'000}}};
  engine_.publish("Station1", t);
  EXPECT_EQ(engine_.published_count("tmp"), before);
}

TEST_F(PlanTest, UnknownSelectColumnThrows) {
  auto q = cql::parse_query("SELECT nope FROM Station1 [Now] S1");
  EXPECT_THROW(CompiledQuery(engine_, q, "x"), std::invalid_argument);
}

// --- The Fig 4 / Section 2.1 result-sharing equivalence ---

class ResultSharingTest : public PlanTest {
 protected:
  static QuerySpec q3() {
    return cql::parse_query(
        "SELECT S2.* "
        "FROM Station1 [Range 30 Minutes] S1, Station2 [Now] S2 "
        "WHERE S1.snowHeight > S2.snowHeight AND S1.snowHeight >= 10",
        QueryId{3});
  }
  static QuerySpec q4() {
    return cql::parse_query(
        "SELECT S1.snowHeight, S1.timestamp, S2.snowHeight, S2.timestamp "
        "FROM Station1 [Range 1 Hour] S1, Station2 [Now] S2 "
        "WHERE S1.snowHeight > S2.snowHeight",
        QueryId{4});
  }

  static std::vector<std::vector<std::string>> render(
      const std::vector<Tuple>& ts) {
    std::vector<std::vector<std::string>> out;
    for (const auto& t : ts) {
      std::vector<std::string> row;
      for (const auto& v : t.values) row.push_back(v.to_string());
      out.push_back(std::move(row));
    }
    return out;
  }
};

TEST_F(ResultSharingTest, MergedPlusSplitEqualsDirect) {
  const auto merged = merge_queries(q3(), q4(), QueryId{5});
  ASSERT_TRUE(merged.has_value());

  // Direct execution of Q3 and Q4.
  CompiledQuery direct3{engine_, q3(), "direct3"};
  CompiledQuery direct4{engine_, q4(), "direct4"};
  std::vector<Tuple> out3, out4;
  engine_.attach("direct3", [&](const Tuple& t) { out3.push_back(t); });
  engine_.attach("direct4", [&](const Tuple& t) { out4.push_back(t); });

  // Merged execution (Q5) with per-query split filters at the "consumer".
  CompiledQuery q5{engine_, merged->merged, "s5"};
  std::vector<Tuple> split3, split4;
  const auto split_a_pred = make_split_predicate(merged->split_a);
  const auto split_b_pred = make_split_predicate(merged->split_b);
  const auto keep_a =
      split_projection_indices(merged->split_a, q5.result_schema());
  const auto keep_b =
      split_projection_indices(merged->split_b, q5.result_schema());
  const auto& merged_schema = q5.result_schema();
  engine_.attach("s5", [&](const Tuple& t) {
    const std::vector<stream::Binding> env{{"", &merged_schema, &t}};
    if (split_a_pred->eval(env)) {
      Tuple proj;
      proj.ts = t.ts;
      for (const auto i : keep_a) proj.values.push_back(t.at(i));
      split3.push_back(std::move(proj));
    }
    if (split_b_pred->eval(env)) {
      Tuple proj;
      proj.ts = t.ts;
      for (const auto i : keep_b) proj.values.push_back(t.at(i));
      split4.push_back(std::move(proj));
    }
  });

  feed_trace(80, 99);

  ASSERT_FALSE(out3.empty());
  ASSERT_FALSE(out4.empty());
  EXPECT_EQ(render(split3), render(out3));
  EXPECT_EQ(render(split4), render(out4));
  // And the merged stream is genuinely shared: strictly fewer tuples than
  // the two result streams combined would carry on the shared path.
  EXPECT_LE(engine_.published_count("s5"),
            engine_.published_count("direct3") +
                engine_.published_count("direct4"));
}

TEST_F(PlanTest, BatchPathMatchesScalarOnSchemaWithoutTimestampColumn) {
  // Streams whose raw schema lacks a "timestamp" column exercise the
  // virtual-ts slots end to end: the chain filters/joins/projects raw
  // batches and reads the plan-appended "<alias>.timestamp" column from
  // the row timestamps. One engine gets per-stream run batches, the other
  // one-row publishes (push()'s shape); both must equal the reference
  // evaluator, whose "timestamp" pseudo-field reads the row timestamp.
  const stream::Schema bare{{{"v", stream::ValueType::kInt},
                             {"w", stream::ValueType::kDouble}}};
  engine_.register_stream("BareA", bare);
  engine_.register_stream("BareB", bare);
  const auto q = cql::parse_query(
      "SELECT A.v, A.timestamp, B.v, B.timestamp "
      "FROM BareA [Range 5 Minutes] A, BareB [Range 5 Minutes] B "
      "WHERE A.v = B.v AND A.w > 1.5");

  Engine scalar_engine;
  scalar_engine.register_stream("BareA", bare);
  scalar_engine.register_stream("BareB", bare);
  CompiledQuery batch_q{engine_, q, "bare_r"};
  CompiledQuery scalar_q{scalar_engine, q, "bare_r"};

  const auto render = [](const std::vector<Tuple>& ts) {
    std::string s;
    for (const auto& t : ts) {
      s += std::to_string(t.ts);
      for (const auto& v : t.values) s += "|" + v.to_string();
      s += "\n";
    }
    return s;
  };
  std::vector<Tuple> batch_out;
  std::vector<Tuple> scalar_out;
  engine_.attach("bare_r", [&](const Tuple& t) { batch_out.push_back(t); });
  scalar_engine.attach("bare_r",
                       [&](const Tuple& t) { scalar_out.push_back(t); });

  // Same trace through both: per-stream batches via publish_batch vs
  // per-tuple publish, interleaved in global timestamp order.
  Rng rng{7};
  std::vector<std::pair<std::string, Tuple>> events;
  for (int i = 0; i < 120; ++i) {
    events.emplace_back(
        (i / 4) % 2 == 0 ? "BareA" : "BareB",  // 4-tuple same-stream runs
        Tuple{static_cast<stream::Timestamp>(i * 30'000),
              {Value{static_cast<std::int64_t>(rng.next_below(5))},
               Value{rng.next_double(0.0, 3.0)}}});
  }
  runtime::TupleBatch open{""};
  const auto flush = [&](const std::string& stream) {
    if (!open.empty()) engine_.publish_batch(stream, open);
  };
  std::string open_stream;
  for (const auto& [stream, tuple] : events) {
    scalar_engine.publish(stream, tuple);
    if (stream != open_stream) {
      flush(open_stream);
      open_stream = stream;
      open = runtime::TupleBatch{stream};
    }
    open.push_back(tuple);
  }
  flush(open_stream);

  ASSERT_FALSE(scalar_out.empty());
  EXPECT_EQ(render(batch_out), render(scalar_out));
  std::vector<runtime::TraceEvent> trace;
  for (const auto& [stream, tuple] : events) trace.push_back({stream, tuple});
  EXPECT_EQ(render(middleware::testsupport::reference_evaluate(
                q, {{"BareA", bare}, {"BareB", bare}}, trace)),
            render(scalar_out));
  EXPECT_EQ(batch_q.results_emitted(), scalar_q.results_emitted());
  EXPECT_EQ(batch_q.state_tuples(), scalar_q.state_tuples());
}

}  // namespace
}  // namespace cosmos::query
