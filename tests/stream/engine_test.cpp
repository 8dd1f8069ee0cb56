#include "stream/engine.h"

#include <gtest/gtest.h>

#include "runtime/tuple_batch.h"

namespace cosmos::stream {
namespace {

Schema one_field() { return Schema{{{"v", ValueType::kInt}}}; }

TEST(Engine, RegisterAndSchema) {
  Engine e;
  e.register_stream("S", one_field());
  EXPECT_TRUE(e.has_stream("S"));
  EXPECT_FALSE(e.has_stream("T"));
  EXPECT_EQ(e.schema("S").size(), 1u);
  EXPECT_THROW(e.schema("T"), std::out_of_range);
  EXPECT_THROW(e.register_stream("S", one_field()), std::invalid_argument);
}

TEST(Engine, PublishReachesAllTaps) {
  Engine e;
  e.register_stream("S", one_field());
  int a = 0, b = 0;
  e.attach("S", [&](const Tuple&) { ++a; });
  e.attach("S", [&](const Tuple&) { ++b; });
  e.publish("S", Tuple{1, {Value{1}}});
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(e.published_count("S"), 1u);
}

TEST(Engine, DetachStopsDelivery) {
  Engine e;
  e.register_stream("S", one_field());
  int a = 0;
  const auto tap = e.attach("S", [&](const Tuple&) { ++a; });
  e.publish("S", Tuple{1, {Value{1}}});
  e.detach("S", tap);
  e.publish("S", Tuple{2, {Value{1}}});
  EXPECT_EQ(a, 1);
}

TEST(Engine, RejectsOutOfOrderTuples) {
  Engine e;
  e.register_stream("S", one_field());
  e.publish("S", Tuple{10, {Value{1}}});
  e.publish("S", Tuple{10, {Value{2}}});  // equal is fine
  EXPECT_THROW(e.publish("S", Tuple{9, {Value{3}}}), std::invalid_argument);
}

TEST(Engine, OrderingIsPerStream) {
  // Equal — or even regressing — timestamps across *different* streams must
  // not throw: each stream carries its own ordering constraint.
  Engine e;
  e.register_stream("S", one_field());
  e.register_stream("T", one_field());
  e.publish("S", Tuple{10, {Value{1}}});
  EXPECT_NO_THROW(e.publish("T", Tuple{10, {Value{2}}}));  // equal ts, other stream
  EXPECT_NO_THROW(e.publish("T", Tuple{10, {Value{3}}}));
  EXPECT_NO_THROW(e.publish("S", Tuple{10, {Value{4}}}));
  EXPECT_NO_THROW(e.publish("T", Tuple{12, {Value{5}}}));
  EXPECT_NO_THROW(e.publish("S", Tuple{11, {Value{6}}}));  // < T's 12: fine
}

TEST(Engine, OutOfOrderErrorNamesStreamAndBothTimestamps) {
  Engine e;
  e.register_stream("Station7", one_field());
  e.publish("Station7", Tuple{42, {Value{1}}});
  try {
    e.publish("Station7", Tuple{17, {Value{2}}});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& ex) {
    const std::string msg = ex.what();
    EXPECT_NE(msg.find("Station7"), std::string::npos) << msg;
    EXPECT_NE(msg.find("17"), std::string::npos) << msg;
    EXPECT_NE(msg.find("42"), std::string::npos) << msg;
  }
}

TEST(Engine, PublishBatchMatchesScalarPublish) {
  Engine scalar, batched;
  for (auto* e : {&scalar, &batched}) e->register_stream("S", one_field());
  std::vector<std::int64_t> scalar_seen, batch_seen;
  scalar.attach("S", [&](const Tuple& t) {
    scalar_seen.push_back(t.values.at(0).as_int());
  });
  batched.attach("S", [&](const Tuple& t) {
    batch_seen.push_back(t.values.at(0).as_int());
  });
  runtime::TupleBatch batch{"S"};
  for (std::int64_t i = 0; i < 10; ++i) {
    const Tuple t{i, {Value{i}}};
    scalar.publish("S", t);
    batch.push_back(t);
  }
  batched.publish_batch("S", batch);
  EXPECT_EQ(batch_seen, scalar_seen);
  EXPECT_EQ(batched.published_count("S"), scalar.published_count("S"));
}

TEST(Engine, PublishBatchEnforcesOrdering) {
  Engine e;
  e.register_stream("S", one_field());
  e.publish("S", Tuple{100, {Value{1}}});
  runtime::TupleBatch stale{"S"};
  stale.push_back(Tuple{99, {Value{2}}});
  EXPECT_THROW(e.publish_batch("S", stale), std::invalid_argument);
  runtime::TupleBatch scrambled{"S"};
  scrambled.push_back(Tuple{200, {Value{3}}});
  scrambled.push_back(Tuple{150, {Value{4}}});
  EXPECT_THROW(e.publish_batch("S", scrambled), std::invalid_argument);
  runtime::TupleBatch wrong_stream{"T"};
  wrong_stream.push_back(Tuple{300, {Value{5}}});
  EXPECT_THROW(e.publish_batch("S", wrong_stream), std::invalid_argument);
  EXPECT_EQ(e.published_count("S"), 1u);  // nothing partial got through
}

TEST(Engine, PublishBatchEmptyIsNoOp) {
  Engine e;
  e.register_stream("S", one_field());
  e.publish_batch("S", runtime::TupleBatch{"S"});
  EXPECT_EQ(e.published_count("S"), 0u);
  // Misrouting fails loudly even when the batch happens to be empty.
  EXPECT_THROW(e.publish_batch("S", runtime::TupleBatch{"T"}),
               std::invalid_argument);
  EXPECT_THROW(e.publish_batch("Unknown", runtime::TupleBatch{"Unknown"}),
               std::out_of_range);
}

TEST(Engine, BatchTapsReceiveWholeBatchesScalarTapsRows) {
  Engine e;
  e.register_stream("S", one_field());
  std::size_t batch_calls = 0;
  std::size_t batch_rows = 0;
  std::vector<std::int64_t> row_tap_seen;
  e.attach("S", [&](const runtime::TupleBatch& b) {
    ++batch_calls;
    batch_rows += b.size();
  });
  e.attach("S", [&](const Tuple& t) {
    row_tap_seen.push_back(t.values.at(0).as_int());
  });

  runtime::TupleBatch b{"S"};
  for (int i = 0; i < 4; ++i) b.push_back(Tuple{i, {Value{i}}});
  e.publish_batch("S", b);
  EXPECT_EQ(batch_calls, 1u);  // whole batch, once
  EXPECT_EQ(batch_rows, 4u);
  // The row-observer adapter saw each row, in batch order.
  EXPECT_EQ(row_tap_seen, (std::vector<std::int64_t>{0, 1, 2, 3}));

  // publish() is a one-row batch to every tap.
  e.publish("S", Tuple{10, {Value{9}}});
  EXPECT_EQ(batch_calls, 2u);
  EXPECT_EQ(batch_rows, 5u);
  EXPECT_EQ(row_tap_seen.back(), 9);

  EXPECT_THROW(e.attach("S", Engine::BatchTap{}), std::invalid_argument);
  EXPECT_THROW(e.attach("S", Engine::Tap{}), std::invalid_argument);
}

TEST(Engine, AllBatchTapsSkipMaterialization) {
  Engine e;
  e.register_stream("S", one_field());
  std::size_t rows = 0;
  const std::size_t id = e.attach(
      "S", [&](const runtime::TupleBatch& b) { rows += b.size(); });
  runtime::TupleBatch b{"S"};
  b.push_back(Tuple{1, {Value{1}}});
  b.push_back(Tuple{2, {Value{2}}});
  e.publish_batch("S", b);
  EXPECT_EQ(rows, 2u);
  EXPECT_EQ(e.published_count("S"), 2u);
  e.detach("S", id);
  runtime::TupleBatch later{"S"};
  later.push_back(Tuple{3, {Value{3}}});
  later.push_back(Tuple{4, {Value{4}}});
  e.publish_batch("S", later);  // no taps left; counts still advance
  EXPECT_EQ(rows, 2u);
  EXPECT_EQ(e.published_count("S"), 4u);
}

TEST(Engine, TapsMayAttachDuringPublish) {
  Engine e;
  e.register_stream("S", one_field());
  int later = 0;
  e.attach("S", [&](const Tuple&) {
    // Simulates a query whose result consumer registers reactively.
    static bool attached = false;
    if (!attached) {
      attached = true;
      e.attach("S", [&](const Tuple&) { ++later; });
    }
  });
  e.publish("S", Tuple{1, {Value{1}}});
  EXPECT_EQ(later, 0);  // not delivered retroactively
  e.publish("S", Tuple{2, {Value{1}}});
  EXPECT_EQ(later, 1);
}

}  // namespace
}  // namespace cosmos::stream
