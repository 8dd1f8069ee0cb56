#include "pubsub/broker_network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "net/topology.h"
#include "sim/sensor_trace.h"
#include "support/reference_match.h"

namespace cosmos::pubsub {
namespace {

struct Fixture {
  net::Topology topo{4};
  std::vector<NodeId> all{NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}};
  net::LatencyMatrix lat;

  Fixture() {
    // Line 0 -10- 1 -100- 2 -10- 3.
    topo.add_edge(NodeId{0}, NodeId{1}, 10.0);
    topo.add_edge(NodeId{1}, NodeId{2}, 100.0);
    topo.add_edge(NodeId{2}, NodeId{3}, 10.0);
    lat = net::LatencyMatrix{topo, all};
  }

  static stream::Tuple reading(stream::Timestamp ts, double height) {
    return {ts,
            {stream::Value{height}, stream::Value{-3.0},
             stream::Value{std::int64_t{0}}, stream::Value{ts}}};
  }
};

TEST(BrokerNetwork, DeliversToMatchingSubscriber) {
  Fixture f;
  BrokerNetwork net{f.all, f.lat};
  net.advertise("S", NodeId{0}, sim::sensor_schema());
  Subscription sub;
  sub.subscriber = NodeId{3};
  sub.streams = {"S"};
  sub.filter = stream::Predicate::cmp({"", "snowHeight"}, stream::CmpOp::kGe,
                                      stream::Value{10.0});
  net.subscribe(std::move(sub));

  int delivered = 0;
  net.publish("S", Fixture::reading(1, 20.0),
              [&](const Subscription&, const Message&) { ++delivered; });
  net.publish("S", Fixture::reading(2, 5.0),
              [&](const Subscription&, const Message&) { ++delivered; });
  EXPECT_EQ(delivered, 1);  // early filtering dropped the second tuple
}

TEST(BrokerNetwork, FilteredTuplesGenerateNoTraffic) {
  Fixture f;
  BrokerNetwork net{f.all, f.lat};
  net.advertise("S", NodeId{0}, sim::sensor_schema());
  Subscription sub;
  sub.subscriber = NodeId{3};
  sub.streams = {"S"};
  sub.filter = stream::Predicate::cmp({"", "snowHeight"}, stream::CmpOp::kGe,
                                      stream::Value{10.0});
  net.subscribe(std::move(sub));
  net.publish("S", Fixture::reading(1, 5.0),
              [](const Subscription&, const Message&) {});
  EXPECT_EQ(net.traffic().bytes, 0.0);
}

TEST(BrokerNetwork, SharedLinkCountedOnce) {
  Fixture f;
  BrokerNetwork net{f.all, f.lat};
  net.advertise("S", NodeId{0}, sim::sensor_schema());
  for (const NodeId n : {NodeId{2}, NodeId{3}}) {
    Subscription sub;
    sub.subscriber = n;
    sub.streams = {"S"};
    net.subscribe(std::move(sub));
  }
  int delivered = 0;
  net.publish("S", Fixture::reading(1, 20.0),
              [&](const Subscription&, const Message&) { ++delivered; });
  EXPECT_EQ(delivered, 2);
  // Links used: 0-1, 1-2, 2-3 = exactly 3 messages (not 5 as unicast).
  EXPECT_EQ(net.traffic().messages_sent, 3u);
}

TEST(BrokerNetwork, ProjectionShrinksTraffic) {
  Fixture f;
  BrokerNetwork net1{f.all, f.lat};
  net1.advertise("S", NodeId{0}, sim::sensor_schema());
  Subscription all_attrs;
  all_attrs.subscriber = NodeId{3};
  all_attrs.streams = {"S"};
  net1.subscribe(std::move(all_attrs));
  net1.publish("S", Fixture::reading(1, 20.0),
               [](const Subscription&, const Message&) {});

  BrokerNetwork net2{f.all, f.lat};
  net2.advertise("S", NodeId{0}, sim::sensor_schema());
  Subscription one_attr;
  one_attr.subscriber = NodeId{3};
  one_attr.streams = {"S"};
  one_attr.projection = {"snowHeight"};
  net2.subscribe(std::move(one_attr));
  net2.publish("S", Fixture::reading(1, 20.0),
               [](const Subscription&, const Message&) {});
  EXPECT_LT(net2.traffic().bytes, net1.traffic().bytes);
}

TEST(BrokerNetwork, UnsubscribeStopsDelivery) {
  Fixture f;
  BrokerNetwork net{f.all, f.lat};
  net.advertise("S", NodeId{0}, sim::sensor_schema());
  Subscription sub;
  sub.subscriber = NodeId{2};
  sub.streams = {"S"};
  const auto id = net.subscribe(std::move(sub));
  net.unsubscribe(id);
  int delivered = 0;
  net.publish("S", Fixture::reading(1, 20.0),
              [&](const Subscription&, const Message&) { ++delivered; });
  EXPECT_EQ(delivered, 0);
}

TEST(BrokerNetwork, RejectsUnknowns) {
  Fixture f;
  BrokerNetwork net{f.all, f.lat};
  EXPECT_THROW(net.publish("nope", Fixture::reading(1, 1.0),
                           [](const Subscription&, const Message&) {}),
               std::invalid_argument);
  net.advertise("S", NodeId{0}, sim::sensor_schema());
  EXPECT_THROW(net.advertise("S", NodeId{1}, sim::sensor_schema()),
               std::invalid_argument);
  EXPECT_THROW(net.schema("other"), std::out_of_range);
}

// --- publish_batch edge cases -----------------------------------------
// publish() is a one-row publish_batch(); both must agree with the
// linear-scan reference (tests/support/reference_match.h) in deliveries
// and per-link traffic.

using testsupport::link_traffic_diff;
using testsupport::ReferenceDelivery;
using testsupport::ReferenceMatcher;

runtime::TupleBatch make_batch(
    const std::vector<std::pair<stream::Timestamp, double>>& rows) {
  runtime::TupleBatch batch{"S"};
  for (const auto& [ts, height] : rows) {
    batch.push_back(Fixture::reading(ts, height));
  }
  return batch;
}

Subscription height_sub(NodeId home, double min_height) {
  Subscription sub;
  sub.subscriber = home;
  sub.streams = {"S"};
  sub.filter = stream::Predicate::cmp({"", "snowHeight"}, stream::CmpOp::kGe,
                                      stream::Value{min_height});
  return sub;
}

TEST(BrokerNetworkBatch, EmptyBatchIsANoOp) {
  Fixture f;
  BrokerNetwork net{f.all, f.lat};
  net.advertise("S", NodeId{0}, sim::sensor_schema());
  net.subscribe(height_sub(NodeId{3}, 0.0));
  std::size_t deliveries = 0;
  net.publish_batch("S", runtime::TupleBatch{"S"},
                    [&](const BatchDelivery&) { ++deliveries; });
  EXPECT_EQ(deliveries, 0u);
  EXPECT_EQ(net.traffic().bytes, 0.0);
  EXPECT_EQ(net.traffic().messages_sent, 0u);
}

TEST(BrokerNetworkBatch, SingleRowBatchEqualsScalarPublishPerLink) {
  Fixture f;
  const auto tuple = Fixture::reading(7, 25.0);

  BrokerNetwork scalar{f.all, f.lat};
  scalar.advertise("S", NodeId{0}, sim::sensor_schema());
  scalar.subscribe(height_sub(NodeId{3}, 10.0));
  std::size_t scalar_deliveries = 0;
  scalar.publish("S", tuple,
                 [&](const Subscription&, const Message& m) {
                   EXPECT_EQ(m.tuple.ts, tuple.ts);
                   EXPECT_EQ(m.tuple.values, tuple.values);
                   ++scalar_deliveries;
                 });

  BrokerNetwork batched{f.all, f.lat};
  batched.advertise("S", NodeId{0}, sim::sensor_schema());
  batched.subscribe(height_sub(NodeId{3}, 10.0));
  std::size_t rows_delivered = 0;
  batched.publish_batch("S", make_batch({{7, 25.0}}),
                        [&](const BatchDelivery& d) {
                          rows_delivered += d.rows.size();
                        });

  ReferenceMatcher ref{scalar, NodeId{0}, sim::sensor_schema()};
  ref.add(height_sub(NodeId{3}, 10.0));
  EXPECT_EQ(ref.match(make_batch({{7, 25.0}})).size(), 1u);

  EXPECT_EQ(scalar_deliveries, 1u);
  EXPECT_EQ(rows_delivered, 1u);
  // Full per-link equality, not just the totals.
  EXPECT_EQ(link_traffic_diff(scalar.traffic(), ref.traffic()), "");
  EXPECT_EQ(link_traffic_diff(batched.traffic(), ref.traffic()), "");
  EXPECT_EQ(batched.traffic(), scalar.traffic());
  EXPECT_EQ(batched.traffic().links.size(), 3u);
}

TEST(BrokerNetworkBatch, ZeroMatchingSubscriptionsProduceNothing) {
  Fixture f;
  // Case 1: subscriptions exist but reject every row.
  BrokerNetwork net{f.all, f.lat};
  net.advertise("S", NodeId{0}, sim::sensor_schema());
  net.subscribe(height_sub(NodeId{2}, 1000.0));  // nothing is that high
  std::size_t deliveries = 0;
  net.publish_batch("S", make_batch({{1, 5.0}, {2, 9.0}, {3, 12.0}}),
                    [&](const BatchDelivery&) { ++deliveries; });
  EXPECT_EQ(deliveries, 0u);
  EXPECT_EQ(net.traffic().bytes, 0.0);
  EXPECT_TRUE(net.traffic().links.empty());

  // Case 2: no subscriptions at all (the early-out path).
  BrokerNetwork bare{f.all, f.lat};
  bare.advertise("S", NodeId{0}, sim::sensor_schema());
  bare.publish_batch("S", make_batch({{1, 5.0}}),
                     [&](const BatchDelivery&) { ++deliveries; });
  EXPECT_EQ(deliveries, 0u);
  EXPECT_EQ(bare.traffic().messages_sent, 0u);
}

TEST(BrokerNetworkBatch, RejectsOutOfOrderTimestampsAtomically) {
  Fixture f;
  BrokerNetwork net{f.all, f.lat};
  net.advertise("S", NodeId{0}, sim::sensor_schema());
  net.subscribe(height_sub(NodeId{3}, 0.0));
  std::size_t deliveries = 0;
  try {
    net.publish_batch("S", make_batch({{5, 20.0}, {3, 21.0}}),
                      [&](const BatchDelivery&) { ++deliveries; });
    FAIL() << "out-of-order batch must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("S"), std::string::npos);
    EXPECT_NE(what.find("3"), std::string::npos);
    EXPECT_NE(what.find("5"), std::string::npos);
  }
  // The failure is atomic: no row was matched, delivered, or accounted.
  EXPECT_EQ(deliveries, 0u);
  EXPECT_EQ(net.traffic().bytes, 0.0);
  EXPECT_EQ(net.traffic().messages_sent, 0u);
}

TEST(BrokerNetworkBatch, TrafficAccountingEquivalentToScalarPerLink) {
  Fixture f;
  // Mixed subscription population: different homes, filters, projections
  // — shared links, projection unions and partial matches all in play.
  std::vector<Subscription> population{height_sub(NodeId{3}, 10.0),
                                       height_sub(NodeId{2}, 20.0),
                                       height_sub(NodeId{1}, 0.0)};
  population[2].projection = {"snowHeight"};
  const auto populate = [&](BrokerNetwork& net) {
    net.advertise("S", NodeId{0}, sim::sensor_schema());
    for (const auto& sub : population) net.subscribe(sub);
  };
  const std::vector<std::pair<stream::Timestamp, double>> rows{
      {1, 5.0}, {2, 15.0}, {3, 25.0}, {4, 8.0}, {5, 30.0}};

  BrokerNetwork scalar{f.all, f.lat};
  populate(scalar);
  std::vector<std::string> scalar_deliveries;
  for (const auto& [ts, height] : rows) {
    scalar.publish("S", Fixture::reading(ts, height),
                   [&](const Subscription& sub, const Message& m) {
                     scalar_deliveries.push_back(
                         std::to_string(sub.id.value()) + "@" +
                         std::to_string(m.tuple.ts));
                   });
  }

  BrokerNetwork batched{f.all, f.lat};
  populate(batched);
  std::vector<ReferenceDelivery> batch_deliveries;
  batched.publish_batch("S", make_batch(rows), [&](const BatchDelivery& d) {
    batch_deliveries.push_back({d.sub->id, d.rows});
  });

  ReferenceMatcher ref{batched, NodeId{0}, sim::sensor_schema()};
  for (std::size_t i = 0; i < population.size(); ++i) {
    Subscription sub = population[i];
    sub.id = SubscriptionId{static_cast<SubscriptionId::value_type>(i)};
    ref.add(std::move(sub));
  }
  // The batch delivers exactly the reference's deliveries, in order...
  const auto want = ref.match(make_batch(rows));
  EXPECT_EQ(batch_deliveries, want);
  ASSERT_FALSE(batch_deliveries.empty());
  // ...the one-row publishes deliver the same (subscription, row) pairs...
  std::vector<std::string> want_pairs;
  for (const auto& d : want) {
    for (const auto r : d.rows) {
      want_pairs.push_back(std::to_string(d.sub.value()) + "@" +
                           std::to_string(rows[r].first));
    }
  }
  std::sort(scalar_deliveries.begin(), scalar_deliveries.end());
  std::sort(want_pairs.begin(), want_pairs.end());
  EXPECT_EQ(scalar_deliveries, want_pairs);
  // ...and both account the reference's traffic on every directed link.
  EXPECT_EQ(link_traffic_diff(batched.traffic(), ref.traffic()), "");
  EXPECT_EQ(link_traffic_diff(scalar.traffic(), ref.traffic()), "");
  EXPECT_EQ(batched.traffic(), scalar.traffic());
  EXPECT_EQ(batched.traffic().links.size(), 3u);
}

TEST(Subscription, MessageBytes) {
  // The pricing rule: a 16-byte header plus 8 bytes per fixed-width
  // attribute carried (strings cost their length).
  const auto schema = sim::sensor_schema();
  const auto tuple = Fixture::reading(1, 20.0);
  EXPECT_DOUBLE_EQ(testsupport::message_bytes(schema, tuple, {}),
                   16.0 + 4 * 8.0);
  EXPECT_DOUBLE_EQ(testsupport::message_bytes(schema, tuple, {"snowHeight"}),
                   16.0 + 8.0);
  EXPECT_DOUBLE_EQ(testsupport::message_bytes(schema, tuple, {"absent"}),
                   16.0);

  // The broker prices a one-hop copy the same way.
  Fixture f;
  for (const auto& [projection, bytes] :
       std::vector<std::pair<std::set<std::string>, double>>{
           {{}, 48.0}, {{"snowHeight"}, 24.0}, {{"absent"}, 16.0}}) {
    BrokerNetwork net{f.all, f.lat};
    net.advertise("S", NodeId{0}, schema);
    Subscription sub = height_sub(NodeId{1}, 0.0);
    sub.projection = projection;
    net.subscribe(std::move(sub));
    net.publish("S", tuple, [](const Subscription&, const Message&) {});
    EXPECT_DOUBLE_EQ(net.traffic().bytes, bytes);
    EXPECT_EQ(net.traffic().messages_sent, 1u);
  }
}

}  // namespace
}  // namespace cosmos::pubsub
