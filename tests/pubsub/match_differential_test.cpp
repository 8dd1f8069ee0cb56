// Randomized differential harness for subscription matching: the indexed
// BrokerPartition vs the interpreted linear-scan reference
// (tests/support/reference_match.h), driven through seeded
// subscribe/unsubscribe churn (including unsubscribe-then-resubscribe of
// the same id, which exercises slot reuse) interleaved with one-row and
// multi-row batches. Deliveries must be identical in content AND order,
// and traffic must match on every directed link. The overlay branches and
// the publisher sits inside it, so a wrong fold order or a link priced
// with a sibling's projection shows. Wired into the integration CTest
// label (see tests/CMakeLists.txt) so it runs with the differential grid
// in Release and under TSan.
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/topology.h"
#include "pubsub/broker_network.h"
#include "runtime/tuple_batch.h"
#include "stream/predicate.h"
#include "support/reference_match.h"

namespace cosmos::pubsub {
namespace {

using stream::CmpOp;
using stream::FieldRef;
using stream::Predicate;
using stream::PredicatePtr;
using stream::Schema;
using stream::Tuple;
using stream::Value;
using stream::ValueType;
using testsupport::link_traffic_diff;
using testsupport::ReferenceDelivery;
using testsupport::ReferenceMatcher;

Schema churn_schema() {
  return Schema{{{"snowHeight", ValueType::kDouble},
                 {"temperature", ValueType::kDouble},
                 {"stationId", ValueType::kInt},
                 {"label", ValueType::kString}}};
}

/// A 9-node tree (latencies in ms) that branches at the publisher, node 1,
/// and below it:
///
///                 0
///                 |10
///   5 -5- 4 -20- 1 -100- 2 -15- 7 -3- 8
///         |7             |10
///         6              3
struct Overlay9 {
  static constexpr std::size_t kNodes = 9;
  static constexpr NodeId kPublisher{1};
  net::Topology topo{kNodes};
  std::vector<NodeId> nodes;
  net::LatencyMatrix lat;

  Overlay9() {
    topo.add_edge(NodeId{0}, NodeId{1}, 10.0);
    topo.add_edge(NodeId{1}, NodeId{2}, 100.0);
    topo.add_edge(NodeId{2}, NodeId{3}, 10.0);
    topo.add_edge(NodeId{1}, NodeId{4}, 20.0);
    topo.add_edge(NodeId{4}, NodeId{5}, 5.0);
    topo.add_edge(NodeId{4}, NodeId{6}, 7.0);
    topo.add_edge(NodeId{2}, NodeId{7}, 15.0);
    topo.add_edge(NodeId{7}, NodeId{8}, 3.0);
    for (std::uint32_t i = 0; i < kNodes; ++i) nodes.push_back(NodeId{i});
    lat = net::LatencyMatrix{topo, nodes};
  }

  static NodeId random_home(Rng& rng) {
    return NodeId{static_cast<NodeId::value_type>(rng.next_below(kNodes))};
  }
};

/// Projections: all columns, a numeric + string pair, names the schema
/// lacks (header only), and a mix of both.
std::set<std::string> random_projection(Rng& rng) {
  switch (rng.next_below(5)) {
    case 0:
      return {"snowHeight", "label"};
    case 1:
      return {"label"};
    case 2:
      return {"humidity"};
    case 3:
      return {"temperature", "humidity"};
    default:
      return {};
  }
}

/// Every filter shape the matcher must handle: indexable equalities and
/// ranges (int, double, string, timestamp), residual-bearing conjunctions,
/// scan-list shapes (OR, NOT, TimeBand, catch-all), and lenient may-throw
/// filters over attributes the stream lacks.
PredicatePtr random_filter(Rng& rng) {
  const auto station = [&] {
    return Predicate::cmp(FieldRef{"", "stationId"}, CmpOp::kEq,
                          Value{rng.next_range(0, 7)});
  };
  switch (rng.next_below(12)) {
    case 0:
      return Predicate::always_true();
    case 1:
      return station();
    case 2:
      return Predicate::cmp(FieldRef{"", "label"}, CmpOp::kEq,
                            Value{std::string(
                                1, static_cast<char>('a' + rng.next_below(3)))});
    case 3: {
      const double lo = rng.next_double(-5.0, 5.0);
      return Predicate::conj(
          {Predicate::cmp(FieldRef{"", "temperature"}, CmpOp::kGe, Value{lo}),
           Predicate::cmp(FieldRef{"", "temperature"}, CmpOp::kLt,
                          Value{lo + rng.next_double(0.0, 4.0)})});
    }
    case 4:
      return Predicate::cmp(FieldRef{"", "snowHeight"},
                            rng.next_bool(0.5) ? CmpOp::kGt : CmpOp::kLe,
                            Value{rng.next_double(-5.0, 5.0)});
    case 5:  // equality anchor + range residual
      return Predicate::conj(
          {station(), Predicate::cmp(FieldRef{"", "snowHeight"}, CmpOp::kGt,
                                     Value{rng.next_double(-5.0, 5.0)})});
    case 6:  // timestamp range anchor
      return Predicate::cmp(FieldRef{"", "timestamp"}, CmpOp::kGe,
                            Value{rng.next_range(0, 400)});
    case 7:
      return Predicate::disj({station(), station()});
    case 8:
      return Predicate::negate(station());
    case 9:  // kNe is residual-only: indexable nothing, still conjunctive
      return Predicate::conj(
          {Predicate::cmp(FieldRef{"", "stationId"}, CmpOp::kNe,
                          Value{rng.next_range(0, 7)}),
           Predicate::cmp(FieldRef{"", "temperature"}, CmpOp::kLe,
                          Value{rng.next_double(-5.0, 5.0)})});
    case 10:  // lenient: attribute the stream lacks
      return Predicate::cmp(FieldRef{"", "humidity"}, CmpOp::kGt,
                            Value{rng.next_double(0.0, 1.0)});
    default:  // TimeBand over ts and an int column (scan shape)
      return Predicate::time_band(FieldRef{"", "timestamp"},
                                  FieldRef{"", "stationId"},
                                  rng.next_range(0, 300));
  }
}

Tuple random_row(Rng& rng, stream::Timestamp ts) {
  // Labels of different lengths, so a link that carries the string column
  // is priced by the row, not by a constant.
  const auto letter = static_cast<char>('a' + rng.next_below(3));
  return Tuple{ts,
               {Value{rng.next_double(-5.0, 5.0)},
                Value{rng.next_double(-5.0, 5.0)}, Value{rng.next_range(0, 7)},
                Value{std::string(1 + rng.next_below(6), letter)}}};
}

std::vector<ReferenceDelivery> deliveries_of(BrokerPartition& part,
                                             const runtime::TupleBatch& b) {
  std::vector<BatchDelivery> ds;
  part.match_batch(b, ds);
  std::vector<ReferenceDelivery> out;
  for (auto& d : ds) {
    EXPECT_EQ(d.source, &b);
    out.push_back({d.sub->id, std::move(d.rows)});
  }
  return out;
}

TEST(MatchDifferential, IndexEqualsLinearUnderChurn) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng{seed * 7919};
    Overlay9 o;
    BrokerNetwork net{o.nodes, o.lat};
    net.advertise("S", Overlay9::kPublisher, churn_schema());
    BrokerPartition& part = *net.partition("S");
    ReferenceMatcher ref{net, Overlay9::kPublisher, churn_schema()};
    std::deque<Subscription> storage;  // stable addresses for the partition

    std::vector<SubscriptionId> live;
    std::vector<SubscriptionId> dead;
    std::uint32_t next_id = 0;
    stream::Timestamp now = 0;
    std::size_t rows_delivered = 0;

    for (int step = 0; step < 240; ++step) {
      const double action = rng.next_double();
      if (action < 0.35 || live.empty()) {
        // Subscribe: a fresh id, or resubscribe a previously removed id
        // (new filter, same id — the slot-reuse path).
        SubscriptionId id{next_id};
        if (!dead.empty() && rng.next_bool(0.4)) {
          const std::size_t k = rng.next_below(dead.size());
          id = dead[k];
          dead.erase(dead.begin() + static_cast<std::ptrdiff_t>(k));
        } else {
          ++next_id;
        }
        Subscription sub;
        sub.id = id;
        sub.subscriber = Overlay9::random_home(rng);
        sub.streams = {"S"};
        if (rng.next_bool(0.5)) sub.projection = random_projection(rng);
        sub.filter = random_filter(rng);
        storage.push_back(sub);
        part.add_subscription(&storage.back());
        ref.add(std::move(sub));
        live.push_back(id);
      } else if (action < 0.5) {
        const std::size_t k = rng.next_below(live.size());
        const SubscriptionId id = live[k];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
        dead.push_back(id);
        part.remove_subscription(id);
        ref.remove(id);
      } else {
        // One-row batches (the push() and p2 shape) and multi-row ones.
        runtime::TupleBatch b{"S"};
        const std::size_t n = action < 0.6 ? 1 : 1 + rng.next_below(48);
        for (std::size_t i = 0; i < n; ++i) {
          now += rng.next_below(3);  // duplicate timestamps included
          b.push_back(random_row(rng, now));
        }
        const auto got = deliveries_of(part, b);
        ASSERT_EQ(got, ref.match(b)) << "step " << step;
        for (const auto& d : got) rows_delivered += d.rows.size();
      }
      ASSERT_EQ(part.subscription_count(), live.size());
    }
    // The run must have actually delivered something, or the equality
    // assertions above were vacuous.
    EXPECT_GT(rows_delivered, 0u);
    EXPECT_EQ(link_traffic_diff(part.traffic(), ref.traffic()), "");
    EXPECT_GE(part.traffic().links.size(), 6u);
  }
}

/// The facade path (publish_batch through BrokerNetwork) — covering
/// subscribe-before-advertise replay and facade-side unsubscribe.
TEST(MatchDifferential, FacadeMatchesReference) {
  Rng rng{424242};
  Overlay9 o;
  BrokerNetwork net{o.nodes, o.lat};
  ReferenceMatcher ref{net, Overlay9::kPublisher, churn_schema()};

  // Half the subscriptions predate the advertisement; the partition takes
  // them in subscribe order when the stream is advertised.
  std::vector<SubscriptionId> ids;
  std::vector<Subscription> early;
  const auto add_subs = [&](std::size_t count, bool advertised) {
    for (std::size_t i = 0; i < count; ++i) {
      Subscription sub;
      sub.subscriber = Overlay9::random_home(rng);
      sub.streams = {"S"};
      if (rng.next_bool(0.5)) sub.projection = random_projection(rng);
      sub.filter = random_filter(rng);
      sub.id = net.subscribe(sub);
      ids.push_back(sub.id);
      if (advertised) {
        ref.add(std::move(sub));
      } else {
        early.push_back(std::move(sub));
      }
    }
  };
  add_subs(20, false);
  net.advertise("S", Overlay9::kPublisher, churn_schema());
  for (auto& sub : early) ref.add(std::move(sub));
  add_subs(20, true);

  stream::Timestamp now = 0;
  std::size_t rows_delivered = 0;
  for (int step = 0; step < 30; ++step) {
    if (!ids.empty() && rng.next_bool(0.2)) {
      const std::size_t k = rng.next_below(ids.size());
      net.unsubscribe(ids[k]);
      ref.remove(ids[k]);
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(k));
    }
    if (rng.next_bool(0.2)) add_subs(2, true);
    runtime::TupleBatch b{"S"};
    for (std::size_t i = 0; i < 16; ++i) b.push_back(random_row(rng, ++now));
    std::vector<ReferenceDelivery> got;
    net.publish_batch("S", b, [&got](const BatchDelivery& d) {
      got.push_back({d.sub->id, d.rows});
    });
    ASSERT_EQ(got, ref.match(b)) << "step " << step;
    for (const auto& d : got) rows_delivered += d.rows.size();
  }
  EXPECT_GT(rows_delivered, 0u);
  EXPECT_EQ(link_traffic_diff(net.traffic(), ref.traffic()), "");
}

/// Column masks span several words when the schema is wider than 64
/// columns: projections on either side of the word boundary, and string
/// columns beyond it, must be priced like the reference prices them.
TEST(MatchDifferential, WideSchemaEqualsReference) {
  constexpr std::size_t kColumns = 70;
  std::vector<stream::Field> fields;
  for (std::size_t c = 0; c < kColumns; ++c) {
    fields.push_back({"c" + std::to_string(c),
                      c % 3 == 2 ? ValueType::kString : ValueType::kDouble});
  }
  const Schema wide{fields};
  Rng rng{99};
  Overlay9 o;
  BrokerNetwork net{o.nodes, o.lat};
  net.advertise("W", Overlay9::kPublisher, wide);
  ReferenceMatcher ref{net, Overlay9::kPublisher, wide};

  const std::vector<std::set<std::string>> projections{
      {},           {"c0"},        {"c63", "c64"}, {"c65", "c68"},
      {"c2", "c69"}, {"c70", "zz"}, {"c1", "c66"}};
  for (std::size_t i = 0; i < 24; ++i) {
    Subscription sub;
    sub.subscriber = Overlay9::random_home(rng);
    sub.streams = {"W"};
    sub.projection = projections[i % projections.size()];
    const std::string column = "c" + std::to_string(3 * (i % 20));
    sub.filter = Predicate::cmp(FieldRef{"", column}, CmpOp::kGt,
                                Value{rng.next_double(-1.0, 1.0)});
    sub.id = net.subscribe(sub);
    ref.add(std::move(sub));
  }

  stream::Timestamp now = 0;
  std::size_t rows_delivered = 0;
  for (int step = 0; step < 20; ++step) {
    runtime::TupleBatch b{"W"};
    const std::size_t n = 1 + rng.next_below(8);
    for (std::size_t r = 0; r < n; ++r) {
      Tuple t;
      t.ts = ++now;
      for (std::size_t c = 0; c < kColumns; ++c) {
        t.values.push_back(c % 3 == 2
                               ? Value{std::string(rng.next_below(9), 'x')}
                               : Value{rng.next_double(-1.0, 1.0)});
      }
      b.push_back(std::move(t));
    }
    std::vector<ReferenceDelivery> got;
    net.publish_batch("W", b, [&got](const BatchDelivery& d) {
      got.push_back({d.sub->id, d.rows});
    });
    ASSERT_EQ(got, ref.match(b)) << "step " << step;
    for (const auto& d : got) rows_delivered += d.rows.size();
  }
  EXPECT_GT(rows_delivered, 0u);
  EXPECT_EQ(link_traffic_diff(net.traffic(), ref.traffic()), "");
}

}  // namespace
}  // namespace cosmos::pubsub
