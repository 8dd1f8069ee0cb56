// Content-based subscriptions (Section 2.1).
//
// A subscription carries the three parts the paper's p1/p2 subscriptions
// have: S — the streams of interest, P — the attributes to project (the
// broker network prunes the rest as early as possible), and F — a filter
// predicate evaluated against each message's tuple.
#pragma once

#include <set>
#include <string>

#include "common/ids.h"
#include "stream/predicate.h"
#include "stream/schema.h"

namespace cosmos::pubsub {

struct Subscription {
  SubscriptionId id;
  NodeId subscriber;
  /// Stream names of interest (the S part).
  std::set<std::string> streams;
  /// Attribute names to deliver; empty set means all (the P part).
  std::set<std::string> projection;
  /// Filter over the message tuple (the F part).
  stream::PredicatePtr filter = stream::Predicate::always_true();

  /// True if the tuple passes the filter (schema = message schema).
  [[nodiscard]] bool matches(const stream::Schema& schema,
                             const stream::Tuple& tuple) const;
};

/// A published message: a tuple on a named stream with a known schema
/// (what BrokerNetwork::publish hands its per-subscription callback).
struct Message {
  std::string stream;
  const stream::Schema* schema = nullptr;
  stream::Tuple tuple;
};

}  // namespace cosmos::pubsub
