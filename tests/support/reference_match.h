// Linear-scan reference for the broker network: the oracle the pub/sub
// differentials check BrokerPartition::match_batch against. It shares no
// matching or accounting code with src/pubsub/:
//  - every live subscription's filter runs through the interpreted
//    Subscription::matches on every row;
//  - the overlay tree is rebuilt here, by BFS over BrokerNetwork::neighbors()
//    from the publisher;
//  - for each matched row, each matched subscription's tree path from its
//    home to the publisher is walked, collecting per link whether some
//    subscription behind it wants every attribute, else the union of their
//    projections; each link is priced with this file's message_bytes.
// Delivery order follows the partition's documented contract: a new
// subscription takes the most recently freed slot, else a fresh one, and
// deliveries come by first matched row, ties by slot.
// Header-only: the test build compiles only *_test.cpp files.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "pubsub/broker_network.h"
#include "runtime/tuple_batch.h"
#include "stream/schema.h"

namespace cosmos::pubsub::testsupport {

/// Serialized size in bytes of `tuple` restricted to `attrs` (empty = all):
/// a 16-byte header, 8 bytes per non-string attribute, the length of each
/// string attribute.
inline double message_bytes(const stream::Schema& schema,
                            const stream::Tuple& tuple,
                            const std::set<std::string>& attrs) {
  double bytes = 16.0;
  for (std::size_t i = 0; i < schema.size(); ++i) {
    const auto& field = schema.field(i);
    if (!attrs.empty() && !attrs.contains(field.name)) continue;
    if (field.type == stream::ValueType::kString) {
      bytes += static_cast<double>(tuple.at(i).as_string().size());
    } else {
      bytes += 8.0;
    }
  }
  return bytes;
}

/// The rows of a batch one subscription matched, ascending.
struct ReferenceDelivery {
  SubscriptionId sub;
  std::vector<std::uint32_t> rows;

  friend bool operator==(const ReferenceDelivery&,
                         const ReferenceDelivery&) = default;
};

class ReferenceMatcher {
 public:
  /// `net` supplies the overlay (neighbors and latencies) and must outlive
  /// the matcher.
  ReferenceMatcher(const BrokerNetwork& net, NodeId publisher,
                   stream::Schema schema)
      : net_(&net), publisher_(publisher), schema_(std::move(schema)) {
    std::deque<NodeId> queue{publisher};
    std::set<NodeId> seen{publisher};
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop_front();
      for (const NodeId v : net.neighbors(u)) {
        if (!seen.insert(v).second) continue;
        parent_.emplace(v, u);
        queue.push_back(v);
      }
    }
  }

  void add(Subscription sub) {
    if (!free_.empty()) {
      slots_[free_.back()] = std::move(sub);
      free_.pop_back();
    } else {
      slots_.emplace_back(std::move(sub));
    }
  }

  void remove(SubscriptionId id) {
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      if (slots_[s] && slots_[s]->id == id) {
        slots_[s].reset();
        free_.push_back(s);
      }
    }
  }

  /// Matches and accounts every row of `batch`; returns the deliveries in
  /// first-match order.
  std::vector<ReferenceDelivery> match(const runtime::TupleBatch& batch) {
    std::vector<std::vector<std::uint32_t>> rows_of(slots_.size());
    for (std::uint32_t r = 0; r < batch.size(); ++r) {
      const stream::Tuple tuple = batch.row(r);
      std::vector<const Subscription*> matched;
      for (std::size_t s = 0; s < slots_.size(); ++s) {
        if (slots_[s] && slots_[s]->matches(schema_, tuple)) {
          rows_of[s].push_back(r);
          matched.push_back(&*slots_[s]);
        }
      }
      account(tuple, matched);
    }
    std::vector<std::size_t> order;
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      if (!rows_of[s].empty()) order.push_back(s);
    }
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return std::pair{rows_of[a].front(), a} <
             std::pair{rows_of[b].front(), b};
    });
    std::vector<ReferenceDelivery> out;
    for (const auto s : order) {
      out.push_back({slots_[s]->id, std::move(rows_of[s])});
    }
    return out;
  }

  [[nodiscard]] const TrafficStats& traffic() const noexcept {
    return traffic_;
  }

 private:
  struct Wanted {
    bool all = false;
    std::set<std::string> attrs;
  };

  void account(const stream::Tuple& tuple,
               const std::vector<const Subscription*>& matched) {
    std::map<std::pair<NodeId, NodeId>, Wanted> links;
    for (const auto* sub : matched) {
      for (NodeId v = sub->subscriber; v != publisher_; v = parent_.at(v)) {
        Wanted& w = links[{parent_.at(v), v}];
        if (sub->projection.empty()) {
          w.all = true;
        } else {
          w.attrs.insert(sub->projection.begin(), sub->projection.end());
        }
      }
    }
    for (const auto& [link, w] : links) {
      const double bytes = message_bytes(
          schema_, tuple, w.all ? std::set<std::string>{} : w.attrs);
      const double cost =
          bytes * net_->latency_matrix().latency(link.first, link.second);
      LinkTraffic& t = traffic_.links[link];
      t.bytes += bytes;
      t.weighted_cost += cost;
      ++t.messages_sent;
      traffic_.bytes += bytes;
      traffic_.weighted_cost += cost;
      ++traffic_.messages_sent;
    }
  }

  const BrokerNetwork* net_;
  NodeId publisher_;
  stream::Schema schema_;
  std::map<NodeId, NodeId> parent_;  ///< tree rooted at the publisher
  std::vector<std::optional<Subscription>> slots_;
  std::vector<std::size_t> free_;
  TrafficStats traffic_;
};

/// "" when `got` and `want` carry the same links with identical bytes and
/// message counts, and the same totals; otherwise the first difference.
/// (weighted_cost is not compared: it depends on summation order.)
inline std::string link_traffic_diff(const TrafficStats& got,
                                     const TrafficStats& want) {
  const auto name = [](const std::pair<NodeId, NodeId>& link) {
    return std::to_string(link.first.value()) + "->" +
           std::to_string(link.second.value());
  };
  for (const auto& [link, w] : want.links) {
    const auto it = got.links.find(link);
    if (it == got.links.end()) return "missing link " + name(link);
    if (it->second.bytes != w.bytes ||
        it->second.messages_sent != w.messages_sent) {
      return "link " + name(link) + ": " + std::to_string(it->second.bytes) +
             " B / " + std::to_string(it->second.messages_sent) +
             " msgs, want " + std::to_string(w.bytes) + " B / " +
             std::to_string(w.messages_sent) + " msgs";
    }
  }
  for (const auto& [link, g] : got.links) {
    if (!want.links.contains(link)) return "extra link " + name(link);
  }
  if (got.bytes != want.bytes || got.messages_sent != want.messages_sent) {
    return "totals differ: " + std::to_string(got.bytes) + " B / " +
           std::to_string(got.messages_sent) + " msgs, want " +
           std::to_string(want.bytes) + " B / " +
           std::to_string(want.messages_sent) + " msgs";
  }
  return "";
}

}  // namespace cosmos::pubsub::testsupport
