#include "pubsub/broker_network.h"

#include <limits>
#include <stdexcept>

namespace cosmos::pubsub {

BrokerNetwork::BrokerNetwork(std::vector<NodeId> participants,
                             const net::LatencyMatrix& lat) {
  overlay_.participants = std::move(participants);
  overlay_.lat = &lat;
  const std::size_t n = overlay_.participants.size();
  if (n == 0) throw std::invalid_argument{"BrokerNetwork: no participants"};
  for (std::size_t i = 0; i < n; ++i) {
    if (!overlay_.index.emplace(overlay_.participants[i], i).second) {
      throw std::invalid_argument{"BrokerNetwork: duplicate participant"};
    }
  }

  // Latency-minimal spanning tree (Prim).
  overlay_.adj.resize(n);
  std::vector<char> in_tree(n, 0);
  std::vector<double> best(n, std::numeric_limits<double>::infinity());
  std::vector<std::size_t> parent(n, SIZE_MAX);
  best[0] = 0;
  for (std::size_t it = 0; it < n; ++it) {
    std::size_t u = SIZE_MAX;
    for (std::size_t i = 0; i < n; ++i) {
      if (!in_tree[i] && (u == SIZE_MAX || best[i] < best[u])) u = i;
    }
    in_tree[u] = 1;
    if (parent[u] != SIZE_MAX) {
      overlay_.adj[u].push_back(parent[u]);
      overlay_.adj[parent[u]].push_back(u);
    }
    for (std::size_t v = 0; v < n; ++v) {
      if (in_tree[v]) continue;
      const double d =
          overlay_.lat->latency(overlay_.participants[u],
                                overlay_.participants[v]);
      if (d < best[v]) {
        best[v] = d;
        parent[v] = u;
      }
    }
  }

  // Tree routing tables and per-root parents-first orders: BFS from each
  // node (the visit order is the order).
  overlay_.next_hop.assign(n, std::vector<std::size_t>(n, SIZE_MAX));
  overlay_.order.assign(n, {});
  for (std::size_t src = 0; src < n; ++src) {
    auto& order = overlay_.order[src];
    order.reserve(n);
    order.push_back(src);
    std::vector<char> seen(n, 0);
    seen[src] = 1;
    for (const auto nb : overlay_.adj[src]) {
      overlay_.next_hop[src][nb] = nb;
      seen[nb] = 1;
      order.push_back(nb);
    }
    for (std::size_t head = 1; head < order.size(); ++head) {
      const auto u = order[head];
      for (const auto v : overlay_.adj[u]) {
        if (seen[v]) continue;
        seen[v] = 1;
        overlay_.next_hop[src][v] = overlay_.next_hop[src][u];
        order.push_back(v);
      }
    }
  }
}

void BrokerNetwork::advertise(const std::string& stream, NodeId publisher,
                              stream::Schema schema) {
  auto partition = std::make_unique<BrokerPartition>(overlay_, stream,
                                                     publisher,
                                                     std::move(schema));
  // Subscriptions may predate the advertisement; replay them into the new
  // partition's index.
  if (const auto sit = by_stream_.find(stream); sit != by_stream_.end()) {
    for (const auto id : sit->second) {
      partition->add_subscription(&subscriptions_.at(id));
    }
  }
  if (!partitions_.emplace(stream, std::move(partition)).second) {
    throw std::invalid_argument{"BrokerNetwork: stream already advertised: " +
                                stream};
  }
}

void BrokerNetwork::unadvertise(const std::string& stream) {
  const auto it = partitions_.find(stream);
  if (it == partitions_.end()) return;
  retired_traffic_.merge(it->second->traffic());
  partitions_.erase(it);
}

const stream::Schema& BrokerNetwork::schema(const std::string& stream) const {
  const auto it = partitions_.find(stream);
  if (it == partitions_.end()) {
    throw std::out_of_range{"BrokerNetwork: unknown stream " + stream};
  }
  return it->second->schema();
}

BrokerPartition* BrokerNetwork::partition(const std::string& stream) noexcept {
  const auto it = partitions_.find(stream);
  return it == partitions_.end() ? nullptr : it->second.get();
}

std::vector<BrokerPartition*> BrokerNetwork::partitions() {
  std::vector<BrokerPartition*> out;
  out.reserve(partitions_.size());
  for (const auto& [name, p] : partitions_) out.push_back(p.get());
  return out;
}

SubscriptionId BrokerNetwork::subscribe(Subscription sub) {
  sub.id = SubscriptionId{next_sub_id_++};
  const SubscriptionId id = sub.id;
  install(std::move(sub));
  return id;
}

void BrokerNetwork::subscribe_as(Subscription sub) {
  if (!sub.id.valid()) {
    throw std::invalid_argument{"BrokerNetwork: subscribe_as without an id"};
  }
  if (subscriptions_.contains(sub.id)) {
    throw std::invalid_argument{"BrokerNetwork: subscription id already taken"};
  }
  if (sub.id.value() >= next_sub_id_) next_sub_id_ = sub.id.value() + 1;
  install(std::move(sub));
}

void BrokerNetwork::install(Subscription sub) {
  (void)overlay_.index_of(sub.subscriber);  // validate the home broker exists
  const SubscriptionId id = sub.id;
  const auto streams = sub.streams;  // copied: sub is moved into the map
  const auto [it, inserted] = subscriptions_.emplace(id, std::move(sub));
  (void)inserted;
  for (const auto& s : streams) {
    by_stream_[s].push_back(id);
    if (const auto pit = partitions_.find(s); pit != partitions_.end()) {
      pit->second->add_subscription(&it->second);
    }
  }
}

const Subscription* BrokerNetwork::subscription(
    SubscriptionId id) const noexcept {
  const auto it = subscriptions_.find(id);
  return it == subscriptions_.end() ? nullptr : &it->second;
}

void BrokerNetwork::unsubscribe(SubscriptionId id) {
  const auto it = subscriptions_.find(id);
  if (it == subscriptions_.end()) return;
  for (const auto& s : it->second.streams) {
    if (const auto bit = by_stream_.find(s); bit != by_stream_.end()) {
      std::erase(bit->second, id);
      if (bit->second.empty()) by_stream_.erase(bit);
    }
    if (const auto pit = partitions_.find(s); pit != partitions_.end()) {
      pit->second->remove_subscription(id);
    }
  }
  subscriptions_.erase(it);
}

std::vector<NodeId> BrokerNetwork::neighbors(NodeId n) const {
  std::vector<NodeId> out;
  for (const auto nb : overlay_.adj[overlay_.index_of(n)]) {
    out.push_back(overlay_.participants[nb]);
  }
  return out;
}

BrokerPartition& BrokerNetwork::owner(const std::string& stream) {
  auto* part = partition(stream);
  if (part == nullptr) {
    throw std::invalid_argument{"BrokerNetwork: publish to unadvertised " +
                                stream};
  }
  return *part;
}

void BrokerNetwork::publish_batch(const std::string& stream,
                                  const runtime::TupleBatch& batch,
                                  const BatchDeliveryCallback& callback) {
  std::vector<BatchDelivery> deliveries;
  owner(stream).match_batch(batch, deliveries);
  for (const auto& d : deliveries) callback(d);
}

void BrokerNetwork::publish(const std::string& stream,
                            const stream::Tuple& tuple,
                            const DeliveryCallback& callback) {
  auto& part = owner(stream);
  runtime::TupleBatch row{stream};
  row.push_back(tuple);
  std::vector<BatchDelivery> deliveries;
  part.match_batch(row, deliveries);
  if (deliveries.empty()) return;
  const Message message{stream, &part.schema(), tuple};
  for (const auto& d : deliveries) callback(*d.sub, message);
}

TrafficStats BrokerNetwork::traffic() const {
  TrafficStats out = retired_traffic_;
  for (const auto& [name, p] : partitions_) out.merge(p->traffic());
  return out;
}

}  // namespace cosmos::pubsub
