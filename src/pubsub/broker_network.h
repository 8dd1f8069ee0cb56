// The content-based publish/subscribe substrate of Section 2, simulated
// in-process over an overlay tree.
//
// Brokers sit on every participant node; the overlay is the
// latency-minimal spanning tree of the participants. A publisher
// advertises a stream, which creates the stream's BrokerPartition
// (broker_partition.h); a subscription names the streams it wants, a
// projection and a filter, and is installed at its subscriber's home
// broker. Matching a batch evaluates every subscription of the stream
// through one batch path, then sends each matched row once per tree link
// toward the matched homes — one copy per link however many
// subscriptions sit behind it, carrying the union of their projections
// (early filtering and early projection). Link traffic is accounted as
// bytes and as byte*ms (the weighted communication cost the prototype
// study reports), per directed link and in total.
//
// BrokerNetwork is a thin facade over the per-stream partitions: each
// partition's matching and accounting run lock-free on whichever thread
// owns it (the runtime shard owning the stream's publishing engine in
// Cosmos::run()), while the facade builds and retires partitions, applies
// subscription updates, and merges their traffic.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/latency_matrix.h"
#include "pubsub/broker_partition.h"
#include "pubsub/subscription.h"
#include "runtime/tuple_batch.h"

namespace cosmos::pubsub {

class BrokerNetwork {
 public:
  using DeliveryCallback =
      std::function<void(const Subscription&, const Message&)>;
  using BatchDeliveryCallback = std::function<void(const BatchDelivery&)>;

  /// Builds the overlay spanning tree over `participants` using latencies
  /// from `lat` (all participants must be members of `lat`).
  BrokerNetwork(std::vector<NodeId> participants,
                const net::LatencyMatrix& lat);

  // Partitions hold pointers into overlay_ and subscriptions_ (and shards
  // hold partition pointers during run()): the network must stay at one
  // address for its whole life.
  BrokerNetwork(const BrokerNetwork&) = delete;
  BrokerNetwork& operator=(const BrokerNetwork&) = delete;

  /// Declares that `publisher` emits `stream` with the given schema;
  /// creates the stream's partition (indexing any already-installed
  /// subscriptions interested in it).
  void advertise(const std::string& stream, NodeId publisher,
                 stream::Schema schema);
  /// Retires `stream`'s partition (no-op for unadvertised streams). The
  /// traffic it accounted stays in traffic(); subscriptions that still
  /// name the stream stay installed and are replayed if it is advertised
  /// again.
  void unadvertise(const std::string& stream);

  /// Installs a subscription at its subscriber node; returns its id.
  SubscriptionId subscribe(Subscription sub);
  /// Installs a subscription under the id it already carries (federation
  /// nodes replicate driver-assigned subscriptions, and match responses
  /// reference those ids on the wire). Throws std::invalid_argument if the
  /// id is invalid or taken; future subscribe() ids are bumped past it.
  void subscribe_as(Subscription sub);
  void unsubscribe(SubscriptionId id);

  /// The installed subscription with this id, or nullptr.
  [[nodiscard]] const Subscription* subscription(
      SubscriptionId id) const noexcept;

  /// Publishes every row of `batch` from the stream's advertised
  /// publisher (BrokerPartition::match_batch): link traffic is accounted,
  /// and `callback` receives one delivery per matching subscription
  /// carrying all of its rows, in first-match order, after the whole
  /// batch is matched. Rows must be timestamp-ordered
  /// (std::invalid_argument otherwise).
  void publish_batch(const std::string& stream,
                     const runtime::TupleBatch& batch,
                     const BatchDeliveryCallback& callback);
  /// publish_batch() of a one-row batch, with a per-subscription callback.
  void publish(const std::string& stream, const stream::Tuple& tuple,
               const DeliveryCallback& callback);

  /// Partition owning `stream`, or nullptr if unadvertised. The runtime
  /// path uses this to run match_batch() inside shards; a partition must be
  /// driven by at most one thread at a time (see broker_partition.h).
  [[nodiscard]] BrokerPartition* partition(const std::string& stream) noexcept;
  /// All partitions, ordered by stream name (deterministic).
  [[nodiscard]] std::vector<BrokerPartition*> partitions();

  /// Traffic merged across every partition, retired ones included. Only
  /// meaningful while no other thread is driving a partition (quiescent
  /// points: outside run(), or on the driver after a drain).
  [[nodiscard]] TrafficStats traffic() const;

  [[nodiscard]] const stream::Schema& schema(const std::string& stream) const;

  /// Participants in construction order (what a federation driver ships as
  /// topology so remote brokers rebuild the identical overlay tree).
  [[nodiscard]] const std::vector<NodeId>& participants() const noexcept {
    return overlay_.participants;
  }
  /// The latency matrix this network was built over.
  [[nodiscard]] const net::LatencyMatrix& latency_matrix() const noexcept {
    return *overlay_.lat;
  }

  /// Overlay neighbors of a node (for tests).
  [[nodiscard]] std::vector<NodeId> neighbors(NodeId n) const;

 private:
  void install(Subscription sub);
  /// The partition publishing `stream`; std::invalid_argument otherwise.
  BrokerPartition& owner(const std::string& stream);

  Overlay overlay_;
  /// stream name -> partition; std::map keeps partitions() deterministic,
  /// unique_ptr keeps partition addresses stable across inserts (shards
  /// hold raw pointers while the facade may advertise more streams).
  std::map<std::string, std::unique_ptr<BrokerPartition>> partitions_;
  std::unordered_map<SubscriptionId, Subscription> subscriptions_;
  /// stream name -> interested subscriptions (also for streams that are
  /// not advertised yet; advertise() replays these into the partition).
  std::unordered_map<std::string, std::vector<SubscriptionId>> by_stream_;
  SubscriptionId::value_type next_sub_id_ = 0;
  /// What unadvertised partitions accounted before they were retired.
  TrafficStats retired_traffic_;
};

}  // namespace cosmos::pubsub
