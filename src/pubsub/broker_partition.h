// One stream's slice of the broker network: its subscriptions, their
// matching, and the link traffic that matching causes.
//
// Partitions are the unit of parallelism for subscription matching: every
// stream's subscriptions and traffic counters are independent of every
// other stream's, so a partition can be driven by whatever thread
// currently owns it — in Cosmos::run() that is the runtime shard owning
// the stream's publishing engine — with no locks at all. The ownership
// protocol is the runtime's drain discipline: at most one thread calls
// into a partition at a time, and ownership hand-offs (engine migration,
// driver-side result delivery) happen only across a shard drain, which
// establishes the happens-before edge. (The per-batch scratch buffers
// below rely on the same discipline.)
//
// match_batch() is the only matching path. Subscriptions live in stable
// slots whose compiled filters are decomposed into a SubscriptionIndex
// (subscription_index.h): per-column constant hash probes and
// sorted-interval stabs produce per-row candidates, and only candidates
// run their compiled residual; filters the index cannot anchor are
// evaluated in full. A subscribe takes the most recently freed slot, or a
// fresh one; deliveries come in first-match order (by first matched row,
// ties by slot), so callers that act per delivery act in slot order.
//
// Traffic: the overlay is a tree, rooted here at the publisher. Each
// matched row crosses the link parent -> v exactly once when v's subtree
// holds the home broker of at least one subscription that matched it, and
// carries the union of those subscriptions' projections (an empty
// projection means every column). A copy costs a 16-byte header, 8 bytes
// per fixed-width column and the length of each string column. Each slot
// holds its projection as a column mask; per row, the masks are ORed into
// their home nodes and folded children-first toward the publisher, and
// every link whose subtree wanted the row is priced from the batch.
// Counters are flat per link and fold into TrafficStats when read.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/latency_matrix.h"
#include "pubsub/subscription.h"
#include "pubsub/subscription_index.h"
#include "runtime/tuple_batch.h"
#include "stream/compiled_predicate.h"

namespace cosmos::pubsub {

/// Traffic of one directed overlay link (accounted on the from->to hop).
struct LinkTraffic {
  double bytes = 0.0;
  double weighted_cost = 0.0;  ///< bytes * link latency (byte*ms)
  std::size_t messages_sent = 0;

  friend bool operator==(const LinkTraffic&, const LinkTraffic&) = default;
};

struct TrafficStats {
  double bytes = 0.0;
  double weighted_cost = 0.0;  ///< sum of bytes * link latency (byte*ms)
  std::size_t messages_sent = 0;
  /// Per directed overlay link (from, to) breakdown of the totals — what
  /// link-level tests assert and hot-link analysis reads.
  std::map<std::pair<NodeId, NodeId>, LinkTraffic> links;

  /// Accumulates `other` into this (the facade's partition merge).
  void merge(const TrafficStats& other);

  friend bool operator==(const TrafficStats&, const TrafficStats&) = default;
};

/// Batched delivery: the rows of a published batch one subscription
/// matched, as ascending indices into the source batch (select() them to
/// materialize the subscriber's view).
struct BatchDelivery {
  const Subscription* sub = nullptr;
  const runtime::TupleBatch* source = nullptr;
  std::vector<std::uint32_t> rows;
};

/// Immutable overlay shared by every partition: the latency-minimal
/// spanning tree over the participants. Built once by the BrokerNetwork
/// constructor; read-only afterwards, so concurrent partitions never
/// contend on it.
struct Overlay {
  std::vector<NodeId> participants;
  std::unordered_map<NodeId, std::size_t> index;
  const net::LatencyMatrix* lat = nullptr;
  std::vector<std::vector<std::size_t>> adj;  ///< tree adjacency
  /// next_hop[a][b]: a's neighbor toward b (SIZE_MAX when a == b). With
  /// the tree rooted at r, next_hop[v][r] is v's parent.
  std::vector<std::vector<std::size_t>> next_hop;
  /// order[r]: every node of the tree rooted at r, parents before
  /// children (r first).
  std::vector<std::vector<std::size_t>> order;

  /// Index of `n`; throws std::invalid_argument for non-participants.
  [[nodiscard]] std::size_t index_of(NodeId n) const;
};

class BrokerPartition {
 public:
  BrokerPartition(const Overlay& overlay, std::string stream, NodeId publisher,
                  stream::Schema schema);

  // index_ resolves filters against &schema_: the partition must stay at
  // one address for its whole life (BrokerNetwork holds it by unique_ptr).
  BrokerPartition(const BrokerPartition&) = delete;
  BrokerPartition& operator=(const BrokerPartition&) = delete;

  [[nodiscard]] const std::string& stream() const noexcept { return stream_; }
  [[nodiscard]] NodeId publisher() const noexcept { return publisher_; }
  [[nodiscard]] const stream::Schema& schema() const noexcept {
    return schema_;
  }

  /// Facade bookkeeping: (de)registers a subscription interested in this
  /// stream. `sub` must stay valid while registered. The subscription's
  /// filter is compiled against the partition schema here — once per
  /// subscribe — so matching never resolves a field by string again; a
  /// filter referencing attributes this stream lacks compiles leniently
  /// and matches nothing, exactly like the interpreted
  /// Subscription::matches. The filter is also decomposed into the
  /// attribute-predicate index, and the projection becomes the slot's
  /// column mask (a name the schema lacks adds no column). Slots of
  /// removed subscriptions are reused, and index maintenance is
  /// incremental in both directions.
  void add_subscription(const Subscription* sub);
  void remove_subscription(SubscriptionId id);
  [[nodiscard]] std::size_t subscription_count() const noexcept {
    return live_count_;
  }

  /// Matches every row of `batch`, accounts its link traffic, and appends
  /// one BatchDelivery per matching slot to `deliveries`, in first-match
  /// order. Rows must be timestamp-ordered; violations throw
  /// std::invalid_argument naming the stream and both timestamps before
  /// any row is matched or accounted.
  void match_batch(const runtime::TupleBatch& batch,
                   std::vector<BatchDelivery>& deliveries);

  /// The per-link counters folded into TrafficStats.
  [[nodiscard]] TrafficStats traffic() const;

 private:
  struct MatchedSub {
    const Subscription* sub = nullptr;  ///< nullptr = free slot
    std::size_t home = 0;
    /// Filter compiled against the partition schema (single "" binding).
    stream::CompiledPredicate filter;
  };
  /// Bytes and copies that crossed the link parent(v) -> v, indexed by v.
  struct LinkCount {
    std::uint64_t bytes = 0;
    std::uint64_t messages = 0;
  };

  /// Stage 1 of match_batch: fills rows_of_[slot] for every live slot with
  /// the ascending row ids its filter matched, and active_ with the slots
  /// that matched anything (unordered).
  void match_rows(const runtime::TupleBatch& batch);
  /// Accounts one matched row: `slots` are the slots that matched it.
  void account(const runtime::TupleBatch& batch, std::uint32_t row,
               const std::vector<SubscriptionIndex::Slot>& slots);

  const Overlay* overlay_;
  std::string stream_;
  NodeId publisher_;
  std::size_t publisher_idx_;
  stream::Schema schema_;
  /// Words per column mask: one bit per schema column plus a final
  /// "carries the row" bit, so a projection of absent names still marks
  /// its path (the 16-byte header travels).
  std::size_t mask_words_;
  std::vector<std::uint64_t> fixed_cols_;   ///< columns priced at 8 bytes
  std::vector<std::uint64_t> string_cols_;  ///< columns priced by length
  /// Subscription slot table: stable slot ids (freed slots are reused, not
  /// erased) so the index can reference subscriptions by position.
  std::vector<MatchedSub> subs_;
  std::vector<std::uint64_t> masks_;  ///< mask_words_ per slot
  std::vector<SubscriptionIndex::Slot> free_slots_;
  /// id -> live slot(s); multimap because direct partition driving does
  /// not enforce the facade's id uniqueness.
  std::unordered_multimap<SubscriptionId, SubscriptionIndex::Slot> slot_of_;
  std::size_t live_count_ = 0;
  SubscriptionIndex index_;
  /// Sized to the overlay on the first accounted row, so partitions that
  /// never carry traffic stay O(subscriptions).
  std::vector<LinkCount> links_;

  // Per-call scratch (a partition is driven by one thread at a time; see
  // the ownership note above), reused across rows and batches.
  std::vector<std::vector<std::uint32_t>> cand_rows_;   ///< per slot
  std::vector<std::vector<std::uint32_t>> rows_of_;     ///< per slot
  std::vector<std::vector<SubscriptionIndex::Slot>> row_subs_;  ///< per row
  std::vector<SubscriptionIndex::Slot> touched_;
  std::vector<SubscriptionIndex::Slot> active_;
};

}  // namespace cosmos::pubsub
