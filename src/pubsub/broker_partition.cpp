#include "pubsub/broker_partition.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace cosmos::pubsub {

namespace {

constexpr std::uint64_t kHeaderBytes = 16;
constexpr std::uint64_t kFixedWidthBytes = 8;

void set_bit(std::uint64_t* mask, std::size_t bit) {
  mask[bit / 64] |= std::uint64_t{1} << (bit % 64);
}

}  // namespace

void TrafficStats::merge(const TrafficStats& other) {
  bytes += other.bytes;
  weighted_cost += other.weighted_cost;
  messages_sent += other.messages_sent;
  for (const auto& [link, t] : other.links) {
    auto& row = links[link];
    row.bytes += t.bytes;
    row.weighted_cost += t.weighted_cost;
    row.messages_sent += t.messages_sent;
  }
}

std::size_t Overlay::index_of(NodeId n) const {
  const auto it = index.find(n);
  if (it == index.end()) {
    throw std::invalid_argument{"BrokerNetwork: not a participant"};
  }
  return it->second;
}

BrokerPartition::BrokerPartition(const Overlay& overlay, std::string stream,
                                 NodeId publisher, stream::Schema schema)
    : overlay_(&overlay),
      stream_(std::move(stream)),
      publisher_(publisher),
      publisher_idx_(overlay.index_of(publisher)),
      schema_(std::move(schema)),
      mask_words_(schema_.size() / 64 + 1),
      fixed_cols_(mask_words_, 0),
      string_cols_(mask_words_, 0),
      index_(&schema_) {
  for (std::size_t i = 0; i < schema_.size(); ++i) {
    set_bit(schema_.field(i).type == stream::ValueType::kString
                ? string_cols_.data()
                : fixed_cols_.data(),
            i);
  }
}

void BrokerPartition::add_subscription(const Subscription* sub) {
  // Compile once per subscribe. Lenient: a filter referencing attributes
  // this stream lacks evaluates to "no match" through
  // filter_batch_unresolved_false — the interpreter's contract
  // (Subscription::matches) row for row.
  MatchedSub entry{sub, overlay_->index_of(sub->subscriber),
                   stream::CompiledPredicate::compile_lenient(
                       sub->filter, {{"", &schema_, SIZE_MAX}})};
  SubscriptionIndex::Slot slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    subs_[slot] = std::move(entry);
  } else {
    slot = static_cast<SubscriptionIndex::Slot>(subs_.size());
    subs_.push_back(std::move(entry));
    masks_.resize(subs_.size() * mask_words_);
  }
  std::uint64_t* mask = &masks_[std::size_t{slot} * mask_words_];
  std::fill(mask, mask + mask_words_, 0);
  set_bit(mask, schema_.size());  // the row travels, whatever it carries
  for (std::size_t i = 0; i < schema_.size(); ++i) {
    if (sub->projection.empty() ||
        sub->projection.contains(schema_.field(i).name)) {
      set_bit(mask, i);
    }
  }
  slot_of_.emplace(sub->id, slot);
  ++live_count_;
  index_.add(slot, sub->filter, subs_[slot].filter);
}

void BrokerPartition::remove_subscription(SubscriptionId id) {
  const auto [first, last] = slot_of_.equal_range(id);
  for (auto it = first; it != last; ++it) {
    const auto slot = it->second;
    index_.remove(slot);
    subs_[slot] = {};
    free_slots_.push_back(slot);
    --live_count_;
  }
  slot_of_.erase(first, last);
}

void BrokerPartition::match_rows(const runtime::TupleBatch& batch) {
  const std::size_t slots = subs_.size();
  if (rows_of_.size() < slots) rows_of_.resize(slots);
  if (cand_rows_.size() < slots) cand_rows_.resize(slots);
  active_.clear();
  touched_.clear();
  index_.probe_batch(batch, cand_rows_, touched_);
  for (const auto slot : touched_) {
    auto& cand = cand_rows_[slot];
    if (const auto* res = index_.residual(slot)) {
      res->filter_batch(batch, &cand, rows_of_[slot]);
    } else {
      std::swap(rows_of_[slot], cand);
    }
    cand.clear();
    if (!rows_of_[slot].empty()) active_.push_back(slot);
  }
  for (const auto slot : index_.scan_slots()) {
    subs_[slot].filter.filter_batch_unresolved_false(batch, nullptr,
                                                     rows_of_[slot]);
    if (!rows_of_[slot].empty()) active_.push_back(slot);
  }
}

void BrokerPartition::match_batch(const runtime::TupleBatch& batch,
                                  std::vector<BatchDelivery>& deliveries) {
  if (batch.empty()) return;
  // Validate ordering up front, before any matching or accounting: a batch
  // violating the per-stream timestamp rule must fail atomically, not after
  // half of its rows already generated traffic.
  if (!batch.timestamps_ordered()) {
    for (std::size_t r = 1; r < batch.size(); ++r) {
      if (batch.ts(r) < batch.ts(r - 1)) {
        throw std::invalid_argument{
            "BrokerPartition: out-of-order batch on stream " + stream_ +
            ": ts " + std::to_string(batch.ts(r)) + " after ts " +
            std::to_string(batch.ts(r - 1))};
      }
    }
  }
  if (live_count_ == 0) return;

  // Stage 1 — one ascending row list per matched slot: exactly the
  // BatchDelivery row sets.
  match_rows(batch);
  if (active_.empty()) return;

  // Stage 2 — invert the per-slot row lists into per-row slot lists (one
  // pass over the matches) and account each matched row.
  if (row_subs_.size() < batch.size()) row_subs_.resize(batch.size());
  for (const auto slot : active_) {
    for (const auto r : rows_of_[slot]) row_subs_[r].push_back(slot);
  }
  for (std::uint32_t row = 0; row < batch.size(); ++row) {
    auto& here = row_subs_[row];
    if (here.empty()) continue;
    account(batch, row, here);
    here.clear();
  }

  // Stage 3 — deliveries in first-match order: by first matched row, ties
  // by slot.
  std::sort(active_.begin(), active_.end(),
            [this](SubscriptionIndex::Slot a, SubscriptionIndex::Slot b) {
              return std::pair{rows_of_[a].front(), a} <
                     std::pair{rows_of_[b].front(), b};
            });
  for (const auto slot : active_) {
    deliveries.push_back({subs_[slot].sub, &batch, std::move(rows_of_[slot])});
    rows_of_[slot].clear();
  }
}

void BrokerPartition::account(
    const runtime::TupleBatch& batch, std::uint32_t row,
    const std::vector<SubscriptionIndex::Slot>& slots) {
  const std::size_t words = mask_words_;
  const std::size_t nodes = overlay_->participants.size();
  // Node-major column masks of what each subtree wants. Scratch per
  // thread, not per partition: partitions stay O(subscriptions).
  thread_local std::vector<std::uint64_t> wanted;
  wanted.assign(nodes * words, 0);
  for (const auto slot : slots) {
    std::uint64_t* home = &wanted[subs_[slot].home * words];
    const std::uint64_t* mask = &masks_[std::size_t{slot} * words];
    for (std::size_t w = 0; w < words; ++w) home[w] |= mask[w];
  }
  if (links_.empty()) links_.resize(nodes);
  // Children first: by the time v is reached, its subtree is folded in.
  const auto& order = overlay_->order[publisher_idx_];
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    const std::size_t v = order[i];
    const std::uint64_t* mask = &wanted[v * words];
    if (std::all_of(mask, mask + words,
                    [](std::uint64_t m) { return m == 0; })) {
      continue;
    }
    std::uint64_t* parent =
        &wanted[overlay_->next_hop[v][publisher_idx_] * words];
    std::uint64_t bytes = kHeaderBytes;
    for (std::size_t w = 0; w < words; ++w) {
      parent[w] |= mask[w];
      bytes += kFixedWidthBytes * static_cast<std::uint64_t>(
                                      std::popcount(mask[w] & fixed_cols_[w]));
      for (std::uint64_t s = mask[w] & string_cols_[w]; s != 0; s &= s - 1) {
        const auto col =
            w * 64 + static_cast<std::size_t>(std::countr_zero(s));
        bytes += batch.at(row, col).as_string().size();
      }
    }
    links_[v].bytes += bytes;
    ++links_[v].messages;
  }
}

TrafficStats BrokerPartition::traffic() const {
  TrafficStats out;
  for (std::size_t v = 0; v < links_.size(); ++v) {
    if (links_[v].messages == 0) continue;
    const NodeId from =
        overlay_->participants[overlay_->next_hop[v][publisher_idx_]];
    const NodeId to = overlay_->participants[v];
    const auto bytes = static_cast<double>(links_[v].bytes);
    const double cost = bytes * overlay_->lat->latency(from, to);
    out.links.emplace(std::make_pair(from, to),
                      LinkTraffic{bytes, cost, links_[v].messages});
    out.bytes += bytes;
    out.weighted_cost += cost;
    out.messages_sent += links_[v].messages;
  }
  return out;
}

}  // namespace cosmos::pubsub
