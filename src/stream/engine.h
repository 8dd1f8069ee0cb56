// In-process stream engine: a registry of named streams with schemas and a
// batch bus. Query plans (built in src/query) attach batch taps to their
// input streams and publish result batches on derived streams.
//
// Delivery is batch-only: every tap receives whole runtime::TupleBatches.
// publish() is a one-row wrapper over publish_batch(), and row observers
// (result consumers, tests, examples) attach through a thin adapter that
// walks each batch's rows, so there is a single delivery loop.
//
// This is the stand-in for the GSN engine the paper deploys on PlanetLab.
#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/tuple_batch.h"
#include "stream/schema.h"

namespace cosmos::stream {

class Engine {
 public:
  /// Batch consumer: receives each published batch whole.
  using BatchTap = std::function<void(const runtime::TupleBatch&)>;
  /// Row observer: sees each published row in order.
  using Tap = std::function<void(const Tuple&)>;

  /// Registers a stream; throws std::invalid_argument on duplicate name.
  void register_stream(const std::string& name, Schema schema);
  /// Removes a stream and its taps (no-op for unknown names).
  void remove_stream(const std::string& name) { streams_.erase(name); }

  [[nodiscard]] bool has_stream(const std::string& name) const noexcept {
    return streams_.contains(name);
  }
  /// Throws std::out_of_range for unknown streams.
  [[nodiscard]] const Schema& schema(const std::string& name) const;

  /// Attaches a batch consumer to a stream; returns a tap id usable in
  /// detach(). Throws std::invalid_argument on a null tap.
  std::size_t attach(const std::string& name, BatchTap tap);
  /// Row-observer adapter over attach(BatchTap): `tap` sees the rows of
  /// each batch materialized one by one, in batch order.
  std::size_t attach(const std::string& name, Tap tap);
  void detach(const std::string& name, std::size_t tap_id);

  /// Publishes one tuple: publish_batch() of a one-row batch.
  void publish(const std::string& name, const Tuple& t);

  /// Publishes every row of `batch` (whose stream name must equal `name`)
  /// with one stream lookup, one ordering check against the previous
  /// publish, and one tap-list snapshot for the whole batch — so a tap
  /// attached mid-batch first sees the next batch. Each tap, in attach
  /// order, receives the whole batch.
  ///
  /// Ordering is per-stream: rows on one stream must arrive in
  /// non-decreasing timestamp order, within the batch and across
  /// publishes (window semantics depend on it); violations throw
  /// std::invalid_argument naming the stream and both timestamps. Streams
  /// are independent — equal or interleaved timestamps across different
  /// streams never throw.
  void publish_batch(const std::string& name,
                     const runtime::TupleBatch& batch);

  /// Total tuples published per stream (for tests and stats).
  [[nodiscard]] std::size_t published_count(const std::string& name) const;

 private:
  struct TapEntry {
    std::size_t id = 0;
    BatchTap tap;
  };
  struct StreamState {
    Schema schema;
    Timestamp last_ts = INT64_MIN;
    std::size_t published = 0;
    std::size_t next_tap_id = 0;
    std::vector<TapEntry> taps;
  };
  StreamState& state(const std::string& name);
  std::unordered_map<std::string, StreamState> streams_;
};

}  // namespace cosmos::stream
