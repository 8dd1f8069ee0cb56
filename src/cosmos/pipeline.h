// The one chunk pipeline behind Cosmos::run(), run_federated() and
// resume_federated() — the data path of Section 2, one driver chunk at a
// time: cut -> match -> route -> execute -> deliver.
//
// runtime::Driver cuts the trace into global-order-preserving chunks of
// same-stream runs. Every run's stream must be a registered source; runs
// no subscription wants are skipped, and the rest are grouped per owner
// (in chunk order) and shipped to the fleet for p1 subscription matching
// and link accounting. The route stage merges each run's matched rows per
// subscriber engine — an engine sees a tuple once however many of its
// subscriptions matched it; plans re-apply their own filters — into one
// slice per engine that hosts the stream, in NodeId order. The fleet
// executes the slices, and their results return to the driver thread for
// p2 delivery to the user callbacks.
//
// A Fleet is where match and execute work runs: the sharded in-process
// runtime (run()) or cosmos_noded worker processes (run_federated()). Up
// to `window` chunks may await their matches at once (1 = a strict
// per-chunk barrier); chunks are routed and executed in chunk order, so
// per-query result sequences are identical to push() on either fleet.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "cosmos/cosmos.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pubsub/broker_partition.h"
#include "runtime/driver.h"
#include "wire/messages.h"

namespace cosmos::middleware {

class Pipeline {
 public:
  using RunReport = Cosmos::RunReport;
  /// Sentinel Run::group of a run no subscription wants.
  static constexpr std::uint32_t kUnmatched = UINT32_MAX;

  /// One same-stream run of a chunk.
  struct Run {
    std::shared_ptr<const runtime::TupleBatch> batch;
    pubsub::BrokerPartition* part = nullptr;  ///< its source partition
    std::uint32_t group = kUnmatched;  ///< index into Chunk::groups
    std::uint32_t slot = 0;            ///< position within that group
  };
  /// The runs of one chunk that one owner matches, as indices into
  /// Chunk::runs, in chunk order.
  struct Group {
    std::size_t owner = 0;
    std::vector<std::uint32_t> runs;
  };
  struct Chunk {
    std::vector<Run> runs;
    std::vector<Group> groups;  ///< in order of first appearance
    std::size_t tuples = 0;
    stream::Timestamp last_ts = 0;
    std::uint64_t ingest_ns = 0;  ///< runtime::Chunk::ingest_ns
  };
  /// One engine's share of one run. Route order is run order, then NodeId
  /// order within a run.
  struct Slice {
    NodeId engine;
    std::uint32_t run = 0;  ///< index into Chunk::runs
    /// Ascending row indices into the run; empty = every row.
    std::vector<std::uint32_t> rows;
  };
  /// Per run of a chunk, the rows each matching subscription wants.
  using Matches = std::vector<std::vector<pubsub::BatchDelivery>>;

  /// Where a mode ships match and execute work; called on the driver
  /// thread only.
  class Fleet {
   public:
    virtual ~Fleet() = default;
    virtual void start() {}  ///< session setup, before the ingest clock
    /// Owner key of a subscribed source partition: one match request per
    /// (chunk, owner).
    [[nodiscard]] virtual std::size_t owner_of(
        const pubsub::BrokerPartition& part) const = 0;
    virtual void before_chunk(stream::Timestamp /*first_ts*/) {}
    virtual void match(const Chunk& chunk) = 0;  ///< ships chunk.groups
    /// Waits for the oldest shipped chunk's matches into `matches` (one
    /// empty list per run on entry). Throws on failure: that chunk and
    /// every later one are never routed.
    virtual void await_match(const Chunk& chunk, Matches& matches) = 0;
    virtual void execute(const Chunk& chunk, std::vector<Slice> slices) = 0;
    virtual void after_chunk(stream::Timestamp /*last_ts*/) {}
    /// Moves the results ready for p2 delivery into `out` (cleared first).
    virtual void take_results(std::vector<wire::ResultEventMsg>& out) = 0;
    /// End of trace (window empty): returns once every result is takeable.
    virtual void finish() = 0;
    virtual void close() {}  ///< after the ingest clock: teardown, report
  };

  struct Options {
    std::size_t batch_size = 256;
    stream::Timestamp tick_ms = 60'000;
    std::size_t window = 1;  ///< chunks awaiting match results at once
    std::string trace_path;  ///< Chrome trace output; empty = off
  };

  /// Traces when `trace_path` is set. Outlives the fleet it runs: the trace
  /// is written on destruction, after the fleet's threads have joined.
  Pipeline(Cosmos& sys, Options options);
  Pipeline(const Pipeline&) = delete;  // fleets and the driver hold `this`
  Pipeline& operator=(const Pipeline&) = delete;

  /// Replays events[skip:] through `fleet` and returns the run's report.
  RunReport run(Fleet& fleet, const std::vector<runtime::TraceEvent>& events,
                std::size_t skip = 0);

  /// Quiesce points: route and execute every chunk in the window; deliver
  /// every result the fleet has ready.
  void drain_window();
  void deliver();

  [[nodiscard]] RunReport& report() noexcept { return report_; }
  [[nodiscard]] obs::TraceSession& trace() noexcept { return trace_; }

 private:
  void on_chunk(runtime::Chunk&& in);
  void complete_front();
  /// The route stage: matched rows -> per-engine slices.
  [[nodiscard]] std::vector<Slice> route(const Chunk& chunk,
                                         const Matches& matches) const;

  Cosmos& sys_;
  Options options_;
  obs::TraceSession trace_;
  obs::MetricsRegistry reg_;
  obs::Histogram& e2e_;
  RunReport report_;
  Fleet* fleet_ = nullptr;
  std::deque<Chunk> window_;
  std::vector<wire::ResultEventMsg> results_;  ///< deliver() scratch
};

}  // namespace cosmos::middleware
