// One benchmark iteration per call: set the system up from the generated
// inputs, ingest the whole trace through the workload's mode (push, run or
// run_federated), and check every delivered result against the push()
// reference of the same inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cosmos/cosmos.h"
#include "inputs.h"
#include "obs/histogram.h"
#include "percentile.h"
#include "spans.h"

namespace perfbench {

/// Order-sensitive digest of the result sequence one query received.
struct Digest {
  std::uint64_t count = 0;
  std::uint64_t hash = 0xcbf29ce484222325ull;
  void add(const cosmos::stream::Tuple& t) noexcept;
  friend bool operator==(const Digest&, const Digest&) = default;
};

/// What push() delivers on the inputs: per-query digests and the weighted
/// traffic cost, plus the chunk sizes the latency percentiles need, each in
/// the unit its latency samples count.
struct Reference {
  std::vector<Digest> digests;
  /// push(): query deliveries per push() call (join-push times each one).
  std::vector<std::uint64_t> results_per_tuple;
  /// Run modes: result events per chunk. RunReport::e2e_latency records one
  /// sample per result event, before p2 delivery fans it out to queries.
  std::vector<std::uint64_t> events_per_chunk;
  cosmos::pubsub::TrafficStats traffic;
  std::uint64_t results = 0;
};
/// `run_modes` also counts events_per_chunk, by running the inputs through
/// Cosmos::run one chunk per call (results checked against push()).
Reference make_reference(const Inputs& in, bool run_modes);

/// The paper's weighted communication cost, bytes x link latency summed
/// link by link in link order. Per-link byte counts are whole numbers, so
/// unlike TrafficStats::weighted_cost (summed in whatever order each
/// partition or worker saw its messages) this is the same double in every
/// mode.
double weighted_cost(const cosmos::pubsub::TrafficStats& t,
                     const cosmos::net::LatencyMatrix& lat);

/// True when both carry the same bytes and messages on every link.
bool same_link_traffic(const cosmos::pubsub::TrafficStats& a,
                       const cosmos::pubsub::TrafficStats& b);

/// Peak resident memory (VmHWM) in a /proc/<pid>/status file; 0 when the
/// process is gone.
double vm_hwm_mb(const std::string& status_path);

/// Driver chunk options every run mode uses (the defaults of RunOptions
/// and FederationOptions).
inline constexpr std::size_t kBatchSize = 256;
inline constexpr cosmos::stream::Timestamp kTickMs = 60'000;

/// Per-run scratch directory for worker sockets and journals, under the
/// build directory of the checkout. Removed on destruction.
class RunDir {
 public:
  RunDir();
  ~RunDir();
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

struct Iteration {
  double setup_s = 0.0;   ///< construct + register + submit (+ fleet/connect)
  double ingest_s = 0.0;  ///< push loop, or call wall minus connect prefix
  double call_s = 0.0;    ///< wall time of the ingest call itself
  double cpu_s = 0.0;     ///< process + reaped-worker CPU over the call
  double worker_cpu_s = 0.0;
  std::uint64_t tuples = 0;
  Percentile p50;
  Percentile p99;
  /// join-push: latency of every delivery, from the start of its push().
  cosmos::obs::HistogramSnapshot push_latency;
  double worker_peak_mb = 0.0;  ///< join-federated: workers' summed peak RSS
  double peak_rss_mb = 0.0;     ///< this process's peak plus worker_peak_mb
  double weighted_cost = 0.0;
  double traffic_bytes = 0.0;
  std::size_t failed = 0;  ///< queries whose results differ from push()
  std::vector<std::string> problems;
  cosmos::middleware::Cosmos::RunReport report;  ///< run modes only
  std::size_t units = 0;
  std::size_t subscriptions = 0;

  [[nodiscard]] double tuples_per_s() const noexcept {
    return static_cast<double>(tuples) / ingest_s;
  }
};

class Harness {
 public:
  Harness(Workload w, const Inputs& in, const Reference& ref,
          const RunDir& dir, SpanRecorder& spans);

  /// One full iteration. `sample_workers` asks federated workers for their
  /// final stats sample (traced runs only).
  Iteration run_once(bool sample_workers);

  /// Set-up alone, for the setup_s repetitions: the same steps as
  /// run_once's set-up, and for join-federated an empty-trace
  /// run_federated for the connect and registration prefix.
  double setup_only();

  /// A set-up, never-run instance (the traced run's layer replays).
  std::unique_ptr<cosmos::middleware::Cosmos> build_idle();

 private:
  struct Fleet;
  std::unique_ptr<cosmos::middleware::Cosmos> build(Fleet* fleet);
  cosmos::middleware::Cosmos::FederationOptions federation_options(
      const Fleet& fleet, bool sample_workers);

  Workload w_;
  const Inputs& in_;
  const Reference& ref_;
  const RunDir& dir_;
  SpanRecorder& spans_;
  std::size_t fleet_seq_ = 0;
  // Result sink state, written by the result callbacks.
  std::vector<Digest> digests_;
  Iteration* current_ = nullptr;  ///< receives push() latencies
  std::uint64_t push_start_ns_ = 0;
  /// join-push moves its push loop to the next allowed CPU every iteration.
  std::vector<int> cpus_;
  std::size_t push_loops_ = 0;
};

}  // namespace perfbench
