#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "common/clock.h"
#include "node/spawn.h"
#include "sim/sensor_trace.h"

namespace perfbench {

using cosmos::Clock;
using cosmos::QueryId;
using cosmos::TimePoint;
using cosmos::middleware::Cosmos;
namespace stream = cosmos::stream;

namespace {

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kShards = 2;
constexpr stream::Timestamp kCheckpointEveryMs = 60 * 60'000;
/// Longer than the trace: traced federated runs get only the workers'
/// final stats sample.
constexpr stream::Timestamp kSampleEveryMs = 48 * 60 * 60'000;

double cpu_seconds(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Pins the calling thread to one CPU (none when cpu < 0) for its scope.
class CpuPin {
 public:
  explicit CpuPin(int cpu) {
    if (cpu < 0 || ::sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = ::sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~CpuPin() {
    if (pinned_) ::sched_setaffinity(0, sizeof saved_, &saved_);
  }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

void register_sources(Cosmos& sys, const Inputs& in, SpanRecorder& spans) {
  for (std::size_t st = 0; st < kStations; ++st) {
    const SpanRecorder::Scope span{spans, "register_source"};
    sys.register_source(cosmos::sim::station_stream_name(st),
                        cosmos::sim::sensor_schema(),
                        in.sources[st % kSources]);
  }
}

}  // namespace

void Digest::add(const stream::Tuple& t) noexcept {
  const auto mix = [this](std::uint64_t x) {
    hash = (hash ^ x) * 0x100000001b3ull;
    hash ^= hash >> 29;
  };
  ++count;
  mix(static_cast<std::uint64_t>(t.ts));
  for (const auto& v : t.values) {
    switch (v.type()) {
      case stream::ValueType::kInt:
        mix(static_cast<std::uint64_t>(v.as_int()));
        break;
      case stream::ValueType::kDouble:
        mix(std::bit_cast<std::uint64_t>(v.as_double()) ^ 0x5bd1e995ull);
        break;
      case stream::ValueType::kString:
        for (const char c : v.as_string()) {
          mix(static_cast<unsigned char>(c));
        }
        break;
    }
  }
}

Reference make_reference(const Inputs& in, bool run_modes) {
  Reference ref;
  ref.digests.assign(in.specs.size(), Digest{});
  SpanRecorder off{false};
  Cosmos sys{in.nodes, in.lat};
  register_sources(sys, in, off);
  for (std::size_t i = 0; i < in.specs.size(); ++i) {
    sys.submit(in.specs[i], in.host[i],
               [&ref](QueryId q, const stream::Tuple& t) {
                 ref.digests[q.value()].add(t);
                 ++ref.results;
               });
  }
  ref.results_per_tuple.resize(in.events.size());
  for (std::size_t i = 0; i < in.events.size(); ++i) {
    const std::uint64_t before = ref.results;
    sys.push(in.events[i].stream, in.events[i].tuple);
    ref.results_per_tuple[i] = ref.results - before;
  }
  ref.traffic = sys.traffic();
  if (!run_modes) return ref;

  // One run() call per chunk: the call's e2e histogram counts exactly the
  // result events of that chunk.
  std::vector<Digest> digests(in.specs.size());
  Cosmos chunked{in.nodes, in.lat};
  register_sources(chunked, in, off);
  for (std::size_t i = 0; i < in.specs.size(); ++i) {
    chunked.submit(in.specs[i], in.host[i],
                   [&digests](QueryId q, const stream::Tuple& t) {
                     digests[q.value()].add(t);
                   });
  }
  Cosmos::RunOptions one_shard;
  one_shard.shards = 1;
  std::size_t next = 0;
  cosmos::runtime::Driver::replay(
      in.events, {kBatchSize, kTickMs}, [&](cosmos::runtime::Chunk&& c) {
        const std::vector<cosmos::runtime::TraceEvent> slice(
            in.events.begin() + static_cast<std::ptrdiff_t>(next),
            in.events.begin() + static_cast<std::ptrdiff_t>(next + c.tuples));
        next += c.tuples;
        ref.events_per_chunk.push_back(
            chunked.run(slice, one_shard).e2e_latency.count);
      });
  if (digests != ref.digests) {
    throw std::runtime_error{"chunk-by-chunk run() results differ from push()"};
  }
  return ref;
}

double weighted_cost(const cosmos::pubsub::TrafficStats& t,
                     const cosmos::net::LatencyMatrix& lat) {
  double cost = 0.0;
  for (const auto& [link, row] : t.links) {
    cost += row.bytes * lat.latency(link.first, link.second);
  }
  return cost;
}

bool same_link_traffic(const cosmos::pubsub::TrafficStats& a,
                       const cosmos::pubsub::TrafficStats& b) {
  return std::equal(a.links.begin(), a.links.end(), b.links.begin(),
                    b.links.end(), [](const auto& x, const auto& y) {
                      return x.first == y.first &&
                             x.second.bytes == y.second.bytes &&
                             x.second.messages_sent ==
                                 y.second.messages_sent;
                    });
}

RunDir::RunDir()
    : path_(".bench_build/run/" + std::to_string(::getpid())) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

RunDir::~RunDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

struct Harness::Fleet {
  std::vector<cosmos::node::NodeProcess> procs;
  std::vector<std::string> endpoints;
  std::string journal_dir;
};

double vm_hwm_mb(const std::string& status_path) {
  std::ifstream status{status_path};
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

Harness::Harness(Workload w, const Inputs& in, const Reference& ref,
                 const RunDir& dir, SpanRecorder& spans)
    : w_(w), in_(in), ref_(ref), dir_(dir), spans_(spans) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
    }
  }
}

std::unique_ptr<Cosmos> Harness::build(Fleet* fleet) {
  if (fleet != nullptr) {
    const std::string tag = dir_.path() + "/f" + std::to_string(fleet_seq_++);
    fleet->journal_dir = tag + "-journal";
    for (std::size_t k = 0; k < kWorkers; ++k) {
      const std::string endpoint =
          "unix:" + tag + "-w" + std::to_string(k) + ".sock";
      const SpanRecorder::Scope span{spans_, "spawn_noded"};
      fleet->procs.push_back(cosmos::node::spawn_noded(
          cosmos::node::default_noded_path(), endpoint));
      fleet->endpoints.push_back(endpoint);
    }
  }
  std::unique_ptr<Cosmos> sys;
  {
    const SpanRecorder::Scope span{spans_, "construct"};
    sys = std::make_unique<Cosmos>(in_.nodes, in_.lat);
  }
  register_sources(*sys, in_, spans_);
  const auto on_result = [this](QueryId q, const stream::Tuple& t) {
    digests_[q.value()].add(t);
    if (current_ != nullptr) {
      current_->push_latency.record(cosmos::now_ns() - push_start_ns_);
    }
  };
  for (std::size_t i = 0; i < in_.specs.size(); ++i) {
    const SpanRecorder::Scope span{spans_, "submit"};
    sys->submit(in_.specs[i], in_.host[i],
                [this, on_result](QueryId q, const stream::Tuple& t) {
                  if (!spans_.enabled()) return on_result(q, t);
                  const SpanRecorder::Scope cb{spans_, "result_callback"};
                  on_result(q, t);
                });
  }
  return sys;
}

Cosmos::FederationOptions Harness::federation_options(const Fleet& fleet,
                                                      bool sample_workers) {
  Cosmos::FederationOptions opts;
  opts.workers = fleet.endpoints;
  opts.journal.dir = fleet.journal_dir;
  opts.journal.fsync = Cosmos::FederationOptions::Journal::Fsync::kNever;
  opts.journal.checkpoint_every_ms = kCheckpointEveryMs;
  if (sample_workers) opts.stats_sample_every_ms = kSampleEveryMs;
  return opts;
}

std::unique_ptr<Cosmos> Harness::build_idle() {
  digests_.assign(in_.specs.size(), Digest{});
  return build(nullptr);
}

double Harness::setup_only() {
  digests_.assign(in_.specs.size(), Digest{});
  const bool federated = w_ == Workload::kJoinFederated;
  Fleet fleet;
  const TimePoint t0 = Clock::now();
  std::unique_ptr<Cosmos> sys;
  {
    const SpanRecorder::Scope span{spans_, "setup"};
    sys = build(federated ? &fleet : nullptr);
  }
  double setup_s = cosmos::seconds_since(t0);
  if (federated) {
    const TimePoint c0 = Clock::now();
    const auto report =
        sys->run_federated({}, federation_options(fleet, false));
    setup_s += cosmos::seconds_since(c0) - report.ingest_seconds;
    for (auto& p : fleet.procs) {
      if (p.wait() != 0) throw std::runtime_error{"worker exited non-zero"};
    }
    std::filesystem::remove_all(fleet.journal_dir);
  }
  return setup_s;
}

Iteration Harness::run_once(bool sample_workers) {
  Iteration it;
  digests_.assign(in_.specs.size(), Digest{});
  const bool federated = w_ == Workload::kJoinFederated;

  Fleet fleet;
  const TimePoint t0 = Clock::now();
  std::unique_ptr<Cosmos> sys;
  {
    const SpanRecorder::Scope span{spans_, "setup"};
    sys = build(federated ? &fleet : nullptr);
  }
  it.setup_s = cosmos::seconds_since(t0);

  const double self0 = cpu_seconds(RUSAGE_SELF);
  const double children0 = cpu_seconds(RUSAGE_CHILDREN);
  const TimePoint c0 = Clock::now();
  switch (w_) {
    case Workload::kJoinPush: {
      // Other tenants slow single CPUs of the host for long stretches, and
      // the scheduler keeps one busy thread on one CPU: rotating the loop
      // over every allowed CPU lets one run sample all of them. The order
      // shifts by one each round, so traced runs, which alternate untraced
      // and traced iterations, give both kinds every CPU.
      const std::size_t n = cpus_.size();
      const std::size_t k = push_loops_++;
      const CpuPin pin{n == 0 ? -1 : cpus_[(k + k / n) % n]};
      const SpanRecorder::Scope span{spans_, "push_loop"};
      current_ = &it;
      for (const auto& ev : in_.events) {
        push_start_ns_ = cosmos::now_ns();
        sys->push(ev.stream, ev.tuple);
      }
      current_ = nullptr;
      break;
    }
    case Workload::kJoinSharded:
    case Workload::kSelectFanout: {
      Cosmos::RunOptions opts;
      opts.shards = kShards;
      const SpanRecorder::Scope span{spans_, "run"};
      it.report = sys->run(in_.events, opts);
      break;
    }
    case Workload::kJoinFederated: {
      // A worker's rusage would also count the image it was forked from,
      // so its peak memory is read from /proc while it runs.
      std::vector<double> peak_mb(fleet.procs.size(), 0.0);
      std::jthread sampler{[&](std::stop_token stop) {
        while (!stop.stop_requested()) {
          for (std::size_t k = 0; k < peak_mb.size(); ++k) {
            const std::string status =
                "/proc/" + std::to_string(fleet.procs[k].pid()) + "/status";
            peak_mb[k] = std::max(peak_mb[k], vm_hwm_mb(status));
          }
          std::this_thread::sleep_for(std::chrono::milliseconds{20});
        }
      }};
      {
        const SpanRecorder::Scope span{spans_, "run_federated"};
        it.report = sys->run_federated(
            in_.events, federation_options(fleet, sample_workers));
      }
      sampler.request_stop();
      sampler.join();
      for (const double mb : peak_mb) it.worker_peak_mb += mb;
      break;
    }
  }
  it.call_s = cosmos::seconds_since(c0);
  if (federated) {
    const SpanRecorder::Scope span{spans_, "reap_workers"};
    for (std::size_t k = 0; k < fleet.procs.size(); ++k) {
      if (const int code = fleet.procs[k].wait(); code != 0) {
        it.problems.push_back("worker " + std::to_string(k) + " exited " +
                              std::to_string(code));
      }
    }
    std::filesystem::remove_all(fleet.journal_dir);
  }
  it.worker_cpu_s = cpu_seconds(RUSAGE_CHILDREN) - children0;
  it.cpu_s = cpu_seconds(RUSAGE_SELF) - self0 + it.worker_cpu_s;

  if (w_ == Workload::kJoinPush) {
    it.ingest_s = it.call_s;
    it.tuples = in_.events.size();
    it.p50 = histogram_percentile(it.push_latency, 50.0, ref_.results_per_tuple);
    it.p99 = histogram_percentile(it.push_latency, 99.0, ref_.results_per_tuple);
  } else {
    it.ingest_s = it.report.ingest_seconds;
    it.tuples = it.report.tuples;
    it.p50 = histogram_percentile(it.report.e2e_latency, 50.0,
                                  ref_.events_per_chunk);
    it.p99 = histogram_percentile(it.report.e2e_latency, 99.0,
                                  ref_.events_per_chunk);
  }
  if (federated) it.setup_s += it.call_s - it.ingest_s;

  // Result check against the push() reference.
  for (std::size_t q = 0; q < digests_.size(); ++q) {
    if (!(digests_[q] == ref_.digests[q])) ++it.failed;
  }
  const auto& traffic =
      federated ? it.report.federation.matched_traffic : sys->traffic();
  it.weighted_cost = weighted_cost(traffic, in_.lat);
  it.traffic_bytes = traffic.bytes;
  if (!same_link_traffic(traffic, ref_.traffic)) {
    it.problems.push_back("link traffic differs from push()");
  }
  if (it.tuples != in_.events.size()) {
    it.problems.push_back("ingested " + std::to_string(it.tuples) + " of " +
                          std::to_string(in_.events.size()) + " tuples");
  }
  if (federated) {
    if (it.report.federation.recoveries != 0) {
      it.problems.push_back("federated run needed recoveries");
    }
    for (const auto& link : it.report.federation.links) {
      if (link.frames_dropped != 0) {
        it.problems.push_back("frames dropped on " + link.endpoint);
      }
    }
  }
  if (!it.problems.empty()) it.failed = digests_.size();

  it.units = sys->deployed_units();
  for (auto* part : sys->broker().partitions()) {
    it.subscriptions += part->subscription_count();
  }
  return it;
}

}  // namespace perfbench
