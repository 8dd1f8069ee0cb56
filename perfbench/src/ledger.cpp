#include "ledger.h"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <stdexcept>

#include "common/clock.h"
#include "journal/journal.h"
#include "wire/codec.h"

namespace perfbench {

using cosmos::Clock;
using cosmos::NodeId;
using cosmos::TimePoint;
using cosmos::runtime::TupleBatch;
using cosmos::middleware::Cosmos;

namespace {

constexpr double kUs = 1e6;

/// Every chunk run the run modes cut from the trace, in dispatch order.
std::vector<TupleBatch> chunk_runs(const Inputs& in) {
  std::vector<TupleBatch> runs;
  cosmos::runtime::Driver::replay(in.events, {kBatchSize, kTickMs},
                                  [&runs](cosmos::runtime::Chunk&& c) {
                                    for (auto& r : c.runs) {
                                      runs.push_back(std::move(r));
                                    }
                                  });
  return runs;
}

/// The star route of a federated run: one execute per (run, subscribing
/// engine) carrying the union of the rows its subscriptions matched.
std::vector<cosmos::wire::ExecuteMsg> route_executes(
    cosmos::pubsub::BrokerNetwork& broker, const std::vector<TupleBatch>& runs) {
  std::vector<cosmos::wire::ExecuteMsg> out;
  std::map<NodeId, std::uint64_t> seq;
  std::map<NodeId, std::vector<char>> mask_of;
  for (const auto& run : runs) {
    mask_of.clear();
    broker.publish_batch(
        run.stream(), run, [&](const cosmos::pubsub::BatchDelivery& d) {
          auto& mask =
              mask_of.try_emplace(d.sub->subscriber, run.size(), char{0})
                  .first->second;
          for (const auto r : d.rows) mask[r] = 1;
        });
    for (const auto& [node, mask] : mask_of) {
      std::vector<std::uint32_t> rows;
      for (std::uint32_t r = 0; r < mask.size(); ++r) {
        if (mask[r] != 0) rows.push_back(r);
      }
      cosmos::wire::ExecuteMsg m;
      m.engine = node;
      m.batch = run.select(rows);
      m.seq = seq[node]++;
      out.push_back(std::move(m));
    }
  }
  return out;
}

double seconds_of(SpanRecorder& spans, const char* name,
                  const std::function<void()>& body) {
  const SpanRecorder::Scope span{spans, name};
  const TimePoint t0 = Clock::now();
  body();
  return cosmos::seconds_since(t0);
}

double exact_ms(const SpanRecorder& spans, const char* name, double p) {
  const auto it = spans.totals().find(name);
  if (it == spans.totals().end()) return 0.0;
  return exact_percentile(it->second.durations_ns, p) / 1e6;
}

}  // namespace

std::vector<Metric> layer_metrics(Workload w, const Inputs& in,
                                  const Reference& ref, Harness& harness,
                                  SpanRecorder& spans, const RunDir& dir,
                                  const Iteration& traced,
                                  double traced_tuples_per_s,
                                  double untraced_tuples_per_s) {
  const bool push = w == Workload::kJoinPush;
  const bool federated = w == Workload::kJoinFederated;
  const double tuples = static_cast<double>(in.events.size());
  const auto per_tuple_us = [&](double s) { return s * kUs / tuples; };
  const auto& r = traced.report;
  const auto& fed = r.federation;

  // --- layer replays -------------------------------------------------------
  std::size_t cut_chunks = 0;
  const double cut_s = seconds_of(spans, "replay.runtime_cut", [&] {
    cosmos::runtime::Driver::replay(
        in.events, {kBatchSize, kTickMs},
        [&cut_chunks](cosmos::runtime::Chunk&&) { ++cut_chunks; });
  });

  const auto runs = chunk_runs(in);
  auto idle = harness.build_idle();
  auto& broker = idle->broker();
  double deliveries = 0.0;
  double possible = 0.0;
  double match_s = 0.0;
  if (push) {
    match_s = seconds_of(spans, "replay.pubsub_publish", [&] {
      for (const auto& ev : in.events) {
        broker.publish(ev.stream, ev.tuple,
                       [&deliveries](const cosmos::pubsub::Subscription&,
                                     const cosmos::pubsub::Message&) {
                         deliveries += 1.0;
                       });
      }
    });
    for (const auto& ev : in.events) {
      possible += static_cast<double>(
          broker.partition(ev.stream)->subscription_count());
    }
  } else {
    match_s = seconds_of(spans, "replay.pubsub_publish_batch", [&] {
      for (const auto& run : runs) {
        broker.publish_batch(run.stream(), run,
                             [&deliveries](const cosmos::pubsub::BatchDelivery& d) {
                               deliveries += static_cast<double>(d.rows.size());
                             });
      }
    });
    for (const auto& run : runs) {
      possible += static_cast<double>(run.size()) *
                  static_cast<double>(
                      broker.partition(run.stream())->subscription_count());
    }
  }

  double encode_s = 0.0;
  double decode_s = 0.0;
  double batch_bytes = 0.0;
  double append_s = 0.0;
  if (federated) {
    std::vector<std::vector<std::uint8_t>> encoded;
    encoded.reserve(runs.size());
    encode_s = seconds_of(spans, "replay.wire_encode_batch", [&] {
      for (const auto& run : runs) {
        cosmos::wire::Writer wr;
        cosmos::wire::encode_batch(wr, run);
        encoded.push_back(wr.take());
      }
    });
    for (const auto& buf : encoded) {
      batch_bytes += static_cast<double>(buf.size());
    }
    std::size_t decoded_rows = 0;
    decode_s = seconds_of(spans, "replay.wire_decode_batch", [&] {
      for (const auto& buf : encoded) {
        cosmos::wire::Reader rd{buf};
        decoded_rows += cosmos::wire::decode_batch(rd).size();
        rd.done();
      }
    });
    if (decoded_rows != in.events.size()) {
      throw std::runtime_error{"wire replay lost rows"};
    }

    const auto executes = route_executes(broker, runs);
    const std::string jdir = dir.path() + "/ledger-journal";
    cosmos::journal::Meta meta;
    meta.batch_size = kBatchSize;
    meta.tick_ms = kTickMs;
    meta.endpoints = {"unix:w0", "unix:w1"};
    cosmos::journal::Writer::Options jopts;
    jopts.fsync = cosmos::journal::Fsync::kNever;
    append_s = seconds_of(spans, "replay.journal_append", [&] {
      auto jw = cosmos::journal::Writer::create(jdir, meta, jopts);
      for (const auto& m : executes) jw->execute(m);
    });
    std::filesystem::remove_all(jdir);
  }

  // --- worker stats (federated, traced runs sample them) ------------------
  std::map<std::size_t, const cosmos::obs::MetricsSnapshot*> last_sample;
  for (const auto& s : fed.samples) last_sample[s.worker] = &s.metrics;
  const auto worker_sum = [&](const char* name) {
    double v = 0.0;
    for (const auto& [wk, m] : last_sample) {
      if (const auto* c = m->counter(name)) v += static_cast<double>(*c);
    }
    return v;
  };
  const auto worker_max = [&](const char* name, bool gauge) {
    double v = 0.0;
    for (const auto& [wk, m] : last_sample) {
      if (gauge) {
        if (const auto* g = m->gauge(name)) v = std::max(v, *g);
      } else if (const auto* c = m->counter(name)) {
        v = std::max(v, static_cast<double>(*c));
      }
    }
    return v;
  };

  // --- assemble ------------------------------------------------------------
  const double shards = static_cast<double>(r.stats.shards.size());
  double max_depth = 0.0;
  double tasks = 0.0;
  for (const auto& s : r.stats.shards) {
    max_depth = std::max(max_depth, static_cast<double>(s.max_queue_depth));
    tasks += static_cast<double>(s.tasks);
  }
  const double busy_total = r.stats.total_busy_seconds();
  const double shard_match = r.stats.total_match_seconds();
  const double worker_busy = worker_sum("shard.busy_ns") * 1e-9;
  const double worker_match = worker_sum("shard.match_ns") * 1e-9;
  const auto& d = r.driver;
  double wire_bytes = 0.0;
  double wire_frames = 0.0;
  double frames_dropped = 0.0;
  for (const auto& link : fed.links) {
    wire_bytes += static_cast<double>(link.bytes_sent + link.bytes_received);
    wire_frames +=
        static_cast<double>(link.frames_sent + link.frames_received);
    frames_dropped += static_cast<double>(link.frames_dropped);
  }
  const double ingest = traced.ingest_s;
  const double driver_cpu = push ? traced.cpu_s : r.driver_cpu_seconds;
  const double attributed = d.match_wait_seconds + d.route_cpu_seconds +
                            d.dispatch_cpu_seconds + d.deliver_cpu_seconds +
                            r.drain_seconds;
  double exec_s = busy_total - shard_match;
  if (federated) exec_s = worker_busy - worker_match;
  if (push) exec_s = ingest - match_s;

  return {
      {"cosmos.submit_ms_p50", exact_ms(spans, "submit", 50.0), "ms"},
      {"cosmos.submit_ms_p99", exact_ms(spans, "submit", 99.0), "ms"},
      {"cosmos.units_per_query",
       static_cast<double>(traced.units) / static_cast<double>(in.specs.size()),
       "1/query"},
      {"cosmos.connect_s", federated ? traced.call_s - ingest : 0.0, "s"},
      {"cosmos.ingest_s", ingest, "s"},
      {"cosmos.driver_cpu_s", driver_cpu, "s"},
      {"cosmos.match_wait_s", d.match_wait_seconds, "s"},
      {"cosmos.route_cpu_s", d.route_cpu_seconds, "s"},
      {"cosmos.dispatch_cpu_s", d.dispatch_cpu_seconds, "s"},
      {"cosmos.deliver_cpu_s", d.deliver_cpu_seconds, "s"},
      {"cosmos.drain_s", r.drain_seconds, "s"},
      {"cosmos.unattributed_s", ingest - attributed, "s"},
      {"cosmos.chunks",
       push ? tuples : static_cast<double>(r.chunks), "count"},
      {"cosmos.results_per_tuple", static_cast<double>(ref.results) / tuples,
       "1/tuple"},
      {"runtime.cut_us_per_tuple", per_tuple_us(cut_s), "us/tuple"},
      {"runtime.busy_max_s", r.stats.max_busy_seconds(), "s"},
      {"runtime.busy_total_s", busy_total, "s"},
      {"runtime.busy_imbalance",
       busy_total > 0.0 ? r.stats.max_busy_seconds() * shards / busy_total
                        : 0.0,
       "ratio"},
      {"runtime.stall_s", r.stats.total_stall_seconds(), "s"},
      {"runtime.max_queue_depth", max_depth, "count"},
      {"runtime.tuples_per_task",
       tasks > 0.0 ? static_cast<double>(r.stats.total_tuples()) / tasks : 0.0,
       "tuples/task"},
      {"stream.exec_us_per_tuple", per_tuple_us(exec_s), "us/tuple"},
      {"pubsub.match_us_per_tuple", per_tuple_us(match_s), "us/tuple"},
      {"pubsub.shard_match_s", federated ? worker_match : shard_match, "s"},
      {"pubsub.deliveries_per_tuple", deliveries / tuples, "1/tuple"},
      {"pubsub.match_yield", possible > 0.0 ? deliveries / possible : 0.0,
       "ratio"},
      {"pubsub.subscriptions", static_cast<double>(traced.subscriptions),
       "count"},
      {"pubsub.bytes_per_tuple", traced.traffic_bytes / tuples, "B/tuple"},
      {"wire.bytes_per_tuple", wire_bytes / tuples, "B/tuple"},
      {"wire.frames_per_tuple", wire_frames / tuples, "1/tuple"},
      {"wire.frames_dropped", frames_dropped, "count"},
      {"wire.encode_us_per_tuple", per_tuple_us(encode_s), "us/tuple"},
      {"wire.decode_us_per_tuple", per_tuple_us(decode_s), "us/tuple"},
      {"wire.batch_bytes_per_tuple", batch_bytes / tuples, "B/tuple"},
      {"node.busy_max_s", worker_max("shard.busy_ns", false) * 1e-9, "s"},
      {"node.match_s", worker_match, "s"},
      {"node.stall_s", worker_sum("shard.stall_ns") * 1e-9, "s"},
      {"node.max_queue_depth", worker_max("shard.max_queue_depth", true),
       "count"},
      {"node.cpu_s", traced.worker_cpu_s, "s"},
      {"journal.bytes_per_tuple",
       static_cast<double>(fed.journal_bytes) / tuples, "B/tuple"},
      {"journal.fsyncs", static_cast<double>(fed.journal_fsyncs), "count"},
      {"journal.data_log_peak_entries",
       static_cast<double>(fed.data_log_peak_entries), "count"},
      {"journal.append_us_per_tuple", per_tuple_us(append_s), "us/tuple"},
      {"obs.trace_overhead_pct",
       100.0 * (1.0 - traced_tuples_per_s / untraced_tuples_per_s), "%"},
      {"e2e.samples", static_cast<double>(traced.p99.samples), "count"},
      {"e2e.p99_chunks_beyond", static_cast<double>(traced.p99.chunks_beyond),
       "count"},
  };
}

}  // namespace perfbench
