#include "cosmos/cosmos.h"

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>

#include "adapt/controller.h"
#include "common/clock.h"
#include "obs/trace.h"
#include "wire/codec.h"

namespace cosmos::middleware {
namespace {

using query::QuerySpec;
using stream::Predicate;
using stream::PredicatePtr;

/// Single-alias conjuncts of `spec` for one alias, with the alias stripped
/// so the predicate evaluates against raw source-stream messages (the F
/// part of the p1 subscription).
PredicatePtr p1_filter(const QuerySpec& spec, const std::string& alias) {
  std::vector<PredicatePtr> conj;
  std::vector<PredicatePtr> all;
  if (!stream::collect_conjuncts(spec.where, all)) return Predicate::always_true();
  const std::unordered_map<std::string, std::string> strip{{alias, ""}};
  for (const auto& p : all) {
    // Keep conjuncts that reference only this alias.
    bool only_this = true;
    bool references = false;
    std::vector<PredicatePtr> leaves{p};
    const auto check = [&](const stream::FieldRef& f) {
      if (f.alias == alias) {
        references = true;
      } else if (!f.alias.empty()) {
        only_this = false;
      }
    };
    switch (p->kind()) {
      case Predicate::Kind::kCompareConst:
        check(static_cast<const stream::CompareConst&>(*p).lhs());
        break;
      case Predicate::Kind::kCompareField: {
        const auto& cf = static_cast<const stream::CompareField&>(*p);
        check(cf.lhs());
        check(cf.rhs());
        break;
      }
      case Predicate::Kind::kTimeBand: {
        const auto& tb = static_cast<const stream::TimeBand&>(*p);
        check(tb.newer());
        check(tb.older());
        break;
      }
      default:
        only_this = false;
        break;
    }
    if (only_this && references) {
      conj.push_back(query::rename_predicate_aliases(p, strip));
    }
  }
  return Predicate::conj(std::move(conj));
}

/// Attributes of `alias`'s stream that the unit needs (the P part of p1):
/// empty set = all.
std::set<std::string> p1_projection(const QuerySpec& spec,
                                    const std::string& alias,
                                    const stream::Schema& schema) {
  if (spec.select_all) return {};
  std::set<std::string> attrs;
  for (const auto& item : spec.select) {
    if (item.alias != alias) continue;
    if (item.is_wildcard()) return {};
    attrs.insert(item.field);
  }
  // Fields referenced by predicates must also travel.
  std::vector<PredicatePtr> all;
  stream::collect_conjuncts(spec.where, all);
  const auto add = [&](const stream::FieldRef& f) {
    if (f.alias == alias) attrs.insert(f.field);
  };
  for (const auto& p : all) {
    switch (p->kind()) {
      case Predicate::Kind::kCompareConst:
        add(static_cast<const stream::CompareConst&>(*p).lhs());
        break;
      case Predicate::Kind::kCompareField: {
        const auto& cf = static_cast<const stream::CompareField&>(*p);
        add(cf.lhs());
        add(cf.rhs());
        break;
      }
      case Predicate::Kind::kTimeBand: {
        const auto& tb = static_cast<const stream::TimeBand&>(*p);
        add(tb.newer());
        add(tb.older());
        break;
      }
      default:
        break;
    }
  }
  if (schema.index_of("timestamp").has_value()) attrs.insert("timestamp");
  return attrs;
}

}  // namespace

Cosmos::Cosmos(std::vector<NodeId> nodes, const net::LatencyMatrix& lat,
               bool enable_result_sharing)
    : nodes_(std::move(nodes)),
      broker_(nodes_, lat),
      enable_result_sharing_(enable_result_sharing) {}

void Cosmos::register_source(const std::string& stream, stream::Schema schema,
                             NodeId node) {
  broker_.advertise(stream, node, std::move(schema));
}

stream::Engine& Cosmos::engine_at(NodeId host) {
  auto& slot = engines_[host];
  if (!slot) slot = std::make_unique<stream::Engine>();
  return *slot;
}

void Cosmos::submit(const query::QuerySpec& spec, NodeId host,
                    ResultCallback cb) {
  query::validate(spec);
  if (queries_.contains(spec.id)) {
    throw std::invalid_argument{"Cosmos: duplicate query id"};
  }
  UserQuery uq{spec, std::move(cb), UINT32_MAX, SubscriptionId::invalid()};

  // Try to fold into an existing unit on the same host (Section 2.1).
  if (enable_result_sharing_)
  for (auto& [uid, unit] : units_) {
    if (unit.host != host) continue;
    auto merged = query::merge_queries(
        unit.spec, spec, QueryId{0x40000000u + next_unit_id_});
    if (!merged) continue;
    teardown_unit(unit);
    unit.spec = std::move(merged->merged);
    unit.members.push_back(spec.id);
    deploy_unit(unit);
    queries_.emplace(spec.id, std::move(uq));
    for (const QueryId member : unit.members) {
      wire_member(queries_.at(member), unit);
    }
    return;
  }

  // Fresh unit.
  Unit unit;
  unit.id = next_unit_id_++;
  unit.host = host;
  unit.spec = spec;
  unit.members = {spec.id};
  deploy_unit(unit);
  const auto uid = unit.id;
  units_.emplace(uid, std::move(unit));
  queries_.emplace(spec.id, std::move(uq));
  wire_member(queries_.at(spec.id), units_.at(uid));
}

void Cosmos::deploy_unit(Unit& unit) {
  auto& engine = engine_at(unit.host);
  // Input streams must exist on the host engine.
  for (const auto& src : unit.spec.sources) {
    if (!engine.has_stream(src.stream)) {
      engine.register_stream(src.stream, broker_.schema(src.stream));
    }
  }
  unit.result_stream = "cosmos.result." + std::to_string(unit.id) + ".v" +
                       std::to_string(++unit_version_);
  unit.plan = std::make_unique<query::CompiledQuery>(engine, unit.spec,
                                                     unit.result_stream);
  // p1 subscriptions: pull source data to the host.
  for (const auto& src : unit.spec.sources) {
    pubsub::Subscription sub;
    sub.subscriber = unit.host;
    sub.streams = {src.stream};
    sub.projection =
        p1_projection(unit.spec, src.alias, broker_.schema(src.stream));
    sub.filter = p1_filter(unit.spec, src.alias);
    unit.p1_subs.push_back(broker_.subscribe(std::move(sub)));
  }
  // Result stream: advertised at the host, published as the plan emits.
  broker_.advertise(unit.result_stream, unit.host,
                    unit.plan->result_schema());
  unit.result_tap = engine.attach(
      unit.result_stream, [this, rs = unit.result_stream](
                              const stream::Tuple& t) {
        // In run() mode this tap fires on a shard worker thread: park the
        // result for the driver, which owns the broker and the callbacks.
        // The executing task's ingest stamp rides along so the driver can
        // measure ingest-to-delivery latency at the p2 leg.
        if (active_results_ != nullptr) {
          active_results_->push({rs, t, runtime::current_task_ingest_ns()});
          return;
        }
        deliver_result(rs, t);
      });
}

void Cosmos::deliver_result(const std::string& result_stream,
                            const stream::Tuple& tuple) {
  auto* part = broker_.partition(result_stream);
  // A retired unit version's stream has no partition and no subscribers.
  if (part == nullptr) return;
  runtime::TupleBatch row{result_stream};
  row.push_back(tuple);
  // Local: a member's callback may re-enter the middleware.
  std::vector<pubsub::BatchDelivery> deliveries;
  part->match_batch(row, deliveries);
  for (const auto& d : deliveries) {
    const auto it = p2_owner_.find(d.sub->id);
    if (it == p2_owner_.end()) continue;
    auto& uq = queries_.at(it->second);
    // Split projection happens consumer-side (cached at wire time).
    stream::Tuple out;
    out.ts = tuple.ts;
    for (const auto i : uq.p2_keep) out.values.push_back(tuple.at(i));
    uq.callback(it->second, out);
    ++results_delivered_;
  }
}

void Cosmos::teardown_unit(Unit& unit) {
  for (const auto sid : unit.p1_subs) broker_.unsubscribe(sid);
  unit.p1_subs.clear();
  if (unit.plan) {
    auto& engine = engine_at(unit.host);
    engine.detach(unit.result_stream, unit.result_tap);
    // p2 subscriptions of members are re-wired by the caller.
    for (const QueryId member : unit.members) {
      const auto it = queries_.find(member);
      if (it == queries_.end() || !it->second.p2_sub.valid()) continue;
      broker_.unsubscribe(it->second.p2_sub);
      p2_owner_.erase(it->second.p2_sub);
      it->second.p2_sub = SubscriptionId::invalid();
    }
    unit.plan.reset();
    // The next version publishes under a new name: retire this one from
    // the broker (its traffic stays accounted) and from the host engine.
    broker_.unadvertise(unit.result_stream);
    engine.remove_stream(unit.result_stream);
  }
}

void Cosmos::wire_member(UserQuery& uq, Unit& unit) {
  uq.unit = unit.id;
  const auto split = query::make_result_split(uq.spec, unit.spec);
  pubsub::Subscription sub;
  sub.subscriber = uq.spec.proxy;
  sub.streams = {unit.result_stream};
  // Projection: the merged-result columns this user needs.
  const auto keep =
      query::split_projection_indices(split, unit.plan->result_schema());
  for (const auto i : keep) {
    sub.projection.insert(unit.plan->result_schema().field(i).name);
  }
  uq.p2_keep = keep;
  // Window bands / residual filters also need their columns on the wire.
  sub.filter = query::make_split_predicate(split);
  const auto sid = broker_.subscribe(std::move(sub));
  uq.p2_sub = sid;
  p2_owner_.emplace(sid, uq.spec.id);
}

double Cosmos::host_window_extent_ms(NodeId node) const {
  // Unbounded windows get a day's worth of lever arm — finite, but large
  // enough that the planner treats such state as expensive to move.
  constexpr double kUnboundedCapMs = 24.0 * 3'600'000.0;
  double ms = 0.0;
  for (const auto& [uid, unit] : units_) {
    if (unit.host != node) continue;
    for (const auto& src : unit.spec.sources) {
      ms += std::min(kUnboundedCapMs,
                     static_cast<double>(src.window.extent_ms()));
    }
  }
  return ms;
}

double Cosmos::host_state_bytes(NodeId node) const {
  double bytes = 0.0;
  for (const auto& [uid, unit] : units_) {
    if (unit.host == node && unit.plan) {
      bytes += static_cast<double>(
          wire::serialized_state_bytes(unit.plan->export_join_state()));
    }
  }
  return bytes;
}

namespace {

/// Completion barrier of one chunk's match stage: the driver arms it with
/// the number of match tasks it shipped and parks until every shard
/// reported back. Shared via shared_ptr so an unwinding driver never
/// leaves a worker with a dangling barrier.
struct MatchBarrier {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t pending = 0;

  void arm_one() {
    std::lock_guard lock{mu};
    ++pending;
  }
  void done() {
    {
      std::lock_guard lock{mu};
      --pending;
    }
    cv.notify_one();
  }
  void wait() {
    std::unique_lock lock{mu};
    cv.wait(lock, [this] { return pending == 0; });
  }
};

}  // namespace

void Cosmos::dispatch_chunk(
    runtime::Chunk&& chunk, runtime::Runtime& rt,
    const std::unordered_map<std::uint64_t, std::size_t>& shard_of,
    RunReport& report) {
  // --- match stage: ship each run to the shard owning its stream's broker
  // partition. The shard evaluates every subscription filter against every
  // row and accounts the link traffic into the partition's local stats —
  // the work that used to serialize on the driver thread.
  struct MatchJob {
    std::shared_ptr<const runtime::TupleBatch> run;
    std::vector<pubsub::BatchDelivery> deliveries;
    /// Set (before the barrier releases) when matching threw; the
    /// deliveries are then partial and the chunk must not be routed.
    std::string error;
  };
  const std::uint64_t ingest_ns = chunk.ingest_ns;
  const double dispatch_cpu0 = thread_cpu_seconds();
  auto barrier = std::make_shared<MatchBarrier>();
  std::vector<std::shared_ptr<MatchJob>> jobs;
  jobs.reserve(chunk.runs.size());
  for (runtime::TupleBatch& run : chunk.runs) {
    auto* part = broker_.partition(run.stream());
    if (part == nullptr) {
      // Same contract as push(): publishing an unadvertised stream is a
      // caller error, not a silent drop.
      throw std::invalid_argument{"BrokerNetwork: publish to unadvertised " +
                                  run.stream()};
    }
    auto job = std::make_shared<MatchJob>();
    job->run = std::make_shared<const runtime::TupleBatch>(std::move(run));
    jobs.push_back(job);
    if (part->subscription_count() == 0) continue;
    barrier->arm_one();
    runtime::Runtime::Task task;
    task.engine_id = part->publisher().value();
    task.ingest_ns = ingest_ns;
    task.match = [job, part, barrier] {
      // The barrier must release even when matching throws — but only
      // after the failure is recorded in the job: the worker's own error
      // slot is written after unwinding finishes, which would race the
      // driver's post-barrier fail-fast check.
      struct Release {
        MatchBarrier* barrier;
        ~Release() { barrier->done(); }
      } release{barrier.get()};
      try {
        part->match_batch(*job->run, job->deliveries);
      } catch (const std::exception& e) {
        job->error = e.what();
        throw;  // the runtime also records it as the shard's failure
      }
    };
    rt.dispatch(shard_of.at(task.engine_id), std::move(task));
  }
  report.driver.dispatch_cpu_seconds += thread_cpu_seconds() - dispatch_cpu0;

  const TimePoint wait0 = Clock::now();
  {
    const obs::Span span{"match_wait", "driver", jobs.size()};
    barrier->wait();
  }
  report.driver.match_wait_seconds += seconds_since(wait0);
  // Fail fast: a failed match task leaves its job's deliveries partial;
  // nothing derived from this chunk can be trusted. The per-job error is
  // published before the barrier releases, so this check cannot miss a
  // failure of this chunk's own match tasks.
  for (const auto& job : jobs) {
    if (!job->error.empty()) {
      throw std::runtime_error{"Cosmos: shard matching failed: " +
                               job->error};
    }
  }
  if (const auto error = rt.first_error()) {
    // A straggling engine-task failure from an earlier chunk.
    throw std::runtime_error{"Cosmos: shard execution failed: " + *error};
  }

  // --- route stage (driver): union of matched rows per subscriber — as in
  // push(), the host engine must see a tuple exactly once however many of
  // its subscriptions matched (plans re-apply their own filters). The
  // deliveries reference the shared runs, so routing only shuffles row
  // indices; tuple data is never copied on the driver.
  const double route_cpu0 = thread_cpu_seconds();
  std::optional<obs::Span> route_span;
  route_span.emplace("route", "driver", jobs.size());
  // Per-engine ordered slice lists for this chunk; std::map keeps dispatch
  // order deterministic.
  std::map<NodeId, std::vector<runtime::RunSlice>> per_node;
  std::map<NodeId, std::vector<char>> mask_of;
  for (const auto& job : jobs) {
    mask_of.clear();
    for (const auto& d : job->deliveries) {
      if (p2_owner_.contains(d.sub->id)) continue;
      auto& mask =
          mask_of.try_emplace(d.sub->subscriber, job->run->size(), char{0})
              .first->second;
      for (const auto row : d.rows) mask[row] = 1;
    }
    for (const auto& [node, mask] : mask_of) {
      const auto eit = engines_.find(node);
      if (eit == engines_.end() ||
          !eit->second->has_stream(job->run->stream())) {
        continue;
      }
      std::size_t matched_rows = 0;
      for (const char m : mask) matched_rows += m != 0;
      if (matched_rows == 0) continue;
      std::vector<std::uint32_t> rows;
      if (matched_rows < job->run->size()) {  // empty rows = whole run
        rows.reserve(matched_rows);
        for (std::uint32_t r = 0; r < mask.size(); ++r) {
          if (mask[r] != 0) rows.push_back(r);
        }
      }
      per_node[node].push_back({job->run, std::move(rows)});
    }
  }
  route_span.reset();
  report.driver.route_cpu_seconds += thread_cpu_seconds() - route_cpu0;

  // --- dispatch stage: hand each engine its slices, in engine-id order.
  const double dispatch_cpu1 = thread_cpu_seconds();
  const obs::Span dispatch_span{"dispatch", "driver", per_node.size()};
  for (auto& [node, slices] : per_node) {
    runtime::Runtime::Task task;
    task.engine = engines_.at(node).get();
    task.slices = std::move(slices);
    task.engine_id = node.value();
    task.ingest_ns = ingest_ns;
    rt.dispatch(shard_of.at(node.value()), std::move(task));
  }
  ++report.chunks;
  report.driver.dispatch_cpu_seconds += thread_cpu_seconds() - dispatch_cpu1;
}

Cosmos::RunReport Cosmos::run(const std::vector<runtime::TraceEvent>& events,
                              const RunOptions& options) {
  // The trace session (when enabled) must be destroyed after the workers
  // have joined: its destructor drains every thread's span ring and writes
  // the Chrome trace file. Declared first so it dies last.
  obs::TraceSession trace{options.trace_path};
  trace.add_process_name(0, "driver");
  // Unwind-safety: on any throw below, destruction must run in this order —
  // join the workers (rt), only then clear active_results_ (guard), only
  // then destroy the buffer they were pushing into (results). Hence the
  // declaration order results -> guard -> rt.
  runtime::MpscBuffer<ResultEvent> results;
  struct ResultModeGuard {
    Cosmos& sys;
    ~ResultModeGuard() { sys.active_results_ = nullptr; }
  } guard{*this};
  runtime::Runtime rt{{options.shards, options.queue_capacity}};
  // Pin every deployed engine to a shard: explicit pins first (mod shard
  // count), then round-robin over the remaining hosts in id order
  // (engines_ is an ordered map), so the assignment is deterministic.
  std::unordered_map<std::uint64_t, std::size_t> shard_of;
  std::size_t next_shard = 0;
  for (const auto& [node, engine] : engines_) {
    const auto pinned = options.pin.find(node);
    shard_of.emplace(node.value(), pinned != options.pin.end()
                                       ? pinned->second % rt.shards()
                                       : next_shard++ % rt.shards());
  }
  // Pin every broker partition's owner too, keyed by the publishing node:
  // the match stage of each chunk runs on the owner's shard. A publisher
  // that also hosts an engine keeps that shard (one owner per node id); a
  // pure source node continues the round-robin. Partition owners live in
  // the same map as engines, so the adaptation planner can migrate hot
  // matching work exactly like hot engines.
  for (auto* part : broker_.partitions()) {
    const NodeId publisher = part->publisher();
    if (shard_of.contains(publisher.value())) continue;
    const auto pinned = options.pin.find(publisher);
    shard_of.emplace(publisher.value(), pinned != options.pin.end()
                                            ? pinned->second % rt.shards()
                                            : next_shard++ % rt.shards());
  }

  // The adaptation loop (src/adapt/): samples per-engine load between
  // chunks and re-pins engines off overloaded shards. Pointless with one
  // shard, so it stays dormant there even when enabled.
  std::optional<adapt::AdaptationController> adaptation;
  if (options.adapt.enabled && rt.shards() > 1) {
    adaptation.emplace(
        options.adapt, rt, shard_of,
        [this](std::uint64_t engine) {
          return host_window_extent_ms(NodeId{
              static_cast<NodeId::value_type>(engine)});
        },
        [this](std::uint64_t engine) {
          return host_state_bytes(
              NodeId{static_cast<NodeId::value_type>(engine)});
        });
  }

  RunReport report;
  const std::size_t results_before = results_delivered_;
  obs::MetricsRegistry reg;
  auto& e2e = reg.histogram("e2e_latency_ns");
  std::vector<ResultEvent> scratch;
  const auto drain_results = [&] {
    results.drain_into(scratch);
    if (scratch.empty()) return;
    const double cpu0 = thread_cpu_seconds();
    const obs::Span span{"deliver", "driver", scratch.size()};
    const std::uint64_t now = now_ns();
    for (const auto& ev : scratch) {
      // Ingest-to-delivery latency of the chunk this result came from,
      // measured here because p2 delivery completes on the driver thread.
      if (ev.ingest_ns != 0 && now > ev.ingest_ns) e2e.record(now - ev.ingest_ns);
      deliver_result(ev.stream, ev.tuple);
    }
    report.driver.deliver_cpu_seconds += thread_cpu_seconds() - cpu0;
  };

  active_results_ = &results;
  rt.start();
  const double driver_cpu_start = thread_cpu_seconds();
  const TimePoint ingest_start = Clock::now();
  runtime::Driver driver{
      {options.batch_size, options.tick_ms},
      [&](runtime::Chunk&& chunk) {
        // Fail fast: once any shard has faulted, its engine state is
        // suspect — stop feeding and delivering instead of handing the
        // user results produced after the failure.
        if (const auto error = rt.first_error()) {
          throw std::runtime_error{"Cosmos: shard execution failed: " +
                                   *error};
        }
        const stream::Timestamp chunk_last_ts = chunk.last_ts;
        dispatch_chunk(std::move(chunk), rt, shard_of, report);
        drain_results();  // keep the result buffer bounded in practice
        if (adaptation) adaptation->on_chunk(chunk_last_ts);
      }};
  for (const auto& ev : events) driver.push(ev.stream, ev.tuple);
  driver.finish();
  const TimePoint drain_start = Clock::now();
  rt.drain();
  report.drain_seconds = seconds_since(drain_start);
  drain_results();
  report.ingest_seconds = seconds_since(ingest_start);
  report.driver_cpu_seconds = thread_cpu_seconds() - driver_cpu_start;
  rt.stop();
  if (const auto error = rt.first_error()) {
    throw std::runtime_error{"Cosmos: shard execution failed: " + *error};
  }

  report.tuples = driver.tuples();
  report.results_delivered = results_delivered_ - results_before;
  report.stats = rt.stats();
  report.e2e_latency = e2e.snapshot();
  report.metrics = reg.snapshot();
  if (adaptation) report.adaptation = adaptation->report();
  return report;
}

void Cosmos::push(const std::string& stream, const stream::Tuple& tuple) {
  auto* part = broker_.partition(stream);
  if (part == nullptr) {
    throw std::invalid_argument{"BrokerNetwork: publish to unadvertised " +
                                stream};
  }
  runtime::TupleBatch row{stream};
  row.push_back(tuple);
  // Local, not shared with deliver_result: the fed engines' result taps
  // deliver p2 results while this loop runs.
  std::vector<pubsub::BatchDelivery> deliveries;
  part->match_batch(row, deliveries);
  // Several units at one host may subscribe to the same stream; the host's
  // engine must see the tuple exactly once (plans re-apply their own
  // filters). Every fed engine gets the same one-row batch.
  std::vector<NodeId> fed;
  for (const auto& d : deliveries) {
    if (p2_owner_.contains(d.sub->id)) continue;
    const NodeId host = d.sub->subscriber;
    if (std::find(fed.begin(), fed.end(), host) != fed.end()) continue;
    fed.push_back(host);
    auto& engine = engine_at(host);
    if (engine.has_stream(stream)) engine.publish_batch(stream, row);
  }
}

}  // namespace cosmos::middleware
