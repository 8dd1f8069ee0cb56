#include "cosmos/cosmos.h"

#include <algorithm>
#include <deque>
#include <latch>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>

#include "adapt/controller.h"
#include "common/clock.h"
#include "cosmos/pipeline.h"
#include "wire/codec.h"

namespace cosmos::middleware {
namespace {

using query::QuerySpec;
using stream::Predicate;
using stream::PredicatePtr;

/// Calls `f` on every field a comparison conjunct reads; false (and no
/// call) for any other predicate kind.
template <typename F>
bool for_each_compared_field(const Predicate& p, F f) {
  switch (p.kind()) {
    case Predicate::Kind::kCompareConst:
      f(static_cast<const stream::CompareConst&>(p).lhs());
      return true;
    case Predicate::Kind::kCompareField: {
      const auto& cf = static_cast<const stream::CompareField&>(p);
      f(cf.lhs());
      f(cf.rhs());
      return true;
    }
    case Predicate::Kind::kTimeBand: {
      const auto& tb = static_cast<const stream::TimeBand&>(p);
      f(tb.newer());
      f(tb.older());
      return true;
    }
    default:
      return false;
  }
}

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
    const bool compares = for_each_compared_field(
        *p, [&](const stream::FieldRef& f) {
          if (f.alias == alias) {
            references = true;
          } else if (!f.alias.empty()) {
            only_this = false;
          }
        });
    if (compares && only_this && references) {
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
  for (const auto& p : all) {
    for_each_compared_field(*p, [&](const stream::FieldRef& f) {
      if (f.alias == alias) attrs.insert(f.field);
    });
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
  sources_.insert(stream);
}

pubsub::BrokerPartition& Cosmos::source_partition(const std::string& stream) {
  auto* part = sources_.contains(stream) ? broker_.partition(stream) : nullptr;
  if (part == nullptr) {
    throw std::invalid_argument{"Cosmos: " + stream +
                                " is not a registered source stream"};
  }
  return *part;
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

/// The in-process fleet: one runtime::Runtime whose shards run both the
/// match stage (each source partition on the shard of its publisher) and
/// the engines pinned to them. Result taps park results in an MpscBuffer
/// the driver drains for p2 delivery.
struct Cosmos::Shards final : Pipeline::Fleet {
  /// One chunk's match tasks. Shared with the tasks, so an unwinding driver
  /// never leaves a worker with a dangling latch.
  struct Matching {
    explicit Matching(const Pipeline::Chunk& chunk)
        : done(static_cast<std::ptrdiff_t>(chunk.groups.size())),
          runs(chunk.runs),
          matches(chunk.runs.size()),
          errors(chunk.groups.size()) {}
    std::latch done;  ///< one count per group
    std::vector<Pipeline::Run> runs;
    Pipeline::Matches matches;  ///< per run
    /// Per group, written by its task before it counts down: the matches
    /// are then partial and the chunk must not be routed.
    std::vector<std::string> errors;
  };

  Shards(Cosmos& system, const RunOptions& options, RunReport& run_report)
      : sys(system),
        report(run_report),
        guard{system},
        rt{{options.shards, options.queue_capacity}} {
    // Pin every deployed engine to a shard: explicit pins first (mod shard
    // count), then round-robin over the remaining hosts in id order
    // (engines_ is an ordered map), so the assignment is deterministic.
    std::size_t next_shard = 0;
    const auto pin = [&](NodeId node) {
      const auto pinned = options.pin.find(node);
      shard_of.emplace(node.value(), pinned != options.pin.end()
                                         ? pinned->second % rt.shards()
                                         : next_shard++ % rt.shards());
    };
    for (const auto& [node, engine] : sys.engines_) pin(node);
    // Pin every broker partition's owner too, keyed by the publishing node:
    // the match stage of each chunk runs on the owner's shard. A publisher
    // that also hosts an engine keeps that shard (one owner per node id); a
    // pure source node continues the round-robin. Partition owners live in
    // the same map as engines, so the adaptation planner can migrate hot
    // matching work exactly like hot engines.
    for (auto* part : sys.broker_.partitions()) {
      if (!shard_of.contains(part->publisher().value())) pin(part->publisher());
    }
    // The adaptation loop (src/adapt/): samples per-engine load between
    // chunks and re-pins engines off overloaded shards. Pointless with one
    // shard, so it stays dormant there even when enabled.
    if (options.adapt.enabled && rt.shards() > 1) {
      adaptation.emplace(
          options.adapt, rt, shard_of,
          [this](std::uint64_t node) { return window_extent_ms(node); },
          [this](std::uint64_t node) { return state_bytes(node); });
    }
  }

  /// Total window extent (ms) of the units hosted at `node` — the state
  /// model's input for planning-time migration cost.
  [[nodiscard]] double window_extent_ms(std::uint64_t node) const {
    // Unbounded windows get a day's worth of lever arm — finite, but large
    // enough that the planner treats such state as expensive to move.
    constexpr double kUnboundedCapMs = 24.0 * 3'600'000.0;
    double ms = 0.0;
    for (const auto& [uid, unit] : sys.units_) {
      if (unit.host.value() != node) continue;
      for (const auto& src : unit.spec.sources) {
        ms += std::min(kUnboundedCapMs,
                       static_cast<double>(src.window.extent_ms()));
      }
    }
    return ms;
  }

  /// Live join-state bytes of the units hosted at `node`, *measured*: the
  /// serialized size of the state a migration would actually ship (the
  /// wire handoff payload), not a tuples-times-constant estimate. Only safe
  /// while no shard worker is executing that node's engine (the migrator
  /// calls it post-drain).
  [[nodiscard]] double state_bytes(std::uint64_t node) const {
    double bytes = 0.0;
    for (const auto& [uid, unit] : sys.units_) {
      if (unit.host.value() == node && unit.plan) {
        bytes += static_cast<double>(
            wire::serialized_state_bytes(unit.plan->export_join_state()));
      }
    }
    return bytes;
  }

  void start() override {
    sys.active_results_ = &results;
    rt.start();
  }

  std::size_t owner_of(const pubsub::BrokerPartition& part) const override {
    return part.publisher().value();
  }

  void before_chunk(stream::Timestamp /*first_ts*/) override {
    // Fail fast: once any shard has faulted, its engine state is suspect —
    // stop feeding and delivering instead of handing the user results
    // produced after the failure.
    throw_if_failed();
  }

  void match(const Pipeline::Chunk& chunk) override {
    auto m = std::make_shared<Matching>(chunk);
    for (std::size_t g = 0; g < chunk.groups.size(); ++g) {
      runtime::Runtime::Task task;
      task.engine_id = chunk.groups[g].owner;
      task.ingest_ns = chunk.ingest_ns;
      task.match = [m, g, runs = chunk.groups[g].runs] {
        // The latch must count down even when matching throws — but only
        // after the failure is recorded: the worker's own error slot is
        // written after unwinding finishes, which would race the driver's
        // post-latch check.
        struct Release {
          std::latch& done;
          ~Release() { done.count_down(); }
        } release{m->done};
        try {
          for (const auto r : runs) {
            m->runs[r].part->match_batch(*m->runs[r].batch, m->matches[r]);
          }
        } catch (const std::exception& e) {
          m->errors[g] = e.what();
          throw;  // the runtime also records it as the shard's failure
        }
      };
      rt.dispatch(shard_of.at(task.engine_id), std::move(task));
    }
    matching.push_back(std::move(m));
  }

  void await_match(const Pipeline::Chunk& /*chunk*/,
                   Pipeline::Matches& matches) override {
    const auto m = std::move(matching.front());
    matching.pop_front();
    m->done.wait();
    for (const auto& error : m->errors) {
      if (!error.empty()) {
        throw std::runtime_error{"Cosmos: shard matching failed: " + error};
      }
    }
    throw_if_failed();  // a straggling engine failure from an earlier chunk
    matches = std::move(m->matches);
  }

  void execute(const Pipeline::Chunk& chunk,
               std::vector<Pipeline::Slice> slices) override {
    // One task per engine, in NodeId order, holding its slices in route
    // order.
    std::map<NodeId, std::vector<runtime::RunSlice>> per_node;
    for (auto& s : slices) {
      per_node[s.engine].push_back(
          {chunk.runs[s.run].batch, std::move(s.rows)});
    }
    for (auto& [node, node_slices] : per_node) {
      runtime::Runtime::Task task;
      task.engine = sys.engines_.at(node).get();
      task.slices = std::move(node_slices);
      task.engine_id = node.value();
      task.ingest_ns = chunk.ingest_ns;
      rt.dispatch(shard_of.at(node.value()), std::move(task));
    }
  }

  void after_chunk(stream::Timestamp last_ts) override {
    if (adaptation) adaptation->on_chunk(last_ts);
  }

  void take_results(std::vector<wire::ResultEventMsg>& out) override {
    results.drain_into(out);
  }

  void finish() override {
    const TimePoint drain_start = Clock::now();
    rt.drain();
    report.drain_seconds = seconds_since(drain_start);
  }

  void close() override {
    rt.stop();
    throw_if_failed();
    report.stats = rt.stats();
    if (adaptation) report.adaptation = adaptation->report();
  }

  void throw_if_failed() const {
    if (const auto error = rt.first_error()) {
      throw std::runtime_error{"Cosmos: shard execution failed: " + *error};
    }
  }

  Cosmos& sys;
  RunReport& report;
  // Unwind order: rt joins the workers, only then guard clears
  // active_results_, only then the buffer they were pushing into dies.
  runtime::MpscBuffer<wire::ResultEventMsg> results;
  struct ResultModeGuard {
    Cosmos& sys;
    ~ResultModeGuard() { sys.active_results_ = nullptr; }
  } guard;
  runtime::Runtime rt;
  /// Engines and partition owners (publisher nodes), keyed by
  /// NodeId::value() (the runtime's opaque engine id) so the adaptation
  /// subsystem can share the map.
  std::unordered_map<std::uint64_t, std::size_t> shard_of;
  std::optional<adapt::AdaptationController> adaptation;
  std::deque<std::shared_ptr<Matching>> matching;  ///< the match window
};

Cosmos::RunReport Cosmos::run(const std::vector<runtime::TraceEvent>& events,
                              const RunOptions& options) {
  // The pipeline outlives the fleet: its trace session is written only
  // after the shard workers have joined.
  Pipeline core{*this, {options.batch_size, options.tick_ms, 1,
                        options.trace_path}};
  Shards fleet{*this, options, core.report()};
  return core.run(fleet, events);
}

void Cosmos::push(const std::string& stream, const stream::Tuple& tuple) {
  auto& part = source_partition(stream);
  runtime::TupleBatch row{stream};
  row.push_back(tuple);
  // Local, not shared with deliver_result: the fed engines' result taps
  // deliver p2 results while this loop runs.
  std::vector<pubsub::BatchDelivery> deliveries;
  part.match_batch(row, deliveries);
  // Several units at one host may subscribe to the same stream; the host's
  // engine must see the tuple exactly once (plans re-apply their own
  // filters). Every fed engine gets the same one-row batch.
  std::vector<NodeId> fed;
  for (const auto& d : deliveries) {
    const NodeId host = d.sub->subscriber;
    if (std::find(fed.begin(), fed.end(), host) != fed.end()) continue;
    fed.push_back(host);
    auto& engine = engine_at(host);
    if (engine.has_stream(stream)) engine.publish_batch(stream, row);
  }
}

}  // namespace cosmos::middleware
