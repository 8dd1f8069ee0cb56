#include "cosmos/pipeline.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/clock.h"

namespace cosmos::middleware {

Pipeline::Pipeline(Cosmos& sys, Options options)
    : sys_(sys),
      options_(std::move(options)),
      trace_(options_.trace_path),
      e2e_(reg_.histogram("e2e_latency_ns")) {
  trace_.add_process_name(0, "driver");
  options_.window = std::max<std::size_t>(options_.window, 1);
}

Pipeline::RunReport Pipeline::run(
    Fleet& fleet, const std::vector<runtime::TraceEvent>& events,
    std::size_t skip) {
  fleet_ = &fleet;
  fleet.start();
  const std::size_t results_before = sys_.results_delivered_;
  const TimePoint ingest_start = Clock::now();
  const double driver_cpu_start = thread_cpu_seconds();
  runtime::Driver driver{
      {options_.batch_size, options_.tick_ms},
      [this](runtime::Chunk&& chunk) { on_chunk(std::move(chunk)); }};
  for (std::size_t k = skip; k < events.size(); ++k) {
    driver.push(events[k].stream, events[k].tuple);
  }
  driver.finish();
  drain_window();
  fleet.finish();
  deliver();
  report_.ingest_seconds = seconds_since(ingest_start);
  report_.driver_cpu_seconds = thread_cpu_seconds() - driver_cpu_start;
  fleet.close();

  report_.tuples = driver.tuples();
  report_.chunks = driver.chunks();
  report_.results_delivered = sys_.results_delivered_ - results_before;
  report_.e2e_latency = e2e_.snapshot();
  report_.metrics = reg_.snapshot();
  return std::move(report_);
}

void Pipeline::on_chunk(runtime::Chunk&& in) {
  fleet_->before_chunk(in.first_ts);
  {
    const double cpu0 = thread_cpu_seconds();
    const obs::Span span{"dispatch", "driver", in.runs.size()};
    Chunk chunk;
    chunk.tuples = in.tuples;
    chunk.last_ts = in.last_ts;
    chunk.ingest_ns = in.ingest_ns;
    chunk.runs.reserve(in.runs.size());
    for (runtime::TupleBatch& batch : in.runs) {
      Run run;
      run.part = &sys_.source_partition(batch.stream());
      run.batch = std::make_shared<const runtime::TupleBatch>(std::move(batch));
      if (run.part->subscription_count() > 0) {
        const std::size_t owner = fleet_->owner_of(*run.part);
        auto g = std::find_if(
            chunk.groups.begin(), chunk.groups.end(),
            [owner](const Group& group) { return group.owner == owner; });
        if (g == chunk.groups.end()) {
          g = chunk.groups.insert(chunk.groups.end(), Group{owner, {}});
        }
        run.group = static_cast<std::uint32_t>(g - chunk.groups.begin());
        run.slot = static_cast<std::uint32_t>(g->runs.size());
        g->runs.push_back(static_cast<std::uint32_t>(chunk.runs.size()));
      }
      chunk.runs.push_back(std::move(run));
    }
    fleet_->match(chunk);
    window_.push_back(std::move(chunk));
    report_.driver.dispatch_cpu_seconds += thread_cpu_seconds() - cpu0;
  }
  while (window_.size() >= options_.window) complete_front();
  deliver();  // keeps the fleet's result buffer bounded in practice
  fleet_->after_chunk(in.last_ts);
}

void Pipeline::complete_front() {
  Matches matches(window_.front().runs.size());
  {
    const TimePoint wait0 = Clock::now();
    const obs::Span span{"match_wait", "driver", window_.front().runs.size()};
    fleet_->await_match(window_.front(), matches);
    report_.driver.match_wait_seconds += seconds_since(wait0);
  }
  const Chunk chunk = std::move(window_.front());
  window_.pop_front();

  const double route_cpu0 = thread_cpu_seconds();
  std::vector<Slice> slices;
  {
    const obs::Span span{"route", "driver", chunk.runs.size()};
    slices = route(chunk, matches);
  }
  const double dispatch_cpu0 = thread_cpu_seconds();
  report_.driver.route_cpu_seconds += dispatch_cpu0 - route_cpu0;
  {
    const obs::Span span{"dispatch", "driver", slices.size()};
    fleet_->execute(chunk, std::move(slices));
  }
  report_.driver.dispatch_cpu_seconds += thread_cpu_seconds() - dispatch_cpu0;
}

void Pipeline::drain_window() {
  while (!window_.empty()) complete_front();
}

void Pipeline::deliver() {
  const double cpu0 = thread_cpu_seconds();
  fleet_->take_results(results_);
  if (results_.empty()) return;
  const obs::Span span{"deliver", "driver", results_.size()};
  const std::uint64_t now = now_ns();
  for (const auto& ev : results_) {
    // Ingest-to-delivery latency of the chunk this result came from. Shard
    // threads and worker processes stamp with the same CLOCK_MONOTONIC
    // epoch (one host), so the stamps compare directly.
    if (ev.ingest_ns != 0 && now > ev.ingest_ns) e2e_.record(now - ev.ingest_ns);
    sys_.deliver_result(ev.stream, ev.tuple);
  }
  report_.driver.deliver_cpu_seconds += thread_cpu_seconds() - cpu0;
}

std::vector<Pipeline::Slice> Pipeline::route(const Chunk& chunk,
                                             const Matches& matches) const {
  // As in push(), the union of matched rows per subscriber: the deliveries
  // reference the shared runs, so routing only shuffles row indices and
  // never copies tuple data. std::map keeps the NodeId order.
  std::vector<Slice> slices;
  std::map<NodeId, std::vector<char>> mask_of;
  for (std::uint32_t r = 0; r < chunk.runs.size(); ++r) {
    const runtime::TupleBatch& run = *chunk.runs[r].batch;
    mask_of.clear();
    for (const auto& d : matches[r]) {
      auto& mask = mask_of.try_emplace(d.sub->subscriber, run.size(), char{0})
                       .first->second;
      for (const auto row : d.rows) mask[row] = 1;
    }
    for (const auto& [node, mask] : mask_of) {
      const auto eit = sys_.engines_.find(node);
      if (eit == sys_.engines_.end() ||
          !eit->second->has_stream(run.stream())) {
        continue;
      }
      const auto matched =
          static_cast<std::size_t>(std::count(mask.begin(), mask.end(), 1));
      if (matched == 0) continue;
      Slice slice{node, r, {}};
      if (matched < run.size()) {
        slice.rows.reserve(matched);
        for (std::uint32_t row = 0; row < mask.size(); ++row) {
          if (mask[row] != 0) slice.rows.push_back(row);
        }
      }
      slices.push_back(std::move(slice));
    }
  }
  return slices;
}

}  // namespace cosmos::middleware
