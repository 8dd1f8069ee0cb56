#include "stream/engine.h"

#include <stdexcept>

namespace cosmos::stream {
namespace {

[[noreturn]] void throw_out_of_order(const std::string& name, Timestamp got,
                                     Timestamp last) {
  throw std::invalid_argument{
      "Engine: out-of-order tuple on stream " + name + ": ts " +
      std::to_string(got) + " after ts " + std::to_string(last) +
      " (ordering is per-stream; equal timestamps are allowed, including "
      "across streams)"};
}

}  // namespace

void Engine::register_stream(const std::string& name, Schema schema) {
  if (streams_.contains(name)) {
    throw std::invalid_argument{"Engine: duplicate stream " + name};
  }
  StreamState st;
  st.schema = std::move(schema);
  streams_.emplace(name, std::move(st));
}

const Schema& Engine::schema(const std::string& name) const {
  const auto it = streams_.find(name);
  if (it == streams_.end()) {
    throw std::out_of_range{"Engine: unknown stream " + name};
  }
  return it->second.schema;
}

Engine::StreamState& Engine::state(const std::string& name) {
  const auto it = streams_.find(name);
  if (it == streams_.end()) {
    throw std::out_of_range{"Engine: unknown stream " + name};
  }
  return it->second;
}

std::size_t Engine::attach(const std::string& name, BatchTap tap) {
  if (!tap) throw std::invalid_argument{"Engine: null tap"};
  auto& st = state(name);
  const std::size_t id = st.next_tap_id++;
  st.taps.push_back({id, std::move(tap)});
  return id;
}

std::size_t Engine::attach(const std::string& name, Tap tap) {
  if (!tap) throw std::invalid_argument{"Engine: null tap"};
  return attach(name, [tap = std::move(tap)](const runtime::TupleBatch& b) {
    Tuple row;
    for (std::size_t i = 0; i < b.size(); ++i) {
      b.materialize(i, row);
      tap(row);
    }
  });
}

void Engine::detach(const std::string& name, std::size_t tap_id) {
  auto& st = state(name);
  std::erase_if(st.taps, [tap_id](const auto& e) { return e.id == tap_id; });
}

void Engine::publish(const std::string& name, const Tuple& t) {
  runtime::TupleBatch row{name};
  row.push_back(t);
  publish_batch(name, row);
}

void Engine::publish_batch(const std::string& name,
                           const runtime::TupleBatch& batch) {
  // Validate even for empty batches: a misrouted batch should fail loudly
  // whether or not it happens to carry rows.
  if (batch.stream() != name) {
    throw std::invalid_argument{"Engine: batch for stream " + batch.stream() +
                                " published on " + name};
  }
  auto& st = state(name);
  if (batch.empty()) return;
  if (!batch.timestamps_ordered()) {
    throw std::invalid_argument{"Engine: batch on stream " + name +
                                " is not timestamp-ordered"};
  }
  if (batch.first_ts() < st.last_ts) {
    throw_out_of_order(name, batch.first_ts(), st.last_ts);
  }
  st.last_ts = batch.last_ts();
  st.published += batch.size();
  // Copy the tap list: a tap may attach/detach while we iterate (a query
  // result published downstream may register new consumers).
  const auto taps = st.taps;
  for (const auto& e : taps) e.tap(batch);
}

std::size_t Engine::published_count(const std::string& name) const {
  const auto it = streams_.find(name);
  if (it == streams_.end()) {
    throw std::out_of_range{"Engine: unknown stream " + name};
  }
  return it->second.published;
}

}  // namespace cosmos::stream
