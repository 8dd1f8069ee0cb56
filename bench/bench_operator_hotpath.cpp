// Operator hot-path micro-bench: the per-tuple work PRs 1-3 left on the
// critical path, before and after compilation/batching.
//
// Three configurations:
//   filter-only — interpreted Predicate::eval (per-row Binding env +
//                 virtual dispatch + string field lookups, the pre-PR-4
//                 hot path) vs the compiled program, scalar and
//                 batch-at-a-time;
//   join-heavy  — WindowJoinOp hash-index probe (an equality key) vs the
//                 O(window) scanning probe (the same join written without
//                 an extractable key) at growing window sizes: the hash
//                 probe must win superlinearly as the window grows (its
//                 cost tracks matches, the scan's tracks window occupancy);
//   match-heavy — subscription matching: interpreted Subscription::matches
//                 vs compiled filters evaluated batch-at-a-time.
//
// Windows and row counts are fixed (not COSMOS_BENCH_SCALE-scaled): the
// gated metrics are same-machine time ratios, which only stay comparable
// against the committed baseline if every run shapes the work identically.
// Writes BENCH_operator_hotpath.json; scripts/check_bench.py gates the
// ratios against bench/baselines/.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "pubsub/subscription.h"
#include "runtime/tuple_batch.h"
#include "stream/compiled_predicate.h"
#include "stream/operators.h"

using namespace cosmos;
using namespace cosmos::bench;
using namespace cosmos::stream;

namespace {

Schema sensor_like() {
  return Schema{{{"snowHeight", ValueType::kDouble},
                 {"temperature", ValueType::kDouble},
                 {"stationId", ValueType::kInt},
                 {"timestamp", ValueType::kInt}}};
}

Tuple sensor_tuple(Rng& rng, Timestamp ts) {
  return Tuple{ts,
               {Value{rng.next_double(0.0, 40.0)},
                Value{rng.next_double(-15.0, 15.0)},
                Value{rng.next_range(0, 19)}, Value{ts}}};
}

template <typename Fn>
double cpu_time(Fn&& fn) {
  const double t0 = thread_cpu_seconds();
  fn();
  return thread_cpu_seconds() - t0;
}

// ---------------------------------------------------------------- filter --

struct FilterResult {
  double interp_s = 0.0;
  double compiled_scalar_s = 0.0;
  double compiled_batch_s = 0.0;
  std::size_t passed = 0;
};

FilterResult bench_filter(std::size_t rows) {
  const Schema schema = sensor_like();
  const auto pred = Predicate::conj(
      {Predicate::cmp(FieldRef{"S", "snowHeight"}, CmpOp::kGt, Value{20.0}),
       Predicate::cmp(FieldRef{"S", "temperature"}, CmpOp::kLe, Value{5.0}),
       Predicate::cmp(FieldRef{"S", "stationId"}, CmpOp::kNe, Value{3})});

  Rng rng{7};
  std::vector<Tuple> tuples;
  runtime::TupleBatch batch{"S"};
  tuples.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    tuples.push_back(sensor_tuple(rng, static_cast<Timestamp>(i)));
    batch.push_back(tuples.back());
  }

  FilterResult out;
  // The pre-compilation hot path: per-row env + interpreted tree walk.
  std::size_t interp_passed = 0;
  out.interp_s = cpu_time([&] {
    for (const Tuple& t : tuples) {
      const std::vector<Binding> env{{"S", &schema, &t}};
      if (pred->eval(env)) ++interp_passed;
    }
  });

  const auto compiled =
      CompiledPredicate::compile(pred, {{"S", &schema, SIZE_MAX}});
  std::size_t scalar_passed = 0;
  out.compiled_scalar_s = cpu_time([&] {
    for (const Tuple& t : tuples) {
      if (compiled.eval(t)) ++scalar_passed;
    }
  });

  std::vector<std::uint32_t> sel;
  sel.reserve(rows);
  out.compiled_batch_s = cpu_time([&] {
    sel.clear();
    compiled.filter_batch(batch, nullptr, sel);
  });

  if (interp_passed != scalar_passed || interp_passed != sel.size()) {
    std::fprintf(stderr, "!! filter paths disagree: %zu/%zu/%zu\n",
                 interp_passed, scalar_passed, sel.size());
    std::exit(1);
  }
  out.passed = interp_passed;
  return out;
}

// ------------------------------------------------------------------ join --

struct JoinResult {
  double scan_s = 0.0;
  double hash_s = 0.0;
  std::size_t emitted = 0;
};

/// Order-sensitive digest of every row a join emits (timestamp and values).
std::uint64_t fold_rows(std::uint64_t h, const runtime::TupleBatch& out) {
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  for (std::size_t r = 0; r < out.size(); ++r) {
    mix(static_cast<std::uint64_t>(out.ts(r)));
    for (std::size_t c = 0; c < out.width(); ++c) {
      // Every bench column is numeric.
      mix(std::hash<double>{}(out.at(r, c).as_double()));
    }
  }
  return h;
}

/// Alternating left/right arrivals, 1 tuple per ms per side, equi key over
/// `keys` distinct values plus a numeric residual; window spans window_ms
/// of stream time (≈ window_ms/2 tuples per side buffered). The hash
/// column joins on L.k = R.j; the scan column runs the same join written
/// without an extractable key (L.k >= R.j AND L.k <= R.j), which the
/// operator can only answer by scanning the window. Each arrival is a
/// one-row batch, the shape push() drives.
JoinResult bench_join(std::int64_t window_ms, std::size_t arrivals,
                      std::uint64_t keys) {
  const Schema ls{{{"k", ValueType::kInt}, {"v", ValueType::kDouble}}};
  const Schema rs{{{"j", ValueType::kInt}, {"u", ValueType::kDouble}}};
  const auto residual =
      Predicate::cmp(FieldRef{"L", "v"}, CmpOp::kGt, FieldRef{"R", "u"});
  const auto hash_pred = Predicate::conj(
      {Predicate::cmp(FieldRef{"L", "k"}, CmpOp::kEq, FieldRef{"R", "j"}),
       residual});
  const auto scan_pred = Predicate::conj(
      {Predicate::cmp(FieldRef{"L", "k"}, CmpOp::kGe, FieldRef{"R", "j"}),
       Predicate::cmp(FieldRef{"L", "k"}, CmpOp::kLe, FieldRef{"R", "j"}),
       residual});

  struct Arrival {
    bool left;
    runtime::TupleBatch row;
  };
  Rng rng{11};
  std::vector<Arrival> trace;
  trace.reserve(arrivals);
  for (std::size_t i = 0; i < arrivals; ++i) {
    Arrival a{i % 2 == 0, runtime::TupleBatch{i % 2 == 0 ? "L" : "R"}};
    a.row.push_back(Tuple{static_cast<Timestamp>(i),
                          {Value{static_cast<std::int64_t>(
                               rng.next_below(keys))},
                           Value{rng.next_double(-1.0, 1.0)}}});
    trace.push_back(std::move(a));
  }

  const auto make_join = [&](const PredicatePtr& pred) {
    return WindowJoinOp{{"L", &ls, WindowSpec::range_millis(window_ms)},
                        {"R", &rs, WindowSpec::range_millis(window_ms)},
                        pred};
  };
  const auto push = [](WindowJoinOp& join, const Arrival& a,
                       runtime::TupleBatch& out) {
    if (a.left) {
      join.push_batch_left(a.row, nullptr, /*lift_append_ts=*/false, out);
    } else {
      join.push_batch_right(a.row, nullptr, /*lift_append_ts=*/false, out);
    }
  };

  JoinResult out;
  std::size_t emitted[2] = {0, 0};
  std::uint64_t digest[2] = {0, 0};
  for (const bool use_hash : {false, true}) {
    WindowJoinOp join = make_join(use_hash ? hash_pred : scan_pred);
    if ((join.equi_key_count() > 0) != use_hash) {
      std::fprintf(stderr, "!! join probe choice: %zu keys extracted\n",
                   join.equi_key_count());
      std::exit(1);
    }
    runtime::TupleBatch rows{"out"};
    const double s = cpu_time([&] {
      for (const Arrival& a : trace) {
        rows.clear();
        push(join, a, rows);
        emitted[use_hash] += rows.size();
      }
    });
    (use_hash ? out.hash_s : out.scan_s) = s;

    // Untimed second pass: digest every emitted row, in order.
    WindowJoinOp check = make_join(use_hash ? hash_pred : scan_pred);
    for (const Arrival& a : trace) {
      rows.clear();
      push(check, a, rows);
      digest[use_hash] = fold_rows(digest[use_hash], rows);
    }
  }
  if (emitted[0] != emitted[1] || digest[0] != digest[1]) {
    std::fprintf(stderr, "!! join probes emit different rows: %zu vs %zu\n",
                 emitted[0], emitted[1]);
    std::exit(1);
  }
  out.emitted = emitted[0];
  return out;
}

// ----------------------------------------------------------------- match --

struct MatchResult {
  double interp_s = 0.0;
  double compiled_s = 0.0;
  std::size_t matches = 0;
};

MatchResult bench_match(std::size_t rows, std::size_t sub_count) {
  const Schema schema = sensor_like();
  Rng rng{13};
  std::vector<pubsub::Subscription> subs(sub_count);
  for (std::size_t s = 0; s < sub_count; ++s) {
    auto& sub = subs[s];
    sub.id = SubscriptionId{static_cast<SubscriptionId::value_type>(s)};
    sub.subscriber = NodeId{0};
    sub.streams = {"S"};
    switch (rng.next_below(4)) {
      case 0:
        sub.filter = Predicate::always_true();
        break;
      case 1:
        sub.filter = Predicate::cmp(FieldRef{"", "snowHeight"}, CmpOp::kGt,
                                    Value{rng.next_double(5.0, 35.0)});
        break;
      case 2:
        sub.filter = Predicate::conj(
            {Predicate::cmp(FieldRef{"", "snowHeight"}, CmpOp::kGt,
                            Value{rng.next_double(5.0, 35.0)}),
             Predicate::cmp(FieldRef{"", "stationId"}, CmpOp::kNe,
                            Value{static_cast<std::int64_t>(
                                rng.next_below(20))})});
        break;
      default:
        sub.filter = Predicate::cmp(FieldRef{"", "temperature"}, CmpOp::kLe,
                                    Value{rng.next_double(-5.0, 10.0)});
        break;
    }
  }

  runtime::TupleBatch batch{"S"};
  std::vector<Tuple> tuples;
  tuples.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    tuples.push_back(sensor_tuple(rng, static_cast<Timestamp>(i)));
    batch.push_back(tuples.back());
  }

  MatchResult out;
  std::size_t interp_matches = 0;
  out.interp_s = cpu_time([&] {
    for (const Tuple& t : tuples) {
      for (const auto& sub : subs) {
        if (sub.matches(schema, t)) ++interp_matches;
      }
    }
  });

  std::vector<CompiledPredicate> compiled;
  compiled.reserve(sub_count);
  for (const auto& sub : subs) {
    compiled.push_back(CompiledPredicate::compile_lenient(
        sub.filter, {{"", &schema, SIZE_MAX}}));
  }
  std::size_t compiled_matches = 0;
  std::vector<std::uint32_t> sel;
  out.compiled_s = cpu_time([&] {
    for (const auto& c : compiled) {
      sel.clear();
      c.filter_batch(batch, nullptr, sel);
      compiled_matches += sel.size();
    }
  });

  if (interp_matches != compiled_matches) {
    std::fprintf(stderr, "!! match paths disagree: %zu vs %zu\n",
                 interp_matches, compiled_matches);
    std::exit(1);
  }
  out.matches = interp_matches;
  return out;
}

}  // namespace

int main() {
  std::printf("# operator hotpath micro-bench (fixed size; gated metrics "
              "are same-run time ratios)\n");

  const FilterResult filter = bench_filter(200'000);
  const double filter_scalar_speedup = filter.interp_s / filter.compiled_scalar_s;
  const double filter_batch_speedup = filter.interp_s / filter.compiled_batch_s;
  std::printf("filter-only: rows=200000 passed=%zu interp=%.4fs "
              "compiled-scalar=%.4fs (%.1fx) compiled-batch=%.4fs (%.1fx)\n",
              filter.passed, filter.interp_s, filter.compiled_scalar_s,
              filter_scalar_speedup, filter.compiled_batch_s,
              filter_batch_speedup);

  const std::int64_t windows[] = {512, 2048, 8192};
  double speedups[3] = {0, 0, 0};
  for (int i = 0; i < 3; ++i) {
    const std::int64_t w = windows[i];
    const JoinResult j =
        bench_join(w, static_cast<std::size_t>(4 * w), /*keys=*/64);
    speedups[i] = j.scan_s / j.hash_s;
    std::printf("join-heavy: window=%lldms arrivals=%lld emitted=%zu "
                "scan=%.4fs hash=%.4fs (%.1fx)\n",
                static_cast<long long>(w), static_cast<long long>(4 * w),
                j.emitted, j.scan_s, j.hash_s, speedups[i]);
  }
  const double superlinearity = speedups[2] / speedups[0];
  std::printf("join-heavy: hash-vs-scan superlinearity (w=8192 over "
              "w=512): %.2fx\n",
              superlinearity);

  const MatchResult match = bench_match(20'000, 200);
  const double match_speedup = match.interp_s / match.compiled_s;
  std::printf("match-heavy: rows=20000 subs=200 matches=%zu interp=%.4fs "
              "compiled=%.4fs (%.1fx)\n",
              match.matches, match.interp_s, match.compiled_s, match_speedup);

  write_bench_json(
      "operator_hotpath",
      {{"filter_compiled_scalar_speedup", filter_scalar_speedup},
       {"filter_compiled_batch_speedup", filter_batch_speedup},
       {"join_hash_vs_scan_speedup_w512", speedups[0]},
       {"join_hash_vs_scan_speedup_w2048", speedups[1]},
       {"join_hash_vs_scan_speedup_w8192", speedups[2]},
       {"join_hash_superlinearity", superlinearity},
       {"match_compiled_speedup", match_speedup},
       {"paths_agree", 1.0}});
  return 0;
}
