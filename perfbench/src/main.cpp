// perfbench: the repository benchmark's measuring program. perfbench/run.py
// builds it and calls
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// It generates the workload's inputs from the seed, computes the push()
// reference of the same inputs, then repeats set-up + ingest + result check
// for the given number of seconds and prints, as the last line of standard
// output, one JSON object {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones (timings from the
// faster half of the iterations, see below); with --trace 1 the run
// alternates untraced and traced iterations, replays the inputs through
// single layers and reports the per-layer ledger (ledger.h), writing every
// span to one JSON file.
// `perfbench --self-test` checks the percentile helper alone.
#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "common/clock.h"
#include "harness.h"
#include "ledger.h"

using namespace perfbench;

namespace {

struct Args {
  Workload workload = Workload::kJoinPush;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool self_test = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      have_workload = parse_workload(val, a.workload);
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = !val.empty() && *end == '\0';
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      have_seconds = !val.empty() && *end == '\0' && a.seconds > 0.0;
    } else if (key == "--trace") {
      have_trace = val == "0" || val == "1";
      a.trace = val == "1";
    } else {
      return false;
    }
  }
  return a.self_test ||
         (have_workload && have_seed && have_seconds && have_trace);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

/// Shortest text that reads back as exactly `v` (all its digits).
std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// Restarts the process's resident-memory high-water mark, after handing
/// freed heap back, so the next peak_rss_mb covers only what follows.
/// Returns false when the kernel refused, and the mark still counts from
/// the start of the process.
bool reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream clear{"/proc/self/clear_refs"};
  clear << "5" << std::flush;
  return static_cast<bool>(clear);
}

/// Host CPU time in clock ticks so far (the first eight fields of the "cpu"
/// line of /proc/stat), and the part of it stolen by other guests of the
/// hypervisor; zeros where the file is absent.
struct HostTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

HostTicks host_ticks() {
  std::ifstream stat{"/proc/stat"};
  std::string cpu;
  stat >> cpu;
  HostTicks t;
  std::uint64_t v = 0;
  for (int field = 0; field < 8 && stat >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

/// Share of the host's CPU time stolen between two readings, in percent.
/// Other tenants that slow a run show up here.
double steal_pct(const HostTicks& a, const HostTicks& b) {
  const std::uint64_t total = b.total - a.total;
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(b.steal - a.steal) /
                          static_cast<double>(total);
}

/// A latency percentile of the given iterations: the median of each
/// iteration's own percentile. A stall that other tenants cause lengthens
/// the tail of the iteration it hits only, where it would take over the tail
/// of a pool. One iteration's p99 rests on few chunks, so the support is
/// counted over the results of all the iterations.
Percentile typical(Workload w, const std::vector<Iteration>& its,
                   const Reference& ref, Percentile Iteration::*pick) {
  const bool push = w == Workload::kJoinPush;
  const auto& chunk = push ? ref.results_per_tuple : ref.events_per_chunk;
  cosmos::obs::HistogramSnapshot h;
  std::vector<std::uint64_t> per_chunk;
  std::vector<double> values;
  for (const auto& it : its) {
    h.merge(push ? it.push_latency : it.report.e2e_latency);
    per_chunk.insert(per_chunk.end(), chunk.begin(), chunk.end());
    values.push_back((it.*pick).value_ns);
  }
  const auto expected =
      std::accumulate(per_chunk.begin(), per_chunk.end(), std::uint64_t{0});
  if (h.count != expected) {
    std::printf("# note: %llu latency samples, %llu expected from the "
                "reference's chunk sizes\n",
                static_cast<unsigned long long>(h.count),
                static_cast<unsigned long long>(expected));
  }
  return support_at(h, median(values), per_chunk);
}

void print_percentile(const char* name, const Percentile& p) {
  std::printf("# %s: %.3f ms (median of the iterations'), %llu samples in "
              "%llu chunks, >= %llu chunks beyond: %s\n",
              name, p.value_ns / 1e6,
              static_cast<unsigned long long>(p.samples),
              static_cast<unsigned long long>(p.chunks),
              static_cast<unsigned long long>(p.chunks_beyond),
              p.resolved() ? "resolved" : "UNRESOLVED");
}

void print_iteration(std::size_t k, const Iteration& it, bool traced,
                     double steal) {
  std::printf("# iter %zu%s: setup %.4f s, ingest %.4f s, %.0f tuples/s, "
              "p50 %.3f ms, p99 %.3f ms, cpu %.2f us/tuple, rss %.1f MiB "
              "(workers %.1f), host steal %.1f%%, failed %zu\n",
              k, traced ? " (traced)" : "", it.setup_s, it.ingest_s,
              it.tuples_per_s(), it.p50.value_ns / 1e6, it.p99.value_ns / 1e6,
              it.cpu_s * 1e6 / static_cast<double>(it.tuples), it.peak_rss_mb,
              it.worker_peak_mb, steal, it.failed);
  for (const auto& p : it.problems) std::printf("#   problem: %s\n", p.c_str());
  std::fflush(stdout);
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = std::string{"{\"correct\": "} +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name +
           "\": {\"value\": " + number(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <join-push|join-sharded|"
                 "join-federated|select-fanout> --seed <n> --seconds <s> "
                 "--trace <0|1>\n       perfbench --self-test\n");
    return 2;
  }
  std::printf("# percentile helper self-test\n");
  if (!percentile_self_test()) return 1;
  if (args.self_test) return 0;

  try {
    const Workload w = args.workload;
    std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                workload_name(w), static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace ? 1 : 0);
    const auto in = make_inputs(w, args.seed);
    const cosmos::TimePoint r0 = cosmos::Clock::now();
    const auto ref = make_reference(in, w != Workload::kJoinPush);
    std::printf("# inputs: %zu tuples, %zu queries, %llu reference results "
                "(push() reference took %.2f s)\n",
                in.events.size(), in.specs.size(),
                static_cast<unsigned long long>(ref.results),
                cosmos::seconds_since(r0));

    RunDir dir;
    SpanRecorder spans{false};
    Harness harness{w, in, ref, dir, spans};
    std::vector<Iteration> timed;
    std::vector<Iteration> traced;
    const cosmos::TimePoint start = cosmos::Clock::now();
    constexpr std::size_t kMinIterations = 3;
    bool rss_reset = true;
    const HostTicks run0 = host_ticks();
    while (cosmos::seconds_since(start) < args.seconds ||
           timed.size() < kMinIterations ||
           (args.trace && traced.size() < kMinIterations)) {
      // Traced runs alternate untraced and traced iterations, so the
      // tracing overhead is measured under the same host conditions.
      const bool trace_this = args.trace && traced.size() < timed.size();
      spans.set_enabled(trace_this);
      spans.set_run(static_cast<std::uint32_t>(timed.size() + traced.size()));
      rss_reset = reset_peak_rss() && rss_reset;
      const HostTicks i0 = host_ticks();
      auto it = harness.run_once(trace_this);
      it.peak_rss_mb = vm_hwm_mb("/proc/self/status") + it.worker_peak_mb;
      spans.set_enabled(false);
      print_iteration(timed.size() + traced.size(), it, trace_this,
                      steal_pct(i0, host_ticks()));
      (trace_this ? traced : timed).push_back(std::move(it));
    }
    std::printf("# host steal: %.2f%% of the host's CPU time went to other "
                "guests during the iterations\n",
                steal_pct(run0, host_ticks()));

    std::size_t failed = 0;
    std::size_t attempted = 0;
    bool problems = false;
    for (const auto* set : {&timed, &traced}) {
      for (const auto& it : *set) {
        failed += it.failed;
        attempted += in.specs.size();
        problems = problems || !it.problems.empty();
      }
    }
    const auto rates = [](const std::vector<Iteration>& its) {
      std::vector<double> v;
      for (const auto& it : its) v.push_back(it.tuples_per_s());
      return v;
    };
    const double tuples = static_cast<double>(in.events.size());
    std::vector<Metric> metrics;

    if (!args.trace) {
      // Other tenants of the host slow whole stretches of a run (CPU time
      // per tuple included) and never speed it up. The end-to-end timings
      // therefore come from the faster half of the iterations, the same
      // share whatever the program's speed, and set-up from the faster half
      // of its samples. Peak memory is a median over all iterations.
      constexpr std::size_t kSetupSamples = 12;
      std::vector<double> setup;
      for (const auto& it : timed) setup.push_back(it.setup_s);
      while (setup.size() < kSetupSamples) setup.push_back(harness.setup_only());
      std::sort(setup.begin(), setup.end());
      setup.resize((setup.size() + 1) / 2);
      std::vector<double> rss;
      for (const auto& it : timed) rss.push_back(it.peak_rss_mb);
      if (!rss_reset) {
        std::printf("# peak rss: cannot reset the high-water mark, so each "
                    "iteration's peak counts from the start of the run\n");
      }
      std::vector<Iteration> steady = std::move(timed);
      std::sort(steady.begin(), steady.end(),
                [](const Iteration& a, const Iteration& b) {
                  return a.tuples_per_s() > b.tuples_per_s();
                });
      steady.resize((steady.size() + 1) / 2);

      std::vector<double> cpu;
      for (const auto& it : steady) cpu.push_back(it.cpu_s * 1e6 / tuples);
      const auto p50 = typical(w, steady, ref, &Iteration::p50);
      const auto p99 = typical(w, steady, ref, &Iteration::p99);
      std::printf("# end-to-end timings from the faster %zu iterations\n",
                  steady.size());
      print_percentile("e2e_p50_ms", p50);
      print_percentile("e2e_p99_ms", p99);
      metrics = {
          {"tuples_per_s", median(rates(steady)), "tuples/s"},
          {"e2e_p50_ms", p50.value_ns / 1e6, "ms"},
          {"e2e_p99_ms", p99.value_ns / 1e6, "ms"},
          {"setup_s", median(setup), "s"},
          {"comm_cost_per_tuple", steady.front().weighted_cost / tuples,
           "B.ms/tuple"},
          {"cpu_us_per_tuple", median(cpu), "us/tuple"},
          {"peak_rss_mb", median(rss), "MiB"},
      };
    } else {
      // The traced iteration with the median rate stands for the run.
      std::vector<const Iteration*> order;
      for (const auto& it : traced) order.push_back(&it);
      std::sort(order.begin(), order.end(),
                [](const Iteration* a, const Iteration* b) {
                  return a->tuples_per_s() < b->tuples_per_s();
                });
      const Iteration& rep = *order[order.size() / 2];
      spans.set_enabled(true);
      spans.set_run(1'000'000);
      metrics = layer_metrics(w, in, ref, harness, spans, dir, rep,
                              median(rates(traced)), median(rates(timed)));
      spans.set_enabled(false);

      std::printf("# span self time by name (all traced iterations and "
                  "replays; %zu spans not kept individually)\n",
                  spans.dropped());
      for (const auto& [name, t] : spans.totals()) {
        std::printf("#   %-30s %10llu spans %10.4f s total %10.4f s self\n",
                    name.c_str(), static_cast<unsigned long long>(t.count),
                    1e-9 * static_cast<double>(t.total_ns),
                    1e-9 * static_cast<double>(t.self_ns));
      }
      const std::string path = std::string{".bench_build/perfbench-spans-"} +
                               workload_name(w) + "-seed" +
                               std::to_string(args.seed) + ".json";
      if (!spans.write_json(path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return 1;
      }
      std::printf("# spans written to %s\n", path.c_str());
    }

    for (const auto& m : metrics) {
      if (!std::isfinite(m.value)) {
        std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                     m.name.c_str());
        return 1;
      }
    }
    const bool correct = failed == 0 && !problems;
    print_result(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
