// Per-layer metrics of the traced run, named after the program's modules
// (cosmos, runtime, stream, pubsub, wire, node, journal, obs). Each comes
// from a counter the public API already returns (RunReport, its driver
// breakdown, runtime stats, federation stats, worker stats samples), from
// the benchmark's own spans, or from a timed replay of the workload's
// inputs through one module's public functions.
#pragma once

#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

/// Runs the layer replays (recorded as spans) and returns every per-layer
/// metric. `traced` is the representative traced iteration; the two rates
/// are the medians of the traced and untraced iterations.
std::vector<Metric> layer_metrics(Workload w, const Inputs& in,
                                  const Reference& ref, Harness& harness,
                                  SpanRecorder& spans, const RunDir& dir,
                                  const Iteration& traced,
                                  double traced_tuples_per_s,
                                  double untraced_tuples_per_s);

}  // namespace perfbench
