// Latency percentiles the benchmark reports. obs::HistogramSnapshot::
// percentile() returns a bucket midpoint, so a percentile that crosses one
// of its 1/8-octave bucket edges jumps by 6.7-12.5% of its value. The
// helper here interpolates linearly inside the bucket instead, and says how
// many samples and ingest chunks support the value: all results of one
// chunk share one ingest stamp, so a percentile is only as good as the
// number of chunks beyond it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/histogram.h"

namespace perfbench {

/// Percentile rank convention shared by the helpers: the value below which
/// p% of the samples lie, interpolated linearly between order statistics.
double exact_percentile(std::vector<std::uint64_t> samples, double p);

/// Same rank convention over a bucketed histogram, interpolating inside the
/// bucket that holds the rank (samples assumed spread evenly across it).
double interpolated_percentile(const cosmos::obs::HistogramSnapshot& h,
                               double p);

/// A percentile with its support. `chunks_beyond` is a lower bound on the
/// number of ingest chunks whose results lie above the value; below
/// kMinChunksBeyond the percentile is reported as unresolved.
struct Percentile {
  double value_ns = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t chunks = 0;
  std::uint64_t chunks_beyond = 0;
  [[nodiscard]] bool resolved() const noexcept;
};
inline constexpr std::uint64_t kMinChunksBeyond = 10;

/// Percentile `p` of a latency histogram whose chunks produced
/// `results_per_chunk` samples each (counted in the histogram's unit).
Percentile histogram_percentile(
    const cosmos::obs::HistogramSnapshot& h, double p,
    const std::vector<std::uint64_t>& results_per_chunk);

/// The support of a value found some other way (a median of per-iteration
/// percentiles): the histogram's samples above `value_ns`, and the fewest
/// chunks that hold them.
Percentile support_at(const cosmos::obs::HistogramSnapshot& h,
                      double value_ns,
                      const std::vector<std::uint64_t>& results_per_chunk);

/// Compares the helpers against exact percentiles of synthetic samples,
/// including one straddling a bucket edge. Prints each case; returns false
/// on any failed check.
bool percentile_self_test();

}  // namespace perfbench
