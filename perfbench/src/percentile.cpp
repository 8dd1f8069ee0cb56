#include "percentile.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <random>

namespace perfbench {

using cosmos::obs::HistogramSnapshot;

namespace {

/// Fractional order-statistic position of percentile p among n samples.
double rank_of(double p, std::uint64_t n) {
  return std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(n - 1);
}

double bucket_upper(std::size_t idx) {
  const std::uint64_t lo = cosmos::obs::bucket_lower(idx);
  return static_cast<double>(idx + 1u < cosmos::obs::kBucketCount
                                 ? cosmos::obs::bucket_lower(idx + 1u)
                                 : lo + (lo >> 3));
}

std::uint64_t beyond(double pos, std::uint64_t n) {
  return n - 1 - static_cast<std::uint64_t>(std::floor(pos));
}

/// Fewest chunks that can hold `samples_beyond` results, given each chunk's
/// result count: the chunks_beyond bound when only a histogram is kept.
std::uint64_t min_chunks_holding(std::vector<std::uint64_t> results_per_chunk,
                                 std::uint64_t samples_beyond) {
  std::sort(results_per_chunk.begin(), results_per_chunk.end(),
            std::greater<>{});
  std::uint64_t held = 0;
  std::uint64_t chunks = 0;
  for (const auto r : results_per_chunk) {
    if (held >= samples_beyond) break;
    held += r;
    ++chunks;
  }
  return chunks;
}

}  // namespace

double exact_percentile(std::vector<std::uint64_t> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = rank_of(p, samples.size());
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(samples[lo]) +
         frac * (static_cast<double>(samples[hi]) -
                 static_cast<double>(samples[lo]));
}

double interpolated_percentile(const HistogramSnapshot& h, double p) {
  if (h.count == 0) return 0.0;
  // Order statistic k (0-based) under the even-spread assumption: the j-th
  // of a bucket's c samples sits at lower + (j + 1/2) / c * width.
  const auto value_at = [&h](std::uint64_t k) {
    std::uint64_t cum = 0;
    for (const auto& [idx, c] : h.buckets) {
      if (k < cum + c) {
        const auto lo = static_cast<double>(cosmos::obs::bucket_lower(idx));
        const double j = static_cast<double>(k - cum) + 0.5;
        return lo + j / static_cast<double>(c) * (bucket_upper(idx) - lo);
      }
      cum += c;
    }
    return 0.0;  // unreachable while k < count
  };
  const double pos = rank_of(p, h.count);
  const auto lo = static_cast<std::uint64_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, h.count - 1);
  const double a = value_at(lo);
  return a + (pos - static_cast<double>(lo)) * (value_at(hi) - a);
}

bool Percentile::resolved() const noexcept {
  return chunks_beyond >= kMinChunksBeyond;
}

Percentile histogram_percentile(
    const HistogramSnapshot& h, double p,
    const std::vector<std::uint64_t>& results_per_chunk) {
  Percentile out;
  out.samples = h.count;
  out.chunks = results_per_chunk.size();
  if (h.count == 0) return out;
  out.value_ns = interpolated_percentile(h, p);
  out.chunks_beyond = min_chunks_holding(results_per_chunk,
                                         beyond(rank_of(p, h.count), h.count));
  return out;
}

Percentile support_at(const HistogramSnapshot& h, double value_ns,
                      const std::vector<std::uint64_t>& results_per_chunk) {
  Percentile out;
  out.value_ns = value_ns;
  out.samples = h.count;
  out.chunks = results_per_chunk.size();
  double above = 0.0;  // even spread inside the bucket holding value_ns
  for (const auto& [idx, c] : h.buckets) {
    const auto lo = static_cast<double>(cosmos::obs::bucket_lower(idx));
    const double hi = bucket_upper(idx);
    if (lo >= value_ns) {
      above += static_cast<double>(c);
    } else if (hi > value_ns) {
      above += static_cast<double>(c) * (hi - value_ns) / (hi - lo);
    }
  }
  out.chunks_beyond = min_chunks_holding(
      results_per_chunk, static_cast<std::uint64_t>(std::llround(above)));
  return out;
}

bool percentile_self_test() {
  bool ok = true;
  const auto check = [&ok](bool cond, const char* what) {
    std::printf("#   %-58s %s\n", what, cond ? "ok" : "FAILED");
    ok = ok && cond;
  };
  const auto rel = [](double a, double b) { return std::abs(a - b) / b; };
  std::mt19937_64 gen{7};

  // 1. A latency-like sample spread over many buckets.
  {
    std::lognormal_distribution<double> d{std::log(5e6), 0.5};
    std::vector<std::uint64_t> v(200'000);
    HistogramSnapshot h;
    for (auto& x : v) {
      x = static_cast<std::uint64_t>(d(gen));
      h.record(x);
    }
    double worst = 0.0;
    for (const double p : {50.0, 90.0, 99.0}) {
      worst = std::max(worst, rel(interpolated_percentile(h, p),
                                  exact_percentile(v, p)));
    }
    std::printf("#   lognormal: worst helper error %.3f%%\n", 100.0 * worst);
    check(worst < 0.015, "lognormal p50/p90/p99 within 1.5% of exact");
  }

  // 2. The same kind of sample, scaled in 0.25% steps so that its median
  // straddles the 2^22 ns bucket edge, where the bucket width doubles:
  // percentile() jumps from one bucket midpoint to the next while the exact
  // median moves by 0.25%.
  {
    std::lognormal_distribution<double> d{0.0, 0.5};
    std::vector<double> base(200'000);
    for (auto& x : base) x = d(gen);
    std::vector<double> sorted = base;
    std::sort(sorted.begin(), sorted.end());
    const double base_median = sorted[sorted.size() / 2];
    double helper_error = 0.0;
    double helper_step = 0.0;
    double midpoint_step = 0.0;
    double prev_helper = 0.0;
    double prev_midpoint = 0.0;
    for (int step = -12; step <= 12; ++step) {
      const double scale = 4194304.0 / base_median * (1.0 + 0.0025 * step);
      std::vector<std::uint64_t> v;
      v.reserve(base.size());
      HistogramSnapshot h;
      for (const double x : base) {
        v.push_back(static_cast<std::uint64_t>(x * scale));
        h.record(v.back());
      }
      const double helper = interpolated_percentile(h, 50.0);
      const auto midpoint = static_cast<double>(h.percentile(50.0));
      helper_error =
          std::max(helper_error, rel(helper, exact_percentile(v, 50.0)));
      if (step > -12) {
        helper_step = std::max(helper_step, rel(helper, prev_helper));
        midpoint_step = std::max(midpoint_step, rel(midpoint, prev_midpoint));
      }
      prev_helper = helper;
      prev_midpoint = midpoint;
    }
    std::printf("#   bucket edge: largest p50 move per 0.25%% step: helper "
                "%.2f%%, percentile() %.2f%%; worst helper error %.3f%%\n",
                100.0 * helper_step, 100.0 * midpoint_step,
                100.0 * helper_error);
    check(midpoint_step >= 0.067, "percentile() jumps >= 6.7% at the edge");
    check(helper_step < 0.01, "helper moves < 1% per 0.25% step");
    check(helper_error < 0.01, "helper within 1% of exact at every step");
  }

  // 3. Support: chunk counts beyond the percentile.
  {
    check(min_chunks_holding({5, 1, 9, 3}, 10) == 2,
          "fewest chunks holding 10 of {5,1,9,3} results is 2");
    HistogramSnapshot h;
    for (std::uint64_t i = 0; i < 1000; ++i) h.record(1000 + i);
    const std::vector<std::uint64_t> chunks(250, 4);  // four results each
    const auto p99 = histogram_percentile(h, 99.0, chunks);
    check(p99.chunks == 250 && p99.chunks_beyond == 3 && !p99.resolved(),
          "p99 of 250 four-result chunks rests on 3 chunks: unresolved");
    const auto p50 = histogram_percentile(h, 50.0, chunks);
    check(p50.chunks_beyond == 125 && p50.resolved(),
          "p50 rests on 125 chunks: resolved");
    check(support_at(h, p99.value_ns, chunks).chunks_beyond == 3 &&
              support_at(h, p50.value_ns, chunks).chunks_beyond == 125,
          "support at a given value matches the percentile's");
  }
  return ok;
}

}  // namespace perfbench
