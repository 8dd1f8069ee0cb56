// In-memory span recorder of the traced benchmark run. Spans wrap the
// benchmark's own calls into the program's public functions (construction,
// submit, ingest, result callbacks, layer replays); each records its name,
// start, end, parent span and run id. Everything runs on the benchmark's
// main thread (result callbacks included), so spans nest strictly and a
// span's self time is its duration minus that of its direct children.
//
// High-volume spans (one per result callback) are always counted and
// timed, but only the first kMaxKept spans are kept individually.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  static constexpr std::size_t kMaxKept = 200'000;

  struct Span {
    const char* name = "";
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index into spans(), -1 = root or dropped
    std::uint32_t run = 0;
  };
  struct Totals {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
    std::vector<std::uint64_t> durations_ns;  ///< kept spans only
  };

  /// Disabled recorders ignore begin/end entirely (the untraced runs).
  /// Toggle only while no span is open.
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }
  void set_run(std::uint32_t run) noexcept { run_ = run; }

  void begin(const char* name);
  void end();

  /// RAII span; `name` must be a string literal (stored by pointer).
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name) : rec_(rec) {
      rec_.begin(name);
    }
    ~Scope() { rec_.end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
  };

  [[nodiscard]] const std::map<std::string, Totals>& totals() const noexcept {
    return totals_;
  }
  [[nodiscard]] std::size_t dropped() const noexcept { return dropped_; }

  /// Writes every kept span plus the per-name totals as one JSON document.
  /// Returns false when the file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  struct Open {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    std::int64_t index;  ///< kept span index, or -1
  };

  bool enabled_;
  std::uint32_t run_ = 0;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  std::map<std::string, Totals> totals_;
  /// Name-literal address -> its totals row (map nodes never move).
  std::unordered_map<const char*, Totals*> by_name_;
  std::size_t dropped_ = 0;
};

}  // namespace perfbench
