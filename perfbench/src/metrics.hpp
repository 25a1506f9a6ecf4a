// Shared pieces of the qbench harness: clocks, order statistics with the
// ten-samples-beyond rule, the metric report and its result line, the
// span tracer of the traced runs, machine context and the calibration
// kernel.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace qbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point t) {
  return seconds_between(t, Clock::now());
}

[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile (p in (0, 1)) of `values`, or nullopt unless at
/// least ten samples lie beyond it. +inf entries (refused or failed
/// requests) sort last, so they count as missing any limit.
[[nodiscard]] std::optional<double> percentile(std::vector<double> values,
                                               double p);

/// Smallest sample count for which `percentile(_, p)` reports a value.
[[nodiscard]] std::size_t samples_needed(double p);

/// Ordered (name, value, unit) list printed by every run.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] double value(const std::string& name) const;
  /// One human-readable "metric <name> <value> <unit>" line per entry.
  void print_lines() const;
  /// The result object: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                        std::uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Thrown when an output check fails; the run exits non-zero.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};
void require(bool ok, const std::string& what);

// --- tracing -----------------------------------------------------------------

/// In-memory span recorder for the traced replays. Spans nest through a
/// stack (the replays are single-threaded); each records its name, start,
/// end, parent and request id, and nothing leaves memory until the run
/// summarizes them.
class Tracer {
 public:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
    std::uint64_t request = 0;
  };
  struct Totals {
    std::size_t count = 0;
    double total_s = 0.0;  ///< summed durations
    double self_s = 0.0;   ///< durations minus the time children cover
  };

  int begin(const std::string& name, std::uint64_t request);
  void end(int id);
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Per-name totals over every closed span.
  [[nodiscard]] std::map<std::string, Totals> totals() const;
  /// One "span <name> count <n> total_ms <t> self_ms <s>" line per name,
  /// largest self time first.
  void print_totals() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span on a tracer; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, std::uint64_t request = 0)
      : tracer_(tracer), id_(tracer ? tracer->begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// --- delay injection (self-test) ----------------------------------------------

/// Busy-waits `microseconds` when the self-test has armed a delay for the
/// named layer ("init.draw"); a no-op otherwise.
void injected_delay(const std::string& layer);
void arm_delay(const std::string& layer, double microseconds);
[[nodiscard]] bool delay_armed();

// --- machine context -----------------------------------------------------------

/// Times a fixed complex-rotation kernel (~20 ms on a 2020s x86 core);
/// returns milliseconds.
[[nodiscard]] double calibration_ms();

struct MachineSnapshot {
  double load1 = 0.0;
  std::uint64_t steal_ticks = 0;
};
[[nodiscard]] MachineSnapshot machine_snapshot();

/// nproc, CPU model, load average and steal ticks over the run, plus the
/// calibration kernel's timings, as one "context {...}" stdout line.
void print_context(const MachineSnapshot& before, const MachineSnapshot& after,
                   const std::vector<double>& calibrations_ms);

/// Peak resident set (VmHWM) of a live process, MB; 0 when gone.
[[nodiscard]] double process_peak_rss_mb(long pid);

}  // namespace qbench
