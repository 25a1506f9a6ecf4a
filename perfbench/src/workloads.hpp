// The three workloads and the per-layer probes they share.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "metrics.hpp"
#include "qbarren/circuit/circuit.hpp"
#include "qbarren/obs/observable.hpp"

namespace qbench {

using qbarren::Circuit;
using qbarren::Observable;

struct RunArgs {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (checkpoints, cache files,
  /// sockets); removed when the run ends.
  std::filesystem::path scratch;
  /// Self-test sizes: tiny grids, few requests.
  bool tiny = false;
};

struct Outcome {
  Report report;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> calibrations_ms;
};

/// End-to-end metric names, in result-line order (every workload reports
/// every one of them with --trace 0). `latency_p90_ms` and `max_ok_rps`
/// are printed as metric lines but not part of the result: they are not
/// steady enough to gate on (see README.md).
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
end_to_end_metrics();
/// Per-layer metric names and units (every workload, --trace 1).
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics();

/// Set-ups a batch run times before its first pass (more follow between
/// passes); setup_s is the median of all. A serve run times one set-up per
/// server it starts.
inline constexpr int kSetups = 10;

using WorkloadFn = Outcome (*)(const RunArgs&);

/// Runs one workload in a fresh scratch directory under .bench_run/,
/// prints the machine context, the metric lines and the result line, and
/// returns the exit code (0 ok, 1 failed output check, 2 run error).
/// `outcome`, when non-null, receives what the workload reported.
int run_workload(WorkloadFn run, RunArgs args, Outcome* outcome = nullptr);

/// The benchmark's self-test at tiny sizes (selftest.cpp).
int run_selftest();

Outcome run_fig5a(const RunArgs& args);
Outcome run_train(const RunArgs& args);
Outcome run_serve(const RunArgs& args);

/// Latency of one served request from its due time: +inf unless the
/// terminal event is a successful "done" (refusals and failures miss
/// every latency limit).
[[nodiscard]] double request_latency_ms(const std::string& terminal,
                                        double due_s, double end_s);

// --- per-layer probes (layers.cpp) --------------------------------------------

/// A circuit with one parameter binding, for the plan/kernel probes.
struct BoundCircuit {
  Circuit circuit;
  std::vector<double> params;
};

/// Compiles, verifies and simulates the workload's own circuits under
/// spans "exec.compile", "analysis.verify_plan", "exec.simulate.q10",
/// "exec.simulate.q6" and "obs.expectation", and reports the exec.*,
/// obs.expectation_us and analysis.verify_plan_us metrics. A metric whose
/// input list is empty is not reported.
void probe_plans(Tracer& tracer, Report& report,
                 const std::vector<const Circuit*>& compiled,
                 const std::vector<BoundCircuit>& q10,
                 const std::vector<BoundCircuit>& q6,
                 const Observable* observable_q10);

/// Mean duration of the spans named `name`, in `scale` units per second
/// (1e6 for µs); 0 when no such span was recorded.
[[nodiscard]] double span_mean(const Tracer& tracer, const std::string& name,
                               double scale);
/// Durations of the spans named `name`, in milliseconds.
[[nodiscard]] std::vector<double> span_durations_ms(const Tracer& tracer,
                                                    const std::string& name);

/// Reports checkpoint.flush_ms.p50/p90 from "checkpoint.record_cell"
/// spans (0 when fewer samples than the percentile rule needs) and
/// checkpoint.bytes.
void report_checkpoint(const Tracer& tracer, Report& report,
                       double bytes_written);

/// Unit of a per-layer metric.
[[nodiscard]] std::string per_layer_unit(const std::string& name);

/// Measures every per-layer metric the workload's traced replay did not
/// report, on small paper-shaped inputs: a 4-circuit Fig 5a grid (serial
/// and at --jobs 2), the Fig 5b/5c training series with checkpoints, and
/// a burst of tiny requests on a fresh server. Every traced run thus
/// reports every layer with a measured value; the metrics filled here are
/// listed on a "probed:" line.
void probe_unexercised(const RunArgs& args, Report& report);

/// serve.* / load.* session metrics from 100 tiny requests at 40 req/s on
/// a fresh server (serve_load.cpp).
[[nodiscard]] Report probe_serve_layers(const RunArgs& args);

/// Bitwise equality of two double sequences (distinguishes -0.0, NaN
/// payloads).
[[nodiscard]] bool bitwise_equal(const std::vector<double>& a,
                                 const std::vector<double>& b);

}  // namespace qbench
