// Metric tables and the per-layer probes shared by the workloads.
#include <algorithm>
#include <cstring>

#include "qbarren/analysis/diagnostic.hpp"
#include "qbarren/analysis/plan_verify.hpp"
#include "qbarren/exec/compiled_circuit.hpp"
#include "workloads.hpp"

namespace qbench {

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"setup_s", "s"},          {"samples_per_s", "1/s"},
      {"latency_p50_ms", "ms"},  {"completed_frac", "frac"},
      {"peak_rss_mb", "MB"},
  };
  return names;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"circuit.build_us", "us"},
      {"init.draw_us", "us"},
      {"exec.compile_us", "us"},
      {"exec.plan_ops", "count"},
      {"exec.amp_per_s.q10", "1/s"},
      {"exec.ns_per_op.q6", "ns"},
      {"exec.bytes_per_op", "B"},
      {"obs.expectation_us", "us"},
      {"grad.partial_us", "us"},
      {"grad.adjoint_us", "us"},
      {"opt.step_us.gd", "us"},
      {"opt.step_us.adam", "us"},
      {"bp.train_cell_s", "s"},
      {"bp.cell_s.q2", "s"},
      {"bp.cell_s.q4", "s"},
      {"bp.cell_s.q6", "s"},
      {"bp.cell_s.q8", "s"},
      {"bp.cell_s.q10", "s"},
      {"bp.q10_share", "frac"},
      {"executor.efficiency", "frac"},
      {"executor.idle_s", "s"},
      {"executor.retries", "count"},
      {"executor.failures", "count"},
      {"checkpoint.flush_ms.p50", "ms"},
      {"checkpoint.flush_ms.p90", "ms"},
      {"checkpoint.bytes", "B"},
      {"json.parse_us", "us"},
      {"json.dump_us", "us"},
      {"analysis.preflight_ms", "ms"},
      {"analysis.predict_ms", "ms"},
      {"analysis.verify_plan_us", "us"},
      {"serve.admission_ms", "ms"},
      {"serve.queue_wait_ms", "ms"},
      {"serve.cache_hit_frac", "frac"},
      {"serve.rejected_frac", "frac"},
      {"serve.worker_deaths", "count"},
      {"serve.spawn_ms", "ms"},
      {"load.late_ms.p90", "ms"},
      {"trace.overhead_frac", "frac"},
  };
  return names;
}

std::string per_layer_unit(const std::string& name) {
  for (const auto& [n, unit] : per_layer_metrics()) {
    if (n == name) return unit;
  }
  throw CheckFailure("unknown per-layer metric " + name);
}

double span_mean(const Tracer& tracer, const std::string& name,
                 double scale) {
  const auto totals = tracer.totals();
  const auto it = totals.find(name);
  if (it == totals.end() || it->second.count == 0) return 0.0;
  return it->second.total_s / static_cast<double>(it->second.count) * scale;
}

std::vector<double> span_durations_ms(const Tracer& tracer,
                                      const std::string& name) {
  std::vector<double> out;
  for (const Tracer::Span& s : tracer.spans()) {
    if (s.name == name) out.push_back(seconds_between(s.start, s.end) * 1e3);
  }
  return out;
}

void probe_plans(Tracer& tracer, Report& report,
                 const std::vector<const Circuit*>& compiled,
                 const std::vector<BoundCircuit>& q10,
                 const std::vector<BoundCircuit>& q6,
                 const Observable* observable_q10) {
  using qbarren::exec::CompiledCircuit;
  double plan_ops = 0.0;
  for (const Circuit* circuit : compiled) {
    std::shared_ptr<const CompiledCircuit> plan;
    {
      ScopedSpan span(&tracer, "exec.compile");
      plan = CompiledCircuit::compile(*circuit);
    }
    plan_ops += static_cast<double>(plan->num_plan_ops());
    ScopedSpan span(&tracer, "analysis.verify_plan");
    const auto findings = qbarren::verify_plan(*circuit, *plan);
    require(!qbarren::has_errors(findings), "verify_plan rejected a plan");
  }
  if (!compiled.empty()) {
    report.add("exec.compile_us", span_mean(tracer, "exec.compile", 1e6), "us");
    report.add("exec.plan_ops",
               plan_ops / static_cast<double>(compiled.size()), "count");
    report.add("analysis.verify_plan_us",
               span_mean(tracer, "analysis.verify_plan", 1e6), "us");
  }

  // Kernel rate: amplitudes updated per second while simulating whole
  // plans (each plan op touches every amplitude once).
  double amplitudes = 0.0, bytes_per_op = 0.0, sim_s = 0.0;
  for (const BoundCircuit& bc : q10) {
    const auto plan = CompiledCircuit::compile(bc.circuit);
    const double ops = static_cast<double>(plan->num_plan_ops());
    bytes_per_op += qbarren::estimate_plan_resources(*plan).bytes / ops;
    const auto start = Clock::now();
    qbarren::StateVector state(1);
    {
      ScopedSpan span(&tracer, "exec.simulate.q10");
      state = plan->simulate(bc.params);
    }
    sim_s += seconds_since(start);
    amplitudes += ops * static_cast<double>(std::size_t{1} << 10);
    if (observable_q10 != nullptr) {
      ScopedSpan span(&tracer, "obs.expectation");
      volatile double e = observable_q10->expectation(state);
      (void)e;
    }
  }
  if (!q10.empty()) {
    report.add("exec.amp_per_s.q10", amplitudes / sim_s, "1/s");
    report.add("exec.bytes_per_op",
               bytes_per_op / static_cast<double>(q10.size()), "B");
  }
  if (!q10.empty() && observable_q10 != nullptr) {
    report.add("obs.expectation_us", span_mean(tracer, "obs.expectation", 1e6),
               "us");
  }

  double ops6 = 0.0, sim6_s = 0.0;
  for (const BoundCircuit& bc : q6) {
    const auto plan = CompiledCircuit::compile(bc.circuit);
    const auto start = Clock::now();
    {
      ScopedSpan span(&tracer, "exec.simulate.q6");
      volatile double norm = plan->simulate(bc.params).norm_squared();
      (void)norm;
    }
    sim6_s += seconds_since(start);
    ops6 += static_cast<double>(plan->num_plan_ops());
  }
  if (!q6.empty()) report.add("exec.ns_per_op.q6", sim6_s / ops6 * 1e9, "ns");
}

void report_checkpoint(const Tracer& tracer, Report& report,
                       double bytes_written) {
  const auto flushes = span_durations_ms(tracer, "checkpoint.record_cell");
  report.add("checkpoint.flush_ms.p50", percentile(flushes, 0.5).value_or(0.0),
             "ms");
  report.add("checkpoint.flush_ms.p90", percentile(flushes, 0.9).value_or(0.0),
             "ms");
  report.add("checkpoint.bytes", bytes_written, "B");
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace qbench
