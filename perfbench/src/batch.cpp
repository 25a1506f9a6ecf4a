// The batch workloads: fig5a (the paper's Fig 5a grid at --jobs 2) and
// train (Fig 5b + 5c at --jobs 1 with a fresh checkpoint per pass).
//
// Timed runs call the experiment runners exactly as `qbarren variance` /
// `qbarren train` do and repeat whole passes until --seconds have been
// measured; every pass must serialize byte-identically to the first.
// Traced runs instead replay the same cells through the layer calls the
// runners make, once untraced and once under spans, and require both
// replays to reproduce the runner's samples and histories bit for bit.
#include <sched.h>
#include <unistd.h>

#include <functional>
#include <map>
#include <mutex>
#include <thread>

#include "qbarren/analysis/predict.hpp"
#include "qbarren/analysis/preflight.hpp"
#include "qbarren/bp/cost_kind.hpp"
#include "qbarren/bp/serialize.hpp"
#include "qbarren/bp/training.hpp"
#include "qbarren/bp/variance.hpp"
#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/common/checkpoint.hpp"
#include "qbarren/common/json.hpp"
#include "qbarren/exec/compiled_circuit.hpp"
#include "qbarren/grad/engine.hpp"
#include "qbarren/init/registry.hpp"
#include "qbarren/opt/optimizers.hpp"
#include "workloads.hpp"

namespace qbench {

namespace {

namespace q = qbarren;

/// Delegating initializer that runs the self-test's injected delay before
/// every draw; only used while a delay is armed.
class DelayedInitializer final : public q::Initializer {
 public:
  explicit DelayedInitializer(const q::Initializer& inner) : inner_(inner) {}
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::vector<double> initialize(const q::Circuit& circuit,
                                               q::Rng& rng) const override {
    injected_delay("init.draw");
    return inner_.initialize(circuit, rng);
  }

 private:
  const q::Initializer& inner_;
};

/// The paper's six initializers, in run_paper_set's order.
struct PaperSet {
  std::vector<std::unique_ptr<q::Initializer>> owned;
  std::vector<std::unique_ptr<q::Initializer>> delayed;
  std::vector<const q::Initializer*> ptrs;
};

PaperSet paper_set() {
  PaperSet set;
  set.owned = q::paper_initializers(q::FanMode::kLayerTensor);
  for (const auto& init : set.owned) {
    if (delay_armed()) {
      set.delayed.push_back(std::make_unique<DelayedInitializer>(*init));
      set.ptrs.push_back(set.delayed.back().get());
    } else {
      set.ptrs.push_back(init.get());
    }
  }
  return set;
}

/// Unit (cell or series) durations from the runner's progress callback:
/// each executor thread completes its cells one after another, so the gap
/// since that thread's previous completion (or the pass start) is the
/// cell's duration.
class UnitClock {
 public:
  void start_pass() {
    const std::lock_guard<std::mutex> lock(mu_);
    pass_start_ = Clock::now();
    last_.clear();
  }
  void complete() {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto now = Clock::now();
    const auto id = std::this_thread::get_id();
    const auto it = last_.find(id);
    const auto from = it == last_.end() ? pass_start_ : it->second;
    durations_ms_.push_back(seconds_between(from, now) * 1e3);
    last_[id] = now;
  }
  [[nodiscard]] const std::vector<double>& durations_ms() const {
    return durations_ms_;
  }

 private:
  std::mutex mu_;
  Clock::time_point pass_start_;
  std::map<std::thread::id, Clock::time_point> last_;
  std::vector<double> durations_ms_;
};

void add_latencies(Report& r, const std::vector<double>& durations_ms) {
  const auto p50 = percentile(durations_ms, 0.5);
  const auto p90 = percentile(durations_ms, 0.9);
  require(p50.has_value() && p90.has_value(),
          "too few units for latency percentiles");
  r.add("latency_p50_ms", *p50, "ms");
  r.add("latency_p90_ms", *p90, "ms");
}

void add_json_probe(Tracer& tracer, Report& r, const q::JsonValue& value) {
  for (int rep = 0; rep < 5; ++rep) {
    std::string text;
    {
      ScopedSpan span(&tracer, "json.dump");
      text = value.dump();
    }
    ScopedSpan span(&tracer, "json.parse");
    require(q::parse_json(text).dump() == text, "JSON round trip changed bytes");
  }
  r.add("json.dump_us", span_mean(tracer, "json.dump", 1e6), "us");
  r.add("json.parse_us", span_mean(tracer, "json.parse", 1e6), "us");
}

/// Rotates the calling thread, and the executor thread it spawns (it
/// inherits the affinity), over the CPUs it may use, one step per run of
/// the serial train workload. On a shared VM the vCPUs run at persistently
/// different speeds, so an unpinned serial pass runs at the speed of
/// whichever vCPU the scheduler picked; rotating makes every run sample
/// all of them. The original mask is restored on destruction.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (::sched_getaffinity(0, sizeof(original_), &original_) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
      }
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) (void)::sched_setaffinity(0, sizeof(original_), &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins to the allowed CPU number `step` (modulo their count).
  void pin(std::size_t step) {
    if (cpus_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[step % cpus_.size()], &set);
    (void)::sched_setaffinity(0, sizeof(set), &set);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
};

/// Set-up timings. `once` performs one set-up and returns the time its lint
/// preflight took (ms). Samples are spread over the run, a few before the
/// first pass and a few after every pass, so their median sees the machine
/// in the states the measured passes saw.
struct Setups {
  explicit Setups(std::function<double()> fn) : once(std::move(fn)) {}
  std::function<double()> once;
  std::vector<double> seconds, preflight_ms;
  void sample(int count) {
    for (int k = 0; k < count; ++k) {
      const auto start = Clock::now();
      preflight_ms.push_back(once());
      seconds.push_back(seconds_since(start));
    }
  }
};
constexpr int kSetupsPerPass = 3;

// --- fig5a -------------------------------------------------------------------

q::VarianceExperimentOptions fig5a_options(const RunArgs& args) {
  q::VarianceExperimentOptions o;  // the paper's grid: q=2..10, 200, 50
  o.seed = args.seed;
  if (args.tiny) {
    o.qubit_counts = {2, 4};
    o.circuits_per_point = 4;
    o.layers = 4;
  }
  return o;
}

constexpr std::size_t kFig5aJobs = 2;

struct VarianceReplay {
  std::vector<std::vector<std::vector<double>>> samples;  ///< [qi][t]
  std::vector<std::vector<double>> cell_s;                ///< [qi][t]
  std::vector<BoundCircuit> circuits;  ///< initializer 0's, when kept
  double wall_s = 0.0;
};

/// compute_variance_cell, call for call, for every cell of the grid.
VarianceReplay replay_variance(const q::VarianceExperimentOptions& o,
                               const std::vector<const q::Initializer*>& inits,
                               Tracer* tracer, bool keep_circuits) {
  require(o.which_parameter == q::GradientParameter::kLast,
          "replay covers the paper's last-parameter gradient");
  VarianceReplay out;
  const auto start = Clock::now();
  out.samples.resize(o.qubit_counts.size());
  out.cell_s.resize(o.qubit_counts.size());
  for (std::size_t qi = 0; qi < o.qubit_counts.size(); ++qi) {
    const std::size_t nq = o.qubit_counts[qi];
    const std::string cell_span = "bp.cell.q" + std::to_string(nq);
    const std::string partial_span = "grad.partial.q" + std::to_string(nq);
    const auto observable = q::make_cost_observable(o.cost, nq);
    const q::Rng q_stream = q::Rng(o.seed).child(qi);
    for (std::size_t t = 0; t < inits.size(); ++t) {
      const auto cell_start = Clock::now();
      ScopedSpan cell(tracer, cell_span, qi * inits.size() + t);
      const auto engine = q::make_gradient_engine(o.gradient_engine);
      std::vector<double> samples(o.circuits_per_point);
      for (std::size_t i = 0; i < o.circuits_per_point; ++i) {
        const q::Rng circuit_stream = q_stream.child(2 * i);
        q::Rng structure_rng = circuit_stream.child(0);
        q::VarianceAnsatzOptions ansatz;
        ansatz.layers = o.layers;
        ansatz.entangle = o.entangle;
        ansatz.entangler = o.entangler;
        ansatz.topology = o.topology;
        std::optional<q::Circuit> circuit;
        {
          ScopedSpan span(tracer, "circuit.build");
          circuit.emplace(q::variance_ansatz(nq, structure_rng, ansatz));
        }
        q::Rng param_rng = circuit_stream.child(1 + t);
        std::vector<double> params;
        {
          ScopedSpan span(tracer, "init.draw");
          params = inits[t]->initialize(*circuit, param_rng);
        }
        {
          ScopedSpan span(tracer, partial_span);
          samples[i] = engine->partial(*circuit, *observable, params,
                                       circuit->num_parameters() - 1);
        }
        if (keep_circuits && t == 0) {
          out.circuits.push_back(BoundCircuit{*circuit, params});
        }
      }
      out.samples[qi].push_back(std::move(samples));
      out.cell_s[qi].push_back(seconds_since(cell_start));
    }
  }
  out.wall_s = seconds_since(start);
  return out;
}

void check_variance_replay(const VarianceReplay& replay,
                           const q::VarianceResult& runner) {
  for (std::size_t t = 0; t < runner.series.size(); ++t) {
    for (std::size_t qi = 0; qi < runner.series[t].points.size(); ++qi) {
      require(bitwise_equal(replay.samples[qi][t],
                            runner.series[t].points[qi].samples),
              "fig5a replay differs from the runner at cell q=" +
                  std::to_string(runner.series[t].points[qi].qubits) +
                  "/init=" + runner.series[t].initializer);
    }
  }
}

void timed_fig5a(const RunArgs& args, const q::VarianceExperiment& experiment,
                 const PaperSet& set, Setups& setups, Outcome& out) {
  const auto& o = experiment.options();
  const std::size_t cells = o.qubit_counts.size() * set.ptrs.size();
  UnitClock units;
  q::RunControl control;
  control.jobs = kFig5aJobs;
  control.progress = [&units](const q::RunProgress&) { units.complete(); };
  std::string reference;
  double busy_s = 0.0;
  std::size_t passes = 0, ok_cells = 0;
  out.calibrations_ms.push_back(calibration_ms());
  while (busy_s < args.seconds || units.durations_ms().size() <
                                      samples_needed(0.9)) {
    units.start_pass();
    const auto start = Clock::now();
    const q::VarianceResult result = experiment.run(set.ptrs, control);
    busy_s += seconds_since(start);
    out.calibrations_ms.push_back(calibration_ms());
    setups.sample(kSetupsPerPass);
    const std::string json = q::to_json(result).dump();
    if (passes == 0) reference = json;
    require(json == reference, "fig5a pass " + std::to_string(passes + 1) +
                                   " is not byte-identical to pass 1");
    ok_cells += cells - result.failures.size();
    out.attempted += cells;
    ++passes;
  }
  out.failed = out.attempted - ok_cells;
  Report& r = out.report;
  r.add("samples_per_s",
        static_cast<double>(passes * cells * o.circuits_per_point) / busy_s,
        "1/s");
  add_latencies(r, units.durations_ms());
  r.add("max_ok_rps", static_cast<double>(ok_cells) / busy_s, "1/s");
  r.add("completed_frac",
        static_cast<double>(ok_cells) / static_cast<double>(out.attempted),
        "frac");
  r.add("peak_rss_mb", process_peak_rss_mb(::getpid()), "MB");
  std::printf("fig5a: %zu passes, %zu cells, %.3f s measured\n", passes,
              out.attempted, busy_s);
}

void traced_fig5a(const q::VarianceExperimentOptions& options,
                  const PaperSet& set, Outcome& out) {
  Report& r = out.report;
  q::VarianceExperimentOptions o = options;
  o.keep_samples = true;
  out.calibrations_ms.push_back(calibration_ms());

  // The runner, untraced, at the timed run's job count.
  UnitClock units;
  q::RunControl control;
  control.jobs = kFig5aJobs;
  control.progress = [&units](const q::RunProgress&) { units.complete(); };
  units.start_pass();
  const auto start = Clock::now();
  const q::VarianceResult runner = q::VarianceExperiment(o).run(set.ptrs, control);
  const double pass_s = seconds_since(start);
  out.attempted = o.qubit_counts.size() * set.ptrs.size();
  out.failed = runner.failures.size();

  // Untraced, traced, untraced again: the overhead compares the traced
  // replay with the mean of the two around it.
  const VarianceReplay plain = replay_variance(o, set.ptrs, nullptr, false);
  check_variance_replay(plain, runner);
  Tracer tracer;
  const VarianceReplay traced = replay_variance(o, set.ptrs, &tracer, true);
  check_variance_replay(traced, runner);
  const VarianceReplay plain2 = replay_variance(o, set.ptrs, nullptr, false);
  check_variance_replay(plain2, runner);
  out.calibrations_ms.push_back(calibration_ms());

  r.add("circuit.build_us", span_mean(tracer, "circuit.build", 1e6), "us");
  r.add("init.draw_us", span_mean(tracer, "init.draw", 1e6), "us");
  const std::size_t q_max = o.qubit_counts.back();
  r.add("grad.partial_us",
        span_mean(tracer, "grad.partial.q" + std::to_string(q_max), 1e6), "us");
  double all_s = 0.0, q10_s = 0.0;
  for (std::size_t qi = 0; qi < o.qubit_counts.size(); ++qi) {
    double sum = 0.0;
    for (double s : plain.cell_s[qi]) sum += s;
    all_s += sum;
    if (o.qubit_counts[qi] == 10) q10_s = sum;
    const std::string name = "bp.cell_s.q" + std::to_string(o.qubit_counts[qi]);
    r.add(name, sum / static_cast<double>(plain.cell_s[qi].size()), "s");
  }
  r.add("bp.q10_share", q10_s / all_s, "frac");
  double busy_s = 0.0;
  for (double ms : units.durations_ms()) busy_s += ms * 1e-3;
  r.add("executor.efficiency",
        all_s / (static_cast<double>(kFig5aJobs) * pass_s), "frac");
  r.add("executor.idle_s", static_cast<double>(kFig5aJobs) * pass_s - busy_s,
        "s");
  r.add("executor.retries", 0.0, "count");  // max_cell_attempts = 1
  r.add("executor.failures", static_cast<double>(runner.failures.size()),
        "count");
  r.add("trace.overhead_frac",
        2.0 * traced.wall_s / (plain.wall_s + plain2.wall_s) - 1.0, "frac");

  // Layer probes on the replay's own circuits (initializer 0's draws).
  std::vector<const q::Circuit*> all;
  std::vector<BoundCircuit> q10, q6;
  for (const BoundCircuit& bc : traced.circuits) {
    all.push_back(&bc.circuit);
    if (bc.circuit.num_qubits() == 10 && q10.size() < 50) q10.push_back(bc);
    if (bc.circuit.num_qubits() == 6) q6.push_back(bc);
  }
  const auto observable10 = q::make_cost_observable(o.cost, 10);
  probe_plans(tracer, r, all, q10, q6, observable10.get());
  {
    ScopedSpan span(&tracer, "analysis.predict");
    std::vector<std::string> names;
    for (const auto* init : set.ptrs) names.push_back(init->name());
    (void)q::predict_variance_grid(o, names);
  }
  r.add("analysis.predict_ms", span_mean(tracer, "analysis.predict", 1e3),
        "ms");
  add_json_probe(tracer, r, q::to_json(runner));
  tracer.print_totals();
  std::printf("fig5a traced: %zu spans, runner pass %.3f s, replays %.3f / "
              "%.3f (traced) / %.3f s\n",
              tracer.spans().size(), pass_s, plain.wall_s, traced.wall_s,
              plain2.wall_s);
}

// --- train -------------------------------------------------------------------

q::TrainingExperimentOptions train_options(const RunArgs& args,
                                           const std::string& optimizer) {
  q::TrainingExperimentOptions o;  // q=10, L=5, 50 iterations, adjoint
  o.optimizer = optimizer;
  o.seed = args.seed;
  if (args.tiny) {
    o.qubits = 4;
    o.layers = 2;
    o.iterations = 5;
  }
  return o;
}

const char* const kOptimizers[] = {"gradient-descent", "adam"};

/// run_training_cell + train(), call for call, for every series.
std::vector<q::TrainResult> replay_training(
    const q::TrainingExperimentOptions& o,
    const std::vector<const q::Initializer*>& inits, Tracer* tracer,
    q::Checkpoint* checkpoint, std::vector<double>* series_s) {
  require(o.non_finite_policy == q::NonFinitePolicy::kThrow,
          "replay covers the default non-finite policy");
  std::optional<q::CostFunction> cost;
  {
    ScopedSpan span(tracer, "circuit.build");
    cost.emplace(q::make_training_cost(o));
  }
  const q::Circuit& circuit = cost->circuit();
  const std::string step_span = "opt.step." + o.optimizer;
  std::vector<q::TrainResult> out;
  for (std::size_t t = 0; t < inits.size(); ++t) {
    const auto series_start = Clock::now();
    ScopedSpan series(tracer, "bp.train_cell", t);
    const auto engine = q::make_gradient_engine(o.gradient_engine);
    const auto optimizer = q::make_optimizer(o.optimizer, o.learning_rate);
    q::Rng param_rng = q::Rng(o.seed).child(t);
    q::TrainResult res;
    {
      ScopedSpan span(tracer, "init.draw");
      res.final_params = inits[t]->initialize(circuit, param_rng);
    }
    optimizer->reset(res.final_params.size());
    {
      ScopedSpan span(tracer, "exec.plan_for");
      (void)q::exec::plan_for(circuit);
    }
    double loss = 0.0;
    {
      ScopedSpan span(tracer, "obs.cost_value");
      loss = cost->value(res.final_params);
    }
    res.initial_loss = loss;
    res.loss_history.push_back(loss);
    for (std::size_t it = 0; it < o.iterations; ++it) {
      q::ValueAndGradient vg;
      {
        ScopedSpan span(tracer, "grad.adjoint");
        vg = engine->value_and_gradient(circuit, cost->observable(),
                                        res.final_params);
      }
      double norm2 = 0.0;
      for (double g : vg.gradient) norm2 += g * g;
      res.gradient_norm_history.push_back(std::sqrt(norm2));
      {
        ScopedSpan span(tracer, step_span);
        optimizer->step(res.final_params, vg.gradient);
      }
      {
        ScopedSpan span(tracer, "obs.cost_value");
        loss = cost->value(res.final_params);
      }
      res.loss_history.push_back(loss);
      ++res.iterations;
      require(std::isfinite(loss), "training replay diverged");
    }
    res.final_loss = loss;
    if (checkpoint != nullptr) {
      ScopedSpan span(tracer, "checkpoint.record_cell", t);
      checkpoint->record_cell("init=" + inits[t]->name(),
                              q::checkpoint_cell_from_train_result(res));
    }
    if (series_s != nullptr) series_s->push_back(seconds_since(series_start));
    out.push_back(std::move(res));
  }
  return out;
}

void check_training_replay(const std::vector<q::TrainResult>& replay,
                           const q::TrainingResult& runner) {
  require(replay.size() == runner.series.size(), "training series count");
  for (std::size_t t = 0; t < replay.size(); ++t) {
    const q::TrainResult& a = replay[t];
    const q::TrainResult& b = runner.series[t].result;
    require(bitwise_equal(a.loss_history, b.loss_history) &&
                bitwise_equal(a.gradient_norm_history,
                              b.gradient_norm_history) &&
                bitwise_equal(a.final_params, b.final_params) &&
                bitwise_equal({a.initial_loss, a.final_loss},
                              {b.initial_loss, b.final_loss}) &&
                a.iterations == b.iterations,
            "train replay differs from the runner for " +
                runner.options.optimizer + "/init=" +
                runner.series[t].initializer);
  }
}

std::string checkpoint_path(const RunArgs& args, const std::string& tag) {
  return (args.scratch / (tag + ".ckpt")).string();
}

void timed_train(const RunArgs& args, const PaperSet& set, Setups& setups,
                 Outcome& out) {
  UnitClock units;
  std::string reference[2];
  double busy_s = 0.0;
  std::size_t passes = 0, ok_series = 0, steps = 0;
  CpuRotation rotation;
  out.calibrations_ms.push_back(calibration_ms());
  while (busy_s < args.seconds ||
         units.durations_ms().size() < samples_needed(0.9)) {
    for (int k = 0; k < 2; ++k) {
      rotation.pin(2 * passes + static_cast<std::size_t>(k));
      const q::TrainingExperimentOptions o = train_options(args, kOptimizers[k]);
      const std::string path =
          checkpoint_path(args, "train-" + std::to_string(passes));
      q::Checkpoint checkpoint(path, q::options_fingerprint(o));
      q::RunControl control;
      control.jobs = 1;
      control.checkpoint = &checkpoint;
      control.progress = [&units](const q::RunProgress&) { units.complete(); };
      units.start_pass();
      const auto start = Clock::now();
      const q::TrainingResult result =
          q::TrainingExperiment(o).run(set.ptrs, control);
      busy_s += seconds_since(start);
      std::filesystem::remove(path);
      const std::string json = q::to_json(result).dump();
      if (passes == 0) reference[k] = json;
      require(json == reference[k],
              std::string("train ") + kOptimizers[k] + " pass " +
                  std::to_string(passes + 1) +
                  " is not byte-identical to pass 1");
      for (const auto& s : result.series) steps += s.result.iterations;
      ok_series += result.series.size() - result.failures.size();
      out.attempted += result.series.size();
    }
    out.calibrations_ms.push_back(calibration_ms());
    setups.sample(kSetupsPerPass);
    ++passes;
  }
  out.failed = out.attempted - ok_series;
  Report& r = out.report;
  // One gradient sample (a full adjoint gradient) per optimizer step.
  r.add("samples_per_s", static_cast<double>(steps) / busy_s, "1/s");
  add_latencies(r, units.durations_ms());
  r.add("max_ok_rps", static_cast<double>(ok_series) / busy_s, "1/s");
  r.add("completed_frac",
        static_cast<double>(ok_series) / static_cast<double>(out.attempted),
        "frac");
  r.add("peak_rss_mb", process_peak_rss_mb(::getpid()), "MB");
  r.add("steps_per_s", static_cast<double>(steps) / busy_s, "1/s");
  std::printf("train: %zu passes, %zu series, %zu optimizer steps, %.3f s "
              "measured\n",
              passes, out.attempted, steps, busy_s);
}

/// Writes the replayed series into fresh stores eight more times, so the
/// flush percentiles rest on enough samples (12 + 8 x 12 >= 100).
void reflush(const RunArgs& args, const PaperSet& set,
             const std::vector<std::vector<q::TrainResult>>& replays,
             Tracer& tracer) {
  for (int round = 0; round < 8; ++round) {
    for (const auto& replay : replays) {
      q::Checkpoint store(checkpoint_path(args, "flush"), "flush-probe");
      for (std::size_t t = 0; t < replay.size(); ++t) {
        ScopedSpan span(&tracer, "checkpoint.record_cell", t);
        store.record_cell("init=" + set.ptrs[t]->name(),
                          q::checkpoint_cell_from_train_result(replay[t]));
      }
    }
  }
}

void traced_train(const RunArgs& args, const PaperSet& set, Outcome& out) {
  Report& r = out.report;
  Tracer tracer;
  out.calibrations_ms.push_back(calibration_ms());
  double runner_s = 0.0, runner_busy_s = 0.0, plain_s = 0.0, traced_s = 0.0;
  double bytes = 0.0;
  std::vector<double> series_s;
  std::vector<std::vector<q::TrainResult>> replays;
  q::TrainingResult last_runner;
  for (int k = 0; k < 2; ++k) {
    const q::TrainingExperimentOptions o = train_options(args, kOptimizers[k]);
    const std::string fp = q::options_fingerprint(o);
    UnitClock units;
    q::Checkpoint runner_store(checkpoint_path(args, "runner"), fp);
    q::RunControl control;
    control.jobs = 1;
    control.checkpoint = &runner_store;
    control.progress = [&units](const q::RunProgress&) { units.complete(); };
    units.start_pass();
    auto start = Clock::now();
    last_runner = q::TrainingExperiment(o).run(set.ptrs, control);
    runner_s += seconds_since(start);
    for (double ms : units.durations_ms()) runner_busy_s += ms * 1e-3;
    out.attempted += last_runner.series.size();
    out.failed += last_runner.failures.size();

    // Untraced, traced, untraced again: the overhead compares the traced
    // replay with the mean of the two around it.
    const auto plain_replay = [&](std::vector<double>* times) {
      q::Checkpoint store(checkpoint_path(args, "plain"), fp);
      const auto t0 = Clock::now();
      check_training_replay(replay_training(o, set.ptrs, nullptr, &store, times),
                            last_runner);
      plain_s += 0.5 * seconds_since(t0);
    };
    plain_replay(&series_s);
    const std::string traced_path = checkpoint_path(args, "traced");
    q::Checkpoint traced_store(traced_path, fp);
    start = Clock::now();
    replays.push_back(replay_training(o, set.ptrs, &tracer, &traced_store,
                                      nullptr));
    traced_s += seconds_since(start);
    check_training_replay(replays.back(), last_runner);
    bytes += static_cast<double>(std::filesystem::file_size(traced_path));
    plain_replay(nullptr);
  }
  out.calibrations_ms.push_back(calibration_ms());
  reflush(args, set, replays, tracer);
  report_checkpoint(tracer, r, bytes);

  r.add("circuit.build_us", span_mean(tracer, "circuit.build", 1e6), "us");
  r.add("init.draw_us", span_mean(tracer, "init.draw", 1e6), "us");
  r.add("grad.adjoint_us", span_mean(tracer, "grad.adjoint", 1e6), "us");
  r.add("opt.step_us.gd", span_mean(tracer, "opt.step.gradient-descent", 1e6),
        "us");
  r.add("opt.step_us.adam", span_mean(tracer, "opt.step.adam", 1e6), "us");
  double sum = 0.0;
  for (double s : series_s) sum += s;
  r.add("bp.train_cell_s", sum / static_cast<double>(series_s.size()), "s");
  r.add("executor.efficiency", runner_busy_s / runner_s, "frac");
  r.add("executor.idle_s", runner_s - runner_busy_s, "s");
  r.add("executor.retries", 0.0, "count");  // max_cell_attempts = 1
  r.add("executor.failures", static_cast<double>(out.failed), "count");
  r.add("trace.overhead_frac", traced_s / plain_s - 1.0, "frac");

  // Layer probes on the training circuit (q=10 plan) and its q=6 width.
  const q::TrainingExperimentOptions o = train_options(args, kOptimizers[0]);
  const q::CostFunction cost = q::make_training_cost(o);
  q::TrainingExperimentOptions o6 = o;
  o6.qubits = 6;
  const q::CostFunction cost6 = q::make_training_cost(o6);
  std::vector<const q::Circuit*> compiled(20, &cost.circuit());
  std::vector<BoundCircuit> q10, q6;
  for (const auto& res : replays.front()) {
    if (cost.circuit().num_qubits() == 10) {
      q10.push_back(BoundCircuit{cost.circuit(), res.final_params});
    }
    q6.push_back(BoundCircuit{
        cost6.circuit(), std::vector<double>(cost6.num_parameters(), 0.3)});
  }
  probe_plans(tracer, r, compiled, q10, q6, &cost.observable());
  add_json_probe(tracer, r, q::to_json(last_runner));
  tracer.print_totals();
  std::printf("train traced: %zu spans, runner %.3f s, replay %.3f s untraced "
              "/ %.3f s traced\n",
              tracer.spans().size(), runner_s, plain_s, traced_s);
}

}  // namespace

void probe_unexercised(const RunArgs& args, Report& r) {
  std::vector<std::string> probed;
  const auto fill = [&](const std::string& name, double value) {
    if (r.has(name)) return;
    r.add(name, value, per_layer_unit(name));
    probed.push_back(name);
  };
  Tracer tracer;
  const PaperSet set = paper_set();

  // Fig 5a layers: the paper grid with 4 circuits per cell.
  q::VarianceExperimentOptions vo;
  vo.seed = args.seed;
  vo.circuits_per_point = 4;
  const VarianceReplay grid = replay_variance(vo, set.ptrs, &tracer, true);
  fill("circuit.build_us", span_mean(tracer, "circuit.build", 1e6));
  fill("init.draw_us", span_mean(tracer, "init.draw", 1e6));
  fill("grad.partial_us",
       span_mean(tracer, "grad.partial.q" + std::to_string(vo.qubit_counts.back()),
                 1e6));
  double all_s = 0.0, q10_s = 0.0;
  for (std::size_t qi = 0; qi < vo.qubit_counts.size(); ++qi) {
    double sum = 0.0;
    for (double s : grid.cell_s[qi]) sum += s;
    all_s += sum;
    if (vo.qubit_counts[qi] == 10) q10_s = sum;
    fill("bp.cell_s.q" + std::to_string(vo.qubit_counts[qi]),
         sum / static_cast<double>(grid.cell_s[qi].size()));
  }
  fill("bp.q10_share", q10_s / all_s);
  q::RunControl control;
  control.jobs = kFig5aJobs;
  const auto start = Clock::now();
  const q::VarianceResult result = q::VarianceExperiment(vo).run(set.ptrs, control);
  const double pass_s = seconds_since(start);
  fill("executor.efficiency",
       all_s / (static_cast<double>(kFig5aJobs) * pass_s));
  fill("executor.idle_s",
       std::max(0.0, static_cast<double>(kFig5aJobs) * pass_s - all_s));
  fill("executor.retries", 0.0);
  fill("executor.failures", static_cast<double>(result.failures.size()));

  std::vector<const q::Circuit*> all;
  std::vector<BoundCircuit> q10, q6;
  for (const BoundCircuit& bc : grid.circuits) {
    all.push_back(&bc.circuit);
    if (bc.circuit.num_qubits() == 10) q10.push_back(bc);
    if (bc.circuit.num_qubits() == 6) q6.push_back(bc);
  }
  Report plans;
  const auto observable10 = q::make_cost_observable(vo.cost, 10);
  probe_plans(tracer, plans, all, q10, q6, observable10.get());
  {
    ScopedSpan span(&tracer, "analysis.predict");
    std::vector<std::string> names;
    for (const auto* init : set.ptrs) names.push_back(init->name());
    (void)q::predict_variance_grid(vo, names);
  }
  plans.add("analysis.predict_ms", span_mean(tracer, "analysis.predict", 1e3),
            "ms");
  {
    ScopedSpan span(&tracer, "analysis.preflight");
    (void)q::lint_variance_options(vo);
  }
  plans.add("analysis.preflight_ms",
            span_mean(tracer, "analysis.preflight", 1e3), "ms");
  add_json_probe(tracer, plans, q::to_json(result));
  for (const auto& [name, unit] : per_layer_metrics()) {
    if (plans.has(name)) fill(name, plans.value(name));
  }

  // Fig 5b/5c layers and checkpoint writes: the paper's training series.
  Tracer train;
  std::vector<std::vector<q::TrainResult>> series;
  double bytes = 0.0;
  for (const char* optimizer : kOptimizers) {
    const q::TrainingExperimentOptions to = train_options(args, optimizer);
    const std::string path = checkpoint_path(args, "probe");
    q::Checkpoint store(path, q::options_fingerprint(to));
    series.push_back(replay_training(to, set.ptrs, &train, &store, nullptr));
    bytes += static_cast<double>(std::filesystem::file_size(path));
  }
  fill("grad.adjoint_us", span_mean(train, "grad.adjoint", 1e6));
  fill("opt.step_us.gd", span_mean(train, "opt.step.gradient-descent", 1e6));
  fill("opt.step_us.adam", span_mean(train, "opt.step.adam", 1e6));
  fill("bp.train_cell_s", span_mean(train, "bp.train_cell", 1.0));
  reflush(args, set, series, train);
  Report store;
  report_checkpoint(train, store, bytes);
  for (const char* name : {"checkpoint.flush_ms.p50", "checkpoint.flush_ms.p90",
                           "checkpoint.bytes"}) {
    fill(name, store.value(name));
  }

  // Serve layers: a burst of tiny requests on a fresh server.
  const Report serve = probe_serve_layers(args);
  for (const auto& [name, unit] : per_layer_metrics()) {
    if (serve.has(name)) fill(name, serve.value(name));
  }

  std::string line = "probed:";
  for (const auto& name : probed) line += " " + name;
  std::printf("%s\n", line.c_str());
}

Outcome run_fig5a(const RunArgs& args) {
  Outcome out;
  const q::VarianceExperimentOptions o = fig5a_options(args);
  // Set-up: experiment construction, initializer registry, lint preflight.
  Setups setups([&o] {
    const q::VarianceExperiment experiment(o);
    const PaperSet set = paper_set();
    const auto lint_start = Clock::now();
    (void)q::lint_variance_options(o);
    return seconds_since(lint_start) * 1e3;
  });
  setups.sample(kSetups);
  const q::VarianceExperiment experiment(o);
  const PaperSet set = paper_set();
  if (args.trace) {
    out.report.add("analysis.preflight_ms", median(setups.preflight_ms), "ms");
    traced_fig5a(o, set, out);
  } else {
    timed_fig5a(args, experiment, set, setups, out);
  }
  out.report.add("setup_s", median(setups.seconds), "s");
  return out;
}

Outcome run_train(const RunArgs& args) {
  Outcome out;
  Setups setups([&args] {
    const q::TrainingExperiment gd(train_options(args, kOptimizers[0]));
    const q::TrainingExperiment adam(train_options(args, kOptimizers[1]));
    const PaperSet set = paper_set();
    const auto lint_start = Clock::now();
    (void)q::lint_training_options(gd.options());
    (void)q::lint_training_options(adam.options());
    return seconds_since(lint_start) * 1e3;
  });
  setups.sample(kSetups);
  const PaperSet set = paper_set();
  if (args.trace) {
    out.report.add("analysis.preflight_ms", median(setups.preflight_ms), "ms");
    traced_train(args, set, out);
  } else {
    timed_train(args, set, setups, out);
  }
  out.report.add("setup_s", median(setups.seconds), "s");
  return out;
}

}  // namespace qbench
