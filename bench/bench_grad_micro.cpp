// Micro-benchmarks of the gradient engines: full-gradient cost as a
// function of parameter count. Parameter-shift scales as 2P circuit
// simulations; adjoint as a constant number of sweeps — the reason the
// training experiments default to adjoint while the variance analysis
// (one partial derivative per circuit) uses parameter-shift like the
// paper.
#include <algorithm>
#include <chrono>
#include <vector>

#include "bench_common.hpp"
#include "qbarren/analysis/plan_verify.hpp"
#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/exec/batched.hpp"
#include "qbarren/exec/compiled_circuit.hpp"
#include "qbarren/grad/engine.hpp"
#include "qbarren/obs/observable.hpp"

namespace {

using namespace qbarren;

struct Setup {
  Circuit circuit;
  GlobalZeroObservable observable;
  std::vector<double> params;

  explicit Setup(std::size_t qubits, std::size_t layers)
      : circuit(make_circuit(qubits, layers)), observable(qubits) {
    Rng rng(5);
    params = rng.uniform_vector(circuit.num_parameters(), 0.0, 2.0 * M_PI);
  }

  static Circuit make_circuit(std::size_t qubits, std::size_t layers) {
    TrainingAnsatzOptions options;
    options.layers = layers;
    return training_ansatz(qubits, options);
  }
};

void bm_full_gradient(benchmark::State& state, const char* engine_name) {
  const Setup setup(static_cast<std::size_t>(state.range(0)),
                    static_cast<std::size_t>(state.range(1)));
  const auto engine = make_gradient_engine(engine_name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine->gradient(setup.circuit, setup.observable, setup.params)
            .data());
  }
  state.SetLabel(std::to_string(setup.circuit.num_parameters()) + " params");
}

void bm_parameter_shift(benchmark::State& state) {
  bm_full_gradient(state, "parameter-shift");
}
void bm_adjoint(benchmark::State& state) { bm_full_gradient(state, "adjoint"); }
void bm_finite_difference(benchmark::State& state) {
  bm_full_gradient(state, "finite-difference");
}
void bm_spsa(benchmark::State& state) { bm_full_gradient(state, "spsa"); }

BENCHMARK(bm_parameter_shift)
    ->Args({4, 2})->Args({8, 4})->Args({10, 5})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_adjoint)
    ->Args({4, 2})->Args({8, 4})->Args({10, 5})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_finite_difference)
    ->Args({4, 2})->Args({8, 4})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_spsa)
    ->Args({4, 2})->Args({10, 5})
    ->Unit(benchmark::kMillisecond);

void bm_single_partial_parameter_shift(benchmark::State& state) {
  // The variance experiment's unit of work: one partial derivative of the
  // last parameter.
  const Setup setup(static_cast<std::size_t>(state.range(0)), 5);
  const ParameterShiftEngine engine;
  const std::size_t last = setup.circuit.num_parameters() - 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.partial(setup.circuit, setup.observable, setup.params, last));
  }
}
BENCHMARK(bm_single_partial_parameter_shift)->Arg(4)->Arg(10)
    ->Unit(benchmark::kMicrosecond);

// --- batched vs serial parameter-shift ---------------------------------------
//
// The batched dispatcher evaluates all 2P shifted bindings of a full
// parameter-shift gradient in one monotonic walk of the kernel-op stream
// (chunked to the lane cap), instead of a fresh prefix simulation per
// parameter. This bench sweeps the lane cap B and reports the "serial"
// wall-clock of a per-parameter partial() loop (one prefix simulation and
// one +/- pair per parameter), the batched gradient's wall-clock, the
// speedup, states-per-second throughput, and the static cost model's
// prediction at batch=B. CI's bench-smoke step uploads the counters.

void bm_batched_parameter_shift(benchmark::State& state) {
  const Setup setup(6, 40);  // deep HEA: q=6, L=40, P=480
  const auto plan = exec::plan_for(setup.circuit);
  const ParameterShiftEngine engine;
  const std::size_t lanes = static_cast<std::size_t>(state.range(0));
  using Clock = std::chrono::steady_clock;
  double serial_seconds = 0.0;
  double batched_seconds = 0.0;
  const std::size_t num_params = setup.circuit.num_parameters();
  const auto serial_gradient = [&] {
    std::vector<double> grad(num_params);
    for (std::size_t i = 0; i < num_params; ++i) {
      grad[i] = engine.partial(setup.circuit, setup.observable, setup.params,
                               i);
    }
    return grad;
  };
  // Untimed warmup of both paths (cold caches, lazy statics).
  benchmark::DoNotOptimize(serial_gradient().data());
  {
    exec::ScopedBatchLimit limit(lanes);
    benchmark::DoNotOptimize(
        engine.gradient(setup.circuit, setup.observable, setup.params)
            .data());
  }
  // Alternate serial and batched within each rep so machine-load drift
  // hits both paths evenly instead of biasing whichever ran later.
  constexpr int kReps = 5;
  for (auto _ : state) {
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = Clock::now();
      benchmark::DoNotOptimize(serial_gradient().data());
      const auto t1 = Clock::now();
      {
        exec::ScopedBatchLimit limit(lanes);
        benchmark::DoNotOptimize(
            engine.gradient(setup.circuit, setup.observable, setup.params)
                .data());
      }
      const auto t2 = Clock::now();
      serial_seconds += std::chrono::duration<double>(t1 - t0).count();
      batched_seconds += std::chrono::duration<double>(t2 - t1).count();
    }
  }
  const double n = static_cast<double>(state.iterations()) * kReps;
  const double shifted_bindings = 2.0 * static_cast<double>(num_params);
  state.counters["batch"] = static_cast<double>(lanes);
  state.counters["serial_seconds"] = serial_seconds / n;
  state.counters["batched_seconds"] = batched_seconds / n;
  state.counters["batched_speedup"] =
      batched_seconds > 0.0 ? serial_seconds / batched_seconds : 0.0;
  // Shifted-binding simulations completed per second of batched execution.
  state.counters["states_per_second"] =
      batched_seconds > 0.0 ? shifted_bindings * n / batched_seconds : 0.0;
  const PlanResourceEstimate estimate = estimate_plan_resources(*plan, lanes);
  state.counters["plan_flops"] = estimate.flops;
  state.counters["plan_bytes"] = estimate.bytes;
  state.counters["plan_shared_bytes"] = estimate.shared_bytes;
  state.SetLabel("q=6 L=40 parameter-shift full gradient, batched vs serial");
}
BENCHMARK(bm_batched_parameter_shift)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

// --- adjoint pass vs forward pass ---------------------------------------------
//
// The training experiments' unit of work is one adjoint value-and-gradient
// on the Eq 3 ansatz (q=10, L=5, global cost). This bench times it against
// one plan->simulate of the same plan, alternating the two in each
// repeat, and reports adjoint_speed_ratio = simulate time / adjoint time,
// the median over the repeats. Both sides run in the same process on the
// same kernels, so the ratio transfers across machines; CI's bench-smoke
// step gates on it (a slower sweep lowers it).

void bm_adjoint_speed_ratio(benchmark::State& state) {
  const Setup setup(10, 5);
  const auto plan = exec::plan_for(setup.circuit);
  std::vector<double> gradient(setup.params.size());
  const auto simulate = [&] {
    benchmark::DoNotOptimize(plan->simulate(setup.params).amplitudes().data());
  };
  const auto adjoint = [&] {
    std::fill(gradient.begin(), gradient.end(), 0.0);
    benchmark::DoNotOptimize(plan->adjoint_value_and_gradient(
        setup.observable, setup.params, gradient));
  };
  using Clock = std::chrono::steady_clock;
  constexpr int kCalls = 50;
  const auto seconds_per_call = [&](const auto& call) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) call();
    return std::chrono::duration<double>(Clock::now() - t0).count() / kCalls;
  };
  seconds_per_call(simulate);  // untimed warmup
  seconds_per_call(adjoint);
  constexpr int kReps = 7;
  std::vector<double> simulate_s;
  std::vector<double> adjoint_s;
  std::vector<double> ratios;
  for (auto _ : state) {
    for (int rep = 0; rep < kReps; ++rep) {
      simulate_s.push_back(seconds_per_call(simulate));
      adjoint_s.push_back(seconds_per_call(adjoint));
      ratios.push_back(simulate_s.back() / adjoint_s.back());
    }
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  state.counters["simulate_seconds"] = median(simulate_s);
  state.counters["adjoint_seconds"] = median(adjoint_s);
  state.counters["adjoint_speed_ratio"] = median(ratios);
  state.SetLabel("q=10 L=5 training ansatz, adjoint pass vs forward pass");
}
BENCHMARK(bm_adjoint_speed_ratio)->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// --- plan verification overhead ---------------------------------------------
//
// The --verify-plans flag adds one verify_plan() call per fresh lowering.
// This bench times compilation and verification of the same circuit
// separately and reports both plus their ratio. Both are one-time
// microsecond-scale costs amortized over thousands of plan applications;
// the counters keep the verifier honest as checks grow (today it costs
// ~2x the — very cheap — compile step, i.e. microseconds per plan).

void bm_plan_verify(benchmark::State& state) {
  const Setup setup(static_cast<std::size_t>(state.range(0)),
                    static_cast<std::size_t>(state.range(1)));
  using Clock = std::chrono::steady_clock;
  double compile_seconds = 0.0;
  double verify_seconds = 0.0;
  std::size_t findings = 0;
  for (auto _ : state) {
    const auto t0 = Clock::now();
    const auto plan = exec::CompiledCircuit::compile(setup.circuit);
    const auto t1 = Clock::now();
    const Diagnostics diagnostics = verify_plan(setup.circuit, *plan);
    const auto t2 = Clock::now();
    benchmark::DoNotOptimize(diagnostics.size());
    compile_seconds += std::chrono::duration<double>(t1 - t0).count();
    verify_seconds += std::chrono::duration<double>(t2 - t1).count();
    findings = diagnostics.size();
  }
  const double n = static_cast<double>(state.iterations());
  state.counters["compile_seconds"] = compile_seconds / n;
  state.counters["verify_seconds"] = verify_seconds / n;
  state.counters["verify_over_compile"] =
      compile_seconds > 0.0 ? verify_seconds / compile_seconds : 0.0;
  state.counters["verify_findings"] = static_cast<double>(findings);
  state.SetLabel("verify_plan vs compile, one plan");
}
BENCHMARK(bm_plan_verify)
    ->Args({4, 2})->Args({10, 5})->Args({6, 40})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
