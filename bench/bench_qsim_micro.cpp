// Micro-benchmarks of the state-vector simulator kernels that dominate the
// reproduction workload. No reproduction payload — pure google-benchmark.
//
// The bm_core_* rows time the compiled-execution kernel core through each
// of its builds (entry 0 = scalar, 1 = AVX2) and report, beside the
// measured amplitudes/s (items_per_second), the QB010 byte model's bytes
// per amplitude and the bound it implies: the rate of an in-place stream
// over a working set of the same size, divided by those bytes.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <vector>

#include "bench_common.hpp"
#include "qbarren/analysis/plan_verify.hpp"
#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/common/rng.hpp"
#include "qbarren/exec/compiled_circuit.hpp"
#include "qbarren/exec/kernel_core.hpp"
#include "qbarren/qsim/gates.hpp"
#include "qbarren/qsim/statevector.hpp"

namespace {

using namespace qbarren;

void bm_single_qubit_gate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  StateVector s(n);
  const ComplexMatrix u = gates::ry(0.3);
  std::size_t target = 0;
  for (auto _ : state) {
    s.apply_single_qubit(u, target);
    target = (target + 1) % n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.dimension()));
}
BENCHMARK(bm_single_qubit_gate)->Arg(4)->Arg(10)->Arg(16)->Arg(20);

void bm_cz_gate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  StateVector s(n);
  std::size_t q = 0;
  for (auto _ : state) {
    s.apply_cz(q, q + 1);
    q = (q + 1) % (n - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.dimension()));
}
BENCHMARK(bm_cz_gate)->Arg(4)->Arg(10)->Arg(16)->Arg(20);

void bm_two_qubit_generic(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  StateVector s(n);
  const ComplexMatrix u = gates::crz(0.7);
  for (auto _ : state) {
    s.apply_two_qubit(u, 0, n - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.dimension()));
}
BENCHMARK(bm_two_qubit_generic)->Arg(4)->Arg(10)->Arg(16);

void bm_simulate_training_ansatz(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  TrainingAnsatzOptions options;
  options.layers = 5;
  const Circuit circuit = training_ansatz(n, options);
  Rng rng(1);
  const auto params =
      rng.uniform_vector(circuit.num_parameters(), 0.0, 2.0 * M_PI);
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit.simulate(params).norm_squared());
  }
  state.SetLabel(std::to_string(circuit.num_operations()) + " gates");
}
BENCHMARK(bm_simulate_training_ansatz)->Arg(4)->Arg(10)->Arg(14)
    ->Unit(benchmark::kMicrosecond);

void bm_simulate_deep_variance_ansatz(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng structure_rng(2);
  VarianceAnsatzOptions options;
  options.layers = 50;
  const Circuit circuit = variance_ansatz(n, structure_rng, options);
  Rng rng(3);
  const auto params =
      rng.uniform_vector(circuit.num_parameters(), 0.0, 2.0 * M_PI);
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit.simulate(params).norm_squared());
  }
  state.SetLabel(std::to_string(circuit.num_operations()) + " gates");
}
BENCHMARK(bm_simulate_deep_variance_ansatz)->Arg(4)->Arg(10)
    ->Unit(benchmark::kMicrosecond);

void bm_probability_readout(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  StateVector s(n);
  s.apply_single_qubit(gates::hadamard(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.probability_one(0));
  }
}
BENCHMARK(bm_probability_readout)->Arg(10)->Arg(20);

// --- exec kernel core, both builds, next to the QB010 byte-model bound ------

/// Bytes/s (read + write) of an in-place memmove over a 2^q-amplitude
/// buffer (shifted by one amplitude; glibc picks its widest vector copy at
/// run time), best of several timed batches: the streaming rate of the
/// in-place kernels' access pattern at the same working-set size.
/// Measured once per q.
double stream_bytes_per_second(std::size_t q) {
  static std::map<std::size_t, double> cache;
  const auto hit = cache.find(q);
  if (hit != cache.end()) return hit->second;
  const std::size_t bytes = (std::size_t{1} << q) * sizeof(Complex);
  std::vector<char> buffer(bytes + sizeof(Complex), 1);
  benchmark::DoNotOptimize(buffer.data());
  const std::size_t reps = std::max<std::size_t>(1, (std::size_t{1} << 26) / bytes);
  double best = 0.0;
  for (int batch = 0; batch < 5; ++batch) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
      std::memmove(buffer.data(), buffer.data() + sizeof(Complex), bytes);
      benchmark::ClobberMemory();
    }
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    best = std::max(best, 2.0 * static_cast<double>(bytes * reps) / s);
  }
  return cache[q] = best;
}

const exec::core::KernelTable* core_entry(benchmark::State& state) {
  const exec::core::KernelTable* table =
      state.range(0) == 0 ? &exec::core::scalar_kernels()
                          : exec::core::avx2_kernels();
  if (table == nullptr) state.SkipWithError("AVX2 core not available");
  return table;
}

/// Records amplitudes/s and the byte-model bound for a row whose every
/// iteration applies `circuit`'s single plan op once.
void report_core_row(benchmark::State& state, const Circuit& circuit,
                     std::size_t q) {
  const auto plan = exec::CompiledCircuit::compile(circuit);
  const double amps = static_cast<double>(std::size_t{1} << q);
  const double model_bytes = estimate_plan_resources(*plan).bytes / amps;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(amps));
  state.counters["model_B_per_amp"] = model_bytes;
  state.counters["bound_amp_per_s"] =
      stream_bytes_per_second(q) / model_bytes;
}

/// RY on a rotating target: the core's dense 2x2 entry (every plan
/// rotation except RZ).
void bm_core_rotation(benchmark::State& state) {
  const exec::core::KernelTable* k = core_entry(state);
  if (k == nullptr) return;
  const auto q = static_cast<std::size_t>(state.range(1));
  StateVector s(q);
  const gates::Mat2 u = gates::rotation_entries(gates::Axis::kY, 0.3);
  auto* amps = reinterpret_cast<double*>(s.amplitudes().data());
  benchmark::DoNotOptimize(s.amplitudes().data());
  std::size_t target = 0;
  for (auto _ : state) {
    k->mat2(amps, s.dimension(), reinterpret_cast<const double*>(&u),
            target);
    benchmark::ClobberMemory();
    target = (target + 1) % q;
  }
  Circuit c(q);
  c.add_rotation(gates::Axis::kY, 0);
  report_core_row(state, c, q);
}
BENCHMARK(bm_core_rotation)->ArgsProduct({{0, 1}, {4, 10, 16, 20}});

/// RZ: the core's diagonal entry.
void bm_core_rz(benchmark::State& state) {
  const exec::core::KernelTable* k = core_entry(state);
  if (k == nullptr) return;
  const auto q = static_cast<std::size_t>(state.range(1));
  StateVector s(q);
  const gates::Mat2 u = gates::rotation_entries(gates::Axis::kZ, 0.3);
  auto* amps = reinterpret_cast<double*>(s.amplitudes().data());
  benchmark::DoNotOptimize(s.amplitudes().data());
  std::size_t target = 0;
  for (auto _ : state) {
    k->diag(amps, s.dimension(), reinterpret_cast<const double*>(&u),
            target);
    benchmark::ClobberMemory();
    target = (target + 1) % q;
  }
  Circuit c(q);
  c.add_rotation(gates::Axis::kZ, 0);
  report_core_row(state, c, q);
}
BENCHMARK(bm_core_rz)->ArgsProduct({{0, 1}, {4, 10, 16, 20}});

/// CZ on a rotating neighbour pair: negates a quarter of the amplitudes.
void bm_core_cz(benchmark::State& state) {
  const exec::core::KernelTable* k = core_entry(state);
  if (k == nullptr) return;
  const auto q = static_cast<std::size_t>(state.range(1));
  StateVector s(q);
  auto* amps = reinterpret_cast<double*>(s.amplitudes().data());
  benchmark::DoNotOptimize(s.amplitudes().data());
  std::size_t a = 0;
  for (auto _ : state) {
    k->cz(amps, s.dimension(), a, a + 1);
    benchmark::ClobberMemory();
    a = (a + 1) % (q - 1);
  }
  Circuit c(q);
  c.add_cz(0, 1);
  report_core_row(state, c, q);
}
BENCHMARK(bm_core_cz)->ArgsProduct({{0, 1}, {4, 10, 16, 20}});

}  // namespace

BENCHMARK_MAIN();
