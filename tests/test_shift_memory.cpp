// Memory bounds of the shift-rule path: how many register-sized blocks a
// partial or gradient holds at once. This binary replaces the global
// operator new/delete to count live allocations of at least one state's
// bytes while a probe is armed, so it is kept apart from the other tests.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include "qbarren/circuit/circuit.hpp"
#include "qbarren/exec/batched.hpp"
#include "qbarren/exec/compiled_circuit.hpp"
#include "qbarren/grad/engine.hpp"
#include "qbarren/obs/observable.hpp"

namespace {

std::atomic<std::size_t> g_threshold{0};  ///< 0 = probe disarmed
std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};
std::atomic<std::size_t> g_largest{0};

void note_alloc(std::size_t bytes) noexcept {
  const std::size_t threshold = g_threshold.load(std::memory_order_relaxed);
  if (threshold == 0 || bytes < threshold) return;
  const std::size_t live = g_live.fetch_add(1) + 1;
  g_peak.store(std::max(g_peak.load(), live));
  g_largest.store(std::max(g_largest.load(), bytes));
}

void note_free(void* p) noexcept {
  const std::size_t threshold = g_threshold.load(std::memory_order_relaxed);
  if (p == nullptr || threshold == 0) return;
  if (malloc_usable_size(p) >= threshold && g_live.load() > 0) {
    g_live.fetch_sub(1);
  }
}

/// Register-sized blocks seen while a probe is alive: the most live at
/// once and the largest single block.
class StateProbe {
 public:
  explicit StateProbe(std::size_t state_bytes) {
    g_live = 0;
    g_peak = 0;
    g_largest = 0;
    g_threshold = state_bytes;
  }
  ~StateProbe() { g_threshold = 0; }
  StateProbe(const StateProbe&) = delete;
  StateProbe& operator=(const StateProbe&) = delete;

  [[nodiscard]] std::size_t peak() const { return g_peak.load(); }
  [[nodiscard]] std::size_t largest() const { return g_largest.load(); }
};

}  // namespace

void* operator new(std::size_t bytes) {
  void* p = std::malloc(bytes == 0 ? 1 : bytes);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(bytes);
  return p;
}

// GCC pairs the std::free below with the operator new call it sees
// inlined at delete sites and warns; both replacements use malloc/free.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void operator delete(void* p) noexcept {
  note_free(p);
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept {
  note_free(p);
  std::free(p);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace qbarren {
namespace {

std::size_t state_bytes(std::size_t qubits) {
  return sizeof(Complex) << qubits;
}

// H, a controlled rotation (four-term rule, param 0), a rotation (param 1).
Circuit two_parameter_circuit(std::size_t qubits) {
  Circuit c(qubits);
  c.add_hadamard(0);
  c.add_controlled_rotation(gates::Axis::kY, 0, 1);
  c.add_rotation(gates::Axis::kX, 2);
  return c;
}

TEST(ShiftMemory, LaneCapOnePartialHoldsTwoStates) {
  // At cap 1 every shifted binding runs on the scratch state: the base and
  // the scratch are the only register-sized blocks, with no batch
  // allocation, for both the two-term and the four-term rule.
  const std::size_t qubits = 12;
  const Circuit c = two_parameter_circuit(qubits);
  (void)exec::plan_for(c);
  const GlobalZeroObservable observable(qubits);
  const std::vector<double> params{0.7, -0.4};
  const ParameterShiftEngine ps;
  const FiniteDifferenceEngine fd;
  exec::ScopedBatchLimit scoped(1);
  for (const std::size_t param : {0u, 1u}) {
    StateProbe probe(state_bytes(qubits));
    (void)ps.partial(c, observable, params, param);
    (void)fd.partial(c, observable, params, param);
    EXPECT_EQ(probe.peak(), 2u) << "param " << param;
    EXPECT_EQ(probe.largest(), state_bytes(qubits)) << "param " << param;
  }
  StateProbe probe(state_bytes(qubits));
  (void)ps.gradient(c, observable, params);
  EXPECT_EQ(probe.peak(), 2u);
  EXPECT_EQ(probe.largest(), state_bytes(qubits));
}

TEST(ShiftMemory, WiderCapBatchesAFourTermGroupInOneAllocation) {
  // The probe sees batch allocations: at cap 4 the four-term group is one
  // 4-lane block next to the base and the scratch.
  const std::size_t qubits = 12;
  const Circuit c = two_parameter_circuit(qubits);
  (void)exec::plan_for(c);
  const GlobalZeroObservable observable(qubits);
  const std::vector<double> params{0.7, -0.4};
  exec::ScopedBatchLimit scoped(4);
  StateProbe probe(state_bytes(qubits));
  (void)ParameterShiftEngine().partial(c, observable, params, 0);
  EXPECT_EQ(probe.peak(), 3u);
  EXPECT_EQ(probe.largest(), 4 * state_bytes(qubits));
}

TEST(ShiftMemory, AutoLanesAtTwentyQubitsHoldTwoStates) {
  // Auto counts the base and scratch against kAutoBatchBytes, so a q=20
  // gradient (16 MiB states) runs one lane at a time in 32 MiB.
  const std::size_t qubits = 20;
  const Circuit c = two_parameter_circuit(qubits);
  (void)exec::plan_for(c);
  const GlobalZeroObservable observable(qubits);
  const std::vector<double> params{0.7, -0.4};
  exec::ScopedBatchLimit scoped(exec::kBatchAuto);
  StateProbe probe(state_bytes(qubits));
  (void)ParameterShiftEngine().gradient(c, observable, params);
  EXPECT_EQ(probe.peak(), 2u);
  EXPECT_LE(probe.peak() * state_bytes(qubits), exec::kAutoBatchBytes);
}

}  // namespace
}  // namespace qbarren
