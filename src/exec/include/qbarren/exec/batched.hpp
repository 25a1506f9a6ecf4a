// Batched execution: the lane cap and the batched shift evaluator.
//
// Batching never changes results — every batched path is byte-identical
// to evaluating each binding on its own — so the lane cap is a
// process-wide execution knob, NOT a field of the experiment option
// structs: it stays out of the determinism fingerprints and the serve wire
// format by construction, exactly as VarianceExperimentOptions
// deliberately excludes keep_samples.
//
// Semantics of the limit:
//   0  — auto (the default): each consumer picks a width from its workload
//        shape (shift-rule gradients chunk their shifted bindings,
//        landscape rows batch a grid row), at most kAutoBatchLanes lanes
//        and, where one lane allows it, at most kAutoBatchBytes of lane
//        and resident state amplitudes
//   B>=1 — at most B lanes per dispatch (1 evaluates one binding at a time)
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "qbarren/exec/compiled_circuit.hpp"

namespace qbarren::exec {

/// Auto: consumers derive the width from their workload shape.
inline constexpr std::size_t kBatchAuto = 0;
/// Lane cap consumers use when resolving kBatchAuto: wide enough to
/// amortize matrix fetch and trig, small enough that a batch of deep-HEA
/// lanes stays cache-resident.
inline constexpr std::size_t kAutoBatchLanes = 32;
/// Amplitude bytes an auto-resolved batch may hold, counting the states
/// its consumer keeps besides the lanes ((lanes + resident) x 2^q x 16 B):
/// 32 lanes up to q=15, then shrinking with each qubit to one lane from
/// q=20, so a wide register does not multiply its serial footprint by 32.
inline constexpr std::size_t kAutoBatchBytes = std::size_t{32} << 20;

/// Sets the process-wide batch limit (see the semantics above).
void set_batch_limit(std::size_t limit) noexcept;
[[nodiscard]] std::size_t batch_limit() noexcept;

/// Lane count a consumer should use for a workload that naturally has
/// `natural` independent bindings on a `num_qubits`-wide register while
/// holding `resident_states` other states of that width: under
/// kBatchAuto, min(natural, kAutoBatchLanes, kAutoBatchBytes / (2^q x 16
/// B) - resident_states); otherwise min(natural, limit); at least 1.
[[nodiscard]] std::size_t resolve_batch_lanes(
    std::size_t limit, std::size_t natural, std::size_t num_qubits,
    std::size_t resident_states) noexcept;

/// RAII guard: sets the process-wide batch limit, restores the prior
/// value. The CLI's --batch flag and the tests scope the lane cap with
/// this.
class ScopedBatchLimit {
 public:
  explicit ScopedBatchLimit(std::size_t limit);
  ~ScopedBatchLimit();
  ScopedBatchLimit(const ScopedBatchLimit&) = delete;
  ScopedBatchLimit& operator=(const ScopedBatchLimit&) = delete;

 private:
  std::size_t previous_;
};

/// One shifted evaluation: the cost at `params` with
/// params[param] += delta.
struct ShiftSpec {
  std::size_t param = 0;
  double delta = 0.0;
};

/// Evaluates every spec's shifted cost in batched chunks, byte-identical
/// to simulating each shifted parameter vector from |0...0>: one base
/// state is advanced through the op stream with the unshifted parameters;
/// at each spec's consuming op a lane is branched off (copy of the base,
/// shifted op applied), and every subsequent op is applied to all live
/// lanes with its rotation entries computed once per op instead of once
/// per lane. Specs are chunked so at most resolve_batch_lanes(
/// batch_limit(), specs.size(), plan.num_qubits(), 2) lanes are live at a
/// time besides the base and one scratch state. A chunk takes whole
/// parameter groups while they fit (a 4-term group stays in one chunk at
/// any cap of 4 or more); a group wider than the cap is cut into pieces
/// of the cap. A chunk of one lane runs on the scratch state without a
/// batch allocation, so a lane cap of 1 holds two states in all.
/// Parameters without a unique consuming op (shared parameters,
/// defensive) are evaluated one at a time on the whole program. Results
/// are returned in spec order. This is the only shifted-evaluation path of
/// the shift-rule gradient engines.
[[nodiscard]] std::vector<double> shifted_expectations(
    const CompiledCircuit& plan, const Observable& observable,
    std::span<const double> params, std::span<const ShiftSpec> specs);

}  // namespace qbarren::exec
