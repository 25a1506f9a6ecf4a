// Allocation-free state-vector kernels for compiled execution.
//
// Each kernel computes, amplitude for amplitude, the same values as the
// corresponding StateVector member (apply_single_qubit / apply_controlled
// / apply_cz / apply_two_qubit / inner_product): the same complex
// arithmetic per amplitude, so compiled execution is bit-identical to the
// interpreted path. Every loop runs in the shared, vectorized kernel core
// (qbarren/exec/kernel_core.hpp), which walks the amplitude pairs in
// contiguous runs rather than the interpreter's order — in-place updates
// of disjoint pairs do not depend on order, and the adjoint sweep's inner
// product is still summed in ascending index. The other differences
// are that the 2x2 entries live on the stack (no heap-allocated
// ComplexMatrix per gate application), that fused runs apply all their
// gates to one L1-sized chunk of amplitudes before the next, and that the
// out-of-place variants avoid the full-vector copy the adjoint sweep
// otherwise pays per parameter.
#pragma once

#include <cstdint>

#include "qbarren/qsim/gates.hpp"
#include "qbarren/qsim/statevector.hpp"

namespace qbarren::exec {

/// state <- (U on target) state, with U given as stack entries.
void apply_mat2(StateVector& state, const gates::Mat2& u, std::size_t target);

/// Applies pool[indices[0]], pool[indices[1]], ... (reversed index order
/// when `reverse`) to `target` in one kernel call: every gate runs over
/// one L1-sized chunk of the amplitudes before the next chunk is loaded.
/// Bit-identical to applying the same matrices one at a time.
void apply_mat2_run(StateVector& state, const gates::Mat2* pool,
                    const std::uint32_t* indices, std::size_t count,
                    bool reverse, std::size_t target);

/// Controlled 2x2 (applied where `control` is |1>), as apply_controlled.
void apply_controlled_mat2(StateVector& state, const gates::Mat2& u,
                           std::size_t control, std::size_t target);

/// Parameterized rotation R_axis(theta) on `target`. RZ takes a diagonal
/// fast path: its off-diagonal entries are exact zeros, so dropping their
/// products cannot change any finite amplitude.
void apply_rotation(StateVector& state, gates::Axis axis, double theta,
                    std::size_t target);

/// Controlled rotation (control, target), as the interpreted path's
/// apply_controlled(rotation(axis, theta), control, target).
void apply_controlled_rotation(StateVector& state, gates::Axis axis,
                               double theta, std::size_t control,
                               std::size_t target);

/// As apply_rotation, but with the rotation entries already computed (the
/// adjoint sweep evaluates them once and applies them several times). RZ
/// entries take the same diagonal fast path.
void apply_rotation_mat2(StateVector& state, gates::Axis axis,
                         const gates::Mat2& u, std::size_t target);

/// Applies u_first then u_second to `target` as a two-gate apply_mat2_run
/// — bit-identical to two apply_mat2 calls. HEA layers interleave
/// same-qubit rotation pairs (RX then RY), so the adjoint forward pass
/// hits this constantly.
void apply_mat2_pair(StateVector& state, const gates::Mat2& u_first,
                     const gates::Mat2& u_second, std::size_t target);

/// CZ on (a, b): negates the quarter of the amplitudes with both qubit
/// bits set, enumerating that subspace directly instead of scanning the
/// whole vector with a branch. Negation is exact, so the result is
/// bit-identical to StateVector::apply_cz.
void apply_cz(StateVector& state, std::size_t qubit_a, std::size_t qubit_b);

/// dst <- (U on target) src, out of place: every amplitude of dst is
/// written from src, so no prior copy of src into dst is needed.
/// Dimensions must match.
void apply_mat2_from(StateVector& dst, const StateVector& src,
                     const gates::Mat2& u, std::size_t target);

/// In-place 4x4 on (q_low, q_high) (matrix bit 0 = q_low), with
/// StateVector::apply_two_qubit's row-accumulation order.
void apply_mat4(StateVector& state, const ComplexMatrix& u, std::size_t q_low,
                std::size_t q_high);

/// Out-of-place 4x4 apply mirroring apply_two_qubit's accumulation order
/// (matrix bit 0 = q_low). Dimensions must match.
void apply_mat4_from(StateVector& dst, const StateVector& src,
                     const Complex (&m)[4][4], std::size_t q_low,
                     std::size_t q_high);

/// One combined adjoint-sweep step for a rotation op: applies `inv` to phi
/// in place, returns <lambda | dr | inv phi> (lambda read before its own
/// update), and applies `inv` to lambda in place — the three passes the
/// sweep otherwise makes per parameter, in one walk over the amplitudes.
/// Per-amplitude expressions and the inner product's ascending-index
/// accumulation order match the separate kernels exactly. RZ takes the
/// diagonal fast path for all three roles.
[[nodiscard]] Complex adjoint_rotation_sweep(StateVector& phi,
                                             StateVector& lambda,
                                             gates::Axis axis,
                                             const gates::Mat2& inv,
                                             const gates::Mat2& dr,
                                             std::size_t target);

}  // namespace qbarren::exec
