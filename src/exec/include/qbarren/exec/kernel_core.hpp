// The amplitude-kernel core shared by serial and batched execution.
//
// Every amplitude kernel of compiled execution runs through one of these
// entry tables: the serial kernels (qbarren/exec/kernels.hpp, including
// the adjoint sweep's combined step) call the active table on a
// StateVector's amplitudes, and the batched kernels
// (qbarren/exec/batched_kernels.hpp) call it once per lane.
//
// The core is one source built twice — for baseline x86-64 and, on x86-64,
// for AVX2 without FMA — and the AVX2 build is chosen once per process
// from CPUID. Both builds evaluate the same per-amplitude expressions as
// the std::complex StateVector interpreter (the naive component formula
// of its finite-path multiply, each product and sum rounded on its own),
// so every amplitude is bit-identical whichever build runs; see DESIGN.md
// ("Execution layer: the kernel core").
//
// Production code calls the kernels.hpp / batched_kernels.hpp wrappers;
// tests and benchmarks include this header to reach each build directly.
#pragma once

#include <cstddef>
#include <cstdint>

namespace qbarren::exec::core {

/// Entry points of one build of the core. Amplitude arrays hold `dim`
/// complex amplitudes as interleaved (re, im) doubles — the layout of a
/// std::complex<double> array. `dim` is a multiple of 2^(q+1) for every
/// qubit q the call names: one register, or several whole registers
/// back to back (the batched kernels apply a uniform gate to all their
/// lanes in one call). A 2x2 matrix is 8 doubles in the layout of
/// gates::Mat2 (m00, m01, m10, m11); a 4x4 matrix is 32 doubles, row-major
/// with matrix bit 0 = q_low. Qubit indices are in range and distinct
/// (validated when a plan is compiled, not per call).
struct KernelTable {
  /// U on `target`.
  void (*mat2)(double* amps, std::size_t dim, const double* u,
               std::size_t target);
  /// Diagonal U (RZ) on `target`: uses m00 and m11 only.
  void (*diag)(double* amps, std::size_t dim, const double* u,
               std::size_t target);
  /// pool[indices[0]], pool[indices[1]], ... (reversed when `reverse`) on
  /// `target`, as `count` mat2 applications; pool entries are 8 doubles
  /// apart.
  void (*mat2_run)(double* amps, std::size_t dim, const double* pool,
                   const std::uint32_t* indices, std::size_t count,
                   bool reverse, std::size_t target);
  /// U on `target` where `control` is |1>.
  void (*controlled)(double* amps, std::size_t dim, const double* u,
                     std::size_t control, std::size_t target);
  /// CZ on (a, b): negates the amplitudes with both bits set.
  void (*cz)(double* amps, std::size_t dim, std::size_t qubit_a,
             std::size_t qubit_b);
  /// out <- (U on target) in, out of place.
  void (*mat2_from)(double* out, const double* in, std::size_t dim,
                    const double* u, std::size_t target);
  /// 4x4 on (q_low, q_high) with StateVector::apply_two_qubit's row
  /// accumulation order.
  void (*mat4)(double* amps, std::size_t dim, const double* m,
               std::size_t q_low, std::size_t q_high);
  /// out <- (4x4 on (q_low, q_high)) in, out of place, with mat4's
  /// accumulation order.
  void (*mat4_from)(double* out, const double* in, std::size_t dim,
                    const double* m, std::size_t q_low, std::size_t q_high);
  /// One adjoint-sweep step for a rotation on `target`: phi <- inv phi;
  /// sum <- <lambda| dr |phi> (phi after, lambda before its update),
  /// accumulated from {0, 0} in ascending amplitude index as
  /// StateVector::inner_product; lambda <- inv lambda. `diagonal` (RZ)
  /// uses m00 and m11 of inv and dr only. `sum` receives (re, im).
  void (*adjoint_sweep)(double* phi, double* lambda, std::size_t dim,
                        const double* inv, const double* dr, bool diagonal,
                        std::size_t target, double* sum);
};

/// The baseline build (no instruction-set extension beyond the target's
/// default).
[[nodiscard]] const KernelTable& scalar_kernels() noexcept;

/// The AVX2 build, or nullptr when it was not compiled in or this CPU
/// lacks AVX2.
[[nodiscard]] const KernelTable* avx2_kernels() noexcept;

/// The build every kernel wrapper uses: AVX2 when available, else scalar.
/// Chosen on first use and fixed for the life of the process.
[[nodiscard]] const KernelTable& active_kernels() noexcept;

}  // namespace qbarren::exec::core
