#include "qbarren/exec/kernels.hpp"

#include "core_args.hpp"

namespace qbarren::exec {

// Every amplitude loop runs in the shared kernel core (kernel_core.inc),
// which batched execution runs too; these wrappers only pass a
// StateVector's amplitudes to the active build. Bounds are validated once
// at compile (lowering) time, not per application.

namespace {

double* amps_of(StateVector& state) {
  return as_doubles(state.amplitudes().data());
}

}  // namespace

void apply_mat2(StateVector& state, const gates::Mat2& u,
                std::size_t target) {
  core::active_kernels().mat2(amps_of(state), state.dimension(),
                              as_doubles(&u), target);
}

void apply_mat2_pair(StateVector& state, const gates::Mat2& u_first,
                     const gates::Mat2& u_second, std::size_t target) {
  const gates::Mat2 both[2] = {u_first, u_second};
  const std::uint32_t order[2] = {0, 1};
  core::active_kernels().mat2_run(amps_of(state), state.dimension(),
                                  as_doubles(both), order, 2, false, target);
}

void apply_mat2_run(StateVector& state, const gates::Mat2* pool,
                    const std::uint32_t* indices, std::size_t count,
                    bool reverse, std::size_t target) {
  core::active_kernels().mat2_run(amps_of(state), state.dimension(),
                                  as_doubles(pool), indices, count, reverse,
                                  target);
}

void apply_controlled_mat2(StateVector& state, const gates::Mat2& u,
                           std::size_t control, std::size_t target) {
  core::active_kernels().controlled(amps_of(state), state.dimension(),
                                    as_doubles(&u), control, target);
}

void apply_rotation(StateVector& state, gates::Axis axis, double theta,
                    std::size_t target) {
  apply_rotation_mat2(state, axis, gates::rotation_entries(axis, theta),
                      target);
}

void apply_rotation_mat2(StateVector& state, gates::Axis axis,
                         const gates::Mat2& u, std::size_t target) {
  // RZ's off-diagonal entries are exact zeros, so the diagonal kernel's
  // skipped products (0 * amplitude) only ever add a signed zero.
  const core::KernelTable& k = core::active_kernels();
  (axis == gates::Axis::kZ ? k.diag : k.mat2)(
      amps_of(state), state.dimension(), as_doubles(&u), target);
}

void apply_controlled_rotation(StateVector& state, gates::Axis axis,
                               double theta, std::size_t control,
                               std::size_t target) {
  apply_controlled_mat2(state, gates::rotation_entries(axis, theta), control,
                        target);
}

void apply_mat2_from(StateVector& dst, const StateVector& src,
                     const gates::Mat2& u, std::size_t target) {
  core::active_kernels().mat2_from(amps_of(dst),
                                   as_doubles(src.amplitudes().data()),
                                   src.dimension(), as_doubles(&u), target);
}

void apply_mat4(StateVector& state, const ComplexMatrix& u, std::size_t q_low,
                std::size_t q_high) {
  core::active_kernels().mat4(amps_of(state), state.dimension(),
                              as_doubles(u.data().data()), q_low, q_high);
}

void apply_cz(StateVector& state, std::size_t qubit_a, std::size_t qubit_b) {
  core::active_kernels().cz(amps_of(state), state.dimension(), qubit_a,
                            qubit_b);
}

Complex adjoint_rotation_sweep(StateVector& phi, StateVector& lambda,
                               gates::Axis axis, const gates::Mat2& inv,
                               const gates::Mat2& dr, std::size_t target) {
  Complex sum;
  core::active_kernels().adjoint_sweep(
      amps_of(phi), amps_of(lambda), phi.dimension(), as_doubles(&inv),
      as_doubles(&dr), axis == gates::Axis::kZ, target, as_doubles(&sum));
  return sum;
}

void apply_mat4_from(StateVector& dst, const StateVector& src,
                     const Complex (&m)[4][4], std::size_t q_low,
                     std::size_t q_high) {
  core::active_kernels().mat4_from(amps_of(dst),
                                   as_doubles(src.amplitudes().data()),
                                   src.dimension(), as_doubles(&m[0][0]),
                                   q_low, q_high);
}

}  // namespace qbarren::exec
