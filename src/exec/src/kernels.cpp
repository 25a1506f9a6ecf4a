#include "qbarren/exec/kernels.hpp"

#include "core_args.hpp"

namespace qbarren::exec {

// The in-place and out-of-place amplitude loops run in the shared kernel
// core (kernel_core.inc), which batched execution runs too;
// adjoint_rotation_sweep and apply_mat4_from keep their std::complex loops
// here: the sweep's ascending-index accumulation order is part of its
// result, and the out-of-place 4x4 only serves controlled-rotation
// derivatives. Bounds are validated once at compile
// (lowering) time, not per application.

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
  auto& p = phi.amplitudes();
  auto& l = lambda.amplitudes();
  const std::size_t bit = std::size_t{1} << target;
  const std::size_t dim = p.size();
  Complex acc{0.0, 0.0};
  // Blocks of 2*bit indices: the bit-clear half of each block precedes the
  // bit-set half in index order, so accumulating the
  // row-0 terms in the first loop and the row-1 terms in the second
  // reproduces inner_product's ascending-index order. lambda's own update
  // happens only after both of its amplitudes fed the accumulator.
  if (axis == gates::Axis::kZ) {
    // Diagonal inverse and diagonal derivative: RZ's off-diagonal entries
    // (and those of (-i/2) Z RZ) are exact zeros; see apply_rotation_mat2.
    const Complex v00 = inv.m00;
    const Complex v11 = inv.m11;
    const Complex d00 = dr.m00;
    const Complex d11 = dr.m11;
    for (std::size_t base = 0; base < dim; base += 2 * bit) {
      for (std::size_t j = 0; j < bit; ++j) {
        const std::size_t i0 = base + j;
        const Complex np0 = v00 * p[i0];
        p[i0] = np0;
        p[i0 | bit] = v11 * p[i0 | bit];
        acc += std::conj(l[i0]) * (d00 * np0);
      }
      for (std::size_t j = 0; j < bit; ++j) {
        const std::size_t i0 = base + j;
        const std::size_t i1 = i0 | bit;
        acc += std::conj(l[i1]) * (d11 * p[i1]);
        l[i0] = v00 * l[i0];
        l[i1] = v11 * l[i1];
      }
    }
    return acc;
  }
  const Complex v00 = inv.m00;
  const Complex v01 = inv.m01;
  const Complex v10 = inv.m10;
  const Complex v11 = inv.m11;
  const Complex d00 = dr.m00;
  const Complex d01 = dr.m01;
  const Complex d10 = dr.m10;
  const Complex d11 = dr.m11;
  for (std::size_t base = 0; base < dim; base += 2 * bit) {
    for (std::size_t j = 0; j < bit; ++j) {
      const std::size_t i0 = base + j;
      const std::size_t i1 = i0 | bit;
      const Complex a0 = p[i0];
      const Complex a1 = p[i1];
      const Complex np0 = v00 * a0 + v01 * a1;
      const Complex np1 = v10 * a0 + v11 * a1;
      p[i0] = np0;
      p[i1] = np1;
      acc += std::conj(l[i0]) * (d00 * np0 + d01 * np1);
    }
    for (std::size_t j = 0; j < bit; ++j) {
      const std::size_t i0 = base + j;
      const std::size_t i1 = i0 | bit;
      acc += std::conj(l[i1]) * (d10 * p[i0] + d11 * p[i1]);
      const Complex b0 = l[i0];
      const Complex b1 = l[i1];
      l[i0] = v00 * b0 + v01 * b1;
      l[i1] = v10 * b0 + v11 * b1;
    }
  }
  return acc;
}

void apply_mat4_from(StateVector& dst, const StateVector& src,
                     const Complex (&m)[4][4], std::size_t q_low,
                     std::size_t q_high) {
  auto& out = dst.amplitudes();
  const auto& in_amps = src.amplitudes();
  const std::size_t bl = std::size_t{1} << q_low;
  const std::size_t bh = std::size_t{1} << q_high;
  const std::size_t dim = in_amps.size();
  for (std::size_t i = 0; i < dim; ++i) {
    if ((i & bl) != 0 || (i & bh) != 0) continue;  // base of each 4-group
    const std::size_t idx[4] = {i, i | bl, i | bh, i | bl | bh};
    Complex in[4];
    for (std::size_t k = 0; k < 4; ++k) {
      in[k] = in_amps[idx[k]];
    }
    for (std::size_t r = 0; r < 4; ++r) {
      Complex acc{0.0, 0.0};
      for (std::size_t c = 0; c < 4; ++c) {
        acc += m[r][c] * in[c];
      }
      out[idx[r]] = acc;
    }
  }
}

}  // namespace qbarren::exec
