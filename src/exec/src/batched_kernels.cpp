#include "qbarren/exec/batched_kernels.hpp"

#include "core_args.hpp"

namespace qbarren::exec {

// Every batched kernel runs the serial kernel's core entry (kernel_core.inc)
// on the lanes' amplitudes. Per-lane kernels call it once per lane. Uniform
// kernels call it once on lanes [0, lanes) as one vector of lanes * dim
// amplitudes: lanes are contiguous and each is a whole number of the core's
// 2^(qubit+1)-amplitude blocks, so that walk visits exactly the per-lane
// pairs. Either way each lane is bit-identical to the serial kernel on its
// own StateVector.

namespace {

double* lane(BatchedStateVector& batch, std::size_t b) {
  return as_doubles(batch.lane_data(b));
}

/// Amplitudes in lanes [0, lanes).
std::size_t span(const BatchedStateVector& batch, std::size_t lanes) {
  return lanes * batch.dimension();
}

}  // namespace

void batched_apply_mat2(BatchedStateVector& batch, std::size_t lanes,
                        const gates::Mat2& u, std::size_t target) {
  core::active_kernels().mat2(lane(batch, 0), span(batch, lanes),
                              as_doubles(&u), target);
}

void batched_apply_mat2_per_lane(BatchedStateVector& batch, std::size_t lanes,
                                 const gates::Mat2* entries,
                                 std::size_t target) {
  const core::KernelTable& k = core::active_kernels();
  for (std::size_t b = 0; b < lanes; ++b) {
    k.mat2(lane(batch, b), batch.dimension(), as_doubles(&entries[b]),
           target);
  }
}

void batched_apply_rotation_mat2(BatchedStateVector& batch, std::size_t lanes,
                                 gates::Axis axis, const gates::Mat2& u,
                                 std::size_t target) {
  const core::KernelTable& k = core::active_kernels();
  (axis == gates::Axis::kZ ? k.diag : k.mat2)(
      lane(batch, 0), span(batch, lanes), as_doubles(&u), target);
}

void batched_apply_rotation_per_lane(BatchedStateVector& batch,
                                     std::size_t lanes, gates::Axis axis,
                                     const gates::Mat2* entries,
                                     std::size_t target) {
  const core::KernelTable& k = core::active_kernels();
  const auto kernel = axis == gates::Axis::kZ ? k.diag : k.mat2;
  for (std::size_t b = 0; b < lanes; ++b) {
    kernel(lane(batch, b), batch.dimension(), as_doubles(&entries[b]),
           target);
  }
}

void batched_apply_mat2_pair(BatchedStateVector& batch, std::size_t lanes,
                             const gates::Mat2& u_first,
                             const gates::Mat2& u_second, std::size_t target) {
  const gates::Mat2 both[2] = {u_first, u_second};
  const std::uint32_t order[2] = {0, 1};
  batched_apply_mat2_run(batch, lanes, both, order, 2, false, target);
}

void batched_apply_mat2_run(BatchedStateVector& batch, std::size_t lanes,
                            const gates::Mat2* pool,
                            const std::uint32_t* indices, std::size_t count,
                            bool reverse, std::size_t target) {
  core::active_kernels().mat2_run(lane(batch, 0), span(batch, lanes),
                                  as_doubles(pool), indices, count, reverse,
                                  target);
}

void batched_apply_controlled_mat2(BatchedStateVector& batch,
                                   std::size_t lanes, const gates::Mat2& u,
                                   std::size_t control, std::size_t target) {
  core::active_kernels().controlled(lane(batch, 0), span(batch, lanes),
                                    as_doubles(&u), control, target);
}

void batched_apply_controlled_per_lane(BatchedStateVector& batch,
                                       std::size_t lanes,
                                       const gates::Mat2* entries,
                                       std::size_t control,
                                       std::size_t target) {
  const core::KernelTable& k = core::active_kernels();
  for (std::size_t b = 0; b < lanes; ++b) {
    k.controlled(lane(batch, b), batch.dimension(), as_doubles(&entries[b]),
                 control, target);
  }
}

void batched_apply_cz(BatchedStateVector& batch, std::size_t lanes,
                      std::size_t qubit_a, std::size_t qubit_b) {
  core::active_kernels().cz(lane(batch, 0), span(batch, lanes), qubit_a,
                            qubit_b);
}

void batched_apply_mat4(BatchedStateVector& batch, std::size_t lanes,
                        const ComplexMatrix& u, std::size_t q_low,
                        std::size_t q_high) {
  core::active_kernels().mat4(lane(batch, 0), span(batch, lanes),
                              as_doubles(u.data().data()), q_low, q_high);
}

}  // namespace qbarren::exec
