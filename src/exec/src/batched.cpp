#include "qbarren/exec/batched.hpp"

#include <algorithm>
#include <atomic>

#include "qbarren/common/error.hpp"
#include "qbarren/exec/batched_kernels.hpp"
#include "qbarren/obs/observable.hpp"

namespace qbarren::exec {

namespace {
std::atomic<std::size_t> g_batch_limit{kBatchAuto};
}  // namespace

void set_batch_limit(std::size_t limit) noexcept {
  g_batch_limit.store(limit, std::memory_order_relaxed);
}

std::size_t batch_limit() noexcept {
  return g_batch_limit.load(std::memory_order_relaxed);
}

std::size_t resolve_batch_lanes(std::size_t limit, std::size_t natural,
                                std::size_t num_qubits,
                                std::size_t resident_states) noexcept {
  std::size_t cap = limit;
  if (limit == kBatchAuto) {
    constexpr std::size_t kAmplitudeBytes = sizeof(Complex);
    const std::size_t state_bytes =
        num_qubits < 40 ? kAmplitudeBytes << num_qubits : kAutoBatchBytes;
    const std::size_t states = kAutoBatchBytes / state_bytes;
    cap = std::min(kAutoBatchLanes,
                   states > resident_states ? states - resident_states : 0);
  }
  return std::max<std::size_t>(1, std::min(cap, natural));
}

ScopedBatchLimit::ScopedBatchLimit(std::size_t limit)
    : previous_(batch_limit()) {
  set_batch_limit(limit);
}

ScopedBatchLimit::~ScopedBatchLimit() { set_batch_limit(previous_); }

namespace {

// Applies plan op `k` to lanes [0, lanes) with the UNSHIFTED parameters:
// rotation entries are computed once per op and shared by every lane (the
// serial suffix re-evaluates the trig per evaluation); per-lane arithmetic
// is the serial apply_plan_op's.
void apply_uniform(const CompiledCircuit& plan, std::size_t k,
                   BatchedStateVector& batch, std::size_t lanes,
                   std::span<const double> params) {
  using Kernel = CompiledCircuit::Kernel;
  const CompiledCircuit::PlanOp& op = plan.plan_ops()[k];
  if (op.kernel == Kernel::kRotation) {
    batched_apply_rotation_mat2(
        batch, lanes, op.axis,
        gates::rotation_entries(op.axis, params[op.param]), op.qubit0);
  } else if (op.kernel == Kernel::kControlledRotation) {
    batched_apply_controlled_mat2(
        batch, lanes, gates::rotation_entries(op.axis, params[op.param]),
        op.qubit0, op.qubit1);
  } else {
    plan.apply_plan_op_batch(k, batch, lanes, nullptr);
  }
}

// Greedy chunking of the lanes of consecutive parameter groups of the
// given widths: a chunk takes whole groups while its lane count fits
// `lane_cap`; a group wider than the cap is cut into pieces of at most
// `lane_cap` lanes (each lane is independent, so a piece holds no more
// than the cap allows). Returns each chunk's end lane index, in order.
std::vector<std::size_t> chunk_lanes(std::span<const std::size_t> widths,
                                     std::size_t lane_cap) {
  std::vector<std::size_t> ends;
  std::size_t begin = 0;
  std::size_t end = 0;
  for (const std::size_t width : widths) {
    if (end > begin && end - begin + width > lane_cap) {
      ends.push_back(end);
      begin = end;
    }
    end += width;
    while (end - begin > lane_cap) {
      begin += lane_cap;
      ends.push_back(begin);
    }
  }
  if (end > begin) ends.push_back(end);
  return ends;
}

}  // namespace

std::vector<double> shifted_expectations(const CompiledCircuit& plan,
                                         const Observable& observable,
                                         std::span<const double> params,
                                         std::span<const ShiftSpec> specs) {
  QBARREN_REQUIRE(params.size() == plan.num_parameters(),
                  "shifted_expectations: parameter count mismatch");
  std::vector<double> out(specs.size());
  if (specs.empty()) return out;

  // Group spec indices by parameter (one group per distinct parameter,
  // specs in input order within it); parameters without a unique consuming
  // plan op are evaluated on the whole program at the end.
  struct Group {
    std::size_t branch = 0;  ///< plan op consuming the parameter
    std::vector<std::size_t> specs;
  };
  std::vector<Group> groups;
  std::vector<std::size_t> fallback;
  {
    const std::size_t num_params = plan.num_parameters();
    std::vector<std::size_t> group_of(num_params, ExecutionPlan::kNoOperation);
    for (std::size_t s = 0; s < specs.size(); ++s) {
      const std::size_t p = specs[s].param;
      QBARREN_REQUIRE(p < num_params,
                      "shifted_expectations: parameter index out of range");
      const std::size_t branch = plan.plan_op_for_parameter(p);
      if (branch == ExecutionPlan::kNoOperation) {
        fallback.push_back(s);
        continue;
      }
      if (group_of[p] == ExecutionPlan::kNoOperation) {
        group_of[p] = groups.size();
        groups.push_back(Group{branch, {}});
      }
      groups[group_of[p]].specs.push_back(s);
    }
  }
  // Distinct parameters have distinct consuming ops, so this order is
  // total: lanes spawn in stream order during the walk.
  std::sort(groups.begin(), groups.end(),
            [](const Group& a, const Group& b) { return a.branch < b.branch; });

  // Lanes in stream order: lane i evaluates spec lane_spec[i], branching
  // off the base at plan op lane_branch[i].
  std::vector<std::size_t> widths(groups.size());
  std::vector<std::size_t> lane_branch;
  std::vector<std::size_t> lane_spec;
  lane_branch.reserve(specs.size());
  lane_spec.reserve(specs.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    widths[g] = groups[g].specs.size();
    for (const std::size_t s : groups[g].specs) {
      lane_branch.push_back(groups[g].branch);
      lane_spec.push_back(s);
    }
  }
  const std::size_t num_qubits = plan.num_qubits();
  // Besides its lanes the walk holds two states: the base and a scratch.
  constexpr std::size_t kResidentStates = 2;
  const std::size_t lane_cap = resolve_batch_lanes(
      batch_limit(), lane_spec.size(), num_qubits, kResidentStates);

  const std::size_t num_ops = plan.num_plan_ops();
  const std::span<const CompiledCircuit::PlanOp> ops = plan.plan_ops();
  using Kernel = CompiledCircuit::Kernel;

  // One base state advanced monotonically with the unshifted parameters:
  // at each chunk's branch ops it holds exactly the prefix a from-scratch
  // simulation would reach (same apply_plan_op sequence from |0...0>).
  StateVector base(num_qubits);
  StateVector scratch(num_qubits);
  std::size_t base_pos = 0;

  std::size_t lb = 0;
  for (const std::size_t le : chunk_lanes(widths, lane_cap)) {
    const std::size_t first_branch = lane_branch[lb];
    const std::size_t last_branch = lane_branch[le - 1];
    plan.apply_plan_ops(base, params, base_pos, first_branch);
    base_pos = first_branch;

    if (le - lb == 1) {
      // A lone lane runs on the scratch state itself: two states in all,
      // no batch allocation (the same kernels a 1-lane batch would run).
      const ShiftSpec& spec = specs[lane_spec[lb]];
      scratch = base;
      plan.apply_plan_op_with_angle(first_branch, scratch,
                                    params[spec.param] + spec.delta);
      plan.apply_plan_ops(scratch, params, first_branch + 1, num_ops);
      out[lane_spec[lb]] = observable.expectation(scratch);
      lb = le;
      continue;
    }

    BatchedStateVector lane_states(num_qubits, le - lb);
    std::size_t spawned = 0;
    std::size_t next = lb;  ///< next lane to spawn

    std::size_t k = first_branch;
    while (k < num_ops) {
      const std::size_t next_spawn = next < le ? lane_branch[next] : num_ops;
      if (spawned > 0 && k != next_spawn && k + 1 != next_spawn &&
          k + 1 < num_ops && ops[k].kernel == Kernel::kRotation &&
          ops[k + 1].kernel == Kernel::kRotation &&
          ops[k + 1].qubit0 == ops[k].qubit0) {
        // Same-qubit rotation pair with no lane branching at either op:
        // both gates in one kernel call, entries computed once for the
        // whole batch (bit-identical to two single applications, as the
        // adjoint forward pass's apply_mat2_pair).
        const gates::Mat2 first =
            gates::rotation_entries(ops[k].axis, params[ops[k].param]);
        const gates::Mat2 second =
            gates::rotation_entries(ops[k + 1].axis, params[ops[k + 1].param]);
        plan.apply_plan_op_batch_pair(k, lane_states, spawned, first, second);
        if (k < last_branch) plan.apply_plan_op(k, base, params);
        if (k + 1 < last_branch) plan.apply_plan_op(k + 1, base, params);
        k += 2;
        continue;
      }
      // Lanes spawned at earlier ops take op k with the unshifted angle...
      if (spawned > 0) {
        apply_uniform(plan, k, lane_states, spawned, params);
      }
      // ...then this op's own lanes branch off the base (which still holds
      // ops [0, k)) with the shifted angle.
      for (; next < le && lane_branch[next] == k; ++next) {
        const ShiftSpec& spec = specs[lane_spec[next]];
        scratch = base;
        plan.apply_plan_op_with_angle(k, scratch,
                                      params[spec.param] + spec.delta);
        lane_states.set_lane(spawned, scratch);
        ++spawned;
      }
      // The base only needs to advance while spawns remain in this chunk;
      // the next chunk continues it from base_pos.
      if (k < last_branch) {
        plan.apply_plan_op(k, base, params);
      }
      ++k;
    }
    base_pos = last_branch;

    for (std::size_t b = 0; b < spawned; ++b) {
      lane_states.extract_lane(b, scratch);
      out[lane_spec[lb + b]] = observable.expectation(scratch);
    }
    lb = le;
  }

  if (!fallback.empty()) {
    // Shared parameters: whole program on a temporarily shifted vector.
    std::vector<double> shifted(params.begin(), params.end());
    for (const std::size_t s : fallback) {
      const double saved = shifted[specs[s].param];
      shifted[specs[s].param] = saved + specs[s].delta;
      scratch.reset();
      plan.apply_plan_ops(scratch, shifted, 0, num_ops);
      shifted[specs[s].param] = saved;
      out[s] = observable.expectation(scratch);
    }
  }
  return out;
}

}  // namespace qbarren::exec
