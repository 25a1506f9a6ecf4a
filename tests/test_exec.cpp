// Tests for the compiled execution-plan layer: lowering stats, fusion,
// plan attachment/invalidation, the refusal of malformed custom gates, and
// — most importantly — bit-identity of the compiled path against the
// interpreted oracle (interpreted_oracle.hpp) for simulate, unitary, all
// four gradient engines, and the noisy density-matrix simulator, on
// randomized circuits mixing every op kind.
#include "qbarren/exec/compiled_circuit.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "interpreted_oracle.hpp"
#include "qbarren/common/rng.hpp"
#include "qbarren/dsim/noisy.hpp"
#include "qbarren/exec/batched.hpp"
#include "qbarren/grad/engine.hpp"
#include "qbarren/obs/observable.hpp"

namespace qbarren {
namespace {

using oracle::expect_states_equal;
using oracle::random_circuit;

TEST(CompiledCircuit, LoweringStatsAndFusion) {
  Circuit c(2);
  c.add_hadamard(0);
  c.add_pauli_x(0);  // fuses with the H: run of 2 on qubit 0
  c.add_rotation(gates::Axis::kY, 1);
  c.add_hadamard(1);
  c.add_s(1);
  c.add_t(1);  // run of 3 on qubit 1
  c.add_cz(0, 1);
  c.add_cnot(0, 1);
  c.add_swap(0, 1);

  const auto plan = exec::CompiledCircuit::compile(c);
  const auto& stats = plan->stats();
  EXPECT_EQ(stats.source_ops, 9u);
  EXPECT_EQ(stats.plan_ops, 6u);  // 2 fused runs + RY + CZ + CNOT + SWAP
  EXPECT_EQ(stats.fused_runs, 2u);
  EXPECT_EQ(stats.fused_source_ops, 5u);
  EXPECT_EQ(stats.rotation_ops, 1u);
  // 2x2 pool: H, X, S, T plus CNOT's X (interned under its own op kind);
  // 4x4 pool: SWAP.
  EXPECT_EQ(stats.cached_matrices, 6u);

  // Constant source ops expose their cached dense matrices.
  EXPECT_TRUE(plan->source_op_is_constant(0));
  EXPECT_FALSE(plan->source_op_is_constant(2));  // the RY
  const ComplexMatrix& h = plan->source_constant_matrix(0);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t col = 0; col < 2; ++col) {
      EXPECT_EQ(h(r, col), gates::hadamard()(r, col));
    }
  }

  // Without fusion every source op lowers to its own kernel op.
  exec::CompileOptions no_fuse;
  no_fuse.fuse_single_qubit_runs = false;
  const auto flat = exec::CompiledCircuit::compile(c, no_fuse);
  EXPECT_EQ(flat->stats().fused_runs, 0u);
  EXPECT_EQ(flat->stats().plan_ops, 9u);

  // Fused and unfused programs agree exactly.
  Rng rng(7);
  const auto params = rng.uniform_vector(c.num_parameters(), 0.0, 2.0 * M_PI);
  expect_states_equal(plan->simulate(params), flat->simulate(params));
}

TEST(CompiledCircuit, PlanAttachShareAndInvalidate) {
  Circuit c(2);
  c.add_rotation(gates::Axis::kX, 0);
  c.add_cnot(0, 1);
  EXPECT_EQ(c.execution_plan(), nullptr);

  const auto plan = exec::plan_for(c);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(c.execution_plan(), plan);
  EXPECT_EQ(exec::plan_for(c), plan);  // reuses the attached plan

  // Copies share the (immutable) plan.
  const Circuit copy = c;
  EXPECT_EQ(copy.execution_plan(), plan);

  // Mutation invalidates; the next plan_for lowers the new op list.
  c.add_hadamard(0);
  EXPECT_EQ(c.execution_plan(), nullptr);
  EXPECT_EQ(copy.execution_plan(), plan);  // the copy is untouched
  const auto replan = exec::plan_for(c);
  ASSERT_NE(replan, nullptr);
  EXPECT_NE(replan, plan);
  EXPECT_EQ(replan->stats().source_ops, 3u);
}

TEST(CompiledCircuit, SimulateMatchesInterpretedOnRandomCircuits) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    Circuit c = random_circuit(rng, 4, 40);
    const auto params =
        rng.uniform_vector(c.num_parameters(), -M_PI, M_PI);

    ASSERT_NE(exec::plan_for(c), nullptr);
    expect_states_equal(c.simulate(params), oracle::simulate(c, params));
  }
}

TEST(CompiledCircuit, UnitaryMatchesInterpreted) {
  // Column j of the unitary is the compiled plan applied to basis state
  // |j>; it must equal the interpreter's walk from the same basis state.
  Rng rng(11);
  Circuit c = random_circuit(rng, 3, 25);
  const auto params = rng.uniform_vector(c.num_parameters(), -M_PI, M_PI);

  const auto plan = exec::plan_for(c);
  ASSERT_NE(plan, nullptr);
  const std::size_t dim = std::size_t{1} << c.num_qubits();
  for (std::size_t j = 0; j < dim; ++j) {
    std::vector<Complex> basis(dim);
    basis[j] = 1.0;
    StateVector column(c.num_qubits(), basis);
    plan->apply_to(column, params);
    SCOPED_TRACE("column " + std::to_string(j));
    expect_states_equal(
        column,
        oracle::simulate(c, params, StateVector(c.num_qubits(), basis)));
  }
}

TEST(CompiledCircuit, GradientEnginesMatchInterpretedExactly) {
  const ParameterShiftEngine ps;
  const FiniteDifferenceEngine fd;
  const AdjointEngine adj;
  const GlobalZeroObservable obs(4);

  for (std::uint64_t seed = 20; seed < 26; ++seed) {
    Rng rng(seed);
    Circuit c = random_circuit(rng, 4, 35);
    const auto params =
        rng.uniform_vector(c.num_parameters(), -M_PI, M_PI);

    const ValueAndGradient reference_vg = oracle::adjoint(c, obs, params);
    const std::pair<const GradientEngine*, std::vector<double>> cases[] = {
        {&ps, oracle::parameter_shift_gradient(c, obs, params)},
        {&fd, oracle::finite_difference_gradient(c, obs, params)},
        {&adj, reference_vg.gradient}};
    for (const auto& [engine, reference] : cases) {
      const auto compiled = engine->gradient(c, obs, params);
      ASSERT_EQ(compiled.size(), reference.size());
      for (std::size_t i = 0; i < compiled.size(); ++i) {
        EXPECT_EQ(compiled[i], reference[i])
            << engine->name() << " param " << i << " seed " << seed;
      }
    }

    // value_and_gradient carries the same bit-identity guarantee.
    const ValueAndGradient compiled_vg = adj.value_and_gradient(c, obs, params);
    EXPECT_EQ(compiled_vg.value, reference_vg.value);
    for (std::size_t i = 0; i < compiled_vg.gradient.size(); ++i) {
      EXPECT_EQ(compiled_vg.gradient[i], reference_vg.gradient[i]) << i;
    }
  }
}

TEST(CompiledCircuit, SpsaSameSeedMatchesInterpreted) {
  Rng rng(31);
  Circuit c = random_circuit(rng, 4, 30);
  const auto params = rng.uniform_vector(c.num_parameters(), -M_PI, M_PI);
  const GlobalZeroObservable obs(4);

  const SpsaEngine engine(123);
  oracle::expect_vectors_equal(
      engine.gradient(c, obs, params),
      oracle::spsa_gradient(c, obs, params, 123, 0.01));
}

TEST(CompiledCircuit, PrefixReusePartialsCrossCheck) {
  // partial() shares the prefix before the shifted gate across its
  // evaluations; gradient() walks every parameter's shifts at once. Both
  // must agree with each other and with the interpreted partial — exactly,
  // including the controlled-rotation four-term rule.
  Circuit c(3);
  c.add_hadamard(0);
  c.add_rotation(gates::Axis::kY, 0);
  c.add_controlled_rotation(gates::Axis::kZ, 0, 1);
  c.add_cnot(1, 2);
  c.add_rotation(gates::Axis::kX, 2);
  c.add_rotation(gates::Axis::kZ, 1);

  Rng rng(5);
  const auto params = rng.uniform_vector(c.num_parameters(), -M_PI, M_PI);
  const GlobalZeroObservable obs(3);
  const ParameterShiftEngine ps;
  const FiniteDifferenceEngine fd;

  const auto grad = ps.gradient(c, obs, params);
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_EQ(ps.partial(c, obs, params, i), grad[i]) << i;
    EXPECT_EQ(fd.partial(c, obs, params, i),
              oracle::finite_difference_partial(c, obs, params, i))
        << i;
    EXPECT_EQ(oracle::parameter_shift_partial(c, obs, params, i), grad[i])
        << i;
  }
}

TEST(CompiledCircuit, OperationForParameterTableMatchesScan) {
  Rng rng(41);
  Circuit c = random_circuit(rng, 4, 50);
  const Circuit scan = c;  // no plan: linear-scan path
  ASSERT_NE(exec::plan_for(c), nullptr);

  for (std::size_t p = 0; p < c.num_parameters(); ++p) {
    const Operation& via_table = c.operation_for_parameter(p);
    const Operation& via_scan = scan.operation_for_parameter(p);
    // Same position in the op list, not merely equal fields.
    EXPECT_EQ(&via_table - c.operations().data(),
              &via_scan - scan.operations().data())
        << p;
    EXPECT_EQ(via_table.param_index, p);
  }
}

TEST(CompiledCircuit, MalformedCustomGateIsRefusedByEveryEngine) {
  Circuit c(2);
  c.add_rotation(gates::Axis::kY, 0);
  c.add_custom_gate("bad-dims", ComplexMatrix(3, 3), 1);
  const std::vector<double> params{0.3};
  const GlobalZeroObservable obs(2);

  // Lowering refuses, naming the gate and the lint rule, and attaches
  // nothing.
  try {
    (void)exec::plan_for(c);
    ADD_FAILURE() << "plan_for accepted a 3x3 custom gate";
  } catch (const InvalidArgument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("bad-dims"), std::string::npos) << what;
    EXPECT_NE(what.find("QB006"), std::string::npos) << what;
  }
  EXPECT_EQ(c.execution_plan(), nullptr);

  // Every consumer of the plan refuses the same way instead of running the
  // gate some other way.
  const ParameterShiftEngine ps;
  const FiniteDifferenceEngine fd;
  const AdjointEngine adj;
  const SpsaEngine spsa(1);
  for (const GradientEngine* engine :
       {static_cast<const GradientEngine*>(&ps),
        static_cast<const GradientEngine*>(&fd),
        static_cast<const GradientEngine*>(&adj),
        static_cast<const GradientEngine*>(&spsa)}) {
    EXPECT_THROW((void)engine->gradient(c, obs, params), InvalidArgument)
        << engine->name();
    EXPECT_THROW((void)engine->partial(c, obs, params, 0), InvalidArgument)
        << engine->name();
  }
  EXPECT_THROW((void)adj.value_and_gradient(c, obs, params), InvalidArgument);
  EXPECT_THROW((void)simulate_noisy(c, params, make_depolarizing_model(0.01,
                                                                       0.02)),
               InvalidArgument);
  // The plan-less interpreter reports the malformed gate on execution.
  EXPECT_THROW((void)c.simulate(params), InvalidArgument);
}

TEST(CompiledCircuit, NoisySimulatorMatchesInterpreted) {
  Rng rng(51);
  Circuit c = random_circuit(rng, 3, 20);
  const auto params = rng.uniform_vector(c.num_parameters(), -M_PI, M_PI);
  const GlobalZeroObservable obs(3);
  const NoiseModel noise = make_depolarizing_model(0.01, 0.02);

  ASSERT_NE(exec::plan_for(c), nullptr);
  EXPECT_EQ(noisy_expectation(c, params, obs, noise),
            oracle::simulate_noisy(c, params, noise).expectation(obs));
}

TEST(CompiledCircuit, ZeroShiftMatchesUnshiftedCost) {
  Rng rng(61);
  Circuit c = random_circuit(rng, 3, 25);
  const auto params = rng.uniform_vector(c.num_parameters(), -M_PI, M_PI);
  const GlobalZeroObservable obs(3);
  const auto plan = exec::plan_for(c);
  ASSERT_NE(plan, nullptr);

  const double unshifted = obs.expectation(plan->simulate(params));
  for (std::size_t i = 0; i < c.num_parameters(); ++i) {
    // delta = 0 reproduces the unshifted cost bit-for-bit.
    const exec::ShiftSpec spec{i, 0.0};
    const std::vector<double> v =
        exec::shifted_expectations(*plan, obs, params, {&spec, 1});
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0], unshifted) << i;
  }
}

}  // namespace
}  // namespace qbarren
