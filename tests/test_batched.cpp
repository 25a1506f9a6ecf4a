// Tests for batched plan execution: the BatchedStateVector container, the
// process lane-cap policy, and — most importantly — exact byte-identity
// (==, not near) of every batched consumer at every lane cap against the
// interpreted oracle (interpreted_oracle.hpp) or a one-lane run:
// simulate/expectation, the shifted-binding evaluator, all shift-rule
// gradient engines, landscape rows, variance cells, and Rotosolve.
#include "qbarren/exec/batched.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "interpreted_oracle.hpp"
#include "qbarren/bp/landscape.hpp"
#include "qbarren/bp/training.hpp"
#include "qbarren/bp/variance.hpp"
#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/common/rng.hpp"
#include "qbarren/exec/compiled_circuit.hpp"
#include "qbarren/grad/engine.hpp"
#include "qbarren/init/registry.hpp"
#include "qbarren/obs/cost.hpp"
#include "qbarren/obs/observable.hpp"
#include "qbarren/opt/rotosolve.hpp"
#include "qbarren/qsim/batched_statevector.hpp"

namespace qbarren {
namespace {

using oracle::expect_states_equal;
using oracle::expect_vectors_equal;
using oracle::random_circuit;

// --- BatchedStateVector ------------------------------------------------------

TEST(BatchedStateVector, StartsWithEveryLaneInZeroState) {
  BatchedStateVector batch(3, 4);
  EXPECT_EQ(batch.num_qubits(), 3u);
  EXPECT_EQ(batch.batch_size(), 4u);
  EXPECT_EQ(batch.dimension(), 8u);
  for (std::size_t b = 0; b < batch.batch_size(); ++b) {
    const StateVector lane = batch.extract_lane(b);
    EXPECT_EQ(lane.amplitudes()[0], Complex(1.0, 0.0));
    for (std::size_t i = 1; i < lane.dimension(); ++i) {
      EXPECT_EQ(lane.amplitudes()[i], Complex(0.0, 0.0));
    }
  }
}

TEST(BatchedStateVector, SetAndExtractLaneRoundTrip) {
  Rng rng(11);
  Circuit c = random_circuit(rng, 3, 12);
  const std::vector<double> params =
      rng.uniform_vector(c.num_parameters(), -M_PI, M_PI);
  const StateVector reference = c.simulate(params);

  BatchedStateVector batch(3, 3);
  batch.set_lane(1, reference);
  expect_states_equal(batch.extract_lane(1), reference);
  // The other lanes are untouched.
  EXPECT_EQ(batch.extract_lane(0).amplitudes()[0], Complex(1.0, 0.0));
  EXPECT_EQ(batch.extract_lane(2).amplitudes()[0], Complex(1.0, 0.0));

  batch.reset();
  EXPECT_EQ(batch.extract_lane(1).amplitudes()[0], Complex(1.0, 0.0));
}

TEST(BatchedStateVector, RejectsInvalidShapesAndLanes) {
  EXPECT_THROW(BatchedStateVector(0, 2), InvalidArgument);
  EXPECT_THROW(BatchedStateVector(2, 0), InvalidArgument);
  BatchedStateVector batch(2, 2);
  EXPECT_THROW((void)batch.lane(2), InvalidArgument);
  EXPECT_THROW((void)batch.extract_lane(5), InvalidArgument);
  EXPECT_THROW(batch.set_lane(2, StateVector(2)), InvalidArgument);
  EXPECT_THROW(batch.set_lane(0, StateVector(3)), InvalidArgument);
}

// --- batch-limit policy ------------------------------------------------------

TEST(BatchPolicy, DefaultsToAutoAndScopedLimitRestores) {
  EXPECT_EQ(exec::batch_limit(), exec::kBatchAuto);
  {
    exec::ScopedBatchLimit limit(8);
    EXPECT_EQ(exec::batch_limit(), 8u);
    {
      exec::ScopedBatchLimit inner(1);
      EXPECT_EQ(exec::batch_limit(), 1u);
    }
    EXPECT_EQ(exec::batch_limit(), 8u);
  }
  EXPECT_EQ(exec::batch_limit(), exec::kBatchAuto);
}

TEST(BatchPolicy, ResolveBatchLanesCapsAndFloors) {
  // Explicit limit: min(limit, natural), at least 1, at any width.
  EXPECT_EQ(exec::resolve_batch_lanes(4, 100, 4, 2), 4u);
  EXPECT_EQ(exec::resolve_batch_lanes(4, 3, 4, 2), 3u);
  EXPECT_EQ(exec::resolve_batch_lanes(1, 100, 4, 2), 1u);
  EXPECT_EQ(exec::resolve_batch_lanes(7, 0, 4, 2), 1u);
  EXPECT_EQ(exec::resolve_batch_lanes(64, 100, 20, 2), 64u);
  // Auto on a narrow register: min(kAutoBatchLanes, natural).
  EXPECT_EQ(exec::resolve_batch_lanes(exec::kBatchAuto, 100, 10, 2),
            exec::kAutoBatchLanes);
  EXPECT_EQ(exec::resolve_batch_lanes(exec::kBatchAuto, 5, 10, 2), 5u);
}

TEST(BatchPolicy, AutoLanesAreBoundedByTheByteBudget) {
  // 32 lanes of a q=20 register would hold 512 MiB; auto keeps lanes plus
  // the consumer's resident states within kAutoBatchBytes, and never
  // drops below one lane.
  const std::size_t q20_state_bytes = (std::size_t{1} << 20) * 16;
  for (const std::size_t resident : {0u, 1u, 2u}) {
    const std::size_t q20 =
        exec::resolve_batch_lanes(exec::kBatchAuto, 100, 20, resident);
    EXPECT_GE(q20, 1u);
    EXPECT_LE(q20, exec::kAutoBatchBytes / q20_state_bytes);
  }
  EXPECT_EQ(exec::resolve_batch_lanes(exec::kBatchAuto, 100, 20, 2), 1u);
  EXPECT_EQ(exec::resolve_batch_lanes(exec::kBatchAuto, 100, 19, 2), 2u);
  for (std::size_t q = 1; q <= 30; ++q) {
    const std::size_t lanes =
        exec::resolve_batch_lanes(exec::kBatchAuto, 100, q, 2);
    EXPECT_GE(lanes, 1u) << q;
    EXPECT_LE(lanes, exec::kAutoBatchLanes) << q;
    if (lanes > 1) {
      EXPECT_LE((lanes + 2) * (std::size_t{16} << q), exec::kAutoBatchBytes)
          << q;
    }
  }
  EXPECT_EQ(exec::resolve_batch_lanes(exec::kBatchAuto, 100, 63, 2), 1u);
}

TEST(BatchPolicy, FourTermGroupMatchesOracleAtEveryLaneCap) {
  // A controlled rotation's four shifted bindings stay in one chunk at any
  // cap of 4 or more and are cut into pieces below it (one lane each at
  // cap 1, which auto resolves to at q=20); every chunking still matches
  // the interpreter exactly. Small circuit: three ops on a 16 MiB
  // register.
  const std::size_t qubits = 20;
  ASSERT_EQ(exec::resolve_batch_lanes(exec::kBatchAuto, 6, qubits, 2), 1u);
  Circuit c(qubits);
  c.add_hadamard(0);
  c.add_controlled_rotation(gates::Axis::kY, 0, 1);
  c.add_rotation(gates::Axis::kX, 2);
  const GlobalZeroObservable observable(qubits);
  const std::vector<double> params{0.7, -0.4};
  const auto plan = exec::plan_for(c);

  constexpr double kShift = M_PI / 2.0;
  const std::vector<exec::ShiftSpec> specs = {
      {0, kShift}, {0, -kShift}, {0, 3.0 * kShift}, {0, -3.0 * kShift},
      {1, kShift}, {1, -kShift}};
  std::vector<double> want;
  for (const exec::ShiftSpec& spec : specs) {
    want.push_back(
        oracle::shifted_cost(c, observable, params, spec.param, spec.delta));
  }
  for (const std::size_t limit : {exec::kBatchAuto, 1ul, 3ul, 4ul, 5ul}) {
    exec::ScopedBatchLimit scoped(limit);
    expect_vectors_equal(
        exec::shifted_expectations(*plan, observable, params, specs), want);
  }
}

// --- simulate_batch / expectation_batch --------------------------------------

TEST(BatchedExecution, SimulateBatchMatchesSerialLaneByLane) {
  Rng rng(21);
  for (const std::size_t qubits : {2u, 4u, 5u}) {
    for (const std::size_t lanes : {1u, 3u, 8u}) {
      Circuit c = random_circuit(rng, qubits, 24);
      const auto plan = exec::plan_for(c);
      ASSERT_NE(plan, nullptr);
      const std::size_t num_params = c.num_parameters();

      std::vector<double> bindings(lanes * num_params);
      for (double& v : bindings) v = rng.uniform(-M_PI, M_PI);

      const BatchedStateVector batch = plan->simulate_batch(bindings, lanes);
      for (std::size_t b = 0; b < lanes; ++b) {
        const std::vector<double> row(
            bindings.begin() + static_cast<std::ptrdiff_t>(b * num_params),
            bindings.begin() +
                static_cast<std::ptrdiff_t>((b + 1) * num_params));
        expect_states_equal(batch.extract_lane(b), c.simulate(row));
      }
    }
  }
}

TEST(BatchedExecution, ExpectationBatchMatchesSerialForEveryObservable) {
  Rng rng(22);
  const std::size_t qubits = 4;
  Circuit c = random_circuit(rng, qubits, 30);
  const auto plan = exec::plan_for(c);
  ASSERT_NE(plan, nullptr);
  const std::size_t num_params = c.num_parameters();

  const GlobalZeroObservable global(qubits);
  const LocalZeroObservable local(qubits);

  const std::size_t lanes = 5;  // deliberately not a power of two
  std::vector<double> bindings(lanes * num_params);
  for (double& v : bindings) v = rng.uniform(-M_PI, M_PI);

  const std::vector<double> got_global =
      plan->expectation_batch(global, bindings, lanes);
  const std::vector<double> got_local =
      plan->expectation_batch(local, bindings, lanes);
  ASSERT_EQ(got_global.size(), lanes);
  for (std::size_t b = 0; b < lanes; ++b) {
    const std::vector<double> row(
        bindings.begin() + static_cast<std::ptrdiff_t>(b * num_params),
        bindings.begin() + static_cast<std::ptrdiff_t>((b + 1) * num_params));
    const StateVector state = c.simulate(row);
    EXPECT_EQ(got_global[b], global.expectation(state)) << b;
    EXPECT_EQ(got_local[b], local.expectation(state)) << b;
  }
}

// --- shifted_expectations ----------------------------------------------------

TEST(ShiftedExpectations, MatchesOracleAtEveryChunking) {
  Rng rng(31);
  const std::size_t qubits = 4;
  Circuit c = random_circuit(rng, qubits, 36);
  const auto plan = exec::plan_for(c);
  ASSERT_NE(plan, nullptr);
  const std::size_t num_params = c.num_parameters();
  if (num_params == 0) GTEST_SKIP() << "random draw produced no parameters";
  const GlobalZeroObservable observable(qubits);
  const std::vector<double> params =
      rng.uniform_vector(num_params, -M_PI, M_PI);

  std::vector<exec::ShiftSpec> specs;
  for (std::size_t p = 0; p < num_params; ++p) {
    specs.push_back({p, M_PI / 2.0});
    specs.push_back({p, -M_PI / 2.0});
    if (p % 3 == 0) specs.push_back({p, 3.0 * M_PI / 2.0});
  }

  std::vector<double> want(specs.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    want[s] = oracle::shifted_cost(c, observable, params, specs[s].param,
                                   specs[s].delta);
  }

  // Every chunking — single-lane, tiny, non-power-of-two, auto, and wider
  // than the spec list — must reproduce the interpreter exactly.
  for (const std::size_t limit : {1u, 2u, 5u, 16u, 1000u}) {
    exec::ScopedBatchLimit scoped(limit);
    expect_vectors_equal(
        exec::shifted_expectations(*plan, observable, params, specs), want);
  }
  {
    exec::ScopedBatchLimit scoped(exec::kBatchAuto);
    expect_vectors_equal(
        exec::shifted_expectations(*plan, observable, params, specs), want);
  }
}

// --- gradient engines --------------------------------------------------------

TEST(BatchedGradients, ShiftRuleEnginesMatchSerialExactly) {
  Rng rng(41);
  const std::size_t qubits = 4;
  for (int round = 0; round < 3; ++round) {
    Circuit c = random_circuit(rng, qubits, 32);
    // Guarantee both shift rules fire: a plain rotation and a controlled
    // rotation (4-term rule) are always present.
    c.add_rotation(gates::Axis::kY, 1);
    c.add_controlled_rotation(gates::Axis::kZ, 0, 2);
    const std::size_t num_params = c.num_parameters();
    const std::size_t last = num_params - 1;
    const GlobalZeroObservable observable(qubits);
    const std::vector<double> params =
        rng.uniform_vector(num_params, -M_PI, M_PI);

    const ParameterShiftEngine ps;
    const FiniteDifferenceEngine fd;
    const std::vector<double> ps_grad =
        oracle::parameter_shift_gradient(c, observable, params);
    const std::vector<double> fd_grad =
        oracle::finite_difference_gradient(c, observable, params);
    for (const std::size_t limit : {1ul, exec::kBatchAuto, 2ul, 5ul, 16ul}) {
      exec::ScopedBatchLimit scoped(limit);
      expect_vectors_equal(ps.gradient(c, observable, params), ps_grad);
      expect_vectors_equal(fd.gradient(c, observable, params), fd_grad);
      EXPECT_EQ(ps.partial(c, observable, params, last), ps_grad[last])
          << "limit " << limit;
      EXPECT_EQ(fd.partial(c, observable, params, last),
                oracle::finite_difference_partial(c, observable, params, last))
          << "limit " << limit;
    }
  }
}

TEST(BatchedGradients, SpsaMatchesSerialExactly) {
  Rng rng(42);
  const std::size_t qubits = 4;
  Circuit c = random_circuit(rng, qubits, 28);
  c.add_rotation(gates::Axis::kX, 0);
  const GlobalZeroObservable observable(qubits);
  const std::vector<double> params =
      rng.uniform_vector(c.num_parameters(), -M_PI, M_PI);

  // SPSA is stateful (its own RNG advances per call), so each comparison
  // uses a fresh engine seeded identically. Its +/- pair is two serial
  // simulations at every lane cap.
  const std::vector<double> want =
      oracle::spsa_gradient(c, observable, params, 7, 0.1);
  for (const std::size_t limit : {1ul, exec::kBatchAuto, 2ul, 16ul}) {
    exec::ScopedBatchLimit scoped(limit);
    expect_vectors_equal(SpsaEngine(7, 0.1).gradient(c, observable, params),
                         want);
  }
}

TEST(BatchedGradients, MalformedCustomGateIsRefusedAtEveryLaneCap) {
  // compile() refuses the 3x3 "gate", so plan_for and every shift-rule
  // engine throw InvalidArgument whatever the lane cap; nothing runs the
  // gate another way.
  Circuit c(2);
  c.add_rotation(gates::Axis::kX, 0);
  c.add_custom_gate("bad-dims", ComplexMatrix(3, 3), 1);
  c.add_rotation(gates::Axis::kY, 1);
  const GlobalZeroObservable observable(2);
  const std::vector<double> params{0.3, -1.1};

  for (const std::size_t limit : {1ul, exec::kBatchAuto, 8ul}) {
    exec::ScopedBatchLimit scoped(limit);
    EXPECT_THROW((void)exec::plan_for(c), InvalidArgument);
    for (const char* name : {"parameter-shift", "finite-difference"}) {
      const auto engine = make_gradient_engine(name);
      EXPECT_THROW((void)engine->gradient(c, observable, params),
                   InvalidArgument)
          << name;
      EXPECT_THROW((void)engine->partial(c, observable, params, 1),
                   InvalidArgument)
          << name;
    }
    EXPECT_EQ(c.execution_plan(), nullptr);
  }
}

// --- landscape ---------------------------------------------------------------

TEST(BatchedLandscape, ScanMatchesSerialAtNonPowerOfTwoWidth) {
  LandscapeOptions options;
  options.qubits = 3;
  options.layers = 4;
  options.grid_points = 7;  // 7 % 3 != 0: rows chunk unevenly
  options.seed = 5;

  // Point-by-point interpreted reference, same background draw as the
  // scan.
  const Circuit circuit = motivational_ansatz(options.qubits, options.layers);
  const auto observable = make_cost_observable(options.cost, options.qubits);
  Rng rng(options.seed);
  std::vector<double> params =
      rng.uniform_vector(circuit.num_parameters(), 0.0, 2.0 * M_PI);
  const LandscapeResult one_lane = [&] {
    exec::ScopedBatchLimit scoped(1);
    return scan_landscape(options);
  }();
  const std::size_t n = options.grid_points;
  std::vector<double> want(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    params[options.param_a] = one_lane.axis[i];
    for (std::size_t j = 0; j < n; ++j) {
      params[options.param_b] = one_lane.axis[j];
      want[i * n + j] =
          observable->expectation(oracle::simulate(circuit, params));
    }
  }
  expect_vectors_equal(one_lane.values, want);

  for (const std::size_t limit : {3ul, exec::kBatchAuto}) {
    exec::ScopedBatchLimit scoped(limit);
    const LandscapeResult batched = scan_landscape(options);
    expect_vectors_equal(batched.values, want);
    EXPECT_EQ(batched.min_value, one_lane.min_value);
    EXPECT_EQ(batched.max_value, one_lane.max_value);
    EXPECT_EQ(batched.stddev, one_lane.stddev);
  }
}

// --- variance ----------------------------------------------------------------

TEST(BatchedVariance, CellSamplesMatchSerialExactly) {
  VarianceExperimentOptions options;
  options.qubit_counts = {3};
  options.circuits_per_point = 6;
  options.layers = 5;
  options.seed = 42;
  const auto initializers = paper_initializers();
  ASSERT_FALSE(initializers.empty());
  const auto engine = make_gradient_engine(options.gradient_engine);

  const auto cell = [&] {
    return compute_variance_cell(options, 0, *initializers.front(), 0,
                                 *engine);
  };
  const std::vector<double> one_lane = [&] {
    exec::ScopedBatchLimit scoped(1);
    return cell();
  }();
  for (const std::size_t limit : {exec::kBatchAuto, 4ul}) {
    exec::ScopedBatchLimit scoped(limit);
    expect_vectors_equal(cell(), one_lane);
  }
}

TEST(BatchedSweep, FinalLossesMatchSerialExactly) {
  // The CLI's `sweep --batch` path: a whole training sweep is
  // byte-identical at every lane cap.
  TrainingSweepOptions options;
  options.base.qubits = 3;
  options.base.layers = 2;
  options.base.iterations = 3;
  options.base.seed = 11;
  options.repetitions = 2;
  const auto owned = paper_initializers();
  std::vector<const Initializer*> inits;
  for (const auto& init : owned) inits.push_back(init.get());

  const TrainingSweepResult one_lane = [&] {
    exec::ScopedBatchLimit scoped(1);
    return run_training_sweep(inits, options);
  }();
  exec::ScopedBatchLimit scoped(4);
  const TrainingSweepResult batched = run_training_sweep(inits, options);
  ASSERT_EQ(batched.series.size(), one_lane.series.size());
  for (std::size_t s = 0; s < one_lane.series.size(); ++s) {
    expect_vectors_equal(batched.series[s].final_losses,
                         one_lane.series[s].final_losses);
  }
}

// --- rotosolve ---------------------------------------------------------------

TEST(BatchedRotosolve, TrainingHistoryMatchesSerialExactly) {
  // Rotosolve runs every probe as a serial plan simulation; its whole
  // history must match the same sweep on the interpreted oracle.
  auto circuit = std::make_shared<Circuit>(3);
  for (std::size_t layer = 0; layer < 3; ++layer) {
    for (std::size_t q = 0; q < 3; ++q) {
      circuit->add_rotation(gates::Axis::kX, q);
      circuit->add_rotation(gates::Axis::kY, q);
    }
    circuit->add_cz(0, 1);
    circuit->add_cz(1, 2);
  }
  const CostFunction cost = make_identity_cost(circuit);
  Rng rng(9);
  const std::vector<double> init =
      rng.uniform_vector(cost.num_parameters(), -M_PI, M_PI);

  RotosolveOptions options;
  options.max_sweeps = 3;
  const TrainResult trained = train_rotosolve(cost, init, options);

  const GlobalZeroObservable observable(3);
  const auto oracle_cost = [&](const std::vector<double>& params) {
    return observable.expectation(oracle::simulate(*circuit, params));
  };
  std::vector<double> params = init;
  std::vector<double> history{oracle_cost(params)};
  for (std::size_t sweep = 0; sweep < options.max_sweeps; ++sweep) {
    for (std::size_t i = 0; i < params.size(); ++i) {
      const double theta = params[i];
      const double at = oracle_cost(params);
      params[i] = theta + M_PI / 2.0;
      const double plus = oracle_cost(params);
      params[i] = theta - M_PI / 2.0;
      const double minus = oracle_cost(params);
      params[i] = theta - M_PI / 2.0 -
                  std::atan2(2.0 * at - plus - minus, plus - minus);
    }
    history.push_back(oracle_cost(params));
    const double improvement = history[history.size() - 2] - history.back();
    if (improvement < options.min_improvement) {
      break;
    }
  }
  expect_vectors_equal(trained.loss_history, history);
  expect_vectors_equal(trained.final_params, params);
  EXPECT_EQ(trained.final_loss, history.back());
}

}  // namespace
}  // namespace qbarren
