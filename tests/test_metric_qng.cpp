// Tests for the Fubini-Study metric and quantum natural gradient training.
#include <gtest/gtest.h>

#include <cmath>

#include "interpreted_oracle.hpp"
#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/grad/metric.hpp"
#include "qbarren/linalg/checks.hpp"
#include "qbarren/linalg/solve.hpp"
#include "qbarren/opt/natural_gradient.hpp"

namespace qbarren {
namespace {

TEST(DerivativeStates, MatchInterpretedOracleExactly) {
  // The metric runs on the compiled plan; every derivative state and psi
  // equal the op-by-op interpreter bit for bit, on every op kind.
  Rng rng(23);
  for (int round = 0; round < 3; ++round) {
    Circuit c = oracle::random_circuit(rng, 3, 30);
    c.add_controlled_rotation(gates::Axis::kX, 1, 2);
    const auto params =
        rng.uniform_vector(c.num_parameters(), -M_PI, M_PI);
    const auto want = oracle::derivative_states(c, params);
    const auto got = derivative_states(c, params);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      oracle::expect_states_equal(got[i], want[i]);
    }
  }
}

TEST(DerivativeStates, MatchFiniteDifferencesOfTheState) {
  TrainingAnsatzOptions options;
  options.layers = 2;
  const Circuit c = training_ansatz(2, options);
  Rng rng(1);
  const auto params = rng.uniform_vector(c.num_parameters(), 0.0, 2.0);

  const auto derivatives = derivative_states(c, params);
  ASSERT_EQ(derivatives.size(), c.num_parameters());

  const double h = 1e-6;
  for (std::size_t i = 0; i < params.size(); i += 3) {
    std::vector<double> shifted(params);
    shifted[i] += h;
    const StateVector plus = c.simulate(shifted);
    shifted[i] = params[i] - h;
    const StateVector minus = c.simulate(shifted);
    for (std::size_t k = 0; k < plus.dimension(); ++k) {
      const Complex fd =
          (plus.amplitude(k) - minus.amplitude(k)) / (2.0 * h);
      EXPECT_NEAR(std::abs(derivatives[i].amplitude(k) - fd), 0.0, 1e-6)
          << "param " << i << " amp " << k;
    }
  }
}

TEST(Metric, SingleRyIsQuarter) {
  // For |psi> = RY(theta)|0>, the Fubini-Study metric is 1/4 at any angle.
  Circuit c(1);
  c.add_rotation(gates::Axis::kY, 0);
  for (const double theta : {0.0, 0.7, M_PI / 2.0, 2.5}) {
    const RealMatrix f =
        fubini_study_metric(c, std::vector<double>{theta});
    ASSERT_EQ(f.rows(), 1u);
    EXPECT_NEAR(f(0, 0), 0.25, 1e-11) << theta;
  }
}

TEST(Metric, TwoIndependentQubitsIsDiagonalQuarter) {
  // RY on each of two qubits, no entangler: parameters act on orthogonal
  // factors, so F = diag(1/4, 1/4) for generic angles... the off-diagonal
  // term <d0|d1> - <d0|psi><psi|d1> vanishes because the Berry connection
  // exactly cancels the product term for real RY states.
  Circuit c(2);
  c.add_rotation(gates::Axis::kY, 0);
  c.add_rotation(gates::Axis::kY, 1);
  const std::vector<double> params{0.8, 1.7};
  const RealMatrix f = fubini_study_metric(c, params);
  EXPECT_NEAR(f(0, 0), 0.25, 1e-11);
  EXPECT_NEAR(f(1, 1), 0.25, 1e-11);
  EXPECT_NEAR(f(0, 1), 0.0, 1e-11);
  EXPECT_NEAR(f(1, 0), 0.0, 1e-11);
}

TEST(Metric, SequentialRzRyOnOneQubitKnownValue) {
  // |psi> = RY(b) RZ(a) |0>: standard QNG example. The metric's diagonal
  // entries are Var of the generators: F_aa = 1/4 (1 - <Z>^2) with <Z> on
  // |0> = 1 -> F_aa = 0; F_bb = 1/4.
  Circuit c(1);
  c.add_rotation(gates::Axis::kZ, 0);
  c.add_rotation(gates::Axis::kY, 0);
  const RealMatrix f =
      fubini_study_metric(c, std::vector<double>{0.3, 1.1});
  EXPECT_NEAR(f(0, 0), 0.0, 1e-11);   // RZ acts trivially on |0>
  EXPECT_NEAR(f(1, 1), 0.25, 1e-11);
}

TEST(Metric, SymmetricPositiveSemidefinite) {
  TrainingAnsatzOptions options;
  options.layers = 2;
  const Circuit c = training_ansatz(3, options);
  Rng rng(5);
  const auto params = rng.uniform_vector(c.num_parameters(), 0.0, 6.0);
  const RealMatrix f = fubini_study_metric(c, params);

  EXPECT_LT(max_abs_diff(f, f.transpose()), 1e-11);
  // PSD check: Cholesky of F + tiny ridge succeeds.
  RealMatrix ridged = f;
  for (std::size_t i = 0; i < ridged.rows(); ++i) {
    ridged(i, i) += 1e-9;
  }
  EXPECT_NO_THROW((void)cholesky(ridged));
}

TEST(Metric, ValidatesArguments) {
  const Circuit no_params(1);
  EXPECT_THROW((void)fubini_study_metric(no_params, {}), InvalidArgument);

  Circuit c(1);
  c.add_rotation(gates::Axis::kY, 0);
  EXPECT_THROW((void)derivative_states(c, std::vector<double>{1.0, 2.0}),
               InvalidArgument);
}

TEST(Qng, ConvergesOnIdentityTask) {
  TrainingAnsatzOptions ansatz_options;
  ansatz_options.layers = 2;
  auto circuit =
      std::make_shared<const Circuit>(training_ansatz(3, ansatz_options));
  const CostFunction cost = make_identity_cost(circuit);
  const AdjointEngine engine;

  NaturalGradientOptions options;
  options.max_iterations = 30;
  options.learning_rate = 0.2;
  const std::vector<double> init(cost.num_parameters(), 0.4);
  const TrainResult result =
      train_natural_gradient(cost, engine, init, options);
  EXPECT_LT(result.final_loss, 0.01);
  EXPECT_EQ(result.loss_history.size(), 31u);
  EXPECT_EQ(result.gradient_norm_history.size(), 30u);
}

TEST(Qng, BeatsVanillaGdPerIteration) {
  // QNG rescales flat directions, converging in fewer iterations than GD
  // at the same learning rate on the identity task.
  TrainingAnsatzOptions ansatz_options;
  ansatz_options.layers = 2;
  auto circuit =
      std::make_shared<const Circuit>(training_ansatz(4, ansatz_options));
  const CostFunction cost = make_identity_cost(circuit);
  const AdjointEngine engine;
  const std::vector<double> init(cost.num_parameters(), 0.35);

  NaturalGradientOptions qng_options;
  qng_options.max_iterations = 15;
  qng_options.learning_rate = 0.1;
  const TrainResult qng =
      train_natural_gradient(cost, engine, init, qng_options);

  GradientDescent gd(0.1);
  TrainOptions gd_options;
  gd_options.max_iterations = 15;
  const TrainResult vanilla = train(cost, engine, gd, init, gd_options);

  EXPECT_LT(qng.final_loss, vanilla.final_loss);
}

TEST(Qng, ValidatesOptions) {
  Circuit raw(1);
  raw.add_rotation(gates::Axis::kY, 0);
  auto circuit = std::make_shared<const Circuit>(std::move(raw));
  const CostFunction cost = make_identity_cost(circuit);
  const AdjointEngine engine;

  EXPECT_THROW((void)train_natural_gradient(cost, engine, {1.0, 2.0}),
               InvalidArgument);
  NaturalGradientOptions bad;
  bad.learning_rate = 0.0;
  EXPECT_THROW((void)train_natural_gradient(cost, engine, {1.0}, bad),
               InvalidArgument);
  bad = NaturalGradientOptions{};
  bad.lambda = -1.0;
  EXPECT_THROW((void)train_natural_gradient(cost, engine, {1.0}, bad),
               InvalidArgument);
}

}  // namespace
}  // namespace qbarren
