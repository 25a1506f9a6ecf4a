// Interpreted reference execution for the exact-== tests.
//
// Production code has one execution path: every consumer runs the
// compiled plan (qbarren/exec). The tests check that path bit for bit
// against the op-by-op interpreter built here from Circuit's public
// per-op primitives (apply_operation, apply_operation_inverse,
// apply_operation_derivative, operation_matrix). None of these reads an
// attached plan, so the oracle gives the interpreted answer whether or not
// the circuit has been lowered.
//
// Covered: the state walk (from |0...0> or any start state), the shift
// rules (two-term, four-term for controlled rotations, central finite
// differences), the adjoint sweep, the QNG metric's derivative states,
// SPSA's +/- pair, and the noisy density-matrix walk. Also here: the
// random circuit generator shared by the exec and batched tests.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "qbarren/circuit/circuit.hpp"
#include "qbarren/common/rng.hpp"
#include "qbarren/dsim/noisy.hpp"
#include "qbarren/grad/engine.hpp"
#include "qbarren/obs/observable.hpp"
#include "qbarren/qsim/statevector.hpp"

namespace qbarren::oracle {

/// `state` through every op of `circuit`, one apply_operation at a time.
inline StateVector simulate(const Circuit& circuit,
                            std::span<const double> params,
                            StateVector state) {
  for (std::size_t i = 0; i < circuit.operations().size(); ++i) {
    circuit.apply_operation(i, state, params);
  }
  return state;
}

/// |0...0> through every op of `circuit`.
inline StateVector simulate(const Circuit& circuit,
                            std::span<const double> params) {
  return simulate(circuit, params, StateVector(circuit.num_qubits()));
}

/// Cost at `params` with params[index] shifted by `delta`.
inline double shifted_cost(const Circuit& circuit,
                           const Observable& observable,
                           std::span<const double> params, std::size_t index,
                           double delta) {
  std::vector<double> shifted(params.begin(), params.end());
  shifted[index] = params[index] + delta;
  return observable.expectation(simulate(circuit, shifted));
}

/// Two-term shift rule; four-term (Anselmetti et al. 2021) for controlled
/// rotations.
inline double parameter_shift_partial(const Circuit& circuit,
                                      const Observable& observable,
                                      std::span<const double> params,
                                      std::size_t index) {
  constexpr double kShift = M_PI / 2.0;
  const auto cost = [&](double delta) {
    return shifted_cost(circuit, observable, params, index, delta);
  };
  if (circuit.operation_for_parameter(index).kind ==
      OpKind::kControlledRotation) {
    const double sqrt2 = std::sqrt(2.0);
    const double a = (sqrt2 + 1.0) / (4.0 * sqrt2);
    const double b = -(sqrt2 - 1.0) / (4.0 * sqrt2);
    const double d1 = cost(kShift) - cost(-kShift);
    const double d3 = cost(3.0 * kShift) - cost(-3.0 * kShift);
    return a * d1 + b * d3;
  }
  const double plus = cost(kShift);
  const double minus = cost(-kShift);
  return 0.5 * (plus - minus);
}

inline std::vector<double> parameter_shift_gradient(
    const Circuit& circuit, const Observable& observable,
    std::span<const double> params) {
  std::vector<double> grad(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    grad[i] = parameter_shift_partial(circuit, observable, params, i);
  }
  return grad;
}

/// Central difference with step `h` (FiniteDifferenceEngine's default is
/// 1e-6).
inline double finite_difference_partial(const Circuit& circuit,
                                        const Observable& observable,
                                        std::span<const double> params,
                                        std::size_t index, double h = 1e-6) {
  const double plus = shifted_cost(circuit, observable, params, index, h);
  const double minus = shifted_cost(circuit, observable, params, index, -h);
  return (plus - minus) / (2.0 * h);
}

inline std::vector<double> finite_difference_gradient(
    const Circuit& circuit, const Observable& observable,
    std::span<const double> params, double h = 1e-6) {
  std::vector<double> grad(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    grad[i] = finite_difference_partial(circuit, observable, params, i, h);
  }
  return grad;
}

/// Reverse-mode sweep: phi runs forward once, lambda = H|phi>, then both
/// are un-applied op by op while 2 Re<lambda|dU_k|phi_{k-1}> accumulates.
inline ValueAndGradient adjoint(const Circuit& circuit,
                                const Observable& observable,
                                std::span<const double> params) {
  ValueAndGradient out;
  out.gradient.assign(params.size(), 0.0);
  StateVector phi = simulate(circuit, params);
  StateVector lambda = observable.apply(phi);
  out.value = phi.inner_product(lambda).real();

  StateVector scratch(circuit.num_qubits());
  const auto& ops = circuit.operations();
  for (std::size_t k = ops.size(); k-- > 0;) {
    circuit.apply_operation_inverse(k, phi, params);
    if (is_parameterized(ops[k].kind)) {
      scratch = phi;
      circuit.apply_operation_derivative(k, scratch, params);
      out.gradient[ops[k].param_index] +=
          2.0 * lambda.inner_product(scratch).real();
    }
    circuit.apply_operation_inverse(k, lambda, params);
  }
  return out;
}

/// Derivative states |d_i psi>, indexed by parameter: the state entering
/// each parameterized op, its op derivative, then the rest of the circuit.
inline std::vector<StateVector> derivative_states(
    const Circuit& circuit, std::span<const double> params) {
  const auto& ops = circuit.operations();
  std::vector<StateVector> out(params.size(),
                               StateVector(circuit.num_qubits()));
  StateVector phi(circuit.num_qubits());
  for (std::size_t k = 0; k < ops.size(); ++k) {
    if (is_parameterized(ops[k].kind)) {
      StateVector d = phi;
      circuit.apply_operation_derivative(k, d, params);
      for (std::size_t j = k + 1; j < ops.size(); ++j) {
        circuit.apply_operation(j, d, params);
      }
      out[ops[k].param_index] = std::move(d);
    }
    circuit.apply_operation(k, phi, params);
  }
  return out;
}

/// SPSA's first gradient from an engine seeded with `seed`: one
/// Rademacher draw per parameter, then the +/- pair.
inline std::vector<double> spsa_gradient(const Circuit& circuit,
                                         const Observable& observable,
                                         std::span<const double> params,
                                         std::uint64_t seed, double c) {
  Rng rng(seed);
  const std::size_t n = params.size();
  std::vector<double> delta(n);
  for (double& d : delta) d = rng.bernoulli(0.5) ? 1.0 : -1.0;
  std::vector<double> plus(params.begin(), params.end());
  std::vector<double> minus(params.begin(), params.end());
  for (std::size_t i = 0; i < n; ++i) {
    plus[i] += c * delta[i];
    minus[i] -= c * delta[i];
  }
  const double scale = (observable.expectation(simulate(circuit, plus)) -
                        observable.expectation(simulate(circuit, minus))) /
                       (2.0 * c);
  std::vector<double> grad(n);
  for (std::size_t i = 0; i < n; ++i) grad[i] = scale / delta[i];
  return grad;
}

/// The noisy density-matrix walk with every gate's dense matrix from
/// Circuit::operation_matrix (the compiled walk takes constant ones from
/// the plan's cache).
inline DensityMatrix simulate_noisy(const Circuit& circuit,
                                    std::span<const double> params,
                                    const NoiseModel& noise) {
  DensityMatrix rho(circuit.num_qubits());
  const auto& ops = circuit.operations();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Operation& op = ops[i];
    if (is_two_qubit(op.kind)) {
      if (op.kind == OpKind::kCz) {
        rho.apply_cz(op.qubit0, op.qubit1);
      } else {
        rho.apply_unitary_2q(circuit.operation_matrix(i, params), op.qubit0,
                             op.qubit1);
      }
      if (noise.two_qubit.has_value()) {
        rho.apply_channel_2q(*noise.two_qubit, op.qubit0, op.qubit1);
      } else if (noise.single_qubit.has_value()) {
        rho.apply_channel_1q(*noise.single_qubit, op.qubit0);
        rho.apply_channel_1q(*noise.single_qubit, op.qubit1);
      }
    } else {
      rho.apply_unitary_1q(circuit.operation_matrix(i, params), op.qubit0);
      if (noise.single_qubit.has_value()) {
        rho.apply_channel_1q(*noise.single_qubit, op.qubit0);
      }
    }
  }
  return rho;
}

// --- shared test fixtures ----------------------------------------------------

/// Random circuit mixing every op kind the builders expose (13 kinds), so
/// every kernel gets exercised.
inline Circuit random_circuit(Rng& rng, std::size_t qubits,
                              std::size_t num_ops) {
  Circuit c(qubits);
  const auto axis = [&] {
    const std::size_t a = rng.index(3);
    return a == 0 ? gates::Axis::kX : a == 1 ? gates::Axis::kY : gates::Axis::kZ;
  };
  const auto pair = [&](std::size_t& a, std::size_t& b) {
    a = rng.index(qubits);
    b = rng.index(qubits - 1);
    if (b >= a) ++b;
  };
  for (std::size_t i = 0; i < num_ops; ++i) {
    const std::size_t q = rng.index(qubits);
    std::size_t a = 0;
    std::size_t b = 0;
    switch (rng.index(13)) {
      case 0:
        c.add_rotation(axis(), q);
        break;
      case 1:
        pair(a, b);
        c.add_controlled_rotation(axis(), a, b);
        break;
      case 2:
        c.add_fixed_rotation(axis(), q, rng.uniform(-M_PI, M_PI));
        break;
      case 3:
        c.add_hadamard(q);
        break;
      case 4:
        c.add_pauli_x(q);
        break;
      case 5:
        c.add_pauli_y(q);
        break;
      case 6:
        c.add_pauli_z(q);
        break;
      case 7:
        c.add_s(q);
        break;
      case 8:
        c.add_t(q);
        break;
      case 9:
        pair(a, b);
        c.add_cz(a, b);
        break;
      case 10:
        pair(a, b);
        c.add_cnot(a, b);
        break;
      case 11:
        pair(a, b);
        c.add_swap(a, b);
        break;
      case 12:
        if (rng.bernoulli(0.5)) {
          c.add_custom_gate("u3", gates::u3(rng.uniform(0.0, M_PI),
                                            rng.uniform(0.0, 2.0 * M_PI),
                                            rng.uniform(0.0, 2.0 * M_PI)),
                            q);
        } else {
          pair(a, b);
          c.add_custom_two_qubit_gate(
              "crz*swap", gates::crz(rng.uniform(-M_PI, M_PI)) * gates::swap(),
              std::min(a, b), std::max(a, b));
        }
        break;
    }
  }
  return c;
}

inline void expect_states_equal(const StateVector& got,
                                const StateVector& want) {
  ASSERT_EQ(got.dimension(), want.dimension());
  for (std::size_t i = 0; i < got.dimension(); ++i) {
    EXPECT_EQ(got.amplitudes()[i].real(), want.amplitudes()[i].real()) << i;
    EXPECT_EQ(got.amplitudes()[i].imag(), want.amplitudes()[i].imag()) << i;
  }
}

inline void expect_vectors_equal(const std::vector<double>& got,
                                 const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "index " << i;
  }
}

}  // namespace qbarren::oracle
