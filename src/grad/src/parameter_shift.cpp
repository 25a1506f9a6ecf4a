#include <array>
#include <cmath>

#include "qbarren/exec/batched.hpp"
#include "qbarren/exec/compiled_circuit.hpp"
#include "qbarren/grad/engine.hpp"

namespace qbarren {

namespace {

// All trainable gates in qbarren are single-parameter Pauli rotations
// R(theta) = exp(-i theta P/2), for which the two-term shift rule
//   dC = [C(+pi/2) - C(-pi/2)] / 2
// is exact (Schuld et al. 2019). Controlled rotations (generator
// eigenvalues {0, +-1/2}) need the four-term rule (Anselmetti et al. 2021):
//   dC = a [C(+pi/2) - C(-pi/2)] + b [C(+3pi/2) - C(-3pi/2)],
//   a = (sqrt(2)+1)/(4 sqrt(2)),  b = -(sqrt(2)-1)/(4 sqrt(2)).
constexpr double kShift = M_PI / 2.0;

bool needs_four_terms(const Circuit& circuit, std::size_t index) {
  return circuit.operation_for_parameter(index).kind ==
         OpKind::kControlledRotation;
}

// Parameter `index`'s shifted bindings: +-pi/2, then +-3pi/2, of which the
// two-term rule uses the first two.
std::array<exec::ShiftSpec, 4> shift_specs(std::size_t index) {
  return {{{index, kShift},
           {index, -kShift},
           {index, 3.0 * kShift},
           {index, -3.0 * kShift}}};
}

std::size_t num_terms(bool four_term) { return four_term ? 4 : 2; }

// The shift rule over one parameter's costs, in shift_specs order.
double shift_rule(const double* v, bool four_term) {
  if (four_term) {
    const double sqrt2 = std::sqrt(2.0);
    const double a = (sqrt2 + 1.0) / (4.0 * sqrt2);
    const double b = -(sqrt2 - 1.0) / (4.0 * sqrt2);
    const double d1 = v[0] - v[1];
    const double d3 = v[2] - v[3];
    return a * d1 + b * d3;
  }
  return 0.5 * (v[0] - v[1]);
}

}  // namespace

double ParameterShiftEngine::partial(const Circuit& circuit,
                                     const Observable& observable,
                                     std::span<const double> params,
                                     std::size_t index) const {
  check_args(circuit, observable, params);
  QBARREN_REQUIRE(index < params.size(),
                  "ParameterShiftEngine::partial: index out of range");
  // Attach the compiled plan first so operation_for_parameter below hits
  // the binding table rather than the linear scan.
  const auto plan = exec::plan_for(circuit);
  const bool four_term = needs_four_terms(circuit, index);
  // The shifted bindings share the prefix before the shifted gate and walk
  // the suffix together as lanes of one batched dispatch.
  const std::array<exec::ShiftSpec, 4> specs = shift_specs(index);
  const std::vector<double> v = exec::shifted_expectations(
      *plan, observable, params,
      std::span<const exec::ShiftSpec>(specs.data(), num_terms(four_term)));
  return shift_rule(v.data(), four_term);
}

std::vector<double> ParameterShiftEngine::gradient(
    const Circuit& circuit, const Observable& observable,
    std::span<const double> params) const {
  check_args(circuit, observable, params);
  const auto plan = exec::plan_for(circuit);
  // Every parameter's shifted bindings (2 per rotation, 4 per controlled
  // rotation) through the chunked batched dispatch: one monotonic walk of
  // the op stream instead of a fresh prefix simulation per parameter.
  std::vector<exec::ShiftSpec> specs;
  specs.reserve(2 * params.size());
  std::vector<std::size_t> first_spec(params.size());
  std::vector<bool> four_term(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    first_spec[i] = specs.size();
    four_term[i] = needs_four_terms(circuit, i);
    const std::array<exec::ShiftSpec, 4> own = shift_specs(i);
    specs.insert(specs.end(), own.begin(),
                 own.begin() + static_cast<std::ptrdiff_t>(
                                   num_terms(four_term[i])));
  }
  const std::vector<double> v =
      exec::shifted_expectations(*plan, observable, params, specs);
  std::vector<double> grad(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    grad[i] = shift_rule(v.data() + first_spec[i], four_term[i]);
  }
  return grad;
}

}  // namespace qbarren
