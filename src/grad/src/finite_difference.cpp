#include "qbarren/exec/batched.hpp"
#include "qbarren/exec/compiled_circuit.hpp"
#include "qbarren/grad/engine.hpp"

namespace qbarren {

FiniteDifferenceEngine::FiniteDifferenceEngine(double h) : h_(h) {
  QBARREN_REQUIRE(h > 0.0, "FiniteDifferenceEngine: step must be positive");
}

double FiniteDifferenceEngine::partial(const Circuit& circuit,
                                       const Observable& observable,
                                       std::span<const double> params,
                                       std::size_t index) const {
  check_args(circuit, observable, params);
  QBARREN_REQUIRE(index < params.size(),
                  "FiniteDifferenceEngine::partial: index out of range");
  // The +/- pair as a batch of 2 lanes sharing prefix and suffix.
  const auto plan = exec::plan_for(circuit);
  const exec::ShiftSpec specs[] = {{index, h_}, {index, -h_}};
  const std::vector<double> v =
      exec::shifted_expectations(*plan, observable, params, specs);
  return (v[0] - v[1]) / (2.0 * h_);
}

std::vector<double> FiniteDifferenceEngine::gradient(
    const Circuit& circuit, const Observable& observable,
    std::span<const double> params) const {
  check_args(circuit, observable, params);
  // All 2P shifted bindings through the chunked batched dispatch: one
  // monotonic walk of the op stream instead of a fresh prefix per
  // parameter.
  const auto plan = exec::plan_for(circuit);
  std::vector<exec::ShiftSpec> specs;
  specs.reserve(2 * params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    specs.push_back({i, h_});
    specs.push_back({i, -h_});
  }
  const std::vector<double> v =
      exec::shifted_expectations(*plan, observable, params, specs);
  std::vector<double> grad(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    grad[i] = (v[2 * i] - v[2 * i + 1]) / (2.0 * h_);
  }
  return grad;
}

}  // namespace qbarren
