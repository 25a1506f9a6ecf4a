// Views of the library's complex types as the kernel core's double arrays.
#pragma once

#include <type_traits>

#include "qbarren/exec/kernel_core.hpp"
#include "qbarren/qsim/gates.hpp"

namespace qbarren::exec {

static_assert(sizeof(Complex) == 2 * sizeof(double),
              "std::complex<double> is two doubles");
static_assert(std::is_standard_layout_v<gates::Mat2> &&
                  sizeof(gates::Mat2) == 4 * sizeof(Complex),
              "gates::Mat2 is four packed complex entries");

/// Complex arrays are (re, im) double arrays ([complex.numbers]).
inline double* as_doubles(Complex* amps) {
  return reinterpret_cast<double*>(amps);
}

inline const double* as_doubles(const Complex* amps) {
  return reinterpret_cast<const double*>(amps);
}

/// A Mat2 (or an array of them) as 8 doubles per matrix.
inline const double* as_doubles(const gates::Mat2* u) {
  return reinterpret_cast<const double*>(u);
}

}  // namespace qbarren::exec
