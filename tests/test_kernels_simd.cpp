// Exact-equality sweep of the amplitude-kernel core against the
// std::complex StateVector interpreter.
//
// Every entry of both core builds (scalar and AVX2, reached directly
// through qbarren/exec/kernel_core.hpp) runs at q = 1..12 on every target
// and every ordered (control, target) pair, over random states and states
// seeded with signed zeros, subnormals and large magnitudes. Results must
// match the interpreter bit for bit (memcmp, so even the sign of a zero
// counts); the RZ diagonal kernel is additionally held to value equality
// (==) against the interpreter's full 2x2 apply, whose extra 0 * amplitude
// products can only change the sign of a zero. The batched kernels, which
// run the active core per lane, are swept at lane counts 1..5. The adjoint
// sweep step and the out-of-place 4x4 run to q = 13, and whole adjoint
// passes are held to the interpreted oracle's bits.
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "interpreted_oracle.hpp"
#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/exec/batched_kernels.hpp"
#include "qbarren/exec/compiled_circuit.hpp"
#include "qbarren/exec/kernel_core.hpp"
#include "qbarren/qsim/batched_statevector.hpp"
#include "qbarren/qsim/gates.hpp"
#include "qbarren/qsim/statevector.hpp"

namespace qbarren::exec {
namespace {

constexpr std::size_t kMaxQubits = 12;
// The adjoint sweep and the out-of-place 4x4 also run at q = 11..13,
// where blocks are wider than the core's 1024-amplitude chunk.
constexpr std::size_t kMaxSweepQubits = 13;

double* raw(StateVector& s) {
  return reinterpret_cast<double*>(s.amplitudes().data());
}

const double* raw(const StateVector& s) {
  return reinterpret_cast<const double*>(s.amplitudes().data());
}

const double* raw(const gates::Mat2& u) {
  return reinterpret_cast<const double*>(&u);
}

bool bit_equal(const StateVector& a, const StateVector& b) {
  return a.dimension() == b.dimension() &&
         std::memcmp(a.amplitudes().data(), b.amplitudes().data(),
                     a.dimension() * sizeof(Complex)) == 0;
}

bool value_equal(const StateVector& a, const StateVector& b) {
  return a.amplitudes() == b.amplitudes();
}

ComplexMatrix matrix_of(const gates::Mat2& u) {
  return ComplexMatrix(2, 2, {u.m00, u.m01, u.m10, u.m11});
}

/// Random states plus ones salted with the floating-point edge cases the
/// kernels must pass through unchanged in kind: signed zeros, subnormals
/// and magnitudes near (but safely below) overflow.
std::vector<StateVector> test_states(std::size_t q, std::mt19937_64& rng) {
  std::normal_distribution<double> normal;
  const std::size_t dim = std::size_t{1} << q;
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double edge[] = {0.0,        -0.0,     tiny,    -tiny,  1e-310,
                         -3.5e-320,  1e300,    -1e300,  7e299,  -0.0,
                         2.2250738585072014e-308};
  std::vector<StateVector> states;
  std::vector<Complex> random(dim);
  for (Complex& a : random) a = Complex(normal(rng), normal(rng));
  states.emplace_back(q, random);
  std::vector<Complex> salted(dim);
  std::uniform_int_distribution<std::size_t> pick(0, std::size(edge) - 1);
  for (std::size_t i = 0; i < dim; ++i) {
    const bool edge_re = i % 3 != 2;
    const bool edge_im = i % 2 == 0;
    salted[i] = Complex(edge_re ? edge[pick(rng)] : normal(rng),
                        edge_im ? edge[pick(rng)] : normal(rng));
  }
  states.emplace_back(q, salted);
  return states;
}

/// A dense (non-unitary) 2x2 with some exact-zero and negative-zero
/// entries, and the rotation matrices the plans actually bind.
std::vector<gates::Mat2> test_gates(std::mt19937_64& rng) {
  std::normal_distribution<double> normal;
  const auto c = [&] { return Complex(normal(rng), normal(rng)); };
  return {
      gates::Mat2{c(), c(), c(), c()},
      gates::Mat2{c(), Complex(0.0, -0.0), Complex(-0.0, 0.0), c()},
      gates::rotation_entries(gates::Axis::kX, 0.7310),
      gates::rotation_entries(gates::Axis::kY, -2.1),
      gates::rotation_entries(gates::Axis::kZ, 1.234),
  };
}

class KernelCore : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "scalar") {
      table_ = &core::scalar_kernels();
    } else {
      table_ = core::avx2_kernels();
      if (table_ == nullptr) {
        GTEST_SKIP() << "AVX2 core not built or CPU lacks AVX2";
      }
    }
  }

  const core::KernelTable& k() const { return *table_; }

 private:
  const core::KernelTable* table_ = nullptr;
};

TEST_P(KernelCore, Mat2MatchesInterpreterBitForBit) {
  std::mt19937_64 rng(101);
  for (std::size_t q = 1; q <= kMaxQubits; ++q) {
    const auto gates = test_gates(rng);
    for (const StateVector& start : test_states(q, rng)) {
      for (std::size_t t = 0; t < q; ++t) {
        for (const gates::Mat2& u : gates) {
          StateVector expected = start;
          expected.apply_single_qubit(matrix_of(u), t);
          StateVector got = start;
          k().mat2(raw(got), got.dimension(), raw(u), t);
          ASSERT_TRUE(bit_equal(got, expected)) << "q=" << q << " t=" << t;

          StateVector out(q);
          k().mat2_from(raw(out), raw(start), start.dimension(), raw(u), t);
          ASSERT_TRUE(bit_equal(out, expected)) << "from q=" << q
                                                << " t=" << t;
        }
      }
    }
  }
}

TEST_P(KernelCore, DiagonalMatchesInterpreter) {
  std::mt19937_64 rng(202);
  const gates::Mat2 rz = gates::rotation_entries(gates::Axis::kZ, -0.9);
  for (std::size_t q = 1; q <= kMaxQubits; ++q) {
    for (const StateVector& start : test_states(q, rng)) {
      for (std::size_t t = 0; t < q; ++t) {
        StateVector got = start;
        k().diag(raw(got), got.dimension(), raw(rz), t);
        // Diagonal products alone, bit for bit.
        StateVector expected = start;
        for (std::size_t i = 0; i < expected.dimension(); ++i) {
          Complex& a = expected.amplitudes()[i];
          a = (((i >> t) & 1) != 0 ? rz.m11 : rz.m00) * a;
        }
        ASSERT_TRUE(bit_equal(got, expected)) << "q=" << q << " t=" << t;
        // The interpreter's full 2x2 apply, up to the sign of zero.
        StateVector full = start;
        full.apply_single_qubit(matrix_of(rz), t);
        ASSERT_TRUE(value_equal(got, full)) << "q=" << q << " t=" << t;
      }
    }
  }
}

TEST_P(KernelCore, FusedRunMatchesSequentialApplies) {
  std::mt19937_64 rng(303);
  for (std::size_t q = 1; q <= kMaxQubits; ++q) {
    const auto pool = test_gates(rng);
    const std::vector<std::uint32_t> indices = {3, 0, 2, 1, 4};
    for (const StateVector& start : test_states(q, rng)) {
      for (std::size_t t = 0; t < q; ++t) {
        for (std::size_t count = 1; count <= indices.size(); ++count) {
          for (const bool reverse : {false, true}) {
            StateVector expected = start;
            for (std::size_t g = 0; g < count; ++g) {
              const std::uint32_t at =
                  indices[reverse ? count - 1 - g : g];
              expected.apply_single_qubit(matrix_of(pool[at]), t);
            }
            StateVector got = start;
            k().mat2_run(raw(got), got.dimension(),
                         reinterpret_cast<const double*>(pool.data()),
                         indices.data(), count, reverse, t);
            ASSERT_TRUE(bit_equal(got, expected))
                << "q=" << q << " t=" << t << " count=" << count
                << " reverse=" << reverse;
          }
        }
      }
    }
  }
}

TEST_P(KernelCore, TwoQubitKernelsMatchInterpreterOnEveryPair) {
  std::mt19937_64 rng(404);
  std::normal_distribution<double> normal;
  for (std::size_t q = 2; q <= kMaxQubits; ++q) {
    const auto gates = test_gates(rng);
    std::vector<Complex> m4(16);
    for (Complex& e : m4) e = Complex(normal(rng), normal(rng));
    m4[5] = Complex(-0.0, 0.0);
    const ComplexMatrix u4(4, 4, m4);
    for (const StateVector& start : test_states(q, rng)) {
      for (std::size_t c = 0; c < q; ++c) {
        for (std::size_t t = 0; t < q; ++t) {
          if (c == t) continue;
          for (const gates::Mat2& u : {gates[0], gates[2]}) {
            StateVector expected = start;
            expected.apply_controlled(matrix_of(u), c, t);
            StateVector got = start;
            k().controlled(raw(got), got.dimension(), raw(u), c, t);
            ASSERT_TRUE(bit_equal(got, expected))
                << "controlled q=" << q << " c=" << c << " t=" << t;
          }

          StateVector expected = start;
          expected.apply_cz(c, t);
          StateVector got = start;
          k().cz(raw(got), got.dimension(), c, t);
          ASSERT_TRUE(bit_equal(got, expected))
              << "cz q=" << q << " a=" << c << " b=" << t;

          expected = start;
          expected.apply_two_qubit(u4, c, t);
          got = start;
          k().mat4(raw(got), got.dimension(),
                   reinterpret_cast<const double*>(u4.data().data()), c, t);
          ASSERT_TRUE(bit_equal(got, expected))
              << "mat4 q=" << q << " low=" << c << " high=" << t;
        }
      }
    }
  }
}

TEST_P(KernelCore, Mat4FromMatchesInterpreter) {
  std::mt19937_64 rng(707);
  std::normal_distribution<double> normal;
  for (std::size_t q = 2; q <= kMaxSweepQubits; ++q) {
    std::vector<Complex> dense(16);
    for (Complex& e : dense) e = Complex(normal(rng), normal(rng));
    dense[6] = Complex(0.0, -0.0);
    // The controlled-rotation derivative's layout: |1><1| (x) dR, zero
    // elsewhere (matrix bit 0 = control).
    const gates::Mat2 dr = gates::rotation_derivative_entries(
        gates::Axis::kZ, normal(rng));
    std::vector<Complex> controlled(16);
    controlled[5] = dr.m00;
    controlled[7] = dr.m01;
    controlled[13] = dr.m10;
    controlled[15] = dr.m11;
    const auto starts = test_states(q, rng);
    for (const StateVector& start : starts) {
      for (std::size_t lo = 0; lo < q; ++lo) {
        for (std::size_t hi = 0; hi < q; ++hi) {
          if (lo == hi) continue;
          for (const auto& entries : {dense, controlled}) {
            const ComplexMatrix u4(4, 4, entries);
            StateVector expected = start;
            expected.apply_two_qubit(u4, lo, hi);
            // Starts from other amplitudes: every output must be written.
            StateVector out = starts.front();
            out.amplitudes()[0] = Complex(-7.0, 7.0);
            k().mat4_from(raw(out), raw(start), start.dimension(),
                          reinterpret_cast<const double*>(u4.data().data()),
                          lo, hi);
            ASSERT_TRUE(bit_equal(out, expected))
                << "q=" << q << " low=" << lo << " high=" << hi;
          }
        }
      }
    }
  }
}

/// One adjoint-sweep step as the oracle's three separate passes: the
/// inverse on phi, the derivative out of place plus inner_product, the
/// inverse on lambda. `diagonal` applies m00 / m11 products only, as the
/// RZ kernels do.
Complex sweep_oracle(StateVector& phi, StateVector& lambda, bool diagonal,
                     const gates::Mat2& inv, const gates::Mat2& dr,
                     std::size_t t) {
  const auto apply = [&](StateVector& s, const gates::Mat2& u) {
    if (!diagonal) {
      s.apply_single_qubit(matrix_of(u), t);
      return;
    }
    for (std::size_t i = 0; i < s.dimension(); ++i) {
      Complex& a = s.amplitudes()[i];
      a = (((i >> t) & 1) != 0 ? u.m11 : u.m00) * a;
    }
  };
  apply(phi, inv);
  StateVector derivative = phi;
  apply(derivative, dr);
  const Complex sum = lambda.inner_product(derivative);
  apply(lambda, inv);
  return sum;
}

bool bit_equal(Complex a, Complex b) {
  return std::memcmp(&a, &b, sizeof(Complex)) == 0;
}

TEST_P(KernelCore, AdjointSweepMatchesOracleBitForBit) {
  std::mt19937_64 rng(808);
  std::normal_distribution<double> normal;
  struct Step {
    std::string name;
    bool diagonal;
    gates::Mat2 inv;
    gates::Mat2 dr;
  };
  for (std::size_t q = 1; q <= kMaxSweepQubits; ++q) {
    std::vector<Step> steps;
    for (const gates::Axis axis :
         {gates::Axis::kX, gates::Axis::kY, gates::Axis::kZ}) {
      const double theta = normal(rng);
      steps.push_back({gates::axis_name(axis), axis == gates::Axis::kZ,
                       gates::rotation_entries(axis, -theta),
                       gates::rotation_derivative_entries(axis, theta)});
    }
    const auto dense = test_gates(rng);
    steps.push_back({"dense", false, dense[0], dense[1]});
    // phi and lambda: two random states, and each salted with edge values
    // against a random partner (never both, so no product overflows).
    const auto a = test_states(q, rng);
    const auto b = test_states(q, rng);
    const std::pair<const StateVector*, const StateVector*> starts[] = {
        {&a[0], &b[0]}, {&a[1], &b[0]}, {&a[0], &b[1]}};
    for (const auto& [phi0, lambda0] : starts) {
      for (std::size_t t = 0; t < q; ++t) {
        for (const Step& step : steps) {
          const std::string at = step.name + " q=" + std::to_string(q) +
                                 " t=" + std::to_string(t);
          StateVector phi_expected = *phi0;
          StateVector lambda_expected = *lambda0;
          const Complex sum_expected =
              sweep_oracle(phi_expected, lambda_expected, step.diagonal,
                           step.inv, step.dr, t);
          StateVector phi = *phi0;
          StateVector lambda = *lambda0;
          Complex sum;
          k().adjoint_sweep(raw(phi), raw(lambda), phi.dimension(),
                            raw(step.inv), raw(step.dr), step.diagonal, t,
                            reinterpret_cast<double*>(&sum));
          ASSERT_TRUE(bit_equal(phi, phi_expected)) << "phi " << at;
          ASSERT_TRUE(bit_equal(lambda, lambda_expected)) << "lambda " << at;
          ASSERT_TRUE(bit_equal(sum, sum_expected))
              << "sum " << at << ": " << sum << " vs " << sum_expected;
          if (step.diagonal) {
            // The interpreter's full 2x2 applies, up to the sign of zero.
            phi_expected = *phi0;
            lambda_expected = *lambda0;
            const Complex full =
                sweep_oracle(phi_expected, lambda_expected, false, step.inv,
                             step.dr, t);
            ASSERT_TRUE(value_equal(phi, phi_expected)) << "phi " << at;
            ASSERT_TRUE(value_equal(lambda, lambda_expected))
                << "lambda " << at;
            ASSERT_EQ(sum, full) << "sum " << at;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Entries, KernelCore,
                         ::testing::Values("scalar", "avx2"),
                         [](const auto& info) { return info.param; });

// --- batched kernels: the active core once per lane --------------------------

/// Lane b of a batch holding `lanes` distinct start states.
struct Lanes {
  std::vector<StateVector> start;
  BatchedStateVector batch;
};

Lanes make_lanes(std::size_t q, std::size_t lanes, std::mt19937_64& rng) {
  Lanes out{{}, BatchedStateVector(q, lanes)};
  while (out.start.size() < lanes) {
    for (StateVector& s : test_states(q, rng)) {
      if (out.start.size() < lanes) out.start.push_back(std::move(s));
    }
  }
  for (std::size_t b = 0; b < lanes; ++b) {
    out.batch.set_lane(b, out.start[b]);
  }
  return out;
}

template <class Oracle>
void expect_lanes(const Lanes& l, Oracle oracle, const std::string& what) {
  for (std::size_t b = 0; b < l.start.size(); ++b) {
    StateVector expected = l.start[b];
    oracle(b, expected);
    ASSERT_TRUE(bit_equal(l.batch.extract_lane(b), expected))
        << what << " lane " << b << " of " << l.start.size();
  }
}

TEST(BatchedKernelCore, EveryKernelMatchesInterpreterAtLaneCounts1To5) {
  std::mt19937_64 rng(505);
  for (std::size_t q = 1; q <= 10; ++q) {
    const auto gates = test_gates(rng);
    const gates::Mat2 rx = gates[2];
    const gates::Mat2 ry = gates[3];
    for (std::size_t lanes = 1; lanes <= 5; ++lanes) {
      std::vector<gates::Mat2> per_lane;
      for (std::size_t b = 0; b < lanes; ++b) {
        per_lane.push_back(gates::rotation_entries(
            gates::Axis::kY, 0.37 * static_cast<double>(b + 1)));
      }
      for (std::size_t t = 0; t < q; ++t) {
        const std::string at =
            "q=" + std::to_string(q) + " t=" + std::to_string(t);
        Lanes l = make_lanes(q, lanes, rng);
        batched_apply_mat2(l.batch, lanes, gates[0], t);
        expect_lanes(l, [&](std::size_t, StateVector& s) {
          s.apply_single_qubit(matrix_of(gates[0]), t);
        }, "mat2 " + at);

        l = make_lanes(q, lanes, rng);
        batched_apply_mat2_per_lane(l.batch, lanes, per_lane.data(), t);
        expect_lanes(l, [&](std::size_t b, StateVector& s) {
          s.apply_single_qubit(matrix_of(per_lane[b]), t);
        }, "mat2_per_lane " + at);

        l = make_lanes(q, lanes, rng);
        batched_apply_rotation_mat2(l.batch, lanes, gates::Axis::kX, rx, t);
        expect_lanes(l, [&](std::size_t, StateVector& s) {
          s.apply_single_qubit(matrix_of(rx), t);
        }, "rotation " + at);

        l = make_lanes(q, lanes, rng);
        batched_apply_rotation_per_lane(l.batch, lanes, gates::Axis::kY,
                                        per_lane.data(), t);
        expect_lanes(l, [&](std::size_t b, StateVector& s) {
          s.apply_single_qubit(matrix_of(per_lane[b]), t);
        }, "rotation_per_lane " + at);

        l = make_lanes(q, lanes, rng);
        batched_apply_mat2_pair(l.batch, lanes, rx, ry, t);
        expect_lanes(l, [&](std::size_t, StateVector& s) {
          s.apply_single_qubit(matrix_of(rx), t);
          s.apply_single_qubit(matrix_of(ry), t);
        }, "mat2_pair " + at);

        const std::uint32_t order[3] = {1, 4, 0};
        l = make_lanes(q, lanes, rng);
        batched_apply_mat2_run(l.batch, lanes, gates.data(), order, 3,
                               /*reverse=*/true, t);
        expect_lanes(l, [&](std::size_t, StateVector& s) {
          for (const std::uint32_t g : {0u, 4u, 1u}) {
            s.apply_single_qubit(matrix_of(gates[g]), t);
          }
        }, "mat2_run " + at);

        for (std::size_t c = 0; c < q; ++c) {
          if (c == t) continue;
          const std::string pair = at + " c=" + std::to_string(c);
          l = make_lanes(q, lanes, rng);
          batched_apply_controlled_mat2(l.batch, lanes, gates[0], c, t);
          expect_lanes(l, [&](std::size_t, StateVector& s) {
            s.apply_controlled(matrix_of(gates[0]), c, t);
          }, "controlled " + pair);

          l = make_lanes(q, lanes, rng);
          batched_apply_controlled_per_lane(l.batch, lanes, per_lane.data(),
                                            c, t);
          expect_lanes(l, [&](std::size_t b, StateVector& s) {
            s.apply_controlled(matrix_of(per_lane[b]), c, t);
          }, "controlled_per_lane " + pair);

          l = make_lanes(q, lanes, rng);
          batched_apply_cz(l.batch, lanes, c, t);
          expect_lanes(l, [&](std::size_t, StateVector& s) {
            s.apply_cz(c, t);
          }, "cz " + pair);

          const ComplexMatrix swap_like(
              4, 4,
              {gates[0].m00, 0.0, 0.0, gates[0].m01,  //
               0.0, 0.0, gates[1].m00, 0.0,           //
               0.0, gates[1].m11, 0.0, 0.0,           //
               gates[0].m10, 0.0, 0.0, gates[0].m11});
          l = make_lanes(q, lanes, rng);
          batched_apply_mat4(l.batch, lanes, swap_like, c, t);
          expect_lanes(l, [&](std::size_t, StateVector& s) {
            s.apply_two_qubit(swap_like, c, t);
          }, "mat4 " + pair);
        }
      }
    }
  }
}

// The batched rotation kernels' RZ path is the diagonal kernel: exact
// against the interpreter up to the sign of zero.
TEST(BatchedKernelCore, RzRotationMatchesInterpreterByValue) {
  std::mt19937_64 rng(606);
  const gates::Mat2 rz = gates::rotation_entries(gates::Axis::kZ, 2.5);
  for (std::size_t q = 1; q <= 10; ++q) {
    for (std::size_t lanes = 1; lanes <= 5; ++lanes) {
      for (std::size_t t = 0; t < q; ++t) {
        Lanes l = make_lanes(q, lanes, rng);
        batched_apply_rotation_mat2(l.batch, lanes, gates::Axis::kZ, rz, t);
        for (std::size_t b = 0; b < lanes; ++b) {
          StateVector expected = l.start[b];
          expected.apply_single_qubit(matrix_of(rz), t);
          ASSERT_TRUE(value_equal(l.batch.extract_lane(b), expected))
              << "q=" << q << " t=" << t << " lane " << b;
        }
      }
    }
  }
}

// --- whole adjoint passes against the interpreted oracle ----------------------

void expect_adjoint_matches_oracle(const Circuit& circuit,
                                   const Observable& observable,
                                   std::uint64_t seed) {
  Rng rng(seed);
  const auto params =
      rng.uniform_vector(circuit.num_parameters(), 0.0, 2.0 * M_PI);
  const ValueAndGradient expected =
      oracle::adjoint(circuit, observable, params);
  std::vector<double> gradient(params.size(), 0.0);
  const double value = plan_for(circuit)->adjoint_value_and_gradient(
      observable, params, gradient);
  EXPECT_EQ(std::memcmp(&value, &expected.value, sizeof value), 0)
      << value << " vs " << expected.value;
  ASSERT_EQ(gradient.size(), expected.gradient.size());
  for (std::size_t i = 0; i < gradient.size(); ++i) {
    EXPECT_EQ(std::memcmp(&gradient[i], &expected.gradient[i],
                          sizeof(double)),
              0)
        << "param " << i << ": " << gradient[i] << " vs "
        << expected.gradient[i];
  }
}

// The Fig 5b/c circuit (Eq 3, L = 5) under the global cost: q = 10 runs
// one chunk per sweep step, q = 14 blocks wider than a chunk.
TEST(AdjointPass, Fig5TrainingCircuitMatchesOracleBitForBit) {
  for (const std::size_t q : {std::size_t{10}, std::size_t{14}}) {
    SCOPED_TRACE("q=" + std::to_string(q));
    expect_adjoint_matches_oracle(training_ansatz(q),
                                  GlobalZeroObservable(q), 11 + q);
  }
}

// RY layers and a CRZ ladder: the controlled-rotation branch (out-of-place
// 4x4 derivative) beside the sweep step, under a local cost.
TEST(AdjointPass, ControlledRotationAnsatzMatchesOracleBitForBit) {
  for (const std::size_t q : {std::size_t{3}, std::size_t{11}}) {
    SCOPED_TRACE("q=" + std::to_string(q));
    expect_adjoint_matches_oracle(controlled_rotation_ansatz(q, 3),
                                  LocalZeroObservable(q), 5 + q);
  }
}

}  // namespace
}  // namespace qbarren::exec
