#include "qbarren/bp/variance.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "cell_runner.hpp"
#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/grad/engine.hpp"
#include "qbarren/init/registry.hpp"

namespace qbarren {

namespace {

/// NaN-filled summary for a failed cell: serializes as null everywhere
/// instead of misleading zeros.
Summary nan_summary() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Summary s;
  s.mean = s.variance = s.stddev = s.min = s.max = s.median = nan;
  return s;
}

/// The Eq-2 circuit drawn from one circuit stream. Its structure depends
/// on (q, circuit) only, so every initializer samples the same circuits.
Circuit sampled_circuit(const VarianceExperimentOptions& options,
                        std::size_t q, const Rng& circuit_stream) {
  Rng structure_rng = circuit_stream.child(0);
  VarianceAnsatzOptions ansatz_options;
  ansatz_options.layers = options.layers;
  ansatz_options.entangle = options.entangle;
  ansatz_options.entangler = options.entangler;
  ansatz_options.topology = options.topology;
  return variance_ansatz(q, structure_rng, ansatz_options);
}

}  // namespace

std::string options_fingerprint(const VarianceExperimentOptions& options) {
  std::string fp = "variance/v1;qubits=";
  for (std::size_t i = 0; i < options.qubit_counts.size(); ++i) {
    if (i != 0) fp += ',';
    fp += std::to_string(options.qubit_counts[i]);
  }
  fp += ";circuits=" + std::to_string(options.circuits_per_point);
  fp += ";layers=" + std::to_string(options.layers);
  fp += ";cost=" + cost_kind_name(options.cost);
  fp += ";seed=" + std::to_string(options.seed);
  fp += options.entangle ? ";entangle=1" : ";entangle=0";
  fp += ";engine=" + options.gradient_engine;
  fp += ";param=" + std::to_string(static_cast<int>(options.which_parameter));
  fp += ";entangler=" + std::to_string(static_cast<int>(options.entangler));
  fp += ";topology=" + std::to_string(static_cast<int>(options.topology));
  // keep_samples is deliberately excluded: it selects what the result
  // retains, not what is sampled, so checkpoints stay valid across it.
  return fp;
}

std::vector<double> compute_variance_cell(
    const VarianceExperimentOptions& options, std::size_t qubit_index,
    const Initializer& initializer, std::size_t initializer_index,
    const GradientEngine& engine, const CellContext* ctx) {
  QBARREN_REQUIRE(qubit_index < options.qubit_counts.size(),
                  "compute_variance_cell: qubit_index out of range");
  const std::size_t q = options.qubit_counts[qubit_index];
  const auto observable = make_cost_observable(options.cost, q);
  const Rng q_stream = Rng(options.seed).child(qubit_index);
  std::vector<double> samples(options.circuits_per_point);
  for (std::size_t i = 0; i < options.circuits_per_point; ++i) {
    if (ctx != nullptr) {
      ctx->throw_if_cancelled(
          "variance experiment at qubits=" + std::to_string(q) +
          " circuit=" + std::to_string(i));
    }
    const Rng circuit_stream = q_stream.child(2 * i);
    const Circuit circuit = sampled_circuit(options, q, circuit_stream);
    std::size_t which = circuit.num_parameters() - 1;
    switch (options.which_parameter) {
      case GradientParameter::kLast:
        break;
      case GradientParameter::kMiddle:
        which = circuit.num_parameters() / 2;
        break;
      case GradientParameter::kFirst:
        which = 0;
        break;
    }
    Rng param_rng = circuit_stream.child(1 + initializer_index);
    const std::vector<double> params =
        initializer.initialize(circuit, param_rng);
    // The structure stream depends on (q, circuit) only, so every
    // initializer's cell rebuilds and recompiles this same circuit; within
    // a cell, samples share no plan. Batching happens inside the engine's
    // partial (the sample's shifted bindings as lanes of one batched
    // dispatch, up to the process lane cap), and every lane count runs the
    // same kernel core, so the sample's bits do not depend on the cap.
    const double g = engine.partial(circuit, *observable, params, which);
    if (!std::isfinite(g)) {
      throw NumericalError(
          "VarianceExperiment::run: non-finite gradient sample "
          "(initializer '" + initializer.name() + "', qubits " +
          std::to_string(q) + ", circuit " + std::to_string(i) +
          ", engine '" + engine.name() + "')");
    }
    samples[i] = g;
  }
  return samples;
}

std::vector<double> run_variance_cell(const VarianceExperimentOptions& options,
                                      std::size_t qubit_index,
                                      const Initializer& initializer,
                                      std::size_t initializer_index,
                                      const CellContext& ctx) {
  const auto engine =
      ctx.attempt == 0
          ? make_gradient_engine(options.gradient_engine)
          : std::unique_ptr<GradientEngine>(
                std::make_unique<ParameterShiftEngine>());
  return compute_variance_cell(options, qubit_index, initializer,
                               initializer_index, *engine, &ctx);
}

VarianceExperiment::VarianceExperiment(VarianceExperimentOptions options)
    : options_(std::move(options)) {
  QBARREN_REQUIRE(!options_.qubit_counts.empty(),
                  "VarianceExperiment: need at least one qubit count");
  for (std::size_t q : options_.qubit_counts) {
    QBARREN_REQUIRE(q >= 1, "VarianceExperiment: qubit counts must be >= 1");
  }
  QBARREN_REQUIRE(options_.circuits_per_point >= 2,
                  "VarianceExperiment: need >= 2 circuits per point to "
                  "compute a variance");
  QBARREN_REQUIRE(options_.layers >= 1,
                  "VarianceExperiment: need >= 1 layer");
  // Surface an unknown engine name at construction (throws NotFound)
  // instead of after the caller has committed to a long run.
  (void)make_gradient_engine(options_.gradient_engine);
}

VarianceResult VarianceExperiment::run(
    const std::vector<const Initializer*>& initializers) const {
  return run(initializers, RunControl{});
}

VarianceResult VarianceExperiment::run(
    const std::vector<const Initializer*>& initializers,
    const RunControl& control) const {
  QBARREN_REQUIRE(!initializers.empty(),
                  "VarianceExperiment::run: no initializers");
  for (const Initializer* init : initializers) {
    QBARREN_REQUIRE(init != nullptr,
                    "VarianceExperiment::run: null initializer");
  }

  VarianceResult result;
  result.options = options_;
  result.series.resize(initializers.size());
  // Pre-size every point so cells can deposit by (qi, t) index from any
  // worker thread; failed cells keep their NaN statistics.
  for (std::size_t t = 0; t < initializers.size(); ++t) {
    result.series[t].initializer = initializers[t]->name();
    result.series[t].points.resize(options_.qubit_counts.size());
    for (std::size_t qi = 0; qi < options_.qubit_counts.size(); ++qi) {
      result.series[t].points[qi].qubits = options_.qubit_counts[qi];
      result.series[t].points[qi].gradient_summary = nan_summary();
      result.series[t].points[qi].variance =
          std::numeric_limits<double>::quiet_NaN();
    }
  }

  // One cell per (q, initializer), keyed "q=<q>/init=<name>". Circuit
  // structure streams depend on (q, i) only so every initializer sees the
  // same random circuits per qubit count; parameter streams additionally
  // depend on the initializer index. A cell's samples therefore do not
  // depend on which other cells were computed in this process.
  const std::size_t inits = initializers.size();
  std::vector<std::string> keys;
  for (const std::size_t q : options_.qubit_counts) {
    for (const Initializer* init : initializers) {
      keys.push_back("q=" + std::to_string(q) + "/init=" + init->name());
    }
  }
  result.failures = detail::run_cells(
      "VarianceExperiment::run", options_fingerprint(options_), keys,
      [&](std::size_t c, const CellContext& ctx) {
        CheckpointCell cell;
        cell.vectors["samples"] =
            run_variance_cell(options_, c / inits, *initializers[c % inits],
                              c % inits, ctx);
        return cell;
      },
      [&](std::size_t c, const CheckpointCell& cell) {
        VariancePoint& point = result.series[c % inits].points[c / inits];
        const std::vector<double>& samples = cell.vector("samples");
        if (samples.size() != options_.circuits_per_point) {
          throw CheckpointError(
              "VarianceExperiment::run: checkpoint cell for q=" +
              std::to_string(point.qubits) + " has " +
              std::to_string(samples.size()) + " samples, expected " +
              std::to_string(options_.circuits_per_point));
        }
        point.gradient_summary = summarize(samples);
        point.variance = point.gradient_summary.variance;
        if (options_.keep_samples) {
          point.samples = samples;
        }
      },
      control);

  // Decay fits: ln Var vs qubit count over the positive-variance points.
  for (VarianceSeries& s : result.series) {
    std::vector<double> xs;
    std::vector<double> ys;
    for (const VariancePoint& p : s.points) {
      if (p.variance > 0.0) {
        xs.push_back(static_cast<double>(p.qubits));
        ys.push_back(std::log(p.variance));
      }
    }
    if (xs.size() >= 2) {
      s.decay_fit = linear_fit(xs, ys);
    } else {
      s.decay_fit = LinearFit{};  // degenerate; tables will show n = 0
    }
  }
  return result;
}

VarianceResult VarianceExperiment::run_paper_set(FanMode mode) const {
  return run_paper_set(mode, RunControl{});
}

VarianceResult VarianceExperiment::run_paper_set(
    FanMode mode, const RunControl& control) const {
  const auto owned = paper_initializers(mode);
  std::vector<const Initializer*> ptrs;
  ptrs.reserve(owned.size());
  for (const auto& init : owned) {
    ptrs.push_back(init.get());
  }
  return run(ptrs, control);
}

std::string positional_fingerprint(const VarianceExperimentOptions& options,
                                   const Initializer& initializer,
                                   const std::vector<double>& fractions) {
  std::string fp = "positional/v1;init=" + initializer.name() + ";fractions=";
  for (std::size_t f = 0; f < fractions.size(); ++f) {
    if (f != 0) fp += ',';
    fp += detail::hexfloat_string(fractions[f]);
  }
  return fp + ";" + options_fingerprint(options);
}

PositionalVarianceResult positional_variance(
    const VarianceExperimentOptions& options, const Initializer& initializer,
    std::vector<double> fractions) {
  return positional_variance(options, initializer, std::move(fractions),
                             RunControl{});
}

namespace {
// Checkpoint key of fraction index f within a qubit-count cell. Built via
// += rather than `"f" + std::to_string(f)` because GCC 12 flags the
// char*-plus-rvalue-string operator+ with a spurious -Wrestrict under
// -Werror (GCC bug 105651).
std::string fraction_key(std::size_t f) {
  std::string key = "f";
  key += std::to_string(f);
  return key;
}
}  // namespace

PositionalVarianceResult positional_variance(
    const VarianceExperimentOptions& options, const Initializer& initializer,
    std::vector<double> fractions, const RunControl& control) {
  QBARREN_REQUIRE(!fractions.empty(), "positional_variance: no fractions");
  for (const double f : fractions) {
    QBARREN_REQUIRE(f >= 0.0 && f <= 1.0,
                    "positional_variance: fractions must be in [0, 1]");
  }
  const VarianceExperiment checked(options);  // validates the options
  (void)checked;
  const std::string fingerprint =
      positional_fingerprint(options, initializer, fractions);

  PositionalVarianceResult result;
  result.fractions = std::move(fractions);
  result.qubit_counts = options.qubit_counts;
  result.variances.assign(
      result.fractions.size(),
      std::vector<double>(options.qubit_counts.size(),
                          std::numeric_limits<double>::quiet_NaN()));
  const std::size_t n_fractions = result.fractions.size();

  // One checkpoint cell per qubit count ("q=<q>") holding every fraction's
  // samples ("f0", "f1", ...); the qubit counts are independent
  // sub-streams of the root seed, so per-cell resume — and concurrent
  // execution in any order — is exact.
  std::vector<std::string> keys;
  for (const std::size_t q : options.qubit_counts) {
    keys.push_back("q=" + std::to_string(q));
  }
  result.failures = detail::run_cells(
      "positional_variance", fingerprint, keys,
      [&](std::size_t qi, const CellContext& ctx) {
        const std::size_t q = options.qubit_counts[qi];
        const AdjointEngine engine;
        const auto observable = make_cost_observable(options.cost, q);
        const Rng q_stream = Rng(options.seed).child(qi);
        std::vector<std::vector<double>> samples(
            n_fractions, std::vector<double>(options.circuits_per_point));
        for (std::size_t i = 0; i < options.circuits_per_point; ++i) {
          ctx.throw_if_cancelled(
              "positional variance at qubits=" + std::to_string(q) +
              " circuit=" + std::to_string(i));
          const Rng circuit_stream = q_stream.child(2 * i);
          const Circuit circuit = sampled_circuit(options, q, circuit_stream);
          Rng param_rng = circuit_stream.child(1);
          const auto params = initializer.initialize(circuit, param_rng);
          const auto grad = engine.gradient(circuit, *observable, params);

          const std::size_t last = circuit.num_parameters() - 1;
          for (std::size_t f = 0; f < n_fractions; ++f) {
            const auto k = static_cast<std::size_t>(std::llround(
                result.fractions[f] * static_cast<double>(last)));
            if (!std::isfinite(grad[k])) {
              throw NumericalError(
                  "positional_variance: non-finite gradient sample at "
                  "qubits=" + std::to_string(q) +
                  " circuit=" + std::to_string(i));
            }
            samples[f][i] = grad[k];
          }
        }
        CheckpointCell cell;
        for (std::size_t f = 0; f < n_fractions; ++f) {
          cell.vectors[fraction_key(f)] = std::move(samples[f]);
        }
        return cell;
      },
      [&](std::size_t qi, const CheckpointCell& cell) {
        for (std::size_t f = 0; f < n_fractions; ++f) {
          const std::vector<double>& stored = cell.vector(fraction_key(f));
          if (stored.size() != options.circuits_per_point) {
            throw CheckpointError("positional_variance: checkpoint cell " +
                                  keys[qi] + " has the wrong sample count");
          }
          result.variances[f][qi] = sample_variance(stored);
        }
      },
      control);
  return result;
}

Table PositionalVarianceResult::table() const {
  std::vector<std::string> headers{"position fraction"};
  for (const std::size_t q : qubit_counts) {
    headers.push_back("Var at q=" + std::to_string(q));
  }
  Table out(std::move(headers));
  for (std::size_t f = 0; f < fractions.size(); ++f) {
    out.begin_row();
    out.push(fractions[f], 2);
    for (std::size_t qi = 0; qi < qubit_counts.size(); ++qi) {
      out.push_sci(variances[f][qi]);
    }
  }
  return out;
}

SlopeConfidenceInterval bootstrap_decay_ci(const VarianceSeries& series,
                                           std::size_t resamples,
                                           double confidence,
                                           std::uint64_t seed) {
  QBARREN_REQUIRE(resamples >= 10,
                  "bootstrap_decay_ci: need >= 10 resamples");
  QBARREN_REQUIRE(confidence > 0.0 && confidence < 1.0,
                  "bootstrap_decay_ci: confidence must be in (0, 1)");
  QBARREN_REQUIRE(series.points.size() >= 2,
                  "bootstrap_decay_ci: need >= 2 qubit points");
  for (const VariancePoint& p : series.points) {
    QBARREN_REQUIRE(p.samples.size() >= 2,
                    "bootstrap_decay_ci: raw samples missing — rerun the "
                    "experiment with keep_samples = true");
  }

  Rng rng(seed);
  std::vector<double> slopes;
  slopes.reserve(resamples);
  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<double> resampled;
  for (std::size_t r = 0; r < resamples; ++r) {
    xs.clear();
    ys.clear();
    for (const VariancePoint& p : series.points) {
      resampled.resize(p.samples.size());
      for (auto& v : resampled) {
        v = p.samples[rng.index(p.samples.size())];
      }
      const double var = sample_variance(resampled);
      if (var > 0.0) {
        xs.push_back(static_cast<double>(p.qubits));
        ys.push_back(std::log(var));
      }
    }
    if (xs.size() >= 2) {
      slopes.push_back(linear_fit(xs, ys).slope);
    }
  }
  QBARREN_REQUIRE(slopes.size() >= 10,
                  "bootstrap_decay_ci: too many degenerate replicates");

  std::sort(slopes.begin(), slopes.end());
  const double alpha = 1.0 - confidence;
  const auto lo_idx = static_cast<std::size_t>(
      alpha / 2.0 * static_cast<double>(slopes.size() - 1));
  const auto hi_idx = static_cast<std::size_t>(
      (1.0 - alpha / 2.0) * static_cast<double>(slopes.size() - 1));

  SlopeConfidenceInterval ci;
  ci.point = series.decay_fit.slope;
  ci.lower = slopes[lo_idx];
  ci.upper = slopes[hi_idx];
  ci.confidence = confidence;
  return ci;
}

const VarianceSeries& VarianceResult::find(
    const std::string& initializer) const {
  for (const VarianceSeries& s : series) {
    if (s.initializer == initializer) {
      return s;
    }
  }
  throw NotFound("VarianceResult::find: no series for initializer '" +
                 initializer + "'");
}

double VarianceResult::improvement_percent(
    const std::string& initializer) const {
  const VarianceSeries& random = find("random");
  const VarianceSeries& target = find(initializer);
  const double random_rate = std::abs(random.decay_fit.slope);
  if (random_rate <= 1e-12) {
    throw NumericalError(
        "VarianceResult::improvement_percent: random decay rate is ~0");
  }
  const double target_rate = std::abs(target.decay_fit.slope);
  return (random_rate - target_rate) / random_rate * 100.0;
}

bool VarianceResult::has_improvement_baseline() const noexcept {
  for (const VarianceSeries& s : series) {
    if (s.initializer == "random") {
      return s.decay_fit.n >= 2 && std::isfinite(s.decay_fit.slope) &&
             std::abs(s.decay_fit.slope) > 1e-12;
    }
  }
  return false;
}

Table VarianceResult::variance_table() const {
  std::vector<std::string> headers{"qubits"};
  for (const VarianceSeries& s : series) {
    headers.push_back("Var[" + s.initializer + "]");
  }
  Table table(std::move(headers));
  if (series.empty()) {
    return table;
  }
  for (std::size_t row = 0; row < series.front().points.size(); ++row) {
    table.begin_row();
    table.push(series.front().points[row].qubits);
    for (const VarianceSeries& s : series) {
      table.push_sci(s.points[row].variance);
    }
  }
  return table;
}

Table VarianceResult::decay_table() const {
  // The improvement column is present whenever a "random" series exists;
  // when its baseline fit is degenerate (failure-budget run, single qubit
  // count) the cells read "n/a" rather than throwing mid-print or
  // silently dropping the column.
  const bool have_random = [&] {
    for (const VarianceSeries& s : series) {
      if (s.initializer == "random") return true;
    }
    return false;
  }();
  const bool baseline_ok = has_improvement_baseline();

  std::vector<std::string> headers{"initializer", "decay slope (ln Var/qubit)",
                                   "R^2"};
  if (have_random) {
    headers.push_back("improvement vs random [%]");
  }
  Table table(std::move(headers));
  for (const VarianceSeries& s : series) {
    table.begin_row();
    table.push(s.initializer);
    table.push(s.decay_fit.slope, 4);
    table.push(s.decay_fit.r_squared, 4);
    if (have_random) {
      if (s.initializer == "random") {
        table.push(std::string("(baseline)"));
      } else if (baseline_ok) {
        table.push(improvement_percent(s.initializer), 1);
      } else {
        table.push(std::string("n/a"));
      }
    }
  }
  return table;
}

}  // namespace qbarren
