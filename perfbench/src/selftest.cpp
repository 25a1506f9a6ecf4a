// The benchmark's own self-test, at tiny sizes (about a minute):
//
//   * every workload, timed and traced, prints every named metric with
//     its unit, in the metric lines and in the result line;
//   * no percentile is reported without ten samples beyond it;
//   * refused and failed requests count as +inf latency;
//   * a delay injected around one layer call (Initializer::initialize)
//     moves that layer's metric (init.draw_us) and the end-to-end metric
//     it maps to (fig5a samples_per_s).
#include <fcntl.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <system_error>

#include "qbarren/common/json.hpp"
#include "workloads.hpp"

namespace qbench {

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  std::fflush(stdout);
  if (!ok) ++g_failures;
}

/// Runs a workload with stdout captured; returns the captured text.
std::string captured_run(WorkloadFn run, const RunArgs& args, Outcome& outcome,
                         int& code) {
  const std::string path =
      ".bench_run/selftest-" + std::to_string(::getpid()) + ".out";
  std::filesystem::create_directories(".bench_run");
  std::fflush(stdout);
  const int saved = ::dup(STDOUT_FILENO);
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  require(saved >= 0 && fd >= 0, "cannot capture stdout");
  ::dup2(fd, STDOUT_FILENO);
  ::close(fd);
  code = run_workload(run, args, &outcome);
  std::fflush(stdout);
  ::dup2(saved, STDOUT_FILENO);
  ::close(saved);
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::filesystem::remove(path);
  std::error_code ignored;  // left in place while another run uses it
  std::filesystem::remove(".bench_run", ignored);
  return text.str();
}

void check_percentile_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 99; ++i) v.push_back(i);
  check(!percentile(v, 0.9).has_value(), "p90 withheld at 99 samples");
  v.push_back(100);
  check(percentile(v, 0.9) == 90.0, "p90 of 1..100 is 90 with 10 beyond");
  check(samples_needed(0.5) == 20 && samples_needed(0.9) == 100,
        "p50 needs 20 samples, p90 needs 100");
  std::vector<double> few(19, 1.0);
  check(!percentile(few, 0.5).has_value(), "p50 withheld at 19 samples");
}

void check_refusals_are_infinite() {
  const double inf = std::numeric_limits<double>::infinity();
  check(request_latency_ms(R"({"event":"rejected","exit_code":3,"findings":[]})",
                           0.0, 0.01) == inf,
        "admission refusal counts as +inf");
  check(request_latency_ms(
            R"({"event":"rejected","reason":"backpressure","exit_code":3})",
            0.0, 0.01) == inf,
        "backpressure rejection counts as +inf");
  check(request_latency_ms(R"({"event":"done","status":"failed"})", 0.0,
                           0.01) == inf,
        "failed request counts as +inf");
  check(std::abs(request_latency_ms(R"({"event":"done","status":"ok"})", 1.0,
                                    1.02) -
                 20.0) < 1e-6,
        "ok request is timed from its due time");
  std::vector<double> latencies(89, 5.0);
  latencies.insert(latencies.end(), 11, inf);
  check(percentile(latencies, 0.9) == inf,
        "p90 with 11% refused is +inf");
}

/// Every metric of `expected` appears as a metric line and in the result
/// line, with its unit.
void check_output(const std::string& label, const std::string& out, int code,
                  const std::vector<std::pair<std::string, std::string>>&
                      expected) {
  check(code == 0, label + " exits 0");
  const auto last_nl = out.find_last_of('\n', out.size() - 2);
  const std::string last =
      out.substr(last_nl == std::string::npos ? 0 : last_nl + 1);
  qbarren::JsonValue result;
  try {
    result = qbarren::parse_json(last);
  } catch (const std::exception& e) {
    check(false, label + " result line parses: " + e.what());
    return;
  }
  check(result.keys() == std::vector<std::string>{"attempted", "correct",
                                                   "failed", "metrics"},
        label + " result has exactly correct/attempted/failed/metrics");
  check(result.at("correct").as_bool(), label + " outputs are correct");
  const auto& metrics = result.at("metrics");
  check(metrics.size() == expected.size(),
        label + " reports exactly the declared metrics");
  for (const auto& [name, unit] : expected) {
    const bool in_result = metrics.contains(name) &&
                           metrics.at(name).at("unit").as_string() == unit &&
                           metrics.at(name).at("value").is_number();
    const bool in_lines =
        out.find("metric " + name + " ") != std::string::npos &&
        out.find(" " + unit + "\n", out.find("metric " + name + " ")) !=
            std::string::npos;
    if (!in_result || !in_lines) {
      check(false, label + " prints " + name + " [" + unit + "]");
    }
  }
  check(out.find("context {\"nproc\"") != std::string::npos,
        label + " records the machine context");
}

/// A reported metric, or NaN (which fails every comparison) when absent.
double metric(const Outcome& outcome, const std::string& name) {
  return outcome.report.has(name) ? outcome.report.value(name)
                                  : std::numeric_limits<double>::quiet_NaN();
}

}  // namespace

int run_selftest() {
  check_percentile_rule();
  check_refusals_are_infinite();

  const std::pair<const char*, WorkloadFn> workloads[] = {
      {"fig5a", run_fig5a}, {"train", run_train}, {"serve", run_serve}};
  Outcome base_timed, base_traced;
  for (const auto& [name, fn] : workloads) {
    for (const bool trace : {false, true}) {
      RunArgs args;
      args.seconds = 1.0;
      args.trace = trace;
      args.tiny = true;
      Outcome outcome;
      int code = 0;
      const std::string out = captured_run(fn, args, outcome, code);
      check_output(std::string(name) + (trace ? " traced" : " timed"), out,
                   code, trace ? per_layer_metrics() : end_to_end_metrics());
      if (std::string(name) == "fig5a") {
        (trace ? base_traced : base_timed) = std::move(outcome);
      }
    }
  }

  // A 2 ms busy-wait before every Initializer::initialize call.
  arm_delay("init.draw", 2000.0);
  Outcome slow_timed, slow_traced;
  for (const bool trace : {false, true}) {
    RunArgs args;
    args.seconds = 1.0;
    args.trace = trace;
    args.tiny = true;
    int code = 0;
    (void)captured_run(run_fig5a, args, trace ? slow_traced : slow_timed,
                       code);
    check(code == 0, std::string("fig5a with an injected delay, ") +
                         (trace ? "traced" : "timed") + ", exits 0");
  }
  arm_delay("", 0.0);
  const double draw0 = metric(base_traced, "init.draw_us");
  const double draw1 = metric(slow_traced, "init.draw_us");
  check(draw1 > draw0 + 1500.0,
        "injected 2000 us moves init.draw_us (" + std::to_string(draw0) +
            " -> " + std::to_string(draw1) + ")");
  const double rate0 = metric(base_timed, "samples_per_s");
  const double rate1 = metric(slow_timed, "samples_per_s");
  check(rate1 < 0.5 * rate0, "injected delay moves fig5a samples_per_s (" +
                                 std::to_string(rate0) + " -> " +
                                 std::to_string(rate1) + ")");
  const double other0 = metric(base_traced, "exec.compile_us");
  const double other1 = metric(slow_traced, "exec.compile_us");
  check(other1 < 3.0 * other0 + 50.0,
        "injected delay leaves exec.compile_us alone (" +
            std::to_string(other0) + " -> " + std::to_string(other1) + ")");

  std::printf("selftest: %d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace qbench
