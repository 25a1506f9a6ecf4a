#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <system_error>

#include "workloads.hpp"

namespace qbench {

namespace {

/// Reaps every finished child, including re-parented orphans.
void reap_all() {
  while (::waitpid(-1, nullptr, WNOHANG) > 0) {
  }
}

}  // namespace

int run_workload(WorkloadFn run, RunArgs args, Outcome* outcome) {
  args.scratch = std::filesystem::path(".bench_run") /
                 std::to_string(static_cast<long>(::getpid()));
  std::filesystem::remove_all(args.scratch);
  std::filesystem::create_directories(args.scratch);
  const MachineSnapshot before = machine_snapshot();
  Outcome out;
  bool correct = true;
  int code = 0;
  try {
    out = run(args);
    if (args.trace) probe_unexercised(args, out.report);
  } catch (const CheckFailure& e) {
    std::fprintf(stderr, "qbench: output check failed: %s\n", e.what());
    correct = false;
    code = 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qbench: run error: %s\n", e.what());
    code = 2;
  }
  reap_all();
  std::filesystem::remove_all(args.scratch);
  std::error_code ignored;  // left in place while another run uses it
  std::filesystem::remove(args.scratch.parent_path(), ignored);
  if (code == 2) return code;

  print_context(before, machine_snapshot(), out.calibrations_ms);
  Report result;
  if (correct) {
    out.report.print_lines();
    try {
      for (const auto& [name, unit] :
           args.trace ? per_layer_metrics() : end_to_end_metrics()) {
        result.add(name, out.report.value(name), unit);
      }
    } catch (const CheckFailure& e) {
      std::fprintf(stderr, "qbench: %s\n", e.what());
      return 2;
    }
  }
  // A failed check aborts the run: count at least the operation that failed.
  const std::uint64_t attempted =
      correct ? out.attempted : std::max<std::uint64_t>(out.attempted, 1);
  const std::uint64_t failed = correct ? out.failed : attempted;
  std::printf("%s\n", result.result_json(correct, attempted, failed).c_str());
  std::fflush(stdout);
  if (outcome != nullptr) *outcome = std::move(out);
  return code;
}

}  // namespace qbench
