// qbench: the qbarren benchmark harness.
//
//   qbench fig5a|train|serve --seed N --seconds S --trace 0|1
//   qbench selftest
//
// Prints the machine context, one "metric <name> <value> <unit>" line per
// measured quantity, and as its last stdout line the result object
// {"correct", "attempted", "failed", "metrics"}: every end-to-end metric
// with --trace 0, every per-layer metric with --trace 1. Exits 1 when an
// output check fails and 2 on a usage or run error (no result line then).
#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hpp"

namespace {

using namespace qbench;

int usage() {
  std::fprintf(stderr,
               "usage: qbench fig5a|train|serve --seed N --seconds S "
               "--trace 0|1\n       qbench selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string workload = argv[1];
  // Orphaned serve workers re-parent to the harness, which reaps them.
  (void)::prctl(PR_SET_CHILD_SUBREAPER, 1);
  if (workload == "selftest") return run_selftest();

  RunArgs args;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    char* end = nullptr;
    const unsigned long long n = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0') return usage();
    if (flag == "--seed") {
      args.seed = n;
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      args.trace = n != 0;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 0 || args.seconds < 1.0) return usage();
  Outcome (*run)(const RunArgs&) = nullptr;
  if (workload == "fig5a") run = run_fig5a;
  if (workload == "train") run = run_train;
  if (workload == "serve") run = run_serve;
  if (run == nullptr) return usage();
  return run_workload(run, args);
}
