#include "cell_runner.hpp"

#include <algorithm>
#include <cstdio>
#include <mutex>

namespace qbarren::detail {

std::vector<CellFailure> run_cells(const std::string& runner,
                                   const std::string& fingerprint,
                                   const std::vector<std::string>& keys,
                                   const CellCompute& compute,
                                   const CellDeposit& deposit,
                                   const RunControl& control) {
  Checkpoint* checkpoint = control.checkpoint;
  if (checkpoint != nullptr && control.cell_prefix.empty() &&
      checkpoint->fingerprint() != fingerprint) {
    throw CheckpointError(runner +
                          ": checkpoint fingerprint does not match this "
                          "run's options");
  }
  QBARREN_REQUIRE(!control.restore_only || checkpoint != nullptr,
                  runner + ": restore_only needs a checkpoint");

  const std::size_t total = keys.size();
  std::size_t completed = 0;
  std::mutex deposit_mu;  // guards result/checkpoint/progress deposits
  const auto report = [&](const std::string& key, bool from_checkpoint) {
    if (control.progress) {
      control.progress(RunProgress{key, ++completed, total, from_checkpoint});
    }
  };

  std::vector<CellTask> tasks;
  std::vector<CellFailure> failures;  // restore-only cells not in the store
  for (std::size_t i = 0; i < keys.size(); ++i) {
    std::string key = control.cell_prefix + keys[i];
    if (checkpoint != nullptr) {
      if (const CheckpointCell* cell = checkpoint->find_cell(key)) {
        deposit(i, *cell);
        report(key, true);
        continue;
      }
    }
    if (control.restore_only) {
      failures.push_back(CellFailure{
          std::move(key), CellErrorClass::kCancelled,
          "cell not restored (restore-only assembly)", 0});
      continue;
    }
    tasks.push_back(CellTask{
        key, [&, i, key](CellContext& ctx) {
          ctx.throw_if_cancelled(runner + " at " + key);
          const CheckpointCell cell = compute(i, ctx);
          std::lock_guard<std::mutex> lock(deposit_mu);
          if (checkpoint != nullptr) checkpoint->record_cell(key, cell);
          deposit(i, cell);
          report(key, false);
        }});
  }

  ExecutorOptions options;
  options.jobs = control.jobs;
  options.cell_timeout_seconds = control.cell_timeout_seconds;
  options.max_failures = control.max_cell_failures;
  options.max_attempts = control.max_cell_attempts;
  options.cancel = control.cancel;
  ExecutorReport executed = Executor(options).run(std::move(tasks));
  if (failures.empty()) return std::move(executed.failures);
  failures.insert(failures.end(), executed.failures.begin(),
                  executed.failures.end());
  std::sort(failures.begin(), failures.end(),
            [](const CellFailure& a, const CellFailure& b) {
              return a.cell < b.cell;
            });
  return failures;
}

std::string hexfloat_string(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);  // exact, locale-independent
  return buf;
}

}  // namespace qbarren::detail
