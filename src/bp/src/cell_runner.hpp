// The one cell loop behind the experiment runners (private to qbarren_bp).
//
// Every runner here is a grid of independent cells: each cell draws from
// its own RNG child streams and owns one result slot. run_cells does
// everything about such a grid except the science: the checkpoint
// fingerprint and restore-only checks, restoring the cells a checkpoint
// already holds, the kCancelled "not restored" failures of a restore-only
// assembly, the locked record + deposit + progress of a computed cell,
// and the executor. A runner supplies its cell keys, a compute closure
// returning the cell's checkpoint payload, and a deposit decoding one.
// Restored and computed cells go through the same deposit, which is what
// makes a resumed run byte-identical to an uninterrupted one.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "qbarren/common/checkpoint.hpp"
#include "qbarren/common/executor.hpp"
#include "qbarren/common/run.hpp"

namespace qbarren::detail {

/// Computes cell `index` (called concurrently from executor threads).
using CellCompute =
    std::function<CheckpointCell(std::size_t index, const CellContext& ctx)>;

/// Stores cell `index`'s payload in the runner's result. Calls are
/// serialized by run_cells. Throws CheckpointError on a payload that does
/// not fit the run (a restored cell with the wrong sample count).
using CellDeposit =
    std::function<void(std::size_t index, const CheckpointCell& payload)>;

/// Runs the cells keyed `control.cell_prefix + keys[i]` and returns their
/// failures sorted by key. `runner` names the caller in error messages;
/// `fingerprint` must match the checkpoint's when `control.cell_prefix`
/// is empty (CheckpointError otherwise). Throws InvalidArgument for
/// restore_only without a checkpoint, and whatever Executor::run throws.
[[nodiscard]] std::vector<CellFailure> run_cells(
    const std::string& runner, const std::string& fingerprint,
    const std::vector<std::string>& keys, const CellCompute& compute,
    const CellDeposit& deposit, const RunControl& control);

/// Exact, locale-independent text of a double for fingerprints ("%a").
[[nodiscard]] std::string hexfloat_string(double v);

}  // namespace qbarren::detail
