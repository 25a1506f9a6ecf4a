// Worker-process entry point of the serve layer.
//
// `qbarren worker` is the process the service forks for every pool slot.
// It reads WorkerJob lines from `in_fd`, computes one cell per job with
// the in-process runners' own cell functions (run_variance_cell,
// run_training_cell), and writes
// WorkerReply lines to `out_fd`: a kStart marker before the computation
// (the hard watchdog's timing anchor), then kOk carrying the cell in
// checkpoint hexfloat text (bit-exact doubles) or kFail carrying the
// failure taxonomy. Anything that escapes a cell as a process death —
// crash-at: aborts, real segfaults — is the *service's* problem to
// classify; the worker only reports failures it can survive.
//
// A worker keeps no state between jobs: every job builds a fresh gradient
// engine for its cell attempt, so stateful engines (SPSA, the nan-at /
// crash-at / hang-at fault injectors) count calls per cell attempt, as in
// an in-process run. A crash-at:<k> cell therefore kills its worker on
// every replay at the same attempt.
#pragma once

namespace qbarren::serve {

/// Runs the worker job loop until `in_fd` reaches EOF (service closed the
/// pipe — the graceful shutdown signal). Returns a process exit code: 0 on
/// clean EOF, 1 when the protocol itself breaks (unparseable job line).
[[nodiscard]] int worker_main(int in_fd, int out_fd);

}  // namespace qbarren::serve
