// NDJSON socket front end of the experiment service.
//
// SocketServer listens on a Unix-domain stream socket. A client connects,
// writes one request object on one line, and reads back the request's
// event stream ("admitted", "cell", ..., "done"); the server closes the
// connection after the terminal event. Requests run FIFO, one at a time
// (the worker pool inside ExperimentService provides the parallelism);
// connections beyond the bounded admission queue are rejected immediately
// with a backpressure event instead of queueing without bound. A
// connection must deliver its request line within a fixed deadline (5 s)
// or be rejected with "request line timeout", so a silent client cannot
// stall the FIFO; a line over 1 MiB is rejected as "request line too
// long". SIGTERM or SIGINT drains: the in-flight request's running cells
// finish (and land in the result cache), queued connections are turned
// away, and run() returns kExitInterrupted.
#pragma once

#include <cstddef>
#include <string>

#include "qbarren/serve/service.hpp"

namespace qbarren::serve {

struct ServerOptions {
  /// Filesystem path of the Unix-domain listening socket. A stale socket
  /// file from a previous run is removed at bind time.
  std::string socket_path;

  /// Connections allowed to wait behind the active request. Beyond this
  /// the server answers {"event":"rejected","reason":"backpressure"} and
  /// closes — admission control for the queue itself.
  std::size_t max_pending = 4;
};

class SocketServer {
 public:
  SocketServer(ServiceOptions service_options, ServerOptions options);
  ~SocketServer();
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds, listens, and serves until a drain signal arrives. Installs
  /// SIGINT/SIGTERM cancellation for its duration (main-thread contract
  /// of ScopedSignalCancellation applies). Returns the process exit code.
  [[nodiscard]] int run();

  /// The underlying service — exposed so tests can inspect the cache.
  [[nodiscard]] ExperimentService& service() noexcept { return service_; }

 private:
  ExperimentService service_;
  ServerOptions options_;
};

}  // namespace qbarren::serve
