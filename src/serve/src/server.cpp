#include "qbarren/serve/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "qbarren/common/error.hpp"
#include "qbarren/common/exit_codes.hpp"

namespace qbarren::serve {

namespace {

/// Best-effort full write; a vanished client must not abort the request
/// (its cells still land in the shared cache).
void write_all(int fd, const std::string& text) {
  std::size_t offset = 0;
  while (offset < text.size()) {
    const ssize_t n =
        ::write(fd, text.data() + offset, text.size() - offset);
    if (n <= 0) return;
    offset += static_cast<std::size_t>(n);
  }
}

void write_event(int fd, const JsonValue& event) {
  write_all(fd, ndjson_line(event));
}

JsonValue rejection_event(const char* reason) {
  JsonValue event = JsonValue::object();
  event.set("event", "rejected");
  event.set("reason", reason);
  event.set("exit_code", static_cast<std::int64_t>(kExitAdmissionRejected));
  return event;
}

/// How long an accepted connection may take to deliver its request line.
/// The service loop reads one connection at a time, so without a deadline
/// one client that connects and sends nothing blocks every later client.
constexpr std::chrono::milliseconds kRequestLineDeadline{5000};
/// Longest request line accepted (a request is a small JSON object).
constexpr std::size_t kMaxRequestLineBytes = std::size_t{1} << 20;

enum class LineRead { kLine, kClosed, kTooLong, kTimedOut };

/// Reads one newline-terminated line from `fd` (the request) within
/// kRequestLineDeadline. Bytes after the newline are discarded: the
/// protocol sends exactly one line per connection.
LineRead read_request_line(int fd, std::string& line) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline = Clock::now() + kRequestLineDeadline;
  line.clear();
  char buffer[4096];
  while (true) {
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) return LineRead::kTimedOut;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready == 0) return LineRead::kTimedOut;
    if (ready < 0) return LineRead::kClosed;
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return LineRead::kClosed;
    const char* begin = buffer;
    const char* end = begin + n;
    const char* newline = std::find(begin, end, '\n');
    line.append(begin, newline);
    if (line.size() > kMaxRequestLineBytes) return LineRead::kTooLong;
    if (newline != end) return LineRead::kLine;
  }
}

}  // namespace

SocketServer::SocketServer(ServiceOptions service_options,
                           ServerOptions options)
    : service_(std::move(service_options)), options_(std::move(options)) {}

SocketServer::~SocketServer() = default;

int SocketServer::run() {
  if (options_.socket_path.empty()) {
    throw InvalidArgument("serve: socket path must not be empty");
  }
  // A client that disconnects mid-stream must not kill the server with
  // SIGPIPE; writes to its socket just start failing (write_all ignores).
  // sigaction, not signal(): the server shares the process with the pool's
  // reader threads (concurrency-mt-unsafe).
  struct sigaction ignore_pipe {};
  ignore_pipe.sa_handler = SIG_IGN;
  (void)::sigaction(SIGPIPE, &ignore_pipe, nullptr);
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(address.sun_path)) {
    throw InvalidArgument("serve: socket path too long: " +
                          options_.socket_path);
  }
  std::memcpy(address.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) throw Error("serve: socket() failed");
  // Keep server-side fds out of forked workers: an inherited client
  // connection would hold the stream open after the service closes it,
  // leaving the client blocked waiting for EOF.
  (void)::fcntl(listen_fd, F_SETFD, FD_CLOEXEC);
  (void)::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(listen_fd, 16) != 0) {
    ::close(listen_fd);
    throw Error("serve: cannot bind/listen on " + options_.socket_path);
  }

  CancellationToken drain;
  ScopedSignalCancellation signal_guard(drain);

  std::mutex mu;
  std::condition_variable cv;
  std::deque<int> queue;  // accepted connections awaiting service
  bool active = false;    // a request is currently being served
  bool accept_done = false;

  // Accept loop: admits into the bounded queue or rejects immediately.
  std::thread acceptor([&] {
    while (!drain.cancelled()) {
      pollfd pfd{listen_fd, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 250);
      if (ready <= 0) continue;
      const int client = ::accept(listen_fd, nullptr, nullptr);
      if (client < 0) continue;
      (void)::fcntl(client, F_SETFD, FD_CLOEXEC);
      bool reject_backpressure = false;
      {
        const std::lock_guard<std::mutex> lock(mu);
        const std::size_t waiting = queue.size() + (active ? 1 : 0);
        if (waiting > options_.max_pending) {
          reject_backpressure = true;
        } else {
          queue.push_back(client);
        }
      }
      if (reject_backpressure) {
        write_event(client, rejection_event("backpressure"));
        ::close(client);
      } else {
        cv.notify_all();
      }
    }
    {
      const std::lock_guard<std::mutex> lock(mu);
      accept_done = true;
    }
    cv.notify_all();
  });

  // Service loop: one queued connection at a time, FIFO.
  while (true) {
    int client = -1;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait_for(lock, std::chrono::milliseconds(250), [&] {
        return !queue.empty() || accept_done;
      });
      if (drain.cancelled() && queue.empty()) break;
      if (queue.empty()) continue;
      client = queue.front();
      queue.pop_front();
      if (drain.cancelled()) {
        lock.unlock();
        write_event(client, rejection_event("draining"));
        ::close(client);
        continue;
      }
      active = true;
    }

    std::string line;
    const LineRead read = read_request_line(client, line);
    if (read == LineRead::kClosed) {
      write_event(client, rejection_event("no request line"));
    } else if (read == LineRead::kTooLong) {
      write_event(client, rejection_event("request line too long"));
    } else if (read == LineRead::kTimedOut) {
      write_event(client, rejection_event("request line timeout"));
    } else {
      try {
        const RequestSpec spec = request_from_json(parse_json(line));
        (void)service_.run_request(
            spec, [client](const JsonValue& event) {
              write_event(client, event);
            },
            &drain);
      } catch (const std::exception& e) {
        JsonValue event = rejection_event("bad request");
        event.set("message", e.what());
        write_event(client, event);
      }
    }
    ::close(client);
    {
      const std::lock_guard<std::mutex> lock(mu);
      active = false;
    }
  }

  acceptor.join();
  {
    const std::lock_guard<std::mutex> lock(mu);
    while (!queue.empty()) {
      write_event(queue.front(), rejection_event("draining"));
      ::close(queue.front());
      queue.pop_front();
    }
  }
  ::close(listen_fd);
  (void)::unlink(options_.socket_path.c_str());
  service_.shutdown();
  return kExitInterrupted;
}

}  // namespace qbarren::serve
