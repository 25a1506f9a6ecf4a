// The serve workload: the real `qbarren_cli serve --workers 2 --cache
// <file>` driven over its Unix socket by an open-loop generator in this
// process (at most four connections, Poisson arrivals, every request timed
// from when it was due).
//
// A timed run is a series of short fixed-rate phases (8 req/s, 60
// requests each) whose requests are pooled for the latency percentiles,
// then four rate-ladder rungs (100 requests each) for max_ok_rps. Every
// phase starts a fresh server on an empty cache and warms it untimed to a
// fixed number of cells. After the timed window every `ok` response is
// checked against an in-process run_paper_set of the same spec.
//
// The traced run drives one 100-request phase at the fixed rate with
// per-event timestamps, then replays every request in process through the layer
// calls the service makes (parse, admission, cells, cache writes,
// assembly) and requires the replayed results to equal the served ones
// byte for byte.
#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <thread>

#include "qbarren/analysis/admission.hpp"
#include "qbarren/analysis/diagnostic.hpp"
#include "qbarren/bp/serialize.hpp"
#include "qbarren/bp/training.hpp"
#include "qbarren/bp/variance.hpp"
#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/common/checkpoint.hpp"
#include "qbarren/common/json.hpp"
#include "qbarren/grad/engine.hpp"
#include "qbarren/init/registry.hpp"
#include "qbarren/serve/audit.hpp"
#include "qbarren/serve/protocol.hpp"
#include "qbarren/serve/service.hpp"
#include "workloads.hpp"

namespace qbench {

namespace {

namespace q = qbarren;
namespace sv = qbarren::serve;

constexpr double kFixedRate = 8.0;        // req/s
constexpr double kLatencyLimitMs = 250.0;  // p90 limit of the ladder
constexpr int kConnections = 4;
constexpr int kWorkers = 2;
constexpr std::size_t kBlock = 20;          // exact mix composition per block
constexpr std::size_t kPhaseRequests = 60;  // per fixed-rate phase
constexpr std::size_t kRungRequests = 100;  // per ladder rung (its own p90)
// Ladder rung k offers 8 * 1.2^k req/s (steps of 20%); a run probes rungs
// 4..7 (16.6 .. 28.7 req/s) plus the fixed-rate phases as rung 0.
constexpr double kLadderStep = 1.2;
constexpr int kLadderFirst = 4;
constexpr int kLadderLast = 7;

// --- the seeded request mix ----------------------------------------------------

enum class Kind { kRepeat, kVariance, kTraining, kPaperPoint };

struct Request {
  Kind kind = Kind::kVariance;
  sv::RequestSpec spec;
  std::string line;  ///< the NDJSON request line sent
};

struct Mix {
  std::vector<Request> warmup;    ///< distinct specs, run before each phase
  std::vector<Request> requests;  ///< the timed sequence
};

Request make_request(Kind kind, const std::string& id, std::uint64_t seed,
                     bool tiny = false) {
  Request r;
  r.kind = kind;
  r.spec.id = id;
  switch (kind) {
    case Kind::kRepeat:
    case Kind::kVariance:
      r.spec.variance.qubit_counts = {tiny ? std::size_t{2} : 4};
      r.spec.variance.circuits_per_point = tiny ? 4 : 20;
      if (tiny) r.spec.variance.layers = 4;
      r.spec.variance.seed = seed;
      break;
    case Kind::kTraining:
      r.spec.kind = sv::SpecKind::kTraining;
      r.spec.training.qubits = tiny ? 2 : 6;
      if (tiny) r.spec.training.iterations = 3;
      r.spec.training.seed = seed;
      break;
    case Kind::kPaperPoint:  // the paper's Fig 5a q=10 point, 10 circuits
      r.spec.variance.qubit_counts = {10};
      r.spec.variance.circuits_per_point = 10;
      r.spec.variance.seed = seed;
      break;
  }
  r.line = sv::ndjson_line(sv::to_json(r.spec));
  return r;
}

/// "<prefix><n>": request ids and per-server file names.
std::string numbered(const char* prefix, std::uint64_t n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

/// The timed request list, in blocks of 20 with an exact composition: 6
/// repeats of warm-up specs (cache hits, 30%), 9 fresh variance q=4 (45%),
/// 4 fresh training q=6 (20%) and 1 q=10 paper point (5%). The order
/// within each block and all seeds come from `seed`.
Mix make_mix(std::uint64_t seed, std::size_t requests, bool tiny) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  const std::uint64_t base = 1000000 + (seed % 100000) * 1000;
  Mix mix;
  for (std::uint64_t i = 0; i < 8; ++i) {
    const Kind kind = i < 6 ? Kind::kVariance : Kind::kTraining;
    mix.warmup.push_back(
        make_request(kind, numbered("w", i), base + i, tiny));
  }
  std::vector<Kind> kinds;
  while (kinds.size() < requests) {
    std::vector<Kind> block(kBlock, Kind::kVariance);
    std::fill_n(block.begin(), 6, Kind::kRepeat);
    std::fill_n(block.begin() + 6, 4, Kind::kTraining);
    block[10] = Kind::kPaperPoint;
    for (std::size_t i = kBlock; i > 1; --i) {  // Fisher-Yates
      std::swap(block[i - 1], block[rng() % i]);
    }
    kinds.insert(kinds.end(), block.begin(), block.end());
  }
  kinds.resize(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    const std::string id = numbered("r", i);
    if (kinds[i] == Kind::kRepeat) {
      Request r = mix.warmup[rng() % mix.warmup.size()];
      r.kind = Kind::kRepeat;
      r.spec.id = id;
      r.line = sv::ndjson_line(sv::to_json(r.spec));
      mix.requests.push_back(std::move(r));
    } else {
      mix.requests.push_back(make_request(kinds[i], id, base + 100 + i, tiny));
    }
  }
  return mix;
}

/// Due offsets (s) of `n` Poisson arrivals at `rate`, scaled so the last
/// one is due at exactly n / rate.
std::vector<double> arrivals(std::uint64_t seed, std::size_t n, double rate) {
  std::mt19937_64 rng(seed ^ 0xA5A5A5A5ULL);
  std::exponential_distribution<double> gap(rate);
  std::vector<double> due(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) due[i] = (t += gap(rng));
  for (double& d : due) d *= static_cast<double>(n) / rate / t;
  return due;
}

// --- one exchange over the socket ------------------------------------------------

struct Exchange {
  double due_s = 0.0;   ///< offsets from the phase start
  double sent_s = 0.0;
  double end_s = 0.0;
  double first_event_s = 0.0;  ///< when the first event line arrived
  std::string last;            ///< terminal event line
};

int connect_socket(const std::string& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  require(fd >= 0, "socket() failed");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends one request line on a connected socket and reads the event
/// stream until the server closes it.
void exchange(int fd, const std::string& line, Clock::time_point origin,
              Exchange& x) {
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(fd, line.data() + off, line.size() - off);
    if (n <= 0) {
      ::close(fd);
      throw CheckFailure("request write failed");
    }
    off += static_cast<std::size_t>(n);
  }
  std::string pending;
  char buf[65536];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = pending.find('\n')) != std::string::npos) {
      if (x.last.empty()) x.first_event_s = seconds_since(origin);
      x.last = pending.substr(0, nl);
      pending.erase(0, nl + 1);
    }
  }
  x.end_s = seconds_since(origin);
  ::close(fd);
}

enum class Status { kOk, kRefused, kFailed };

Status status_of(const std::string& terminal) {
  if (terminal.find("\"event\":\"done\"") != std::string::npos &&
      terminal.find("\"status\":\"ok\"") != std::string::npos) {
    return Status::kOk;
  }
  // Admission refusals carry the QB/QD findings; backpressure and
  // draining rejections carry a reason instead and are outages.
  if (terminal.find("\"event\":\"rejected\"") != std::string::npos &&
      terminal.find("\"findings\"") != std::string::npos) {
    return Status::kRefused;
  }
  return Status::kFailed;
}

/// The small first request of every server set-up (6 cells, q=2).
Request setup_request() {
  Request r = make_request(Kind::kVariance, "setup", 1);
  r.spec.variance.qubit_counts = {2};
  r.spec.variance.circuits_per_point = 4;
  r.spec.variance.layers = 4;
  r.line = sv::ndjson_line(sv::to_json(r.spec));
  return r;
}

}  // namespace

double request_latency_ms(const std::string& terminal, double due_s,
                          double end_s) {
  return status_of(terminal) == Status::kOk
             ? (end_s - due_s) * 1e3
             : std::numeric_limits<double>::infinity();
}

namespace {

// --- the server process ------------------------------------------------------------

std::string cli_path() {
  const auto self = std::filesystem::read_symlink("/proc/self/exe");
  return (self.parent_path() / "qbarren_cli").string();
}

std::vector<long> children_of(long pid) {
  std::vector<long> out;
  for (const auto& entry : std::filesystem::directory_iterator("/proc")) {
    const std::string name = entry.path().filename().string();
    if (name.find_first_not_of("0123456789") != std::string::npos) continue;
    std::ifstream stat(entry.path() / "stat");
    std::string text;
    std::getline(stat, text);
    const auto close = text.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(text.substr(close + 2));
    char state = 0;
    long ppid = 0;
    rest >> state >> ppid;
    if (ppid == pid) out.push_back(std::stol(name));
  }
  return out;
}

/// One `qbarren_cli serve` process with a fresh cache file. Construction
/// is the set-up: spawn, wait until the socket accepts, and send a small
/// first request through the worker pool.
class Server {
 public:
  Server(const std::filesystem::path& dir, int index) {
    socket_ = (dir / numbered("s", index)).string();
    cache_ = (dir / numbered("c", index)).string();
    require(socket_.size() < sizeof(sockaddr_un::sun_path),
            "socket path too long: " + socket_);
    const std::string cli = cli_path();
    const std::string workers = std::to_string(kWorkers);
    const auto start = Clock::now();
    pid_ = ::fork();
    require(pid_ >= 0, "fork failed");
    if (pid_ == 0) {
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) ::dup2(devnull, STDERR_FILENO);
      ::execl(cli.c_str(), "qbarren_cli", "serve", "--socket", socket_.c_str(),
              "--workers", workers.c_str(), "--cache", cache_.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    try {
      int fd = -1;
      while ((fd = connect_socket(socket_)) < 0) {
        require(seconds_since(start) < 30.0, "server did not start accepting");
        int status = 0;
        require(::waitpid(pid_, &status, WNOHANG) == 0, "server exited early");
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      spawn_ms_ = seconds_since(start) * 1e3;
      Exchange x;
      exchange(fd, setup_request().line, start, x);
      require(status_of(x.last) == Status::kOk, "set-up request failed");
      setup_s_ = seconds_since(start);
    } catch (...) {
      stop();
      throw;
    }
  }
  ~Server() { stop(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] const std::string& socket() const { return socket_; }
  [[nodiscard]] double spawn_ms() const { return spawn_ms_; }
  [[nodiscard]] double setup_s() const { return setup_s_; }

  /// Peak RSS of the server plus its live workers, MB.
  [[nodiscard]] double peak_rss_mb() const {
    double mb = process_peak_rss_mb(pid_);
    for (long child : children_of(pid_)) mb += process_peak_rss_mb(child);
    return mb;
  }

  /// SIGTERM drains and reaps the workers; SIGKILL after 20 s.
  void stop() {
    if (pid_ <= 0) return;
    const std::vector<long> workers = children_of(pid_);
    (void)::kill(pid_, SIGTERM);
    const auto start = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_since(start) > 20.0) {
        (void)::kill(pid_, SIGKILL);
        (void)::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    for (long w : workers) {  // orphans re-parent to this subreaper
      if (::kill(static_cast<pid_t>(w), 0) == 0) {
        (void)::kill(static_cast<pid_t>(w), SIGKILL);
      }
      (void)::waitpid(static_cast<pid_t>(w), nullptr, 0);
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  std::string socket_, cache_;
  double spawn_ms_ = 0.0, setup_s_ = 0.0;
};

void warm_up(const Server& server, const Mix& mix) {
  for (const Request& r : mix.warmup) {
    const int fd = connect_socket(server.socket());
    require(fd >= 0, "warm-up connect failed");
    Exchange x;
    exchange(fd, r.line, Clock::now(), x);
    require(status_of(x.last) == Status::kOk, "warm-up request failed");
  }
}

/// Open loop: request i is due at due[i]; each of the connection threads
/// takes the next request in due order, waits until it is due, and holds
/// its connection until the terminal event.
std::vector<Exchange> drive(const Server& server,
                            const std::vector<Request>& requests,
                            const std::vector<double>& due) {
  std::vector<Exchange> out(due.size());
  std::atomic<std::size_t> next{0};
  std::atomic<bool> broken{false};
  const auto origin = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < due.size(); i = next++) {
        Exchange& x = out[i];
        x.due_s = due[i];
        std::this_thread::sleep_until(
            origin + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(due[i])));
        x.sent_s = seconds_since(origin);
        const int fd = connect_socket(server.socket());
        if (fd < 0) {
          broken = true;
          x.end_s = x.sent_s;
          continue;
        }
        try {
          exchange(fd, requests[i].line, origin, x);
        } catch (const std::exception&) {
          broken = true;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  require(!broken, "lost a connection to the server");
  return out;
}

struct Phase {
  double rate = 0.0;
  std::size_t ok = 0, refused = 0, failed = 0;
  std::optional<double> p50_ms, p90_ms;
  double late_tail_ms = 0.0;  ///< mean lateness over the last quarter
  double wall_s = 0.0;
  bool pass = false;
};

Phase evaluate(const std::vector<Exchange>& xs, double rate) {
  Phase p;
  p.rate = rate;
  std::vector<double> latency;
  double last_end = 0.0;
  for (const Exchange& x : xs) {
    const Status s = status_of(x.last);
    (s == Status::kOk ? p.ok : s == Status::kRefused ? p.refused : p.failed)++;
    latency.push_back(request_latency_ms(x.last, x.due_s, x.end_s));
    last_end = std::max(last_end, x.end_s);
  }
  p.p50_ms = percentile(latency, 0.5);
  p.p90_ms = percentile(latency, 0.9);
  const std::size_t tail = std::max<std::size_t>(xs.size() / 4, 1);
  for (std::size_t i = xs.size() - tail; i < xs.size(); ++i) {
    p.late_tail_ms += (xs[i].sent_s - xs[i].due_s) * 1e3;
  }
  p.late_tail_ms /= static_cast<double>(tail);
  p.wall_s = last_end - xs.front().due_s;
  p.pass = p.p90_ms.has_value() && *p.p90_ms <= kLatencyLimitMs &&
           p.late_tail_ms <= kLatencyLimitMs;
  return p;
}

void print_phase(const char* what, const Phase& p, double setup_s) {
  char p90[48] = "p90 withheld (< 100 requests)";
  if (p.p90_ms.has_value()) {
    std::snprintf(p90, sizeof(p90), "p90 %.1f ms, %s", *p.p90_ms,
                  p.pass ? "meets the limit" : "misses the limit");
  }
  std::printf("serve %s: rate %.2f/s, %zu ok, %zu refused, %zu failed, "
              "p50 %.1f ms, %s, tail lateness %.1f ms (setup %.3f s)\n",
              what, p.rate, p.ok, p.refused, p.failed, p.p50_ms.value_or(-1),
              p90, p.late_tail_ms, setup_s);
}

/// Gradient samples the service computed for `xs`: circuits per computed
/// variance cell, optimizer steps per computed training cell.
double computed_samples(const std::vector<Request>& requests,
                        const std::vector<Exchange>& xs) {
  double samples = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (status_of(xs[i].last) != Status::kOk) continue;
    const double computed = static_cast<double>(
        q::parse_json(xs[i].last).at("computed").as_integer());
    const sv::RequestSpec& spec = requests[i].spec;
    samples += computed * static_cast<double>(
                              spec.kind == sv::SpecKind::kVariance
                                  ? spec.variance.circuits_per_point
                                  : spec.training.iterations);
  }
  return samples;
}

// --- output checks -----------------------------------------------------------------

std::string in_process_result(const sv::RequestSpec& spec) {
  q::RunControl control;
  control.jobs = 4;
  if (spec.kind == sv::SpecKind::kVariance) {
    return q::to_json(q::VarianceExperiment(spec.variance)
                          .run_paper_set(q::FanMode::kLayerTensor, control))
        .dump();
  }
  return q::to_json(q::TrainingExperiment(spec.training)
                        .run_paper_set(q::FanMode::kLayerTensor, control))
      .dump();
}

/// Checks served responses: every `ok` result equals an in-process run of
/// the same spec (computed once per spec), and every refusal is the
/// admission gate's answer to the q=10 paper point, not an outage.
class Verifier {
 public:
  void check(const std::vector<Request>& requests,
             const std::vector<Exchange>& xs) {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const Status s = status_of(xs[i].last);
      require(s != Status::kFailed,
              "request " + requests[i].spec.id + " failed: " + xs[i].last);
      if (s == Status::kRefused) {
        require(requests[i].kind == Kind::kPaperPoint,
                "admission refused request " + requests[i].spec.id);
        continue;
      }
      const std::string fp = sv::spec_fingerprint(requests[i].spec);
      auto it = expected_.find(fp);
      if (it == expected_.end()) {
        it = expected_.emplace(fp, in_process_result(requests[i].spec)).first;
      }
      require(q::parse_json(xs[i].last).at("result").dump() == it->second,
              "served result of " + requests[i].spec.id +
                  " differs from the in-process run");
    }
  }
  [[nodiscard]] std::size_t specs() const { return expected_.size(); }

 private:
  std::map<std::string, std::string> expected_;  // fingerprint -> result
};

// --- timed run ---------------------------------------------------------------------

/// The fixed offered rate; tiny (self-test) runs offer requests faster.
double fixed_rate(const RunArgs& args) { return args.tiny ? 40.0 : kFixedRate; }

/// Fixed-rate phases per run: 3.5 times --seconds of offered load, in
/// phases of 60 requests (at least two; 7 at --seconds 15). Many short
/// phases on fresh servers average out the machine's phase-to-phase
/// swings; the latency percentiles pool all their requests.
int fixed_phases(const RunArgs& args) {
  return std::max(2, static_cast<int>(std::lround(
                         3.5 * args.seconds * fixed_rate(args) /
                         static_cast<double>(kPhaseRequests))));
}

/// One served phase on a fresh server: set-up, untimed warm-up, then the
/// open loop over `requests` at `rate`.
struct ServedPhase {
  std::vector<Exchange> exchanges;
  Phase phase;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
};

ServedPhase serve_phase(const RunArgs& args, int index, const Mix& mix,
                        const std::vector<Request>& requests, double rate,
                        std::uint64_t arrival_seed, const char* what) {
  ServedPhase out;
  Server server(args.scratch, index);
  out.setup_s = server.setup_s();
  warm_up(server, mix);
  out.exchanges = drive(server, requests,
                        arrivals(arrival_seed, requests.size(), rate));
  out.peak_rss_mb = server.peak_rss_mb();
  out.phase = evaluate(out.exchanges, rate);
  print_phase(what, out.phase, out.setup_s);
  return out;
}

/// The highest rate that meets the latency limit. Each phase passes or
/// misses (p90 <= 250 ms and no growing backlog); the pass/miss pattern is
/// fitted with the single rate threshold that misclassifies the fewest
/// phases (ties: the highest), so one noisy phase cannot end the ladder.
/// The answer is interpolated between the phase rates that bracket the
/// threshold, log-linearly in p90.
double fitted_max_ok_rps(std::vector<Phase> phases) {
  std::sort(phases.begin(), phases.end(),
            [](const Phase& a, const Phase& b) { return a.rate < b.rate; });
  const std::size_t m = phases.size();
  std::size_t best_cut = 0, best_cost = m + 1;
  for (std::size_t cut = 0; cut <= m; ++cut) {
    if (cut > 0 && cut < m && phases[cut - 1].rate == phases[cut].rate) {
      continue;  // a threshold separates rates, not phases
    }
    std::size_t cost = 0;
    for (std::size_t i = 0; i < m; ++i) cost += (i < cut) != phases[i].pass;
    if (cost <= best_cost) {
      best_cost = cost;
      best_cut = cut;
    }
  }
  const auto p90 = [](const Phase& p) {
    return std::log(std::clamp(p.p90_ms.value_or(1e7), 1.0, 1e7));
  };
  const double limit = std::log(kLatencyLimitMs);
  if (best_cut == m) return phases.back().rate;  // the ladder's top
  if (best_cut == 0) {  // even the lowest rate misses: scale it down
    return phases.front().rate * std::exp(std::min(0.0, limit - p90(phases.front())));
  }
  const Phase& a = phases[best_cut - 1];
  const Phase& b = phases[best_cut];
  const double f0 = p90(a), f1 = p90(b);
  const double t = f1 > f0 ? std::clamp((limit - f0) / (f1 - f0), 0.0, 1.0) : 0.0;
  return std::exp(std::log(a.rate) + t * (std::log(b.rate) - std::log(a.rate)));
}

void timed_serve(const RunArgs& args, Outcome& out) {
  Report& r = out.report;
  const Mix mix = make_mix(args.seed, kRungRequests, args.tiny);
  const std::vector<Request> phase_requests(
      mix.requests.begin(),
      mix.requests.begin() + static_cast<long>(kPhaseRequests));
  std::vector<double> setups, latencies_ms, sample_rates, rss;
  std::vector<Exchange> fixed;  // every fixed-rate exchange, pooled
  std::vector<Phase> ladder;
  Verifier verifier;
  std::size_t ok = 0;
  int index = 0;
  out.calibrations_ms.push_back(calibration_ms());

  // Fixed-rate phases, each with its own arrival pattern: the end-to-end
  // latency metrics.
  const int phases = fixed_phases(args);
  for (int k = 0; k < phases; ++k) {
    const ServedPhase sp =
        serve_phase(args, index++, mix, phase_requests, fixed_rate(args),
                    args.seed * 1000 + static_cast<std::uint64_t>(k), "fixed");
    out.calibrations_ms.push_back(calibration_ms());
    const Phase& p = sp.phase;
    fixed.insert(fixed.end(), sp.exchanges.begin(), sp.exchanges.end());
    sample_rates.push_back(computed_samples(phase_requests, sp.exchanges) /
                           p.wall_s);
    rss.push_back(sp.peak_rss_mb);
    setups.push_back(sp.setup_s);
    ok += p.ok;
    out.attempted += phase_requests.size();
    out.failed += p.failed;  // admission refusals are answers, not outages
    verifier.check(phase_requests, sp.exchanges);
  }
  const Phase pooled = evaluate(fixed, fixed_rate(args));
  ladder.push_back(pooled);

  // Rate ladder, every rung on the same arrival pattern scaled to its rate.
  const std::vector<Request>& rung_requests = mix.requests;
  for (int k = kLadderFirst; k <= kLadderLast; ++k) {
    const double rate = fixed_rate(args) * std::pow(kLadderStep, k);
    const ServedPhase sp = serve_phase(args, index++, mix, rung_requests, rate,
                                       args.seed, "ladder");
    out.calibrations_ms.push_back(calibration_ms());
    setups.push_back(sp.setup_s);
    ladder.push_back(sp.phase);
    verifier.check(rung_requests, sp.exchanges);
  }

  require(pooled.p50_ms.has_value() && pooled.p90_ms.has_value(),
          "too few requests for latency percentiles");
  // An infinite percentile (more than 10% refused or failed) reads as the
  // whole fixed-rate window.
  const double window_ms = 1e3 * static_cast<double>(fixed.size()) /
                           fixed_rate(args);
  const auto finite = [window_ms](double ms) {
    return std::isfinite(ms) ? ms : window_ms;
  };
  r.add("setup_s", median(setups), "s");
  r.add("samples_per_s", median(sample_rates), "1/s");
  r.add("latency_p50_ms", finite(*pooled.p50_ms), "ms");
  r.add("latency_p90_ms", finite(*pooled.p90_ms), "ms");
  r.add("max_ok_rps", fitted_max_ok_rps(ladder), "1/s");
  r.add("completed_frac",
        static_cast<double>(ok) / static_cast<double>(out.attempted), "frac");
  r.add("peak_rss_mb", median(rss), "MB");
  std::printf("serve: %d x %zu requests at %.0f/s (pooled p50 %.1f ms, p90 "
              "%.1f ms), %d ladder rungs of %zu, %zu distinct specs checked "
              "against in-process runs\n",
              phases, phase_requests.size(), fixed_rate(args), *pooled.p50_ms,
              *pooled.p90_ms, kLadderLast - kLadderFirst + 1,
              rung_requests.size(), verifier.specs());
}

// --- traced run --------------------------------------------------------------------

struct ReplayOutcome {
  std::vector<std::string> results;  ///< per timed request; "" unless ok
  double wall_s = 0.0;
  double cache_bytes = 0.0;
};

/// The service's admission gate, in process: the lint preflight
/// (admission_check) and the static determinism audit (audit_request).
bool admit(const sv::RequestSpec& spec, Tracer* tracer, std::uint64_t request) {
  ScopedSpan span(tracer, "serve.admission", request);
  q::AdmissionDecision decision;
  {
    ScopedSpan lint(tracer, "analysis.preflight", request);
    decision = spec.kind == sv::SpecKind::kVariance
                   ? q::admission_check(spec.variance)
                   : q::admission_check(spec.training);
  }
  ScopedSpan audit(tracer, "serve.audit", request);
  return decision.admitted && !q::has_errors(sv::audit_request(spec));
}

/// Session counters of one driven phase: queue wait (first event - sent -
/// request i's admission time `admission_ms[i]`), cache hits, refusals,
/// worker deaths, retries and the generator's lateness.
void report_session(const std::vector<Exchange>& xs, const Phase& phase,
                    const std::vector<double>& admission_ms, Report& r) {
  std::size_t cells = 0, cached = 0, deaths = 0, retries = 0;
  double queue_sum = 0.0;
  std::vector<double> late_ms;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    late_ms.push_back((xs[i].sent_s - xs[i].due_s) * 1e3);
    // The first event (admitted or rejected) arrives after the request
    // waited for the FIFO server and passed admission.
    queue_sum += std::max(
        0.0, (xs[i].first_event_s - xs[i].sent_s) * 1e3 - admission_ms[i]);
    if (status_of(xs[i].last) != Status::kOk) continue;
    const q::JsonValue done = q::parse_json(xs[i].last);
    cells += static_cast<std::size_t>(done.at("cells").as_integer());
    cached += static_cast<std::size_t>(done.at("cached").as_integer());
    deaths += static_cast<std::size_t>(done.at("worker_deaths").as_integer());
    retries += static_cast<std::size_t>(done.at("retries").as_integer());
  }
  const auto n = static_cast<double>(xs.size());
  r.add("serve.queue_wait_ms", queue_sum / n, "ms");
  r.add("serve.cache_hit_frac",
        static_cast<double>(cached) / static_cast<double>(cells), "frac");
  r.add("serve.rejected_frac",
        static_cast<double>(phase.refused + phase.failed) / n, "frac");
  r.add("serve.worker_deaths", static_cast<double>(deaths), "count");
  r.add("executor.retries", static_cast<double>(retries), "count");
  r.add("executor.failures", static_cast<double>(phase.failed), "count");
  r.add("load.late_ms.p90", percentile(late_ms, 0.9).value_or(0.0), "ms");
}

/// The service's per-request layer calls, in process: parse, admission
/// (lint + QD audit), cache lookup, cell computation, cache write
/// (record_cell rewrites the whole file), restore-only assembly, dump.
ReplayOutcome replay_serve(const Mix& mix, const std::string& cache_path,
                           Tracer* tracer, std::vector<double>* admission_ms) {
  ReplayOutcome out;
  const auto start = Clock::now();
  q::Checkpoint cache(cache_path, sv::ExperimentService::kCacheFingerprint);
  const auto inits = q::paper_initializers(q::FanMode::kLayerTensor);
  std::vector<const Request*> order;
  const Request setup = setup_request();
  order.push_back(&setup);
  for (const Request& r : mix.warmup) order.push_back(&r);
  for (const Request& r : mix.requests) order.push_back(&r);
  for (std::size_t k = 0; k < order.size(); ++k) {
    ScopedSpan request_span(tracer, "serve.request", k);
    sv::RequestSpec spec;
    {
      ScopedSpan span(tracer, "json.parse", k);
      spec = sv::request_from_json(q::parse_json(order[k]->line));
    }
    const bool timed = k > mix.warmup.size();
    const auto a0 = Clock::now();
    const bool admitted = admit(spec, tracer, k);
    if (admission_ms != nullptr && timed) {
      admission_ms->push_back(seconds_since(a0) * 1e3);
    }
    if (!admitted) {
      if (timed) out.results.emplace_back();
      continue;
    }
    const std::string fp = sv::spec_fingerprint(spec);
    q::Checkpoint assembly{std::string(), fp};
    for (const sv::CellJob& job : sv::enumerate_cells(spec)) {
      const std::string key = fp + "|" + job.key;
      if (!cache.has_cell(key)) {
        q::CheckpointCell cell;
        const q::Initializer& init = *inits[job.initializer_index];
        if (spec.kind == sv::SpecKind::kVariance) {
          ScopedSpan span(tracer, "bp.cell.q" + std::to_string(
                                      spec.variance.qubit_counts[0]), k);
          const auto engine =
              q::make_gradient_engine(spec.variance.gradient_engine);
          cell.vectors["samples"] = q::compute_variance_cell(
              spec.variance, job.qubit_index, init, job.initializer_index,
              *engine);
        } else {
          ScopedSpan span(tracer, "bp.train_cell", k);
          const q::CostFunction cost = q::make_training_cost(spec.training);
          cell = q::checkpoint_cell_from_train_result(q::run_training_cell(
              spec.training, cost, init, job.initializer_index,
              q::CellContext{}));
        }
        ScopedSpan span(tracer, "checkpoint.record_cell", k);
        cache.record_cell(key, std::move(cell));
      }
      assembly.put_cell(job.key, *cache.find_cell(key));
    }
    q::RunControl control;
    control.checkpoint = &assembly;
    control.restore_only = true;
    const q::JsonValue result =
        spec.kind == sv::SpecKind::kVariance
            ? q::to_json(q::VarianceExperiment(spec.variance)
                             .run_paper_set(q::FanMode::kLayerTensor, control))
            : q::to_json(q::TrainingExperiment(spec.training)
                             .run_paper_set(q::FanMode::kLayerTensor, control));
    std::string text;
    {
      ScopedSpan span(tracer, "json.dump", k);
      text = result.dump();
    }
    if (timed) out.results.push_back(std::move(text));
  }
  out.wall_s = seconds_since(start);
  out.cache_bytes = static_cast<double>(std::filesystem::file_size(cache_path));
  return out;
}

void traced_serve(const RunArgs& args, Outcome& out) {
  Report& r = out.report;
  const std::size_t n = kRungRequests;
  const Mix mix = make_mix(args.seed, n, args.tiny);
  const std::vector<double> due = arrivals(args.seed, n, fixed_rate(args));
  out.calibrations_ms.push_back(calibration_ms());
  std::vector<Exchange> xs;
  double spawn_ms = 0.0;
  {
    Server server(args.scratch, 0);
    spawn_ms = server.spawn_ms();
    r.add("setup_s", server.setup_s(), "s");
    warm_up(server, mix);
    xs = drive(server, mix.requests, due);
  }
  const Phase phase = evaluate(xs, fixed_rate(args));
  out.attempted = n;
  out.failed = phase.failed;

  // Untraced, traced, untraced again: the overhead compares the traced
  // replay with the mean of the two around it.
  std::vector<double> admission_ms;
  const ReplayOutcome plain = replay_serve(
      mix, (args.scratch / "replay-plain.cache").string(), nullptr, nullptr);
  Tracer tracer;
  const ReplayOutcome traced =
      replay_serve(mix, (args.scratch / "replay-traced.cache").string(),
                   &tracer, &admission_ms);
  const ReplayOutcome plain2 = replay_serve(
      mix, (args.scratch / "replay-plain2.cache").string(), nullptr, nullptr);
  require(plain2.results == plain.results, "serve replays disagree");
  out.calibrations_ms.push_back(calibration_ms());

  for (std::size_t i = 0; i < xs.size(); ++i) {
    const Status s = status_of(xs[i].last);
    require(s != Status::kFailed, "request failed: " + xs[i].last);
    if (s == Status::kOk) {
      const std::string served =
          q::parse_json(xs[i].last).at("result").dump();
      require(served == plain.results[i] && served == traced.results[i],
              "replay of " + mix.requests[i].spec.id +
                  " differs from the served result");
    } else {
      require(mix.requests[i].kind == Kind::kPaperPoint &&
                  traced.results[i].empty(),
              "admission refused " + mix.requests[i].spec.id);
    }
  }
  report_session(xs, phase, admission_ms, r);
  r.add("serve.admission_ms", span_mean(tracer, "serve.admission", 1e3), "ms");
  r.add("analysis.preflight_ms", span_mean(tracer, "analysis.preflight", 1e3),
        "ms");
  r.add("serve.spawn_ms", spawn_ms, "ms");
  r.add("json.parse_us", span_mean(tracer, "json.parse", 1e6), "us");
  r.add("json.dump_us", span_mean(tracer, "json.dump", 1e6), "us");
  r.add("bp.cell_s.q4", span_mean(tracer, "bp.cell.q4", 1.0), "s");
  r.add("bp.train_cell_s", span_mean(tracer, "bp.train_cell", 1.0), "s");
  report_checkpoint(tracer, r, traced.cache_bytes);
  r.add("trace.overhead_frac",
        2.0 * traced.wall_s / (plain.wall_s + plain2.wall_s) - 1.0, "frac");

  // Plan/kernel probes on the workload's own circuits: the q=4 variance
  // structures of the first fresh request and the q=6 training circuit.
  std::vector<q::Circuit> structures;
  for (const Request& req : mix.requests) {
    if (req.kind != Kind::kVariance) continue;
    const q::Rng stream = q::Rng(req.spec.variance.seed).child(0);
    for (std::size_t i = 0; i < req.spec.variance.circuits_per_point; ++i) {
      q::Rng structure = stream.child(2 * i).child(0);
      q::VarianceAnsatzOptions ansatz;
      ansatz.layers = req.spec.variance.layers;
      structures.push_back(q::variance_ansatz(
          req.spec.variance.qubit_counts[0], structure, ansatz));
    }
    break;
  }
  std::vector<const q::Circuit*> compiled;
  for (const auto& c : structures) compiled.push_back(&c);
  q::TrainingExperimentOptions t6;
  t6.qubits = 6;
  const q::CostFunction cost6 = q::make_training_cost(t6);
  const std::vector<BoundCircuit> q6(
      20, BoundCircuit{cost6.circuit(),
                       std::vector<double>(cost6.num_parameters(), 0.3)});
  probe_plans(tracer, r, compiled, {}, q6, nullptr);
  tracer.print_totals();
  print_phase("traced", phase, r.value("setup_s"));
}

}  // namespace

Report probe_serve_layers(const RunArgs& args) {
  Report r;
  const Mix mix = make_mix(args.seed, kRungRequests, /*tiny=*/true);
  std::vector<Exchange> xs;
  {
    Server server(args.scratch, 999);
    r.add("serve.spawn_ms", server.spawn_ms(), "ms");
    warm_up(server, mix);
    xs = drive(server, mix.requests,
               arrivals(args.seed, mix.requests.size(), 40.0));
  }
  Verifier().check(mix.requests, xs);
  Tracer tracer;
  std::vector<double> admission_ms;
  for (std::size_t i = 0; i < mix.requests.size(); ++i) {
    const auto start = Clock::now();
    (void)admit(mix.requests[i].spec, &tracer, i);
    admission_ms.push_back(seconds_since(start) * 1e3);
  }
  r.add("serve.admission_ms", span_mean(tracer, "serve.admission", 1e3), "ms");
  report_session(xs, evaluate(xs, 40.0), admission_ms, r);
  return r;
}

Outcome run_serve(const RunArgs& args) {
  Outcome out;
  if (args.trace) {
    traced_serve(args, out);
  } else {
    timed_serve(args, out);
  }
  return out;
}

}  // namespace qbench
