#include "metrics.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

namespace qbench {

double median(std::vector<double> values) {
  require(!values.empty(), "median of an empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::size_t samples_needed(double p) {
  // Nearest rank r = ceil(p n); n - r >= 10 beyond it.
  std::size_t n = 1;
  while (static_cast<double>(n) -
             std::ceil(p * static_cast<double>(n) - 1e-9) <
         10.0) {
    ++n;
  }
  return n;
}

std::optional<double> percentile(std::vector<double> values, double p) {
  if (values.size() < samples_needed(p)) return std::nullopt;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size()) - 1e-9));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

void require(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  require(!has(name), "metric reported twice: " + name);
  entries_.push_back(Entry{name, value, unit});
}

bool Report::has(const std::string& name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.name == name; });
}

double Report::value(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.value;
  }
  throw CheckFailure("metric not reported: " + name);
}

void Report::print_lines() const {
  for (const Entry& e : entries_) {
    std::printf("metric %-28s %.6g %s\n", e.name.c_str(), e.value,
                e.unit.c_str());
  }
}

std::string Report::result_json(bool correct, std::uint64_t attempted,
                                 std::uint64_t failed) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    char value[64];
    // All digits as measured; a non-finite value cannot appear in JSON.
    const double v = std::isfinite(entries_[i].value) ? entries_[i].value
                                                      : -1.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    out << (i == 0 ? "" : ", ") << '"' << entries_[i].name
        << "\": {\"value\": " << value << ", \"unit\": \""
        << entries_[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

// --- tracing -----------------------------------------------------------------

int Tracer::begin(const std::string& name, std::uint64_t request) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.request = request;
  span.start = Clock::now();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].end = Clock::now();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  // Children of one span never overlap (single-threaded nesting), so the
  // time they cover is the sum of their durations.
  std::vector<double> child_cover(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_cover[static_cast<std::size_t>(s.parent)] +=
          seconds_between(s.start, s.end);
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double d = seconds_between(spans_[i].start, spans_[i].end);
    Totals& t = out[spans_[i].name];
    ++t.count;
    t.total_s += d;
    t.self_s += d - child_cover[i];
  }
  return out;
}

void Tracer::print_totals() const {
  const auto by_name = totals();
  std::vector<std::pair<std::string, Totals>> rows(by_name.begin(),
                                                   by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_s > b.second.self_s;
  });
  for (const auto& [name, t] : rows) {
    std::printf("span %-26s count %8zu total_ms %11.3f self_ms %11.3f\n",
                name.c_str(), t.count, t.total_s * 1e3, t.self_s * 1e3);
  }
}

// --- delay injection ----------------------------------------------------------

namespace {
std::string g_delay_layer;
double g_delay_us = 0.0;
}  // namespace

void arm_delay(const std::string& layer, double microseconds) {
  g_delay_layer = layer;
  g_delay_us = microseconds;
}

bool delay_armed() { return g_delay_us > 0.0; }

void injected_delay(const std::string& layer) {
  if (g_delay_us <= 0.0 || layer != g_delay_layer) return;
  const auto until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::micro>(g_delay_us));
  while (Clock::now() < until) {
  }
}

// --- machine context -----------------------------------------------------------

double calibration_ms() {
  // 2^12 amplitudes rotated 1200 times: fixed arithmetic, cache-resident.
  std::vector<std::complex<double>> amps(4096, {0.5, 0.25});
  const std::complex<double> a{std::cos(0.1), 0.0}, b{0.0, -std::sin(0.1)};
  const auto start = Clock::now();
  for (int pass = 0; pass < 1200; ++pass) {
    for (std::size_t i = 0; i < amps.size(); i += 2) {
      const auto x = amps[i], y = amps[i + 1];
      amps[i] = a * x + b * y;
      amps[i + 1] = b * x + a * y;
    }
  }
  const double ms = seconds_since(start) * 1e3;
  volatile double sink = amps[7].real();
  (void)sink;
  return ms;
}

MachineSnapshot machine_snapshot() {
  MachineSnapshot s;
  std::ifstream load("/proc/loadavg");
  load >> s.load1;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t field = 0;
  stat >> cpu;
  for (int i = 1; i <= 8 && stat >> field; ++i) {
    if (i == 8) s.steal_ticks = field;
  }
  return s;
}

namespace {
std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      std::string model = line.substr(colon + 1);
      model.erase(0, model.find_first_not_of(' '));
      for (char& c : model) {
        if (c == '"' || c == '\\') c = ' ';
      }
      return model;
    }
  }
  return "unknown";
}
}  // namespace

void print_context(const MachineSnapshot& before, const MachineSnapshot& after,
                   const std::vector<double>& calibrations_ms) {
  std::ostringstream out;
  out << "context {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"cpu_model\": \"" << cpu_model() << "\", \"load1_start\": "
      << before.load1 << ", \"load1_end\": " << after.load1
      << ", \"steal_ticks\": " << (after.steal_ticks - before.steal_ticks)
      << ", \"calibration_ms\": [";
  for (std::size_t i = 0; i < calibrations_ms.size(); ++i) {
    out << (i == 0 ? "" : ", ") << calibrations_ms[i];
  }
  out << "]";
  if (!calibrations_ms.empty()) {
    out << ", \"calibration_ms_median\": " << median(calibrations_ms);
  }
  out << "}";
  std::printf("%s\n", out.str().c_str());
}

double process_peak_rss_mb(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

}  // namespace qbench
