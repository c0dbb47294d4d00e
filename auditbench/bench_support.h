// Clocks, process resource readings, the benchmark's own span log, and a
// minimal JSON writer for the audit benchmark binary.
//
// The span log records one span around each public library call the
// benchmark makes (task construction, RunSweep, AuditExperiment, trace-store
// loads, ledger flushes and checks). It lives in the benchmark, not in the
// program: the program's own phase spans are read separately from
// obs::SpanRegistry. Spans are kept in memory and written once, at the end
// of a traced run, as a Chrome trace-event file.

#ifndef DPAUDIT_AUDITBENCH_BENCH_SUPPORT_H_
#define DPAUDIT_AUDITBENCH_BENCH_SUPPORT_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace auditbench {

/// steady_clock, which is CLOCK_MONOTONIC on Linux: the same clock run.py
/// reads before it starts this process, so set-up time can be measured from
/// the process's start.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double NowSeconds() { return static_cast<double>(NowNs()) * 1e-9; }

/// User plus system CPU time of the whole process (all threads).
inline double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Peak resident set size of the process, in MB (ru_maxrss is in KiB).
inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

class SpanLog {
 public:
  struct Record {
    std::string name;
    int parent = -1;
    int round = -1;  // audit round the span belongs to; -1 outside rounds
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
  };

  /// Opens a span under the calling thread's innermost open span.
  int Begin(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    Record record;
    record.name = name;
    record.parent = CurrentParent();
    record.round = round_;
    record.start_ns = NowNs();
    records_.push_back(record);
    const int id = static_cast<int>(records_.size()) - 1;
    Stack().push_back(id);
    return id;
  }

  void End(int id) {
    const uint64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    records_[static_cast<size_t>(id)].end_ns = now;
    std::vector<int>& stack = Stack();
    if (!stack.empty() && stack.back() == id) stack.pop_back();
  }

  void SetRound(int round) {
    std::lock_guard<std::mutex> lock(mu_);
    round_ = round;
  }

  /// Summed duration of every span called `name` in `round`.
  double Seconds(const std::string& name, int round) const {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total = 0;
    for (const Record& r : records_) {
      if (r.name == name && r.round == round) total += r.end_ns - r.start_ns;
    }
    return static_cast<double>(total) * 1e-9;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  void WriteChromeTrace(std::ostream& os) const {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t origin = records_.empty() ? 0 : records_.front().start_ns;
    os << "{\"traceEvents\":[";
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d,\"round\":%d}}",
                    i == 0 ? "" : ",\n", r.name.c_str(),
                    static_cast<double>(r.start_ns - origin) * 1e-3,
                    static_cast<double>(r.end_ns - r.start_ns) * 1e-3, i,
                    r.parent, r.round);
      os << buf;
    }
    os << "]}\n";
  }

 private:
  static std::vector<int>& Stack() {
    thread_local std::vector<int> stack;
    return stack;
  }
  int CurrentParent() const {
    const std::vector<int>& stack = Stack();
    return stack.empty() ? -1 : stack.back();
  }

  mutable std::mutex mu_;
  std::vector<Record> records_;
  int round_ = -1;
};

/// RAII span over one public call.
class BenchSpan {
 public:
  BenchSpan(SpanLog& log, const std::string& name)
      : log_(log), id_(log.Begin(name)) {}
  ~BenchSpan() { log_.End(id_); }
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

/// Doubles print with 17 significant digits so every value round-trips
/// bit-exactly into the Python checker.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return v > 0 ? "1e999" : (v < 0 ? "-1e999" : "null");
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

inline std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

}  // namespace auditbench

#endif  // DPAUDIT_AUDITBENCH_BENCH_SUPPORT_H_
