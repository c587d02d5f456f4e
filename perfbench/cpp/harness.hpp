// Measurement plumbing shared by the benchmark's workloads and its traced
// layer run: host clock, order statistics, result digests, an in-memory
// span recorder and the metric sink that prints the human table and the
// machine-readable result line.
//
// Every host-time quantity here is wall-clock time (std::chrono's steady
// clock) on the machine running the benchmark; every simulated quantity is
// in model cycles. Metric units say which: "s"/"ns" are host time,
// "cycles" are simulated time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic host wall clock, seconds.
[[nodiscard]] double host_seconds();

/// Peak resident set size of this process so far, MiB.
[[nodiscard]] double peak_rss_mb();

/// Median of `samples` (mean of the two middle values for even sizes).
[[nodiscard]] double median(std::vector<double> samples);

/// The highest percentile with at least ten samples beyond it: with n
/// sorted samples, the value at rank n - 11 (0-based), and its percentile
/// as (rank + 1) / n. Needs n >= 11; smaller sets report their maximum
/// with percentile 100.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail(std::vector<double> samples);

/// 64-bit FNV-1a of `text`, as 16 hex digits.
[[nodiscard]] std::string digest(const std::string& text);

/// Spans recorded at the benchmark's calls into each library layer:
/// name, start, end and the enclosing span. Spans stay in memory and are
/// written out once, after measurement. When disabled, Scope does not
/// read the clock.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
  };

  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    SpanRecorder* recorder_;
    int index_ = -1;
  };

  /// Sum of the durations of every span called `name`, seconds.
  [[nodiscard]] double total_seconds(const std::string& name) const;
  /// Per-name self time (duration minus direct children), seconds.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_seconds()
      const;
  /// Chrome trace-event JSON ("X" events, one per span).
  bool write_json(const std::string& file) const;

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

/// One named metric: value, unit and a free-text note (the base of a
/// ratio, a percentile, the workload it belongs to).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

/// Collects metrics, prints them as an aligned table on stderr and emits
/// the result object the wrapper script reads.
class MetricSink {
 public:
  void add(std::string name, double value, std::string unit,
           std::string note = "");
  void print_table(const std::string& title) const;
  /// {"name":{"value":v,"unit":"u"},...}
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<Metric> metrics_;
};

/// JSON string literal for `text` (quotes and escapes included).
[[nodiscard]] std::string json_quote(const std::string& text);

/// Round-trip decimal rendering of `value` (17 significant digits), so
/// every digit that was measured reaches the output; null if not finite.
[[nodiscard]] std::string json_number(double value);

}  // namespace perfbench
