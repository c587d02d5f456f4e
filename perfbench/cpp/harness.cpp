#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

namespace perfbench {

double host_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Tail tail(std::vector<double> samples) {
  Tail out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const std::size_t rank = n >= 11 ? n - 11 : n - 1;
  out.value = samples[rank];
  out.percentile = 100.0 * static_cast<double>(rank + 1) /
                   static_cast<double>(n);
  return out;
}

std::string digest(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, const char* name)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  index_ = static_cast<int>(recorder_->spans_.size());
  recorder_->spans_.push_back({name, recorder_->open_, host_seconds(), 0.0});
  recorder_->open_ = index_;
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  Span& span = recorder_->spans_[static_cast<std::size_t>(index_)];
  span.end = host_seconds();
  recorder_->open_ = span.parent;
}

double SpanRecorder::total_seconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.end - span.start;
  }
  return total;
}

std::vector<std::pair<std::string, double>> SpanRecorder::self_seconds()
    const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end - spans_[i].start;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end - spans_[i].start;
    }
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_name[spans_[i].name] += self[i];
  }
  return {by_name.begin(), by_name.end()};
}

bool SpanRecorder::write_json(const std::string& file) const {
  std::ofstream out(file);
  if (!out) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "" : ",") << "{\"name\":" << json_quote(span.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << json_number((span.start - origin) * 1e6)
        << ",\"dur\":" << json_number((span.end - span.start) * 1e6)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
        << "}}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void MetricSink::add(std::string name, double value, std::string unit,
                     std::string note) {
  metrics_.push_back(
      {std::move(name), value, std::move(unit), std::move(note)});
}

void MetricSink::print_table(const std::string& title) const {
  std::size_t width = 0;
  for (const Metric& metric : metrics_) {
    width = std::max(width, metric.name.size());
  }
  std::fprintf(stderr, "\n%s\n", title.c_str());
  for (const Metric& metric : metrics_) {
    std::fprintf(stderr, "  %-*s %16.6g %-8s %s\n", static_cast<int>(width),
                 metric.name.c_str(), metric.value, metric.unit.c_str(),
                 metric.note.c_str());
  }
}

std::string MetricSink::to_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& metric = metrics_[i];
    if (i != 0) out += ',';
    out += json_quote(metric.name) + ":{\"value\":" +
           json_number(metric.value) + ",\"unit\":" +
           json_quote(metric.unit) + "}";
  }
  return out + "}";
}

std::string json_quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace perfbench
