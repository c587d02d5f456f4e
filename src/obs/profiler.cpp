#include "obs/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/json.hpp"
#include "obs/registry.hpp"

namespace mac3d {

// The one sanctioned host-clock read in src/ (docs/STATIC_ANALYSIS.md:
// det.wall_clock exempts this file). Everything downstream consumes the
// returned seconds, never the clock itself.
double host_now_seconds() {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(now).count();
}

std::size_t ActivityCensus::add_row(std::string name, Cell cell) {
  const std::size_t index = cells_.size();
  rows_.push_back({std::move(name), 0, 0});
  cells_.push_back(cell);
  active_.push_back(0);
  base_.push_back(observed_cycles_);
  return index;
}

std::size_t ActivityCensus::add_component(std::string name, Probe probe) {
  ProbeRow& row = probes_.emplace_back();
  row.probe = std::move(probe);
  return add_row(std::move(name), {&row.stamp, Kind::kStamp});
}

std::size_t ActivityCensus::add_stamp(std::string name,
                                      const Cycle& last_work) {
  return add_row(std::move(name), {&last_work, Kind::kStamp});
}

std::size_t ActivityCensus::add_threshold(std::string name,
                                          const Cycle& busy_until) {
  return add_row(std::move(name), {&busy_until, Kind::kThreshold});
}

std::size_t ActivityCensus::add_feeder(std::string name) {
  return add_stamp(std::move(name), *feeder_marked_at_);
}

void ActivityCensus::observe(Cycle now) {
  if (observed_any_ && now <= last_observed_) return;
  for (ProbeRow& row : probes_) {
    row.stamp = row.probe && row.probe(now) ? now : ~Cycle{0};
  }
  // Cycles the engine skipped (or never visited) are idle for everyone:
  // the driver only jumps over cycles where provably nothing happens.
  // Idle counts are derived in rows(), so only actives are booked here.
  const std::uint64_t gap = observed_any_ ? now - last_observed_ - 1 : now;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const Cycle at = *cells_[i].at;
    active_[i] += cells_[i].kind == Kind::kStamp ? at == now : now < at;
  }
  observed_cycles_ += gap + 1;
  last_observed_ = now;
  observed_any_ = true;
}

void ActivityCensus::skip_to(Cycle next) {
  // Span of cycles the engine is about to jump over, strictly before the
  // landing cycle `next` (which observe(next) will account after its
  // tick). Called before that tick, so the thresholds read here stood
  // unchanged throughout the span; stamps were last written before it.
  const Cycle first = observed_any_ ? last_observed_ + 1 : 0;
  if (next <= first) return;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const Cycle until = *cells_[i].at;
    if (cells_[i].kind == Kind::kThreshold && until > first) {
      active_[i] += std::min(until, next) - first;
    }
  }
  observed_cycles_ += next - first;
  last_observed_ = next - 1;
  observed_any_ = true;
}

void ActivityCensus::seal() {
  for (Cell& cell : cells_) cell = {&kSealed, Kind::kThreshold};
  probes_.clear();
}

const std::vector<ActivityCensus::Row>& ActivityCensus::rows() const noexcept {
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    rows_[i].active_cycles = active_[i];
    rows_[i].idle_cycles = observed_cycles_ - base_[i] - active_[i];
  }
  return rows_;
}

void ActivityCensus::export_metrics(MetricsRegistry& registry) const {
  for (const Row& row : rows()) {
    registry.counter(row.name + ".active_cycles").add(row.active_cycles);
    registry.counter(row.name + ".idle_cycles").add(row.idle_cycles);
  }
}

double ActivityCensus::dead_time_fraction() const noexcept {
  std::uint64_t active = 0;
  std::uint64_t idle = 0;
  for (const Row& row : rows()) {
    active += row.active_cycles;
    idle += row.idle_cycles;
  }
  const std::uint64_t total = active + idle;
  return total == 0 ? 0.0
                    : static_cast<double>(idle) / static_cast<double>(total);
}

std::string ActivityCensus::to_table() const {
  std::size_t width = 9;  // "component"
  for (const Row& row : rows()) width = std::max(width, row.name.size());
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-*s %12s %12s %10s\n",
                static_cast<int>(width), "component", "active", "idle",
                "dead-time");
  out += line;
  for (const Row& row : rows()) {
    const std::uint64_t total = row.active_cycles + row.idle_cycles;
    const double dead =
        total == 0 ? 0.0
                   : static_cast<double>(row.idle_cycles) /
                         static_cast<double>(total);
    std::snprintf(line, sizeof(line), "%-*s %12llu %12llu %9.1f%%\n",
                  static_cast<int>(width), row.name.c_str(),
                  static_cast<unsigned long long>(row.active_cycles),
                  static_cast<unsigned long long>(row.idle_cycles),
                  100.0 * dead);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "%-*s %12llu cycles observed, %9.1f%% dead overall\n",
                static_cast<int>(width), "total",
                static_cast<unsigned long long>(observed_cycles_),
                100.0 * dead_time_fraction());
  out += line;
  return out;
}

std::string ActivityCensus::to_json() const {
  std::string out = "{";
  out += "\"observed_cycles\": " + json_number(observed_cycles_);
  out += ", \"dead_time_fraction\": " + json_number(dead_time_fraction());
  out += ", \"components\": {";
  bool first = true;
  for (const Row& row : rows()) {
    if (!first) out += ", ";
    first = false;
    out += json_quote(row.name) + ": {\"active_cycles\": " +
           json_number(row.active_cycles) +
           ", \"idle_cycles\": " + json_number(row.idle_cycles) + "}";
  }
  out += "}}";
  return out;
}

std::string HostProfiler::to_json() const {
  std::string out = "{\"phase_seconds\": {";
  for (std::size_t i = 0; i < kHostPhaseCount; ++i) {
    if (i != 0) out += ", ";
    out += json_quote(to_string(static_cast<HostPhase>(i))) + ": " +
           json_number(phase_seconds_[i]);
  }
  out += "}}";
  return out;
}

std::string HostProfiler::to_table() const {
  std::string out;
  char line[160];
  double total = 0.0;
  for (const double seconds : phase_seconds_) total += seconds;
  for (std::size_t i = 0; i < kHostPhaseCount; ++i) {
    const double share =
        total <= 0.0 ? 0.0 : 100.0 * phase_seconds_[i] / total;
    std::snprintf(line, sizeof(line), "%-10s %10.6fs %6.1f%%\n",
                  std::string(to_string(static_cast<HostPhase>(i))).c_str(),
                  phase_seconds_[i], share);
    out += line;
  }
  return out;
}

}  // namespace mac3d
