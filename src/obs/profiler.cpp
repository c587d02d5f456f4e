#include "obs/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/json.hpp"
#include "obs/registry.hpp"

namespace mac3d {
namespace {

/// Cycles of [from, upto) below `threshold`.
Cycle credit(Cycle threshold, Cycle from, Cycle upto) noexcept {
  return threshold > from ? std::min(threshold, upto) - from : 0;
}

}  // namespace

// The one sanctioned host-clock read in src/ (docs/STATIC_ANALYSIS.md:
// det.wall_clock exempts this file). Everything downstream consumes the
// returned seconds, never the clock itself.
double host_now_seconds() {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(now).count();
}

std::size_t ActivityCensus::add_row(std::string name) {
  const std::size_t index = rows_.size();
  rows_.push_back({std::move(name), 0, 0});
  active_.push_back(0);
  base_.push_back(observed_cycles_);
  return index;
}

std::size_t ActivityCensus::add_component(std::string name, Probe probe) {
  ProbeRow& row = probes_.emplace_back();
  row.probe = std::move(probe);
  return add_stamp(std::move(name), row.stamp);
}

std::size_t ActivityCensus::add_stamp(std::string name,
                                      const Cycle& last_work) {
  const std::size_t row = add_row(std::move(name));
  stamps_.push_back({&last_work, row});
  return row;
}

std::size_t ActivityCensus::add_threshold(std::string name,
                                          const Cycle& busy_until,
                                          const std::uint64_t* epoch) {
  const Cycle from = next_unobserved();
  if (epoch == nullptr || groups_.empty() || groups_.back().epoch != epoch) {
    groups_.push_back({epoch, 0, from, thresholds_.size(), thresholds_.size()});
  }
  // Read the group afresh with the new row in it; its cache starts at 0,
  // so the credit settled first books it nothing.
  const std::size_t row = add_row(std::move(name));
  thresholds_.push_back({&busy_until, row});
  ++groups_.back().last;
  reread(groups_.back(), from);
  return row;
}

std::size_t ActivityCensus::add_feeder(std::string name) {
  return add_stamp(std::move(name), *feeder_marked_at_);
}

void ActivityCensus::settle(Group& group, Cycle upto) {
  for (std::size_t i = group.first; i < group.last; ++i) {
    const Cell& cell = thresholds_[i];
    active_[cell.row] += credit(cell.cached, group.pending_from, upto);
  }
  group.pending_from = upto;
}

void ActivityCensus::reread(Group& group, Cycle from) {
  settle(group, from);
  for (std::size_t i = group.first; i < group.last; ++i) {
    thresholds_[i].cached = *thresholds_[i].at;
  }
  if (group.epoch != nullptr) group.seen = *group.epoch;
}

void ActivityCensus::reread_moved(Cycle from) {
  for (Group& group : groups_) {
    if (group.epoch == nullptr || *group.epoch != group.seen) {
      reread(group, from);
    }
  }
}

void ActivityCensus::observe(Cycle now) {
  if (observed_any_ && now <= last_observed_) return;
  for (ProbeRow& row : probes_) {
    row.stamp = row.probe && row.probe(now) ? now : ~Cycle{0};
  }
  // Cycles the engine skipped (or never visited) are idle for everyone:
  // the driver only jumps over cycles where provably nothing happens.
  // Idle counts are derived in rows(), so only actives are booked here.
  const Cycle first = next_unobserved();
  if (now > first) {
    for (Group& group : groups_) {
      settle(group, first);
      group.pending_from = now;
    }
  }
  for (const Cell& cell : stamps_) active_[cell.row] += *cell.at == now;
  reread_moved(now);
  observed_cycles_ += now - first + 1;
  last_observed_ = now;
  observed_any_ = true;
}

void ActivityCensus::skip_to(Cycle next) {
  // Span of cycles the engine is about to jump over, strictly before the
  // landing cycle `next` (which observe(next) will account after its
  // tick). Called before that tick, so the thresholds read here stood
  // unchanged throughout the span: it joins each group's pending stretch.
  // Stamps were last written before it, so stamp rows stay idle.
  const Cycle first = next_unobserved();
  if (next <= first) return;
  reread_moved(first);
  observed_cycles_ += next - first;
  last_observed_ = next - 1;
  observed_any_ = true;
}

void ActivityCensus::seal() {
  const Cycle end = next_unobserved();
  for (Group& group : groups_) settle(group, end);
  stamps_.clear();
  thresholds_.clear();
  groups_.clear();
  probes_.clear();
}

const std::vector<ActivityCensus::Row>& ActivityCensus::rows() const noexcept {
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    rows_[i].active_cycles = active_[i];
  }
  const Cycle end = next_unobserved();
  for (const Group& group : groups_) {
    for (std::size_t i = group.first; i < group.last; ++i) {
      const Cell& cell = thresholds_[i];
      rows_[cell.row].active_cycles +=
          credit(cell.cached, group.pending_from, end);
    }
  }
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    rows_[i].idle_cycles =
        observed_cycles_ - base_[i] - rows_[i].active_cycles;
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
