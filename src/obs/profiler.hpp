// Simulator self-profiling (docs/OBSERVABILITY.md §profiler): the
// idle-cycle census over every tickable component and the host-side
// wall-clock attribution for engine phases.
//
// The census reads each component's `last_work` stamp (or busy threshold)
// and turns "most cycles are dead time" into per-component numbers; the
// event engine consumes the other half of the activity oracle,
// `next_event`. Census rows are accounted for every simulated cycle, as
// read after the cycle's work, so the cycle and event engines produce
// byte-identical census exports.
//
// Host-time measurements (HostProfiler) are wall-clock and therefore
// nondeterministic by nature; they are quarantined in the report's
// `host` section, which report-diff skips by name.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace mac3d {

class MetricsRegistry;

/// Monotonic host wall clock in seconds. This is the only sanctioned
/// clock read in src/ (defined in profiler.cpp; det.wall_clock exempts
/// that one file) — everything else must consume its result so host time
/// stays quarantined from simulated time.
[[nodiscard]] double host_now_seconds();

/// Idle-cycle census: accumulates per-component active/idle cycle counts.
///
/// Every in-tree activity oracle has one of two forms, and the census
/// stores exactly that: a *stamp* row is active at `now` iff the
/// component's last-work slot equals `now` (MAC3D_OBS_ACTIVITY writes it);
/// a *threshold* row is active iff `now < busy_until` (device state such
/// as "bank busy until cycle c"). Both are registered by reference, so
/// observe() reads cycles with no calls. Only the generic
/// add_component(name, Probe) row calls through std::function.
///
/// Stamp rows are read on every observed cycle; threshold rows sharing an
/// epoch counter (a device's) only when it moved, and are credited in
/// closed form from their cached thresholds in between. So observe()
/// costs O(stamp rows + groups) on cycles where no threshold was written.
///
/// The run owner calls observe(now) once per simulated cycle at a serial
/// point. Cycles the engine never visited count as idle for every row
/// (the driver only skips cycles where provably no component does work),
/// except across skip_to(): threshold rows stay busy through skipped spans
/// even though nothing ticks, and skip_to credits them in closed form, so
/// the event engine's census stays byte-identical to the cycle engine's.
/// The engine must call skip_to(next) BEFORE ticking the landing cycle:
/// the landing tick can raise busy thresholds, which would falsely mark
/// the skipped span active.
class ActivityCensus {
 public:
  using Probe = std::function<bool(Cycle)>;

  struct Row {
    std::string name;
    std::uint64_t active_cycles = 0;
    std::uint64_t idle_cycles = 0;
  };

  /// Register a component under `name` with an explicit activity probe.
  /// Returns the component's census index.
  std::size_t add_component(std::string name, Probe probe);

  /// Register a stamp row: active at `now` iff `last_work == now`.
  std::size_t add_stamp(std::string name, const Cycle& last_work);

  /// Register a threshold row: active at `now` iff `now < busy_until`.
  /// Skipped spans credit the cycles before the (frozen) threshold. With
  /// `epoch` the row is re-read only when `*epoch` changed, so its owner
  /// must bump it on every write; without one, on every observed cycle.
  std::size_t add_threshold(std::string name, const Cycle& busy_until,
                            const std::uint64_t* epoch = nullptr);

  /// Register a manually-marked component (the trace feeder has no tick
  /// of its own): a stamp row over the census's own marker, which
  /// mark_feeder(now) sets. Every live feeder row shares the one marker.
  std::size_t add_feeder(std::string name);
  void mark_feeder(Cycle now) noexcept { *feeder_marked_at_ = now; }

  /// Account one simulated cycle. Idempotent per cycle; a forward jump
  /// from the last observed cycle books the skipped cycles as idle for
  /// every component. Call only from serial points.
  void observe(Cycle now);

  /// Account the skipped span strictly before `next` (the event engine's
  /// landing cycle): threshold rows are active for the span's cycles
  /// below their threshold, every other row is idle. Must run before the
  /// landing cycle is ticked — the thresholds are read as frozen during
  /// the skip. The landing cycle itself is then accounted by the usual
  /// observe(next).
  void skip_to(Cycle next);

  /// Detach every row from its component, keeping the accumulated counts
  /// (sealed rows book idle from then on). Call before the registered
  /// components are destroyed: rows read them by reference.
  void seal();

  /// Export `<name>.active_cycles` / `<name>.idle_cycles` counters.
  void export_metrics(MetricsRegistry& registry) const;

  /// Per-row counts, in registration order (idle cycles are derived:
  /// cycles observed since the row was registered minus active ones;
  /// threshold rows add the stretch their group has not yet credited).
  [[nodiscard]] const std::vector<Row>& rows() const noexcept;
  [[nodiscard]] std::uint64_t observed_cycles() const noexcept {
    return observed_cycles_;
  }
  /// Idle fraction across all components (1.0 = everything always idle;
  /// 0 observed cycles reports 0.0).
  [[nodiscard]] double dead_time_fraction() const noexcept;

  /// Aligned text table: component, active, idle, dead-time fraction.
  [[nodiscard]] std::string to_table() const;
  /// Deterministic JSON object {"<name>":{"active_cycles":..,
  /// "idle_cycles":..},...} in registration order plus a summary.
  [[nodiscard]] std::string to_json() const;

 private:
  /// One row's source: the cycle it reads, its row and (threshold rows)
  /// the threshold as last read.
  struct Cell {
    const Cycle* at;
    std::size_t row;
    Cycle cached = 0;
  };
  /// Threshold cells [first, last) sharing one epoch, read when `*epoch`
  /// was `seen` (a null epoch never matches). The cycles from
  /// `pending_from` through the last observed one are not yet credited.
  struct Group {
    const std::uint64_t* epoch;
    std::uint64_t seen;
    Cycle pending_from;
    std::size_t first;
    std::size_t last;
  };
  /// A generic probe row, evaluated into a stamp its cell reads.
  struct ProbeRow {
    Probe probe;
    Cycle stamp = ~Cycle{0};
  };

  std::size_t add_row(std::string name);
  /// First cycle not yet observed.
  [[nodiscard]] Cycle next_unobserved() const noexcept {
    return observed_any_ ? last_observed_ + 1 : 0;
  }
  /// Credit the group's pending cycles below `upto` from its cache.
  void settle(Group& group, Cycle upto);
  /// Settle below `from`, then re-read the group's thresholds.
  void reread(Group& group, Cycle from);
  /// reread() every group whose epoch moved since it was read.
  void reread_moved(Cycle from);

  std::vector<Cell> stamps_;
  std::vector<Cell> thresholds_;       // grouped: see groups_
  std::vector<Group> groups_;
  std::vector<std::uint64_t> active_;  // per row
  std::vector<std::uint64_t> base_;    // observed_cycles_ at registration
  std::deque<ProbeRow> probes_;        // stable: cells point at the stamps
  mutable std::vector<Row> rows_;      // names; counts filled by rows()
  // Heap-held, like the probe stamps, so cells stay valid when the census
  // is moved (it is move-only: copied cells would alias the original).
  std::unique_ptr<Cycle> feeder_marked_at_ = std::make_unique<Cycle>(~Cycle{0});
  bool observed_any_ = false;
  Cycle last_observed_ = 0;
  std::uint64_t observed_cycles_ = 0;
};

/// Engine phases the host profiler attributes wall-clock to. Together
/// they partition the clock loop's wall time.
enum class HostPhase : std::uint8_t {
  kTick = 0,    ///< feed tick (drain included) and the next_event jump
  kTelemetry,   ///< census observe + skip credit
  kSampler,     ///< sampler and snapshot probe evaluation
};

inline constexpr std::size_t kHostPhaseCount = 3;

[[nodiscard]] constexpr std::string_view to_string(HostPhase phase) noexcept {
  switch (phase) {
    case HostPhase::kTick: return "tick";
    case HostPhase::kTelemetry: return "telemetry";
    case HostPhase::kSampler: return "sampler";
  }
  return "?";
}

/// Wall-clock attribution for a run: per-phase totals, booked by the
/// Clock's lap timer (one clock read per phase boundary). All values are
/// host seconds and live only in the non-diffed `host` report section.
class HostProfiler {
 public:
  void add_phase_seconds(HostPhase phase, double seconds) noexcept {
    phase_seconds_[static_cast<std::size_t>(phase)] += seconds;
  }
  [[nodiscard]] double phase_seconds(HostPhase phase) const noexcept {
    return phase_seconds_[static_cast<std::size_t>(phase)];
  }

  /// JSON object for the report's `host` section: {"phase_seconds":{...}}.
  [[nodiscard]] std::string to_json() const;
  /// Aligned text table of the same numbers.
  [[nodiscard]] std::string to_table() const;

 private:
  double phase_seconds_[kHostPhaseCount] = {};
};

}  // namespace mac3d
