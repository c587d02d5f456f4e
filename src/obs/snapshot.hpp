// Streaming telemetry (docs/OBSERVABILITY.md §streaming snapshots): the
// SnapshotStreamer samples registered counter/gauge probes and the
// activity census at fixed cycle boundaries during a run and accumulates
// a delta-encoded JSONL document (`mac3d-snapshot/1`), one line per
// elapsed window — the in-run view the end-of-run exports cannot give.
//
// Determinism contract: snapshot boundaries are mandatory landing cycles
// for the event engine. It clamps its fast-forward target with
// next_boundary(now) so no boundary ever falls inside a skipped span,
// then credits the skip to the census/samplers as usual; the streamer is
// advanced at the same serial point as the CycleSampler. Because every
// engine therefore evaluates every probe at exactly the same cycles with
// exactly the same component state, the JSONL stream is byte-identical
// across the serial and event engines — tests/test_snapshot.cpp enforces
// the equality.
//
// The StallWatchdog rides the same windows: it watches the reserved
// `completions` counter and the derived in-flight count, and fires after
// N consecutive observed windows with zero completions while work is in
// flight — the structured no-progress detector for livelocked runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace mac3d {

class ActivityCensus;
class MetricsRegistry;

/// No-progress detector over snapshot windows: a streak of `threshold`
/// consecutive observed windows with zero completions while requests are
/// in flight latches the fired state (and the cycle it fired at). Any
/// window with progress — or with nothing in flight — resets the streak.
class StallWatchdog {
 public:
  explicit StallWatchdog(std::uint64_t threshold_windows)
      : threshold_(threshold_windows == 0 ? 1 : threshold_windows) {}

  /// Account one sampled window. Idempotent latch: once fired, later
  /// windows are still counted but cannot un-fire it.
  void observe_window(Cycle boundary, std::uint64_t completions_delta,
                      std::uint64_t in_flight);

  [[nodiscard]] bool fired() const noexcept { return fired_; }
  [[nodiscard]] Cycle fired_at() const noexcept { return fired_at_; }
  /// Current zero-progress streak (latched at its firing value once the
  /// watchdog trips).
  [[nodiscard]] std::uint64_t stalled_windows() const noexcept {
    return stalled_windows_;
  }
  [[nodiscard]] std::uint64_t windows_observed() const noexcept {
    return windows_observed_;
  }
  [[nodiscard]] std::uint64_t threshold() const noexcept { return threshold_; }

  /// JSON object for the run report's `watchdog` section:
  /// {"fired":true,"fired_at_cycle":..,"stalled_windows":..,
  ///  "threshold_windows":..,"windows_observed":..}.
  [[nodiscard]] std::string to_json() const;

 private:
  std::uint64_t threshold_;
  std::uint64_t stalled_windows_ = 0;
  std::uint64_t windows_observed_ = 0;
  bool fired_ = false;
  Cycle fired_at_ = 0;
};

/// Windowed snapshot streamer. Lifecycle mirrors CycleSampler: the run
/// owner begins a run, registers probes (which capture references into
/// the live pipeline and are dropped at end_run/abort_run), advances the
/// streamer once per serial point, and ends the run at the makespan —
/// rows == ceil(makespan / period), the tail window sampled at the
/// makespan itself.
class SnapshotStreamer {
 public:
  /// Monotonic cumulative counter (requests injected, bytes moved);
  /// windows emit the per-window delta, zero deltas omitted.
  using CounterProbe = std::function<std::uint64_t()>;
  /// Point-in-time gauge (queue occupancy); windows emit the absolute
  /// value at the boundary cycle.
  using GaugeProbe = std::function<double()>;

  /// Counter names with schema-level meaning: `injected` and
  /// `completions` feed the derived in-flight count and the watchdog.
  static constexpr const char* kInjectedCounter = "injected";
  static constexpr const char* kCompletionsCounter = "completions";

  explicit SnapshotStreamer(Cycle period)
      : period_(period == 0 ? 1 : period) {}

  /// Open a run. Emits the stream header (first run only) and the run
  /// marker line; clears the probe registry.
  void begin_run(std::string label);

  /// Register probes for the current run. Registration order is
  /// irrelevant: windows emit name-sorted objects.
  void add_counter(std::string name, CounterProbe probe);
  void add_gauge(std::string name, GaugeProbe probe);

  /// Attach the run's census: windows then carry each component's
  /// active-cycle delta (zero deltas omitted). The census must outlive
  /// the run (the same object the engine observes at serial points).
  void attach_census(const ActivityCensus* census) { census_ = census; }

  /// Attach a watchdog fed from every sampled window. The streamer emits
  /// a `watchdog` line the window it fires; the engine polls
  /// watchdog_fired() at serial points to abandon the run.
  void attach_watchdog(StallWatchdog* watchdog) { watchdog_ = watchdog; }

  /// First unsampled boundary strictly after `now` — the event engines'
  /// mandatory landing cycle (clamp the fast-forward target to this so a
  /// boundary never falls inside a skipped span).
  [[nodiscard]] Cycle next_boundary(Cycle now) const noexcept {
    return next_boundary_ > now ? next_boundary_ : now + 1;
  }

  /// Emit every window boundary <= now (call once per serial point,
  /// after the census observes the cycle).
  void advance_to(Cycle now);

  /// Flush the tail windows through `makespan` (last row sampled at the
  /// makespan itself), emit the run footer, drop the probes.
  void end_run(Cycle makespan);

  /// Drop the probes without flushing (exception unwind: the probed
  /// objects are about to die).
  void abort_run() noexcept;

  [[nodiscard]] bool watchdog_fired() const noexcept {
    return watchdog_ != nullptr && watchdog_->fired();
  }

  [[nodiscard]] Cycle period() const noexcept { return period_; }
  /// Windows emitted across all runs.
  [[nodiscard]] std::uint64_t window_count() const noexcept {
    return windows_;
  }

  /// Export `window.*` / `watchdog.*` metric families (counts only —
  /// the time series itself lives in the JSONL document).
  void export_metrics(MetricsRegistry& registry) const;

  /// The accumulated JSONL document (schema `mac3d-snapshot/1`).
  [[nodiscard]] const std::string& str() const noexcept { return out_; }
  bool write(const std::string& file) const;

 private:
  void sample_boundary(Cycle boundary);

  Cycle period_;
  Cycle next_boundary_ = 0;
  bool running_ = false;
  bool header_written_ = false;
  std::string run_label_;
  std::uint64_t windows_ = 0;
  std::uint64_t run_windows_ = 0;

  struct Counter {
    std::string name;
    CounterProbe probe;
    std::uint64_t last = 0;
  };
  struct Gauge {
    std::string name;
    GaugeProbe probe;
  };
  std::vector<Counter> counters_;
  std::vector<Gauge> gauges_;
  const ActivityCensus* census_ = nullptr;
  std::vector<std::uint64_t> census_last_;
  StallWatchdog* watchdog_ = nullptr;
  std::uint64_t injected_total_ = 0;
  std::uint64_t completions_total_ = 0;

  std::string out_;
};

}  // namespace mac3d
