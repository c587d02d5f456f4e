// The one clock kernel (docs/PARALLELISM.md §one clock): the loop behind
// the three driver feeds (streaming, closed-loop, lane-group) and the
// multi-node System. It owns
//   * the serial point after every visited cycle: census observe, sampler
//     and snapshot advance, and the watchdog exit;
//   * the jump rule: the strict engine steps one cycle, the event engine
//     jumps to the feed's next activity, clamped to the next snapshot
//     boundary and to max_cycles, crediting the skipped span to the census
//     and sampler before the landing tick;
//   * the run's telemetry scope: sampler and snapshot runs begin when the
//     Clock is built and end at end(), or abort when it dies first
//     (exception unwind: their probes capture the pipeline by reference);
//     a driver run's census is sealed on destruction for the same reason;
//   * the host profiler's lap timer: one clock read per phase boundary,
//     the phases partitioning the loop's wall time;
//   * the single MAC3D_OBS_ENABLED gate: with telemetry compiled out every
//     surface reads as detached.
//
// A feed is any type with
//   void tick(Cycle now);               // the cycle's work
//   bool drained() const;               // nothing left to do, ever
//   Cycle next_event(Cycle now) const;  // asked after tick(now)
// next_event returns the earliest cycle > now at which the feed may do
// work, or kNoActivity when it advertises none (the clock then steps one
// cycle). run() is templated on the feed, so per-cycle calls stay direct.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

#include "common/types.hpp"
#include "obs/profiler.hpp"
#include "obs/sampler.hpp"
#include "obs/snapshot.hpp"

namespace mac3d {

/// The "no advertised activity" answer of every activity oracle.
inline constexpr Cycle kNoActivity = 0;

/// A run's telemetry surfaces, each nullable.
struct ClockTelemetry {
  ActivityCensus* census = nullptr;
  CycleSampler* sampler = nullptr;
  SnapshotStreamer* snapshot = nullptr;
  HostProfiler* profiler = nullptr;
};

struct ClockRun {
  Cycle end = 0;              ///< first cycle not simulated
  bool completed = false;     ///< the feed drained (no watchdog, no limit)
  std::uint64_t visited = 0;  ///< cycles ticked
};

class Clock {
 public:
  /// Opens the sampler and snapshot runs under `label`. `seal_census`:
  /// the run registered the census rows itself and seals them on
  /// destruction (driver runs; a System's rows outlive its runs).
  Clock(const ClockTelemetry& telemetry, const std::string& label, bool event,
        bool seal_census)
      : t_(MAC3D_OBS_ENABLED ? telemetry : ClockTelemetry{}),
        event_(event),
        seal_census_(seal_census) {
    if (t_.sampler != nullptr) t_.sampler->begin_run(label);
    if (t_.snapshot != nullptr) {
      t_.snapshot->begin_run(label);
      t_.snapshot->attach_census(t_.census);
    }
  }

  Clock(const Clock&) = delete;
  Clock& operator=(const Clock&) = delete;

  ~Clock() {
    if (!ended_) {
      if (t_.sampler != nullptr) t_.sampler->abort_run();
      if (t_.snapshot != nullptr) t_.snapshot->abort_run();
    }
    if (seal_census_ && t_.census != nullptr) t_.census->seal();
  }

  /// The run's surfaces after the gate: register probes only on these.
  [[nodiscard]] ActivityCensus* census() const noexcept { return t_.census; }
  [[nodiscard]] CycleSampler* sampler() const noexcept { return t_.sampler; }
  [[nodiscard]] SnapshotStreamer* snapshot() const noexcept {
    return t_.snapshot;
  }

  /// Tick `feed` from cycle 0 until it drains, the watchdog fires or the
  /// clock reaches `max_cycles`.
  template <typename Feed>
  ClockRun run(Feed& feed,
               Cycle max_cycles = std::numeric_limits<Cycle>::max()) {
    ClockRun run;
    Cycle now = 0;
    if (t_.profiler != nullptr) lap_start_ = host_now_seconds();
    while (now < max_cycles && !feed.drained()) {
      ++run.visited;
      feed.tick(now);
      lap(HostPhase::kTick);
      if (t_.census != nullptr) {
        t_.census->observe(now);
        lap(HostPhase::kTelemetry);
      }
      if (t_.sampler != nullptr) t_.sampler->advance_to(now);
      if (t_.snapshot != nullptr) t_.snapshot->advance_to(now);
      if (t_.sampler != nullptr || t_.snapshot != nullptr) {
        lap(HostPhase::kSampler);
      }
      // A fired watchdog abandons the run here — the only exit a
      // livelocked pipeline has.
      if (t_.snapshot != nullptr && t_.snapshot->watchdog_fired()) {
        run.end = now;
        return run;
      }
      now = next_cycle(feed, now, max_cycles);
    }
    lap(HostPhase::kTick);
    run.end = now;
    run.completed = feed.drained();
    return run;
  }

  /// Flush the sampler and snapshot tails through `makespan`.
  void end(Cycle makespan) {
    ended_ = true;
    if (t_.sampler != nullptr) t_.sampler->end_run(makespan);
    if (t_.snapshot != nullptr) t_.snapshot->end_run(makespan);
  }

 private:
  template <typename Feed>
  Cycle next_cycle(const Feed& feed, Cycle now, Cycle max_cycles) {
    if (!event_) return now + 1;
    Cycle next = std::max(now + 1, feed.next_event(now));
    // Snapshot boundaries are mandatory landing cycles: never skip over
    // one, so both engines sample every window at identical state.
    if (t_.snapshot != nullptr) {
      next = std::min(next, t_.snapshot->next_boundary(now));
    }
    next = std::min(next, max_cycles);
    // Credit the skipped span before the landing tick, which can raise
    // device busy thresholds and would falsely mark the span active.
    if (next > now + 1 && (t_.census != nullptr || t_.sampler != nullptr)) {
      lap(HostPhase::kTick);  // next_event is the tick's
      if (t_.census != nullptr) {
        t_.census->skip_to(next);
        lap(HostPhase::kTelemetry);
      }
      if (t_.sampler != nullptr) {
        t_.sampler->advance_to(next - 1);
        lap(HostPhase::kSampler);
      }
    }
    return next;
  }

  /// Chained lap timer: books the host time since the previous boundary
  /// to `phase`, one clock read per boundary. Without a profiler it reads
  /// no clock at all, so an unprofiled run never touches it.
  void lap(HostPhase phase) {
    if (t_.profiler == nullptr) return;
    const double now = host_now_seconds();
    t_.profiler->add_phase_seconds(phase, now - lap_start_);
    lap_start_ = now;
  }

  ClockTelemetry t_;
  bool event_;
  bool seal_census_;
  bool ended_ = false;
  double lap_start_ = 0.0;
};

}  // namespace mac3d
