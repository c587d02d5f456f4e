// Streaming simulation drivers (the paper's methodology, Sec. 5.1): the
// interleaved multi-thread trace is fed into a memory path at its intake
// rate (one raw request per cycle, with back-pressure), the path drives
// the HMC device model, and every paper metric is collected.
//
// Four coalescer policies are available over identical traces
// (DESIGN.md §policy):
//   * MAC   — the paper's coalescer (MacCoalescer)
//   * raw   — one 16 B transaction per raw request ("without MAC")
//   * MSHR  — conventional fixed-64 B DMC baseline (Sec. 2.3)
//   * warp  — SIMT-style warp-iterative coalescer (WarpCoalescer)
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "trace/trace.hpp"

namespace mac3d {

class ActivityCensus;
class CheckContext;
class CycleSampler;
class EventSink;
class HostProfiler;
class SnapshotStreamer;

/// How the trace is fed into the memory path.
enum class FeedMode {
  /// Trace streaming — the paper's methodology (Sec. 5.1): the interleaved
  /// multi-thread memory instruction stream is presented to the memory
  /// interface at its intake rate, with back-pressure. This is the
  /// default for all figure benches.
  kStreaming,
  /// Execution-driven: threads stall on outstanding references
  /// (paper Sec. 3) with a small load window and posted stores, paying
  /// their recorded compute gaps. Used by the feed-mode ablation and the
  /// full-system (arch/) examples.
  kClosedLoop,
  /// SIMT lane groups: threads are partitioned into consecutive groups of
  /// config.warp_lanes lanes; a group presents record `s` of all its
  /// lanes back-to-back (lane order) and advances to record `s+1` only
  /// when every lane's request completed — the lockstep issue pattern a
  /// warp scheduler produces, and the natural feed for the warp policy
  /// (any path accepts it).
  kLaneGroup,
};

/// Which execution engine steps the memory pipeline (docs/PARALLELISM.md).
/// Both produce bit-identical results — the cycle engine is the reference
/// semantics, the event engine is the fast path, and
/// tests/test_parallel_equivalence.cpp enforces the equality.
enum class Engine {
  /// Strict cycle loop: ticks every component every cycle. The reference
  /// scheduler the differential suite compares the event engine against.
  kSerial,
  /// Event-driven fast-forward (the default): the Activity oracle
  /// (`next_activity_cycle`, src/obs/profiler.hpp) is the scheduling
  /// contract — the driver jumps the clock to the minimum next-activity
  /// cycle instead of ticking dead cycles, crediting the skipped span to
  /// the census/sampler before the landing tick so every export stays
  /// byte-identical to kSerial.
  kEvent,
};

struct DriveOptions {
  FeedMode mode = FeedMode::kStreaming;
  /// Execution engine for the run. Both engines produce bit-identical
  /// results (tests/test_parallel_equivalence.cpp); kEvent is the fast
  /// default.
  Engine engine = Engine::kEvent;
  /// Streaming feeder: per-thread MSHR-style tag pool size (simultaneously
  /// outstanding requests per thread). 0 = the full 2 B tag space, which
  /// reproduces the historical stall-on-busy-tag behavior; small pools
  /// model finite transaction-ID files (EXPERIMENTS.md measures the
  /// open-loop throughput effect). Ignored in closed-loop mode, whose
  /// load/store windows already bound outstanding tags.
  std::uint32_t tag_pool = 0;
  /// Loads (and atomics) a thread may have outstanding before it stalls.
  /// 2 models the classic "hit under miss" (Kroft) a simple in-order core
  /// affords; 1 is the strict stall-on-every-reference of paper Sec. 3.
  std::uint32_t max_loads_per_thread = 2;
  /// Posted stores: the store-buffer depth per thread (stores retire
  /// without stalling the core until the buffer fills).
  std::uint32_t max_stores_per_thread = 4;
  /// Requests entering the MAC per cycle (one per core port; 0 = cores).
  /// The comparators check all ARQ entries simultaneously, so the ARQ can
  /// absorb one request per core port each cycle (cf. Fig. 9: up to 9.32
  /// raw requests per cycle are ready to enter the ARQ).
  std::uint32_t intake_ports = 0;
  bool charge_gaps = true;  ///< pay per-record compute gaps (closed loop)
  /// Model-invariant checking (docs/INVARIANTS.md): when non-null, the
  /// driver attaches the context to the device and the path, finalizes it
  /// after the run (while the pipeline is still alive) and reports the
  /// run's check/violation counts in the DriverResult. The context may be
  /// shared across runs; counters accumulate. In FailMode::kThrow the
  /// first breach raises InvariantViolation out of the run_* call.
  CheckContext* checks = nullptr;
  /// Request-lifecycle telemetry (docs/OBSERVABILITY.md): when non-null,
  /// the driver attaches the sink to the path and stamps core_issue (at a
  /// record's first presentation attempt) and core_complete (at delivery)
  /// itself. Ignored when the build disables MAC3D_OBS.
  EventSink* sink = nullptr;
  /// Periodic occupancy/utilization sampling: when non-null, the driver
  /// registers the path's probe set, samples every window boundary during
  /// the run and flushes the tail at the makespan. The sampler may be
  /// shared across runs (rows are labeled with the path name). Ignored
  /// when the build disables MAC3D_OBS.
  CycleSampler* sampler = nullptr;
  /// Idle-cycle census (docs/OBSERVABILITY.md §profiler): when non-null,
  /// the driver registers the run's components (node0.feeder, the path's
  /// units, the device's banks/vaults/links), marks the feeder on every
  /// accepted request and observes the census once per simulated cycle at
  /// a serial point. The census may be shared across runs (counts
  /// accumulate); its probes are sealed before the pipeline dies. Ignored
  /// when the build disables MAC3D_OBS.
  ActivityCensus* census = nullptr;
  /// Host wall-clock attribution: when non-null, the driver times its
  /// tick / telemetry / sampler phases. Host time never feeds
  /// back into simulated results. Ignored when the build disables
  /// MAC3D_OBS.
  HostProfiler* profiler = nullptr;
  /// Windowed snapshot streaming (docs/OBSERVABILITY.md §streaming
  /// snapshots): when non-null, the driver opens a snapshot run named
  /// after the path, registers the reserved injected/completions counters
  /// plus byte counters and occupancy gauges, advances the streamer at
  /// every serial point, and makes every window boundary a mandatory
  /// landing cycle for the event engine (so the JSONL stream is
  /// byte-identical across both engines). If the streamer carries a
  /// StallWatchdog, the driver abandons the run the window it fires.
  /// Ignored when the build disables MAC3D_OBS.
  SnapshotStreamer* snapshot = nullptr;
  /// Livelock fault injection (watchdog testing only): from this cycle on
  /// the driver stops draining completions, so accepted work stays in
  /// flight forever and the run can only end through a fired watchdog.
  /// 0 = disabled. Requires an attached snapshot streamer + watchdog.
  Cycle inject_livelock_at = 0;
};

struct DriverResult {
  std::string path;                ///< "mac", "raw", "mshr" or "warp"
  Cycle makespan = 0;              ///< cycle the last completion arrived
  std::uint64_t raw_requests = 0;  ///< loads + stores + atomics fed in
  std::uint64_t packets = 0;       ///< HMC transactions dispatched
  std::uint64_t completions = 0;   ///< de-coalesced completions (+ fences)
  std::uint64_t bank_conflicts = 0;
  std::uint64_t refresh_stalls = 0;
  double row_hit_rate = 0.0;  ///< open-page mode only (page-policy ablation)
  std::uint64_t data_bytes = 0;    ///< payload moved on the links
  std::uint64_t link_bytes = 0;    ///< payload + control
  std::uint64_t overhead_bytes = 0;
  double avg_latency_cycles = 0.0;   ///< per raw request, accept -> complete
  double avg_packet_bytes = 0.0;
  /// Σ over HMC transactions of (response − submit) as measured inside
  /// the device model — the paper's Fig. 17 quantity.
  double device_latency_sum = 0.0;
  double device_latency_avg = 0.0;
  double avg_targets_per_entry = 0.0;  ///< MAC only (Fig. 15)
  double max_targets_per_entry = 0.0;  ///< MAC only
  std::map<std::uint32_t, std::uint64_t> packets_by_size;
  std::uint64_t checks_run = 0;        ///< invariant checks this run
  std::uint64_t check_violations = 0;  ///< breaches this run (0 = clean)

  /// Paper Sec. 5.3.1 (Eq. 3 as used in the text): request reduction.
  [[nodiscard]] double coalescing_efficiency() const noexcept {
    return raw_requests == 0 ? 0.0
                             : 1.0 - static_cast<double>(packets) /
                                         static_cast<double>(raw_requests);
  }
  /// Paper Eq. 1, measured over the whole run.
  [[nodiscard]] double bandwidth_efficiency() const noexcept {
    return link_bytes == 0 ? 0.0
                           : static_cast<double>(data_bytes) /
                                 static_cast<double>(link_bytes);
  }

  void collect(StatSet& out, const std::string& prefix) const;
};

/// Run the trace (first `threads` streams) through the MAC.
[[nodiscard]] DriverResult run_mac(const MemoryTrace& trace,
                                   const SimConfig& config,
                                   std::uint32_t threads,
                                   const DriveOptions& options = {});

/// Same trace, raw 16 B requests (the "without MAC" baseline).
[[nodiscard]] DriverResult run_raw(const MemoryTrace& trace,
                                   const SimConfig& config,
                                   std::uint32_t threads,
                                   const DriveOptions& options = {});

/// Same trace through the fixed-granularity MSHR coalescer baseline.
[[nodiscard]] DriverResult run_mshr(const MemoryTrace& trace,
                                    const SimConfig& config,
                                    std::uint32_t threads,
                                    std::uint32_t mshr_entries = 32,
                                    std::uint32_t block_bytes = 64,
                                    const DriveOptions& options = {});

/// Same trace through the SIMT-style warp-iterative coalescer
/// (config.warp_lanes / warp_block_bytes / warp_window_cycles).
[[nodiscard]] DriverResult run_warp(const MemoryTrace& trace,
                                    const SimConfig& config,
                                    std::uint32_t threads,
                                    const DriveOptions& options = {});

/// Dispatch on the policy enum (the MSHR path takes its geometry from
/// config.mshr_entries / config.mshr_block_bytes). This is the single
/// entry point the CLI's --policy flag and the policy benches go through.
[[nodiscard]] DriverResult run_policy(CoalescerPolicy policy,
                                      const MemoryTrace& trace,
                                      const SimConfig& config,
                                      std::uint32_t threads,
                                      const DriveOptions& options = {});

}  // namespace mac3d
