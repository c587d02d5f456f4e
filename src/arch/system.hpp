// Whole-system closed-loop simulator: `nodes` NUMA nodes (paper Fig. 4),
// each with cores + MAC + 3D-stacked memory, joined by an interconnect.
// Cores replay per-thread traces and stall on outstanding references; this
// is the execution-driven counterpart of the streaming driver in src/sim.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/interconnect.hpp"
#include "arch/node.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "trace/trace.hpp"

namespace mac3d {

class ActivityCensus;
class HostProfiler;
class SnapshotStreamer;

struct SystemRunSummary {
  Cycle cycles = 0;
  bool completed = false;       ///< false when max_cycles was hit
  std::uint64_t requests = 0;   ///< core-issued main-memory references
  std::uint64_t completions = 0;
  double avg_latency_cycles = 0.0;
  /// Cycles the engine actually ticked (== cycles for the strict cycle
  /// engine; the event engine's skip ratio is cycles / visited_cycles).
  /// Deliberately NOT in `stats`, so exports stay engine-invariant.
  std::uint64_t visited_cycles = 0;
  StatSet stats;
};

class System {
 public:
  explicit System(const SimConfig& config);

  /// Distribute the trace's threads across nodes and cores round-robin:
  /// thread t lives on node t % nodes, core (t / nodes) % cores.
  /// The trace must outlive the system.
  void attach_trace(const MemoryTrace& trace);

  /// Run until every thread drains (or `max_cycles`), ticking every
  /// cycle. Multi-node configs require remote_hop_cycles >= 1, enforced
  /// by both engines: a zero-hop delivery would depend on node tick order.
  SystemRunSummary run(Cycle max_cycles = 2'000'000'000ULL);

  /// Event-driven fast-forward run (docs/PARALLELISM.md §event-driven
  /// engine): after each visited cycle the clock jumps to the minimum of
  /// every node's next-activity oracle and the fabric's next delivery,
  /// crediting the skipped span to the census/sampler before the landing
  /// tick. Bit-identical to run() — same cycles, stats, metrics, census —
  /// enforced by tests/test_parallel_equivalence.cpp.
  SystemRunSummary run_event(Cycle max_cycles = 2'000'000'000ULL);

  [[nodiscard]] Node& node(std::size_t i) { return *nodes_.at(i); }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] Interconnect& fabric() noexcept { return *fabric_; }

  /// Enable model-invariant checking on every node and the fabric
  /// (docs/INVARIANTS.md). The context must outlive the system; run
  /// context.finalize() before destroying the system. Pass nullptr to
  /// detach.
  void attach_checks(CheckContext* context);

  /// Enable request-lifecycle telemetry on every node
  /// (docs/OBSERVABILITY.md). The sink must outlive the system; pass
  /// nullptr to detach.
  void attach_sink(EventSink* sink);

  /// Register per-node ("node<i>.router.*", "node<i>.completions") and
  /// fabric ("fabric.link<S><D>.*") metrics in `registry`
  /// (docs/OBSERVABILITY.md §multi-node). Gauges are written only at
  /// end-of-run, so the cycle and event engines export byte-identical
  /// registries. The registry must outlive the system; pass nullptr to
  /// detach.
  void attach_metrics(MetricsRegistry* registry);

  /// Attach a periodic sampler: both engines register per-node
  /// router-occupancy and fabric-backlog probes and advance it after
  /// every full-system cycle, so the CSV is engine-invariant. The sampler
  /// must outlive the system; pass nullptr to detach.
  void attach_sampler(CycleSampler* sampler) noexcept { sampler_ = sampler; }

  /// Attach an idle-cycle census (docs/OBSERVABILITY.md §profiler):
  /// registers every node's components plus the fabric, and both engines
  /// observe it once per visited cycle after the cycle's work, so census
  /// exports are engine-invariant. At
  /// end-of-run the counts are exported into the attached metrics
  /// registry. The census must outlive the system (its probes capture
  /// components by reference — seal before teardown); pass nullptr to
  /// detach future runs (registrations are not undone).
  void attach_census(ActivityCensus* census);

  /// Attach a windowed snapshot streamer (docs/OBSERVABILITY.md
  /// §streaming snapshots): every engine opens a "system" run, registers
  /// the reserved injected/completions counters (aggregated over nodes)
  /// plus a router-backlog gauge, advances the streamer at the common
  /// end of every cycle and treats window boundaries as mandatory landing
  /// cycles for the event engine — the JSONL stream is byte-identical
  /// across both engines. A StallWatchdog attached to the streamer
  /// abandons the run the window it fires (summary.completed == false).
  /// The streamer must outlive the system; pass nullptr to detach.
  void attach_snapshot(SnapshotStreamer* snapshot) noexcept {
    snapshot_ = snapshot;
  }

  /// Attach host wall-clock attribution: both engines time their
  /// tick / telemetry / sampler phases. Host time never feeds back into
  /// simulated time — simulated results are identical with or without a
  /// profiler. Pass nullptr to detach.
  void attach_profiler(HostProfiler* profiler) noexcept {
    profiler_ = profiler;
  }

 private:
  /// The one run loop behind run() and run_event(): tick, census,
  /// sampler/snapshot, watchdog, drained — then step one cycle (strict)
  /// or jump to next_wake (event). `engine_name` labels a rejected config.
  SystemRunSummary run_loop(const char* engine_name, bool event,
                            Cycle max_cycles);
  /// Engine-independent config validation, run at the top of the loop so
  /// neither engine accepts a config the other rejects. `engine_name`
  /// labels the thrown std::invalid_argument.
  void validate_engine_config(const char* engine_name) const;
  /// Every node drained and (multi-node) the fabric idle.
  [[nodiscard]] bool drained(const Interconnect* fabric) const;
  /// Shared end-of-run accounting (node order, both engines).
  SystemRunSummary summarize(Cycle cycles, bool completed) const;
  /// Event-engine jump target after ticking `now`: the minimum of every
  /// node's next-activity oracle and the fabric's next delivery, floored
  /// at now + 1 and clamped to `max_cycles`.
  [[nodiscard]] Cycle next_wake(Cycle now, const Interconnect* fabric,
                                Cycle max_cycles) const;
  /// Credit the span (now, next) the event engine is about to skip to the
  /// census and sampler — before the landing tick, while device busy
  /// thresholds are frozen.
  void credit_skip(Cycle now, Cycle next);
  /// begin_run + per-node/fabric probe registration (no-op when detached).
  void register_probes();
  /// End-of-run gauge writes (see attach_metrics).
  void finalize_metrics(const SystemRunSummary& summary);

  SimConfig config_;
  std::vector<NodeId> thread_owner_;
  std::vector<CoreId> thread_core_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<Interconnect> fabric_;
  EventSink* sink_ = nullptr;
  MetricsRegistry* registry_ = nullptr;
  CycleSampler* sampler_ = nullptr;
  ActivityCensus* census_ = nullptr;
  HostProfiler* profiler_ = nullptr;
  SnapshotStreamer* snapshot_ = nullptr;
};

}  // namespace mac3d
