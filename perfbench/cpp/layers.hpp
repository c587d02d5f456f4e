// The traced run: per-layer metrics timed from the benchmark's own calls
// into each library module (workloads, sim, mac, cache, mem, arch, obs,
// check), plus the strict-engine reference check and the telemetry cost
// ledger.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {

struct LayerOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string spans_path;  ///< where the spans go (Chrome trace JSON)
};

/// Run the traced measurement for `workload` (already set up). Appends
/// the workload's timed passes to `passes` (the first is the reference
/// for the result checks), per-layer metrics to `sink` and every checked
/// call to `accounting`. Each overload measures its workload's own
/// layers (workloads, sim.ns_per_req, arch, strict reference); the unit
/// costs, exact counts, arch.numa16, ledger and hook costs do not depend
/// on the workload and are the same measurement in both.
void run_layers(StreamPolicies& workload, const LayerOptions& options,
                MetricSink& sink, Accounting& accounting,
                std::vector<PassResult>& passes);
void run_layers(NumaTelemetry& workload, const LayerOptions& options,
                MetricSink& sink, Accounting& accounting,
                std::vector<PassResult>& passes);

}  // namespace perfbench
