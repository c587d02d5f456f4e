// Every telemetry surface a user can leave on, attached in memory to a
// System or a streaming run: metrics registry, idle-cycle census, latency
// decomposer, host profiler, run report (lifecycle tracer + rendered
// report), snapshot streamer with stall watchdog, cycle sampler and the
// invariant CheckContext. Perfetto export is left out: its cost is disk
// and file size. A bitmask picks the surfaces, so the traced run can
// price each one against a bare run.
#pragma once

#include <cstdint>
#include <string>

#include "arch/system.hpp"
#include "check/check.hpp"
#include "obs/latency.hpp"
#include "obs/lifecycle.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "obs/snapshot.hpp"
#include "sim/driver.hpp"

namespace perfbench {

enum Surface : unsigned {
  kCensus = 1u << 0,
  kLatency = 1u << 1,
  kHostProfiler = 1u << 2,
  kRegistry = 1u << 3,
  kReport = 1u << 4,
  kSnapshot = 1u << 5,
  kSampler = 1u << 6,
  kChecks = 1u << 7,
};
inline constexpr unsigned kAllSurfaces = 0xffu;

struct SurfaceName {
  Surface surface;
  const char* name;  ///< metric stem: obs.<name>_x / check.<name>_x
};
inline constexpr SurfaceName kSurfaceNames[] = {
    {kCensus, "census"},
    {kLatency, "latency"},
    {kHostProfiler, "host_profiler"},
    {kRegistry, "registry"},
    {kReport, "report"},
    {kSnapshot, "snapshot"},
    {kSampler, "sampler"},
    {kChecks, "checks"},
};

class Telemetry {
 public:
  explicit Telemetry(unsigned surfaces);
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Attach the selected surfaces to `system` (as `mac3d system` does).
  void attach(mac3d::System& system);
  /// Point `drive`'s hooks at the selected surfaces for one streaming
  /// run of `path` (as `mac3d run` does).
  void attach(mac3d::DriveOptions& drive, const std::string& path);

  /// After the run: seal, finish and finalize, then render what a user
  /// would write out (run report, snapshot stream, sampler CSV). Returns
  /// a failure description, empty when every surface reports clean.
  std::string finish(const mac3d::SystemRunSummary& summary,
                     const mac3d::SimConfig& config);
  std::string finish(const mac3d::DriverResult& result,
                     const mac3d::SimConfig& config);

  /// Digest of the deterministic outputs (everything except host time).
  [[nodiscard]] std::string digest() const;

  [[nodiscard]] const mac3d::CheckContext& checks() const noexcept {
    return checks_;
  }

 private:
  [[nodiscard]] bool on(Surface surface) const noexcept {
    return (surfaces_ & surface) != 0;
  }
  std::string verdict() const;

  unsigned surfaces_;
  mac3d::MetricsRegistry registry_;
  mac3d::ActivityCensus census_;
  mac3d::HostProfiler profiler_;
  mac3d::LifecycleTracer tracer_;
  mac3d::LatencyDecomposer decomposer_;
  mac3d::SnapshotStreamer snapshot_;
  mac3d::StallWatchdog watchdog_;
  mac3d::CycleSampler sampler_;
  mac3d::CheckContext checks_;
  std::string report_json_;
  std::string sampler_csv_;
};

}  // namespace perfbench
