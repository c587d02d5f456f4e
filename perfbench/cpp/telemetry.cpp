#include "telemetry.hpp"

#include "harness.hpp"
#include "obs/run_report.hpp"

namespace perfbench {

using mac3d::StatSet;

namespace {

constexpr mac3d::Cycle kSnapshotWindow = 1024;  // mac3d's default
constexpr std::uint64_t kWatchdogWindows = 3;   // mac3d's default
constexpr mac3d::Cycle kSamplerPeriod = 64;     // mac3d's default

/// The lifecycle-derived sections `mac3d system|run --report` writes.
void add_path_telemetry(mac3d::RunReport& report,
                        const mac3d::LifecycleTracer& tracer,
                        const std::string& path) {
  const mac3d::LifecycleTracer::PathTelemetry* telemetry = tracer.path(path);
  if (telemetry == nullptr) return;
  report.set_path_request_latency(path, telemetry->request_latency);
  for (std::size_t s = 0; s < mac3d::kStageCount; ++s) {
    if (telemetry->stage_latency[s].count() == 0) continue;
    report.add_path_stage(path,
                          mac3d::to_string(static_cast<mac3d::Stage>(s)),
                          telemetry->stage_latency[s]);
  }
}

}  // namespace

Telemetry::Telemetry(unsigned surfaces)
    : surfaces_(surfaces),
      decomposer_((surfaces & kReport) != 0 ? &tracer_ : nullptr),
      snapshot_(kSnapshotWindow),
      watchdog_(kWatchdogWindows),
      sampler_(kSamplerPeriod),
      checks_(mac3d::CheckContext::FailMode::kCount) {
  if (on(kSnapshot)) snapshot_.attach_watchdog(&watchdog_);
}

void Telemetry::attach(mac3d::System& system) {
  if (on(kChecks)) system.attach_checks(&checks_);
  if (on(kReport)) {
    tracer_.begin_path("system");
    system.attach_sink(&tracer_);
  }
  // The decomposer tees into the tracer, so it replaces it as the sink.
  if (on(kLatency)) system.attach_sink(&decomposer_);
  if (on(kCensus)) system.attach_census(&census_);
  if (on(kHostProfiler)) system.attach_profiler(&profiler_);
  if (on(kSampler)) system.attach_sampler(&sampler_);
  if (on(kRegistry) || on(kReport)) system.attach_metrics(&registry_);
  if (on(kSnapshot)) system.attach_snapshot(&snapshot_);
}

void Telemetry::attach(mac3d::DriveOptions& drive, const std::string& path) {
  if (on(kChecks)) drive.checks = &checks_;
  if (on(kReport)) {
    tracer_.begin_path(path);
    drive.sink = &tracer_;
  }
  if (on(kLatency)) drive.sink = &decomposer_;
  if (on(kCensus)) drive.census = &census_;
  if (on(kHostProfiler)) drive.profiler = &profiler_;
  if (on(kSampler)) drive.sampler = &sampler_;
  if (on(kSnapshot)) drive.snapshot = &snapshot_;
}

std::string Telemetry::finish(const mac3d::SystemRunSummary& summary,
                              const mac3d::SimConfig& config) {
  census_.seal();  // probes reference nodes owned by the system
  tracer_.finish();
  if (on(kChecks)) checks_.finalize();
  if (on(kReport)) {
    mac3d::RunReport report;
    report.set_string("workload", "sg");
    report.set_string("feed_mode", "closed_loop");
    report.set_number("cycles", static_cast<double>(summary.cycles));
    report.set_bool("completed", summary.completed);
    if (on(kSnapshot)) report.set_raw("watchdog", watchdog_.to_json());
    if (on(kChecks)) {
      StatSet check_stats;
      checks_.collect(check_stats, "checks");
      report.set_raw("checks", check_stats.to_json());
    }
    report.set_config(config);
    report.set_metrics(registry_);
    report.set_path_stats("system", summary.stats);
    add_path_telemetry(report, tracer_, "system");
    if (on(kLatency)) {
      report.set_latency("{\"system\":" + decomposer_.to_json() + "}");
    }
    if (on(kHostProfiler)) report.set_host(profiler_.to_json());
    report_json_ = report.to_json();
  }
  if (on(kSampler)) sampler_csv_ = sampler_.to_csv();
  return verdict();
}

std::string Telemetry::finish(const mac3d::DriverResult& result,
                              const mac3d::SimConfig& config) {
  tracer_.finish();
  StatSet stats;
  result.collect(stats, result.path);
  if (on(kRegistry)) {
    // The streaming driver has no in-run registry hook: the registry a
    // report is built from holds the run's statistics and exports.
    for (const auto& [name, value] : stats.values()) {
      registry_.gauge(name).set(value);
    }
    if (on(kCensus)) census_.export_metrics(registry_);
    if (on(kSnapshot)) snapshot_.export_metrics(registry_);
  }
  if (on(kReport)) {
    mac3d::RunReport report;
    report.set_string("feed_mode", "streaming");
    report.set_config(config);
    if (on(kRegistry)) report.set_metrics(registry_);
    report.set_path_stats(result.path, stats);
    add_path_telemetry(report, tracer_, result.path);
    if (on(kLatency)) {
      report.set_latency("{\"" + result.path +
                         "\":" + decomposer_.to_json() + "}");
    }
    if (on(kHostProfiler)) report.set_host(profiler_.to_json());
    report_json_ = report.to_json();
  }
  if (on(kSampler)) sampler_csv_ = sampler_.to_csv();
  return verdict();
}

std::string Telemetry::verdict() const {
  if (checks_.violations() != 0) {
    return std::to_string(checks_.violations()) + " invariant violations";
  }
  if (watchdog_.fired()) return "stall watchdog fired";
  if (tracer_.monotonicity_errors() != 0 ||
      tracer_.completeness_errors() != 0) {
    return "lifecycle audit errors";
  }
  return {};
}

std::string Telemetry::digest() const {
  return perfbench::digest(
      registry_.to_json() + census_.to_json() + decomposer_.to_json() +
      snapshot_.str() + sampler_csv_ + std::to_string(checks_.checks_run()));
}

}  // namespace perfbench
