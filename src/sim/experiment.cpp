#include "sim/experiment.hpp"

#include <algorithm>
#include <cstdlib>

#include "sim/parallel.hpp"

namespace mac3d {

std::vector<WorkloadRun> run_suite(const SuiteOptions& options) {
  std::vector<const Workload*> selected;
  for (const Workload* workload : workload_registry()) {
    if (!options.only.empty() &&
        std::find(options.only.begin(), options.only.end(),
                  workload->name()) == options.only.end()) {
      continue;
    }
    selected.push_back(workload);
  }

  // Workloads are independent runs: each task builds its own trace,
  // device and path, and commits into its registry-order slot — so the
  // result vector is identical for any jobs value (docs/PARALLELISM.md).
  std::vector<WorkloadRun> runs(selected.size());
  const auto run_one = [&options, &selected, &runs](std::size_t index) {
    const Workload* workload = selected[index];
    WorkloadParams params;
    params.threads = options.threads;
    params.scale = options.scale;
    params.seed = options.seed;
    params.config = options.config;
    const MemoryTrace trace = workload->trace(params);

    WorkloadRun& run = runs[index];
    run.name = workload->name();
    run.trace.records = trace.size();
    run.trace.instructions = trace.instructions();
    run.trace.memory_refs = trace.memory_refs();
    run.trace.main_memory_refs = trace.main_memory_refs();
    run.trace.spm_refs = trace.spm_refs();
    run.trace.requests_per_instruction = trace.requests_per_instruction();
    run.trace.mem_access_rate = trace.mem_access_rate();

    if (options.run_raw) {
      run.raw = run_raw(trace, options.config, options.threads,
                        options.drive);
    }
    if (options.run_mac) {
      run.mac = run_mac(trace, options.config, options.threads,
                        options.drive);
    }
    if (options.run_mshr) {
      run.mshr = run_mshr(trace, options.config, options.threads,
                          options.mshr_entries, options.mshr_block_bytes,
                          options.drive);
    }
    if (options.run_warp) {
      run.warp = run_warp(trace, options.config, options.threads,
                          options.drive);
    }
  };

  // Shared telemetry/check hooks capture per-run state (probe windows,
  // stamp streams, census rows) and count in plain integers, so any of
  // them forces the one-run-at-a-time schedule — the single-thread
  // contract CheckContext and MetricsRegistry rely on.
  const bool hooks_attached = options.drive.checks != nullptr ||
                              options.drive.sink != nullptr ||
                              options.drive.sampler != nullptr ||
                              options.drive.census != nullptr ||
                              options.drive.profiler != nullptr ||
                              options.drive.snapshot != nullptr;
  if (options.jobs == 1 || hooks_attached || selected.size() <= 1) {
    for (std::size_t i = 0; i < selected.size(); ++i) run_one(i);
  } else {
    ParallelStepper stepper(options.jobs);
    stepper.for_shards(selected.size(), run_one);
  }
  return runs;
}

double env_scale() {
  if (const char* raw = std::getenv("MAC3D_SCALE")) {
    const double scale = std::atof(raw);
    if (scale > 0.0) return scale;
  }
  return 1.0;
}

std::uint32_t env_threads(std::uint32_t fallback) {
  if (const char* raw = std::getenv("MAC3D_THREADS")) {
    const int threads = std::atoi(raw);
    if (threads > 0) return static_cast<std::uint32_t>(threads);
  }
  return fallback;
}

std::uint32_t env_jobs(std::uint32_t fallback) {
  return ParallelStepper::env_jobs(fallback);
}

SuiteOptions default_suite_options() {
  SuiteOptions options;
  options.config.apply_env();
  options.config.validate();
  options.scale = env_scale();
  options.threads = env_threads(options.config.cores);
  options.jobs = env_jobs(1);
  return options;
}

}  // namespace mac3d
