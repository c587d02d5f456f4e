// mac3d — command-line front end to the simulator.
//
// Run any workload (or a saved trace) through any memory path with any
// configuration, and print a table or machine-readable CSV:
//
//   mac3d run  --workload sg --paths raw,mac --threads 8 --scale 1.0
//   mac3d run  --trace /tmp/sg.trace --paths mac --csv
//   mac3d suite --scale 0.5                  # the full 12-workload sweep
//   mac3d trace --workload mg --out mg.trace # dump a trace for replay
//   mac3d list                               # available workloads
//   mac3d config                             # effective Table-1 config
//
// Config overrides compose from MAC3D_CONFIG and repeated --set key=value.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/system.hpp"
#include "check/check.hpp"
#include "lint/lint.hpp"
#include "obs/analysis.hpp"
#include "obs/latency.hpp"
#include "obs/lifecycle.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/report_diff.hpp"
#include "obs/run_report.hpp"
#include "obs/sampler.hpp"
#include "obs/snapshot.hpp"
#include "sim/driver.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "sim/parallel.hpp"
#include "sim/report.hpp"
#include "trace/trace_io.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace mac3d;

struct CliOptions {
  std::string command;
  std::string workload = "sg";
  std::string trace_path;
  std::string out_path;
  std::vector<std::string> paths = {"raw", "mac"};
  std::uint32_t threads = 0;  // 0 = config.cores
  std::uint32_t nodes = 0;    // 0 = config.nodes (system command)
  double scale = 1.0;
  std::uint64_t seed = 42;
  bool csv = false;
  bool closed_loop = false;
  /// streaming | closed-loop | lane-group ("" = streaming, or closed-loop
  /// when --closed-loop was given).
  std::string feed;
  /// raw | mac | mshr | warp ("" = config default). Sets config.policy
  /// (system command) and, unless --paths was given, the run path list.
  std::string policy;
  bool checks = false;
  bool profile = false;  ///< idle-cycle census + latency/host profiling
  /// serial | event ("" = per-command default: run/suite use the event
  /// fast-forward engine, system the strict serial reference —
  /// docs/PARALLELISM.md §event-driven engine).
  std::string engine;
  std::uint32_t jobs = 0;          ///< parallel paths/workloads (0 = env)
  std::uint32_t tag_pool = 0;      ///< streaming tag pool (0 = full 64 K)
  std::string trace_events;    ///< Chrome trace-event JSON output
  std::uint64_t sample_every = 0;  ///< sampler period (0 = off)
  std::string sample_out;      ///< sampler CSV output
  std::string report_path;     ///< machine-readable run report JSON
  std::uint64_t snapshot_every = 0;  ///< snapshot window (0 = off)
  std::string snapshot_out;    ///< snapshot JSONL output
  bool watchdog = false;       ///< stall watchdog (implies snapshots)
  std::uint64_t watchdog_windows = 3;  ///< stalled windows before firing
  std::uint64_t inject_livelock = 0;   ///< stop draining at cycle N (run)
  /// --node-policy i=p entries, system command (heterogeneous nodes).
  std::vector<std::string> node_policies;
  std::vector<std::string> overrides;
};

void usage() {
  std::fprintf(stderr,
               "usage: mac3d <run|suite|system|trace|list|config> [options]\n"
               "       mac3d report-diff OLD NEW [--tolerance PCT] "
               "[--ignore PATH|SECTION|GLOB] [--allow-missing]\n"
               "       mac3d analyze REPORT --snapshots FILE [--json FILE] "
               "[--tolerance PCT]\n"
               "       mac3d lint [--root DIR] [--baseline FILE] "
               "[--sarif FILE] [--write-baseline FILE] [--list-rules]\n"
               "  --workload NAME   workload to trace (default sg)\n"
               "  --trace FILE      replay a saved trace instead\n"
               "  --out FILE        output trace file (trace command)\n"
               "  --paths a,b,c     raw | mac | mshr | warp (default "
               "raw,mac)\n"
               "  --policy P        coalescer policy raw | mac | mshr | warp\n"
               "                    (sets config.policy; run: implies "
               "--paths P)\n"
               "  --threads N       thread streams (default: cores)\n"
               "  --nodes N         NUMA nodes (system command; default: "
               "config)\n"
               "  --scale X         dataset scale (default 1.0)\n"
               "  --seed N          workload seed (default 42)\n"
               "  --set key=value   config override (repeatable)\n"
               "  --closed-loop     execution-driven feed (default: "
               "streaming)\n"
               "  --feed MODE       streaming | closed-loop | lane-group "
               "(SIMT lockstep\n"
               "                    groups of config.warp_lanes threads)\n"
               "  --engine E        serial | event (docs/PARALLELISM.md; "
               "default: event for\n"
               "                    run/suite, serial for system)\n"
               "  --jobs N          run paths (run) / workloads (suite) as "
               "N parallel tasks\n"
               "  --tag-pool N      streaming feeder: outstanding tags per "
               "thread (0 = 64 K)\n"
               "  --checks          run model-invariant checks "
               "(docs/INVARIANTS.md)\n"
               "  --profile         idle-cycle census, per-stage residency "
               "and host wall-clock\n"
               "  --csv             machine-readable output\n"
               "  --trace-events F  write Chrome/Perfetto trace-event JSON "
               "(docs/OBSERVABILITY.md)\n"
               "  --sample-every N  sample occupancy probes every N cycles\n"
               "  --sample-out F    write the sampled time series as CSV\n"
               "  --report F        write a machine-readable run report "
               "(JSON)\n"
               "  --snapshot-every N  stream windowed telemetry snapshots "
               "every N cycles\n"
               "  --snapshot-out F  write the snapshot stream "
               "(mac3d-snapshot/1 JSONL)\n"
               "  --watchdog        abandon the run (exit 1) after N "
               "observed windows\n"
               "                    with zero completions while work is in "
               "flight\n"
               "  --watchdog-windows N  stalled windows before firing "
               "(default 3)\n"
               "  --inject-livelock C  fault injection: stop draining "
               "completions at\n"
               "                    cycle C (run command; requires "
               "--watchdog)\n"
               "  --node-policy I=P heterogeneous nodes: node I runs policy "
               "P (system\n"
               "                    command, repeatable; others use "
               "--policy)\n");
}

/// The staged in-run parallel engines were removed: they reproduced the
/// serial results bit for bit but ran an order of magnitude slower
/// (docs/PARALLELISM.md). Exit 2 and point at what remains.
[[noreturn]] void removed_engine_option(const char* option) {
  std::fprintf(stderr,
               "mac3d: %s: the staged parallel engines were removed; use "
               "--engine serial|event, and --jobs N for throughput\n",
               option);
  std::exit(2);
}

std::optional<CliOptions> parse(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  CliOptions options;
  options.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--trace") {
      options.trace_path = value();
    } else if (arg == "--out") {
      options.out_path = value();
    } else if (arg == "--paths") {
      options.paths.clear();
      std::string list = value();
      std::size_t pos = 0;
      while (pos != std::string::npos) {
        const std::size_t comma = list.find(',', pos);
        options.paths.push_back(list.substr(
            pos, comma == std::string::npos ? comma : comma - pos));
        pos = comma == std::string::npos ? comma : comma + 1;
      }
    } else if (arg == "--threads") {
      options.threads = static_cast<std::uint32_t>(std::atoi(value()));
    } else if (arg == "--nodes") {
      options.nodes = static_cast<std::uint32_t>(std::atoi(value()));
    } else if (arg == "--scale") {
      options.scale = std::atof(value());
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--set") {
      options.overrides.push_back(value());
    } else if (arg == "--csv") {
      options.csv = true;
    } else if (arg == "--closed-loop") {
      options.closed_loop = true;
    } else if (arg == "--feed") {
      options.feed = value();
      if (options.feed != "streaming" && options.feed != "closed-loop" &&
          options.feed != "lane-group") {
        std::fprintf(stderr,
                     "unknown feed '%s' "
                     "(streaming|closed-loop|lane-group)\n",
                     options.feed.c_str());
        return std::nullopt;
      }
    } else if (arg == "--policy") {
      options.policy = value();
      CoalescerPolicy parsed;
      if (!parse_policy(options.policy, parsed)) {
        std::fprintf(stderr, "unknown policy '%s' (raw|mac|mshr|warp)\n",
                     options.policy.c_str());
        return std::nullopt;
      }
    } else if (arg == "--checks") {
      options.checks = true;
    } else if (arg == "--profile") {
      options.profile = true;
    } else if (arg == "--engine") {
      options.engine = value();
      // "cycle" names the strict engine by what it is.
      if (options.engine == "cycle") options.engine = "serial";
      if (options.engine == "parallel" || options.engine == "cycle-parallel" ||
          options.engine == "event-parallel") {
        removed_engine_option(("--engine " + options.engine).c_str());
      }
      if (options.engine != "serial" && options.engine != "event") {
        std::fprintf(stderr, "unknown engine '%s' (serial|event)\n",
                     options.engine.c_str());
        return std::nullopt;
      }
    } else if (arg == "--engine-threads") {
      removed_engine_option("--engine-threads");
    } else if (arg == "--jobs") {
      options.jobs = static_cast<std::uint32_t>(std::atoi(value()));
    } else if (arg == "--tag-pool") {
      options.tag_pool = static_cast<std::uint32_t>(std::atoi(value()));
    } else if (arg == "--trace-events") {
      options.trace_events = value();
    } else if (arg == "--sample-every") {
      options.sample_every = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--sample-out") {
      options.sample_out = value();
    } else if (arg == "--report") {
      options.report_path = value();
    } else if (arg == "--snapshot-every") {
      options.snapshot_every = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--snapshot-out") {
      options.snapshot_out = value();
    } else if (arg == "--watchdog") {
      options.watchdog = true;
    } else if (arg == "--watchdog-windows") {
      options.watchdog_windows = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--inject-livelock") {
      options.inject_livelock = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--node-policy") {
      const std::string entry = value();
      const std::size_t eq = entry.find('=');
      CoalescerPolicy parsed;
      if (eq == std::string::npos || eq == 0 ||
          !parse_policy(entry.substr(eq + 1), parsed)) {
        std::fprintf(stderr,
                     "bad --node-policy '%s' (want I=raw|mac|mshr|warp)\n",
                     entry.c_str());
        return std::nullopt;
      }
      options.node_policies.push_back(entry);
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return std::nullopt;
    }
  }
  return options;
}

SimConfig make_config(const CliOptions& options) {
  SimConfig config;
  config.apply_env();
  for (const std::string& override_text : options.overrides) {
    config.parse_override_string(override_text);
  }
  if (!options.policy.empty()) {
    config.parse_override_string("policy=" + options.policy);
  }
  // --nodes must land before validate(): node_policies indices are
  // checked against the final node count.
  if (options.nodes != 0) config.nodes = options.nodes;
  if (!options.node_policies.empty()) {
    // Canonicalize the repeatable I=P flags into the config's
    // "I:P;I:P" string so the override lands in the report's config
    // snapshot (and round-trips through MAC3D_CONFIG).
    std::string joined;
    for (const std::string& entry : options.node_policies) {
      if (!joined.empty()) joined += ";";
      std::string item = entry;
      item[item.find('=')] = ':';
      joined += item;
    }
    config.parse_overrides({{"node_policies", joined}});
  }
  config.validate();
  return config;
}

/// --feed / --closed-loop -> driver feed mode.
FeedMode drive_feed(const CliOptions& options) {
  if (options.feed == "closed-loop" || options.closed_loop) {
    return FeedMode::kClosedLoop;
  }
  if (options.feed == "lane-group") return FeedMode::kLaneGroup;
  return FeedMode::kStreaming;
}

const char* feed_name(FeedMode mode) {
  switch (mode) {
    case FeedMode::kClosedLoop: return "closed_loop";
    case FeedMode::kLaneGroup: return "lane_group";
    case FeedMode::kStreaming: break;
  }
  return "streaming";
}

MemoryTrace make_trace(const CliOptions& options, const SimConfig& config) {
  if (!options.trace_path.empty()) {
    return load_trace(options.trace_path);
  }
  const Workload* workload = find_workload(options.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (try `mac3d list`)\n",
                 options.workload.c_str());
    std::exit(2);
  }
  WorkloadParams params;
  params.threads = options.threads == 0 ? config.cores : options.threads;
  params.scale = options.scale;
  params.seed = options.seed;
  params.config = config;
  return workload->trace(params);
}

/// --engine string -> driver engine for run/suite ("" = the event
/// fast-forward default; both engines are bit-identical, so the default
/// is purely a wall-clock choice).
Engine drive_engine(const std::string& name) {
  return name == "serial" ? Engine::kSerial : Engine::kEvent;
}

int cmd_run(const CliOptions& cli) {
  const auto wall_start = std::chrono::steady_clock::now();
  // --policy narrows the default path list (an explicit --paths wins).
  CliOptions options = cli;
  if (!options.policy.empty() && cli.paths == CliOptions{}.paths) {
    options.paths = {options.policy};
  }
  if (!options.node_policies.empty()) {
    std::fprintf(stderr,
                 "mac3d: --node-policy applies to the system command "
                 "(run selects front-ends with --paths)\n");
    return 2;
  }
  if (options.inject_livelock != 0 && !options.watchdog) {
    std::fprintf(stderr,
                 "mac3d: --inject-livelock requires --watchdog (the "
                 "faulted run would never terminate)\n");
    return 2;
  }
  const SimConfig config = make_config(options);
  const std::uint32_t threads =
      options.threads == 0 ? config.cores : options.threads;
  const MemoryTrace trace = make_trace(options, config);

  DriveOptions drive;
  drive.mode = drive_feed(options);
  drive.engine = drive_engine(options.engine);
  drive.tag_pool = options.tag_pool;
  CheckContext checks(CheckContext::FailMode::kCount);
  if (options.checks) {
#if !MAC3D_CHECKS_ENABLED
    std::fprintf(stderr,
                 "mac3d: warning: built with -DMAC3D_CHECKS=OFF; "
                 "--checks will run no checks\n");
#endif
    drive.checks = &checks;
  }

  // Telemetry (docs/OBSERVABILITY.md). The run report needs the per-stage
  // histograms, so --report enables the lifecycle tracer too.
  const bool want_tracer =
      !options.trace_events.empty() || !options.report_path.empty();
  const bool want_sampler =
      options.sample_every > 0 || !options.sample_out.empty();
  const bool want_snapshot = options.snapshot_every > 0 ||
                             !options.snapshot_out.empty() ||
                             options.watchdog;
#if !MAC3D_OBS_ENABLED
  if (options.watchdog || options.inject_livelock != 0) {
    // The drivers compile the snapshot serial points out under OBS=OFF:
    // the watchdog would never observe a window (and an injected
    // livelock would hang forever), so refuse instead of warning.
    std::fprintf(stderr,
                 "mac3d: --watchdog/--inject-livelock need a "
                 "-DMAC3D_OBS=ON build\n");
    return 2;
  }
  if (want_tracer || want_sampler || want_snapshot || options.profile) {
    std::fprintf(stderr,
                 "mac3d: warning: built with -DMAC3D_OBS=OFF; telemetry "
                 "options will record nothing\n");
  }
#endif
  LifecycleTracer tracer;
  if (!options.trace_events.empty() &&
      !tracer.open_trace(options.trace_events)) {
    std::fprintf(stderr, "mac3d: cannot open %s for writing\n",
                 options.trace_events.c_str());
    return 2;
  }
  CycleSampler sampler(options.sample_every == 0 ? 64 : options.sample_every);
  if (want_tracer) drive.sink = &tracer;
  if (want_sampler) drive.sampler = &sampler;

  // Streaming snapshots + stall watchdog (docs/OBSERVABILITY.md
  // §streaming snapshots). --watchdog without --snapshot-every rides
  // the default window.
  SnapshotStreamer snapshot(options.snapshot_every == 0
                                ? 1024
                                : options.snapshot_every);
  StallWatchdog watchdog(options.watchdog_windows);
  if (want_snapshot) {
    drive.snapshot = &snapshot;
    drive.inject_livelock_at = options.inject_livelock;
    if (options.watchdog) snapshot.attach_watchdog(&watchdog);
  }

  // --profile (docs/OBSERVABILITY.md §profiler): one census and one
  // latency decomposer per path (the driver seals each census at the end
  // of its run), one host profiler shared across the whole invocation.
  // The decomposer tees every event into the tracer, so --profile and
  // --trace-events/--report compose.
  std::vector<ActivityCensus> censuses;
  std::vector<std::unique_ptr<LatencyDecomposer>> decomposers;
  HostProfiler profiler;
  if (options.profile) {
    censuses.resize(options.paths.size());
    for (std::size_t i = 0; i < options.paths.size(); ++i) {
      decomposers.push_back(std::make_unique<LatencyDecomposer>(
          want_tracer ? &tracer : nullptr));
      if (!options.trace_events.empty()) {
        decomposers.back()->attach_trace(&tracer);
      }
    }
    drive.profiler = &profiler;
  }

  std::vector<CoalescerPolicy> policies(options.paths.size());
  for (std::size_t i = 0; i < options.paths.size(); ++i) {
    if (!parse_policy(options.paths[i], policies[i])) {
      std::fprintf(stderr, "unknown path '%s' (raw|mac|mshr|warp)\n",
                   options.paths[i].c_str());
      return 2;
    }
  }
  std::vector<DriverResult> results(options.paths.size());
  const auto run_path = [&](std::size_t index) {
    results[index] = run_policy(policies[index], trace, config, threads,
                                drive);
  };
  // Paths are independent runs over the same (immutable) trace, so --jobs
  // shards them across a worker pool — unless shared telemetry/check
  // state forces the one-at-a-time schedule (docs/PARALLELISM.md).
  const std::uint32_t jobs =
      options.jobs == 0 ? ParallelStepper::env_jobs(1) : options.jobs;
  const bool hooks_attached = options.checks || want_tracer ||
                              want_sampler || want_snapshot ||
                              options.profile;
  if (jobs > 1 && !hooks_attached && options.paths.size() > 1) {
    ParallelStepper stepper(jobs);
    stepper.for_shards(options.paths.size(), run_path);
  } else {
    for (std::size_t i = 0; i < options.paths.size(); ++i) {
      if (want_tracer) tracer.begin_path(options.paths[i]);
      if (options.profile) {
        drive.sink = decomposers[i].get();
        drive.census = &censuses[i];
      }
      run_path(i);
    }
  }
  tracer.finish();

  if (!options.sample_out.empty() && !sampler.write_csv(options.sample_out)) {
    std::fprintf(stderr, "mac3d: cannot write %s\n",
                 options.sample_out.c_str());
    return 2;
  }
  if (!options.snapshot_out.empty() &&
      !snapshot.write(options.snapshot_out)) {
    std::fprintf(stderr, "mac3d: cannot write %s\n",
                 options.snapshot_out.c_str());
    return 2;
  }

  if (!options.report_path.empty()) {
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    RunReport report;
    report.set_string("workload", options.trace_path.empty()
                                      ? options.workload
                                      : options.trace_path);
    report.set_string("feed_mode", feed_name(drive.mode));
    report.set_number("threads", static_cast<double>(threads));
    report.set_number("scale", options.scale);
    report.set_number("seed", static_cast<double>(options.seed));
    report.set_number("trace_records", static_cast<double>(trace.size()));
    report.set_number("wall_seconds", wall_seconds);
    report.set_number("telemetry_monotonicity_errors",
                      static_cast<double>(tracer.monotonicity_errors()));
    report.set_number("telemetry_completeness_errors",
                      static_cast<double>(tracer.completeness_errors()));
    report.set_number("telemetry_abandoned_records",
                      static_cast<double>(tracer.abandoned_records()));
    report.set_number("telemetry_in_flight_at_end",
                      static_cast<double>(tracer.in_flight_at_end()));
    if (options.watchdog) {
      report.set_raw("watchdog", watchdog.to_json());
    }
    if (options.checks) {
      StatSet check_stats;
      checks.collect(check_stats, "checks");
      report.set_raw("checks", check_stats.to_json());
    }
    report.set_config(config);
    for (const DriverResult& result : results) {
      StatSet stats;
      result.collect(stats, result.path);
      report.set_path_stats(result.path, stats);
      const LifecycleTracer::PathTelemetry* telemetry =
          tracer.path(result.path);
      if (telemetry == nullptr) continue;
      report.set_path_request_latency(result.path,
                                      telemetry->request_latency);
      for (std::size_t s = 0; s < kStageCount; ++s) {
        if (telemetry->stage_latency[s].count() == 0) continue;
        report.add_path_stage(result.path,
                              to_string(static_cast<Stage>(s)),
                              telemetry->stage_latency[s]);
      }
    }
    if (options.profile) {
      // Keyed per path, like the "paths" section. The census export is
      // printed (and traced) but deliberately not folded into the report:
      // the `node0.*` namespaces from multiple paths would collide.
      std::string latency_json = "{";
      for (std::size_t i = 0; i < options.paths.size(); ++i) {
        if (i != 0) latency_json += ",";
        latency_json += "\"" + options.paths[i] +
                        "\":" + decomposers[i]->to_json();
      }
      latency_json += "}";
      report.set_latency(std::move(latency_json));
      report.set_host(profiler.to_json());
    }
    if (!report.write(options.report_path)) {
      std::fprintf(stderr, "mac3d: cannot write %s\n",
                   options.report_path.c_str());
      return 2;
    }
  }

  const int watchdog_exit = options.watchdog && watchdog.fired() ? 1 : 0;
  if (watchdog_exit != 0) {
    std::fprintf(stderr,
                 "mac3d: watchdog fired at cycle %llu (%llu consecutive "
                 "windows with zero completions, work in flight)\n",
                 static_cast<unsigned long long>(watchdog.fired_at()),
                 static_cast<unsigned long long>(
                     watchdog.stalled_windows()));
  }

  if (options.csv) {
    StatSet stats;
    for (const DriverResult& result : results) {
      result.collect(stats, result.path);
    }
    if (options.checks) checks.collect(stats, "checks");
    std::cout << stats.to_csv();
    return options.checks && checks.violations() != 0 ? 1 : watchdog_exit;
  }

  print_banner("mac3d run: " +
               (options.trace_path.empty() ? options.workload
                                           : options.trace_path));
  std::printf("%s records, %u threads, scale %.2f, %s feed\n\n",
              Table::count(trace.size()).c_str(), threads, options.scale,
              feed_name(drive.mode));
  Table table({"path", "packets", "coal. eff", "bw eff", "avg packet",
               "bank conflicts", "avg latency", "makespan"});
  for (const DriverResult& result : results) {
    table.add_row(
        {result.path, Table::count(result.packets),
         Table::pct(result.coalescing_efficiency()),
         Table::pct(result.bandwidth_efficiency()),
         Table::bytes(static_cast<std::uint64_t>(result.avg_packet_bytes)),
         Table::count(result.bank_conflicts),
         Table::fmt(result.avg_latency_cycles, 0) + " cy",
         Table::count(result.makespan) + " cy"});
  }
  table.print();
  if (options.profile) {
    for (std::size_t i = 0; i < options.paths.size(); ++i) {
      std::printf("\n[%s] idle-cycle census (dead time %.1f%%)\n%s",
                  options.paths[i].c_str(),
                  100.0 * censuses[i].dead_time_fraction(),
                  censuses[i].to_table().c_str());
      std::printf("\n[%s] per-stage residency\n%s", options.paths[i].c_str(),
                  decomposers[i]->to_table().c_str());
    }
    std::printf("\nhost wall-clock attribution\n%s",
                profiler.to_table().c_str());
  }
  if (results.size() >= 2 && results[0].path == "raw") {
    for (std::size_t i = 1; i < results.size(); ++i) {
      std::printf("memory speedup %s vs raw: %s\n",
                  results[i].path.c_str(),
                  Table::pct(memory_speedup(results[0], results[i])).c_str());
    }
  }
  if (options.checks) {
    std::printf("\n%s", checks.report().c_str());
    return checks.violations() == 0 ? watchdog_exit : 1;
  }
  return watchdog_exit;
}

int cmd_suite(const CliOptions& options) {
  SuiteOptions suite;
  suite.config = make_config(options);
  suite.threads = options.threads == 0 ? suite.config.cores : options.threads;
  suite.scale = options.scale;
  suite.seed = options.seed;
  suite.jobs = options.jobs == 0 ? env_jobs(1) : options.jobs;
  suite.drive.engine = drive_engine(options.engine);
  suite.drive.tag_pool = options.tag_pool;
  const auto runs = run_suite(suite);
  if (options.csv) {
    // Plain numbers (no thousands separators) to keep the CSV parseable.
    std::printf(
        "workload,raw_packets,mac_packets,coalescing_efficiency,"
        "bandwidth_efficiency,speedup\n");
    for (const WorkloadRun& run : runs) {
      std::printf("%s,%llu,%llu,%.6f,%.6f,%.6f\n", run.name.c_str(),
                  static_cast<unsigned long long>(run.raw.packets),
                  static_cast<unsigned long long>(run.mac.packets),
                  run.mac.coalescing_efficiency(),
                  run.mac.bandwidth_efficiency(),
                  memory_speedup(run.raw, run.mac));
    }
    return 0;
  }
  Table table({"workload", "raw packets", "MAC packets", "coal. eff",
               "bw eff", "speedup"});
  for (const WorkloadRun& run : runs) {
    table.add_row({run.name, Table::count(run.raw.packets),
                   Table::count(run.mac.packets),
                   Table::pct(run.mac.coalescing_efficiency()),
                   Table::pct(run.mac.bandwidth_efficiency()),
                   Table::pct(memory_speedup(run.raw, run.mac))});
  }
  print_banner("mac3d suite");
  table.print();
  return 0;
}

// Closed-loop multi-node System run (paper Sec. 3): the command that
// exercises the full distributed observability stack — per-node metric
// namespaces, fabric link counters, cross-node flow arrows and the /2
// report's "metrics" section.
int cmd_system(const CliOptions& options) {
  const auto wall_start = std::chrono::steady_clock::now();
  if (options.inject_livelock != 0) {
    std::fprintf(stderr,
                 "mac3d: --inject-livelock applies to the run command\n");
    return 2;
  }
  SimConfig config = make_config(options);  // applies --nodes pre-validate
  const MemoryTrace trace = make_trace(options, config);

  System system(config);
  system.attach_trace(trace);

  CheckContext checks(CheckContext::FailMode::kCount);
  if (options.checks) system.attach_checks(&checks);

  const bool want_tracer =
      !options.trace_events.empty() || !options.report_path.empty();
  const bool want_sampler =
      options.sample_every > 0 || !options.sample_out.empty();
  const bool want_snapshot = options.snapshot_every > 0 ||
                             !options.snapshot_out.empty() ||
                             options.watchdog;
#if !MAC3D_OBS_ENABLED
  if (options.watchdog) {
    // The engines compile the snapshot serial points out under OBS=OFF:
    // the watchdog would never observe a window, so refuse.
    std::fprintf(stderr,
                 "mac3d: --watchdog needs a -DMAC3D_OBS=ON build\n");
    return 2;
  }
  if (want_tracer || want_sampler || want_snapshot || options.profile ||
      !options.report_path.empty()) {
    std::fprintf(stderr,
                 "mac3d: warning: built with -DMAC3D_OBS=OFF; telemetry "
                 "options will record nothing\n");
  }
#endif
  LifecycleTracer tracer;
  if (!options.trace_events.empty() &&
      !tracer.open_trace(options.trace_events)) {
    std::fprintf(stderr, "mac3d: cannot open %s for writing\n",
                 options.trace_events.c_str());
    return 2;
  }
  CycleSampler sampler(options.sample_every == 0 ? 64 : options.sample_every);
  MetricsRegistry registry;
  ActivityCensus census;
  HostProfiler profiler;
  LatencyDecomposer decomposer(want_tracer ? &tracer : nullptr);
  if (want_tracer) {
    tracer.begin_path("system");
    system.attach_sink(&tracer);
  }
  if (options.profile) {
    // The decomposer tees into the tracer, so it replaces it as the
    // system sink. The census export lands in the metrics registry at
    // end of run (System::finalize_metrics).
    if (!options.trace_events.empty()) decomposer.attach_trace(&tracer);
    system.attach_sink(&decomposer);
    system.attach_census(&census);
    system.attach_profiler(&profiler);
  }
  if (want_sampler) system.attach_sampler(&sampler);
  if (!options.report_path.empty()) system.attach_metrics(&registry);

  SnapshotStreamer snapshot(options.snapshot_every == 0
                                ? 1024
                                : options.snapshot_every);
  StallWatchdog watchdog(options.watchdog_windows);
  if (want_snapshot) {
    if (options.watchdog) snapshot.attach_watchdog(&watchdog);
    system.attach_snapshot(&snapshot);
  }

  // The system command defaults to the strict serial reference engine
  // (its committed baselines predate the event engine; both engines are
  // bit-identical, so this is a wall-clock choice only).
  const SystemRunSummary summary =
      options.engine == "event" ? system.run_event() : system.run();
  census.seal();  // probes reference nodes owned by `system`
  tracer.finish();
  if (options.checks) checks.finalize();

  if (!options.sample_out.empty() && !sampler.write_csv(options.sample_out)) {
    std::fprintf(stderr, "mac3d: cannot write %s\n",
                 options.sample_out.c_str());
    return 2;
  }
  if (!options.snapshot_out.empty() &&
      !snapshot.write(options.snapshot_out)) {
    std::fprintf(stderr, "mac3d: cannot write %s\n",
                 options.snapshot_out.c_str());
    return 2;
  }

  if (!options.report_path.empty()) {
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    RunReport report;
    report.set_string("workload", options.trace_path.empty()
                                      ? options.workload
                                      : options.trace_path);
    report.set_string("feed_mode", "closed_loop");
    report.set_number("threads", static_cast<double>(trace.threads()));
    report.set_number("nodes", static_cast<double>(config.nodes));
    report.set_number("scale", options.scale);
    report.set_number("seed", static_cast<double>(options.seed));
    report.set_number("trace_records", static_cast<double>(trace.size()));
    report.set_number("cycles", static_cast<double>(summary.cycles));
    report.set_bool("completed", summary.completed);
    report.set_number("wall_seconds", wall_seconds);
    report.set_number("telemetry_monotonicity_errors",
                      static_cast<double>(tracer.monotonicity_errors()));
    report.set_number("telemetry_completeness_errors",
                      static_cast<double>(tracer.completeness_errors()));
    report.set_number("telemetry_abandoned_records",
                      static_cast<double>(tracer.abandoned_records()));
    report.set_number("telemetry_in_flight_at_end",
                      static_cast<double>(tracer.in_flight_at_end()));
    report.set_number("telemetry_hop_events",
                      static_cast<double>(tracer.hop_events()));
    if (options.watchdog) {
      report.set_raw("watchdog", watchdog.to_json());
    }
    if (options.checks) {
      StatSet check_stats;
      checks.collect(check_stats, "checks");
      report.set_raw("checks", check_stats.to_json());
    }
    report.set_config(config);
    report.set_metrics(registry);
    report.set_path_stats("system", summary.stats);
    const LifecycleTracer::PathTelemetry* telemetry = tracer.path("system");
    if (telemetry != nullptr) {
      report.set_path_request_latency("system", telemetry->request_latency);
      for (std::size_t s = 0; s < kStageCount; ++s) {
        if (telemetry->stage_latency[s].count() == 0) continue;
        report.add_path_stage("system", to_string(static_cast<Stage>(s)),
                              telemetry->stage_latency[s]);
      }
    }
    if (options.profile) {
      report.set_latency("{\"system\":" + decomposer.to_json() + "}");
      report.set_host(profiler.to_json());
    }
    if (!report.write(options.report_path)) {
      std::fprintf(stderr, "mac3d: cannot write %s\n",
                   options.report_path.c_str());
      return 2;
    }
  }

  const int watchdog_exit = options.watchdog && watchdog.fired() ? 1 : 0;
  if (watchdog_exit != 0) {
    std::fprintf(stderr,
                 "mac3d: watchdog fired at cycle %llu (%llu consecutive "
                 "windows with zero completions, work in flight)\n",
                 static_cast<unsigned long long>(watchdog.fired_at()),
                 static_cast<unsigned long long>(
                     watchdog.stalled_windows()));
  }

  if (options.csv) {
    std::cout << summary.stats.to_csv();
    return options.checks && checks.violations() != 0 ? 1 : watchdog_exit;
  }

  print_banner("mac3d system: " +
               (options.trace_path.empty() ? options.workload
                                           : options.trace_path));
  std::printf(
      "%u nodes, %u threads, %s records, %s engine\n"
      "cycles %s%s, requests %s, completions %s, avg latency %.0f cy\n",
      config.nodes, trace.threads(), Table::count(trace.size()).c_str(),
      options.engine.empty() ? "serial" : options.engine.c_str(),
      Table::count(summary.cycles).c_str(),
      summary.completed ? "" : " (cycle limit hit)",
      Table::count(summary.requests).c_str(),
      Table::count(summary.completions).c_str(), summary.avg_latency_cycles);
  if (options.profile) {
    std::printf("\nidle-cycle census (dead time %.1f%%)\n%s",
                100.0 * census.dead_time_fraction(),
                census.to_table().c_str());
    std::printf("\nper-stage residency\n%s", decomposer.to_table().c_str());
    std::printf("\nhost wall-clock attribution\n%s",
                profiler.to_table().c_str());
  }
  if (options.checks) {
    std::printf("\n%s", checks.report().c_str());
    return checks.violations() == 0 ? watchdog_exit : 1;
  }
  return watchdog_exit;
}

/// `mac3d report-diff OLD NEW [--tolerance PCT] [--ignore PATH]
/// [--allow-missing]`: its positional arguments don't fit the common
/// flag-value parser, so it parses argv itself.
int cmd_report_diff(int argc, char** argv) {
  std::vector<std::string> files;
  DiffOptions diff;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--tolerance") {
      diff.tolerance_pct = std::atof(value());
    } else if (arg == "--ignore") {
      diff.ignore.emplace_back(value());
    } else if (arg == "--allow-missing") {
      diff.fail_on_missing = false;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 2) {
    std::fprintf(stderr,
                 "usage: mac3d report-diff OLD NEW [--tolerance PCT] "
                 "[--ignore PATH] [--allow-missing]\n");
    return 2;
  }
  return run_report_diff(files[0], files[1], diff);
}

/// `mac3d analyze REPORT --snapshots FILE [--json FILE]
/// [--tolerance PCT]`: post-run bottleneck diagnosis over a run report
/// plus its snapshot stream (docs/OBSERVABILITY.md §analyze). Positional
/// REPORT, so it parses argv itself. Exit 0 clean, 1 when the watchdog
/// fired or a conservation audit fails, 2 on IO/parse/usage trouble.
int cmd_analyze(int argc, char** argv) {
  std::vector<std::string> files;
  std::string snapshots;
  std::string json_out;
  AnalysisOptions analysis;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--snapshots") {
      snapshots = value();
    } else if (arg == "--json") {
      json_out = value();
    } else if (arg == "--tolerance") {
      analysis.tolerance_pct = std::atof(value());
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 1 || snapshots.empty()) {
    std::fprintf(stderr,
                 "usage: mac3d analyze REPORT --snapshots FILE "
                 "[--json FILE] [--tolerance PCT]\n");
    return 2;
  }
  return run_analyze(files[0], snapshots, json_out, analysis);
}

/// `mac3d lint [--root DIR] [--baseline FILE] [--sarif FILE]
/// [--write-baseline FILE] [--list-rules]`: like report-diff, its flags
/// don't fit the common parser, so it parses argv itself
/// (docs/STATIC_ANALYSIS.md).
int cmd_lint(int argc, char** argv) {
  lint::LintCliOptions options;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--root") {
      options.root = value();
    } else if (arg == "--baseline") {
      options.baseline = value();
    } else if (arg == "--sarif") {
      options.sarif = value();
    } else if (arg == "--write-baseline") {
      options.write_baseline = value();
    } else if (arg == "--list-rules") {
      options.list_rules = true;
    } else {
      std::fprintf(stderr,
                   "usage: mac3d lint [--root DIR] [--baseline FILE] "
                   "[--sarif FILE] [--write-baseline FILE] [--list-rules]\n");
      return 2;
    }
  }
  return lint::run_lint_cli(options);
}

int cmd_trace(const CliOptions& options) {
  const SimConfig config = make_config(options);
  const MemoryTrace trace = make_trace(options, config);
  const std::string out = options.out_path.empty()
                              ? options.workload + ".trace"
                              : options.out_path;
  save_trace(trace, out);
  std::printf("wrote %s records (%u threads) to %s\n",
              Table::count(trace.size()).c_str(), trace.threads(),
              out.c_str());
  return 0;
}

int cmd_list() {
  for (const Workload* workload : workload_registry()) {
    std::printf("%-10s %s\n", workload->name().c_str(),
                workload->description().c_str());
  }
  return 0;
}

int cmd_config(const CliOptions& options) {
  const SimConfig config = make_config(options);
  std::printf("%s", config.to_table().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "report-diff") == 0) {
    return cmd_report_diff(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "analyze") == 0) {
    return cmd_analyze(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "lint") == 0) {
    return cmd_lint(argc, argv);
  }
  const std::optional<CliOptions> options = parse(argc, argv);
  if (!options) {
    usage();
    return 2;
  }
  try {
    if (options->command == "run") return cmd_run(*options);
    if (options->command == "suite") return cmd_suite(*options);
    if (options->command == "system") return cmd_system(*options);
    if (options->command == "trace") return cmd_trace(*options);
    if (options->command == "list") return cmd_list();
    if (options->command == "config") return cmd_config(*options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mac3d: %s\n", error.what());
    return 1;
  }
  usage();
  return 2;
}
