// Streaming-telemetry suite (docs/OBSERVABILITY.md §streaming snapshots):
// the SnapshotStreamer's delta-encoded JSONL, the StallWatchdog's
// no-progress latch, the serial-vs-event byte-equality of the stream (the
// determinism contract: window boundaries are mandatory landing cycles
// for the event engine), the injectable livelock fault, heterogeneous
// per-node policies, and the `mac3d analyze` math — Little's law, the
// conservation audits and the exit contract — over hand-built analytic
// streams.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "arch/system.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "obs/analysis.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/snapshot.hpp"
#include "sim/driver.hpp"
#include "trace/trace.hpp"

namespace mac3d {
namespace {

// ---- StallWatchdog ---------------------------------------------------------

TEST(StallWatchdog, FiresAfterThresholdStalledWindows) {
  StallWatchdog dog(3);
  dog.observe_window(100, 5, 10);  // progress
  dog.observe_window(200, 0, 10);
  dog.observe_window(300, 0, 10);
  EXPECT_FALSE(dog.fired());
  dog.observe_window(400, 0, 10);
  EXPECT_TRUE(dog.fired());
  EXPECT_EQ(dog.fired_at(), 400u);
  EXPECT_EQ(dog.stalled_windows(), 3u);
  EXPECT_EQ(dog.windows_observed(), 4u);
}

TEST(StallWatchdog, ProgressResetsTheStreak) {
  StallWatchdog dog(2);
  dog.observe_window(100, 0, 10);
  dog.observe_window(200, 1, 10);  // progress: streak back to zero
  dog.observe_window(300, 0, 10);
  EXPECT_FALSE(dog.fired());
  dog.observe_window(400, 0, 10);
  EXPECT_TRUE(dog.fired());
}

TEST(StallWatchdog, EmptyPipelineIsNotAStall) {
  StallWatchdog dog(1);
  for (Cycle c = 100; c <= 1000; c += 100) dog.observe_window(c, 0, 0);
  EXPECT_FALSE(dog.fired());  // nothing in flight: idle, not livelocked
  dog.observe_window(1100, 0, 7);
  EXPECT_TRUE(dog.fired());
}

TEST(StallWatchdog, ZeroThresholdClampsToOne) {
  StallWatchdog dog(0);
  EXPECT_EQ(dog.threshold(), 1u);
  dog.observe_window(100, 0, 1);
  EXPECT_TRUE(dog.fired());
}

TEST(StallWatchdog, FiredStateLatches) {
  StallWatchdog dog(1);
  dog.observe_window(100, 0, 1);
  ASSERT_TRUE(dog.fired());
  dog.observe_window(200, 50, 0);  // later progress cannot un-fire it
  EXPECT_TRUE(dog.fired());
  EXPECT_EQ(dog.fired_at(), 100u);
}

// ---- SnapshotStreamer unit -------------------------------------------------

TEST(SnapshotStreamer, EmitsDeltaEncodedWindows) {
  SnapshotStreamer snapshot(10);
  std::uint64_t injected = 0;
  std::uint64_t completions = 0;
  snapshot.begin_run("unit");
  snapshot.add_counter(SnapshotStreamer::kInjectedCounter,
                       [&] { return injected; });
  snapshot.add_counter(SnapshotStreamer::kCompletionsCounter,
                       [&] { return completions; });
  injected = 6;
  completions = 2;
  snapshot.advance_to(10);
  injected = 9;
  completions = 9;
  snapshot.advance_to(20);
  snapshot.end_run(25);

  const std::string expected =
      "{\"schema\":\"mac3d-snapshot/1\",\"period\":10}\n"
      "{\"run\":\"unit\"}\n"
      "{\"cycle\":10,\"counters\":{\"completions\":2,\"injected\":6},"
      "\"in_flight\":4}\n"
      "{\"cycle\":20,\"counters\":{\"completions\":7,\"injected\":3},"
      "\"in_flight\":0}\n"
      "{\"cycle\":25,\"in_flight\":0}\n"
      "{\"end\":\"unit\",\"cycle\":25,\"windows\":3,\"injected\":9,"
      "\"completions\":9,\"in_flight_at_end\":0}\n";
  EXPECT_EQ(snapshot.str(), expected);
}

TEST(SnapshotStreamer, OmitsQuietCountersAndSamplesGaugesAbsolute) {
  SnapshotStreamer snapshot(100);
  std::uint64_t moved = 0;
  double depth = 0.0;
  snapshot.begin_run("unit");
  snapshot.add_counter("bytes", [&] { return moved; });
  snapshot.add_gauge("depth", [&] { return depth; });
  moved = 64;
  depth = 3.5;
  snapshot.advance_to(100);
  depth = 1.25;  // counter quiet this window, gauge resampled
  snapshot.advance_to(200);
  snapshot.end_run(200);
  EXPECT_NE(snapshot.str().find(
                "{\"cycle\":100,\"counters\":{\"bytes\":64},\"in_flight\":0,"
                "\"gauges\":{\"depth\":3.5}}"),
            std::string::npos);
  EXPECT_NE(snapshot.str().find(
                "{\"cycle\":200,\"in_flight\":0,"
                "\"gauges\":{\"depth\":1.25}}"),
            std::string::npos);
}

TEST(SnapshotStreamer, ExportsWindowAndWatchdogMetricFamilies) {
  SnapshotStreamer snapshot(50);
  StallWatchdog dog(2);
  snapshot.attach_watchdog(&dog);
  snapshot.begin_run("unit");
  snapshot.advance_to(150);
  snapshot.end_run(150);
  MetricsRegistry registry;
  snapshot.export_metrics(registry);
  const std::string json = registry.to_json();
  EXPECT_NE(json.find("window.count"), std::string::npos);
  EXPECT_NE(json.find("watchdog.fired"), std::string::npos);
}

// ---- Engine byte-equality --------------------------------------------------

/// The test_parallel_equivalence generator: sequential stream with random
/// row jumps plus a fence/store/atomic sprinkle.
MemoryTrace locality_trace(double locality, std::uint32_t threads,
                           std::uint32_t per_thread, std::uint64_t seed) {
  MemoryTrace trace(threads);
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> position(threads, 0);
  for (std::uint32_t i = 0; i < per_thread; ++i) {
    for (std::uint32_t t = 0; t < threads; ++t) {
      if (rng.uniform() >= locality) {
        position[t] = rng.below(1ull << 22) * 16;
      } else {
        position[t] += 8;
      }
      const Address addr = (i * threads + t) % 4 == 0
                               ? position[t]
                               : (static_cast<Address>(i) * threads + t) * 8;
      trace.instr(static_cast<ThreadId>(t), 2);
      switch (rng.below(24)) {
        case 0: trace.atomic(static_cast<ThreadId>(t), addr & ~0x7ull, 8);
                break;
        case 1: trace.fence(static_cast<ThreadId>(t)); break;
        case 2: trace.store(static_cast<ThreadId>(t), addr & ~0x7ull, 8);
                break;
        default: trace.load(static_cast<ThreadId>(t), addr & ~0x7ull); break;
      }
    }
  }
  return trace;
}

std::string driver_stream(CoalescerPolicy policy, Engine engine,
                          const MemoryTrace& trace, const SimConfig& config) {
  SnapshotStreamer snapshot(64);
  ActivityCensus census;
  DriveOptions options;
  options.engine = engine;
  options.snapshot = &snapshot;
  options.census = &census;
  const DriverResult result = run_policy(policy, trace, config, 4, options);
  // raw_requests excludes fences but completions includes them, so the
  // drained count can only be >= (equality when the trace has no fences).
  EXPECT_GE(result.completions, result.raw_requests);
  census.seal();
  return snapshot.str();
}

#if MAC3D_OBS_ENABLED
TEST(SnapshotEquivalence, DriverStreamByteIdenticalAcrossEngines) {
  const MemoryTrace trace = locality_trace(0.6, 4, 250, 20260808);
  SimConfig config;
  config.validate();
  for (const CoalescerPolicy policy :
       {CoalescerPolicy::kMac, CoalescerPolicy::kRaw, CoalescerPolicy::kMshr,
        CoalescerPolicy::kWarp}) {
    const std::string reference =
        driver_stream(policy, Engine::kSerial, trace, config);
    EXPECT_FALSE(reference.empty());
    EXPECT_EQ(driver_stream(policy, Engine::kEvent, trace, config),
              reference)
        << "policy " << to_string(policy);
  }
}

std::string system_stream(bool event, const MemoryTrace& trace,
                          const SimConfig& config) {
  System system(config);
  system.attach_trace(trace);
  SnapshotStreamer snapshot(64);
  system.attach_snapshot(&snapshot);
  const SystemRunSummary summary = event ? system.run_event() : system.run();
  EXPECT_TRUE(summary.completed);
  return snapshot.str();
}

TEST(SnapshotEquivalence, SystemStreamByteIdenticalAcrossEngines) {
  SimConfig config;
  config.nodes = 2;
  config.validate();
  const MemoryTrace trace = locality_trace(0.5, 4, 120, 7);
  const std::string reference = system_stream(false, trace, config);
  EXPECT_FALSE(reference.empty());
  EXPECT_EQ(system_stream(true, trace, config), reference);
}

// ---- Livelock fault + watchdog end-to-end ----------------------------------

TEST(SnapshotWatchdog, FiresOnInjectedLivelock) {
  const MemoryTrace trace = locality_trace(0.6, 2, 200, 11);
  SimConfig config;
  config.validate();
  SnapshotStreamer snapshot(32);
  StallWatchdog dog(3);
  snapshot.attach_watchdog(&dog);
  DriveOptions options;
  options.snapshot = &snapshot;
  options.inject_livelock_at = 200;  // stop draining completions here
  const DriverResult result =
      run_policy(CoalescerPolicy::kMac, trace, config, 2, options);
  EXPECT_TRUE(dog.fired());
  EXPECT_GE(dog.stalled_windows(), 3u);
  EXPECT_LT(result.completions, result.raw_requests);
  EXPECT_NE(snapshot.str().find("\"watchdog\":\"fired\""), std::string::npos);
}

TEST(SnapshotWatchdog, SilentOnCleanRun) {
  const MemoryTrace trace = locality_trace(0.6, 2, 200, 11);
  SimConfig config;
  config.validate();
  // Period must dwarf the device round-trip: a window shorter than the
  // cold-start latency would read warm-up as a livelock (the CLI default
  // is 1024 for the same reason).
  SnapshotStreamer snapshot(1024);
  StallWatchdog dog(3);
  snapshot.attach_watchdog(&dog);
  DriveOptions options;
  options.snapshot = &snapshot;
  const DriverResult result =
      run_policy(CoalescerPolicy::kMac, trace, config, 2, options);
  EXPECT_FALSE(dog.fired());
  EXPECT_GE(result.completions, result.raw_requests);
  EXPECT_EQ(snapshot.str().find("\"watchdog\""), std::string::npos);
  EXPECT_GT(dog.windows_observed(), 0u);
}
#else   // !MAC3D_OBS_ENABLED
TEST(SnapshotObsOff, StreamerStaysInertThroughDriver) {
  const MemoryTrace trace = locality_trace(0.6, 2, 100, 11);
  SimConfig config;
  config.validate();
  SnapshotStreamer snapshot(32);
  DriveOptions options;
  options.snapshot = &snapshot;  // driver must ignore it entirely
  const DriverResult result =
      run_policy(CoalescerPolicy::kMac, trace, config, 2, options);
  EXPECT_GE(result.completions, result.raw_requests);
  EXPECT_TRUE(snapshot.str().empty());
  EXPECT_EQ(snapshot.window_count(), 0u);
}
#endif  // MAC3D_OBS_ENABLED

// ---- Heterogeneous per-node policies ---------------------------------------

TEST(NodePolicies, ConfigParsesAndLaterEntriesWin) {
  SimConfig config;
  config.nodes = 4;
  config.parse_overrides({{"node_policies", "1:raw;2:mshr;1:warp"}});
  config.validate();
  EXPECT_EQ(config.policy_for_node(0), CoalescerPolicy::kMac);
  EXPECT_EQ(config.policy_for_node(1), CoalescerPolicy::kWarp);
  EXPECT_EQ(config.policy_for_node(2), CoalescerPolicy::kMshr);
  EXPECT_EQ(config.policy_for_node(3), CoalescerPolicy::kMac);
}

TEST(NodePolicies, ValidateRejectsOutOfRangeNode) {
  SimConfig config;
  config.nodes = 2;
  config.node_policies = "2:raw";
  EXPECT_THROW(config.validate(), ConfigError);
}

TEST(NodePolicies, OverrideRejectsMalformedEntries) {
  SimConfig config;
  EXPECT_THROW(config.parse_overrides({{"node_policies", "0=raw"}}),
               ConfigError);
  EXPECT_THROW(config.parse_overrides({{"node_policies", "0:fast"}}),
               ConfigError);
}

TEST(NodePolicies, HeterogeneousSystemRunConserves) {
  SimConfig config;
  config.nodes = 2;
  config.parse_overrides({{"node_policies", "1:raw"}});
  config.validate();
  System system(config);
  const MemoryTrace trace = locality_trace(0.5, 4, 100, 13);
  system.attach_trace(trace);
  const SystemRunSummary summary = system.run();
  EXPECT_TRUE(summary.completed);
  EXPECT_EQ(summary.requests, summary.completions);
}

// ---- mac3d analyze ---------------------------------------------------------

/// Ten equal windows at constant rate: λ = 0.5/cycle, L = 10 in flight,
/// so Little's law gives W = L/λ = 20 cycles exactly.
std::string analytic_stream() {
  std::string text =
      "{\"schema\":\"mac3d-snapshot/1\",\"period\":100}\n"
      "{\"run\":\"unit\"}\n"
      "{\"cycle\":100,\"counters\":{\"completions\":50,\"injected\":60},"
      "\"in_flight\":10}\n";
  for (int w = 2; w <= 10; ++w) {
    text += "{\"cycle\":" + std::to_string(w * 100) +
            ",\"counters\":{\"completions\":50,\"injected\":50},"
            "\"in_flight\":10}\n";
  }
  text +=
      "{\"end\":\"unit\",\"cycle\":1000,\"windows\":10,\"injected\":510,"
      "\"completions\":500,\"in_flight_at_end\":10}\n";
  return text;
}

TEST(Analyze, LittlesLawOnAnalyticStream) {
  SnapshotStream stream;
  std::string error;
  ASSERT_TRUE(parse_snapshot_stream(analytic_stream(), stream, error))
      << error;
  ASSERT_EQ(stream.runs.size(), 1u);
  EXPECT_EQ(stream.period, 100u);
  EXPECT_EQ(stream.runs[0].windows.size(), 10u);

  FlatReport report;
  ASSERT_TRUE(flatten_json(
      "{\"paths\":{\"unit\":{\"stats\":{\"unit\":{\"completions\":500,"
      "\"avg_latency_cycles\":21}}}}}",
      report, error))
      << error;
  const AnalysisResult result =
      analyze_stream(report, stream, AnalysisOptions{});
  ASSERT_EQ(result.runs.size(), 1u);
  const RunAnalysis& run = result.runs[0];
  EXPECT_DOUBLE_EQ(run.throughput, 0.5);
  EXPECT_DOUBLE_EQ(run.mean_in_flight, 10.0);
  EXPECT_DOUBLE_EQ(run.derived_latency, 20.0);
  ASSERT_TRUE(run.has_report_latency);
  EXPECT_NEAR(run.little_mismatch_pct, 100.0 * 1.0 / 21.0, 1e-9);
  EXPECT_TRUE(run.little_ok);  // 4.8% < default 10% tolerance
  EXPECT_TRUE(run.stream_conserved);
  EXPECT_TRUE(run.cross_checked);
  EXPECT_TRUE(run.cross_conserved);
  EXPECT_EQ(result.exit_code(), 0);
}

TEST(Analyze, LittleMismatchIsInformationalOnly) {
  SnapshotStream stream;
  std::string error;
  ASSERT_TRUE(parse_snapshot_stream(analytic_stream(), stream, error));
  FlatReport report;
  ASSERT_TRUE(flatten_json(
      "{\"paths\":{\"unit\":{\"stats\":{\"unit\":{\"completions\":500,"
      "\"avg_latency_cycles\":40}}}}}",
      report, error));
  const AnalysisResult result =
      analyze_stream(report, stream, AnalysisOptions{});
  ASSERT_EQ(result.runs.size(), 1u);
  EXPECT_FALSE(result.runs[0].little_ok);  // 50% off...
  EXPECT_EQ(result.exit_code(), 0);        // ...but never gates the exit
}

TEST(Analyze, StreamAuditCatchesTamperedFooter) {
  std::string text = analytic_stream();
  const std::string::size_type at = text.find("\"injected\":510");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 14, "\"injected\":511");
  SnapshotStream stream;
  std::string error;
  ASSERT_TRUE(parse_snapshot_stream(text, stream, error)) << error;
  const AnalysisResult result =
      analyze_stream(FlatReport{}, stream, AnalysisOptions{});
  ASSERT_EQ(result.runs.size(), 1u);
  EXPECT_FALSE(result.runs[0].stream_conserved);
  EXPECT_EQ(result.exit_code(), 1);
}

TEST(Analyze, CrossAuditCatchesDisagreeingReport) {
  SnapshotStream stream;
  std::string error;
  ASSERT_TRUE(parse_snapshot_stream(analytic_stream(), stream, error));
  FlatReport report;
  ASSERT_TRUE(flatten_json(
      "{\"paths\":{\"unit\":{\"stats\":{\"unit\":{\"completions\":499}}}}}",
      report, error));
  const AnalysisResult result =
      analyze_stream(report, stream, AnalysisOptions{});
  ASSERT_EQ(result.runs.size(), 1u);
  EXPECT_TRUE(result.runs[0].cross_checked);
  EXPECT_FALSE(result.runs[0].cross_conserved);
  EXPECT_EQ(result.exit_code(), 1);
}

TEST(Analyze, WatchdogLineDrivesTheVerdict) {
  std::string text =
      "{\"schema\":\"mac3d-snapshot/1\",\"period\":100}\n"
      "{\"run\":\"unit\"}\n"
      "{\"cycle\":100,\"counters\":{\"injected\":10},\"in_flight\":10}\n"
      "{\"watchdog\":\"fired\",\"cycle\":400,\"stalled_windows\":3,"
      "\"threshold_windows\":3}\n"
      "{\"end\":\"unit\",\"cycle\":400,\"windows\":1,\"injected\":10,"
      "\"completions\":0,\"in_flight_at_end\":10}\n";
  SnapshotStream stream;
  std::string error;
  ASSERT_TRUE(parse_snapshot_stream(text, stream, error)) << error;
  ASSERT_EQ(stream.runs.size(), 1u);
  EXPECT_TRUE(stream.runs[0].watchdog_fired);
  EXPECT_EQ(stream.runs[0].watchdog_cycle, 400u);
  const AnalysisResult result =
      analyze_stream(FlatReport{}, stream, AnalysisOptions{});
  EXPECT_TRUE(result.watchdog_fired);
  EXPECT_EQ(result.exit_code(), 1);
  EXPECT_NE(render_analysis(result, AnalysisOptions{}).find("STALLED"),
            std::string::npos);
}

TEST(Analyze, CriticalStageRankedFromCensusDeltas) {
  const std::string text =
      "{\"schema\":\"mac3d-snapshot/1\",\"period\":100}\n"
      "{\"run\":\"unit\"}\n"
      "{\"cycle\":100,\"counters\":{\"completions\":10,\"injected\":10},"
      "\"in_flight\":0,\"census\":{\"node0.arq\":90,\"node0.banks\":40}}\n"
      "{\"cycle\":200,\"counters\":{\"completions\":10,\"injected\":10},"
      "\"in_flight\":0,\"census\":{\"node0.arq\":70,\"node0.banks\":80}}\n"
      "{\"cycle\":300,\"counters\":{\"completions\":10,\"injected\":10},"
      "\"in_flight\":0,\"census\":{\"node0.arq\":95}}\n"
      "{\"end\":\"unit\",\"cycle\":300,\"windows\":3,\"injected\":30,"
      "\"completions\":30,\"in_flight_at_end\":0}\n";
  SnapshotStream stream;
  std::string error;
  ASSERT_TRUE(parse_snapshot_stream(text, stream, error)) << error;
  const AnalysisResult result =
      analyze_stream(FlatReport{}, stream, AnalysisOptions{});
  ASSERT_EQ(result.runs.size(), 1u);
  const RunAnalysis& run = result.runs[0];
  ASSERT_EQ(run.windows.size(), 3u);
  EXPECT_EQ(run.windows[0].critical_stage, "node0.arq");
  EXPECT_EQ(run.windows[1].critical_stage, "node0.banks");
  EXPECT_EQ(run.windows[2].critical_stage, "node0.arq");
  EXPECT_EQ(run.critical_component, "node0.arq");
  EXPECT_EQ(run.critical_windows, 2u);
  EXPECT_DOUBLE_EQ(run.windows[0].critical_utilization, 0.9);
}

TEST(Analyze, ParserRejectsMalformedStreams) {
  SnapshotStream stream;
  std::string error;
  EXPECT_FALSE(parse_snapshot_stream("{\"cycle\":5}\n", stream, error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_FALSE(parse_snapshot_stream(
      "{\"schema\":\"mac3d-snapshot/2\",\"period\":10}\n", stream, error));
  // A window before any run marker is an orphan.
  EXPECT_FALSE(parse_snapshot_stream(
      "{\"schema\":\"mac3d-snapshot/1\",\"period\":10}\n"
      "{\"cycle\":10,\"counters\":{},\"in_flight\":0}\n",
      stream, error));
  // Footer missing a required field.
  EXPECT_FALSE(parse_snapshot_stream(
      "{\"schema\":\"mac3d-snapshot/1\",\"period\":10}\n"
      "{\"run\":\"x\"}\n"
      "{\"end\":\"x\",\"cycle\":10,\"windows\":1}\n",
      stream, error));
  EXPECT_FALSE(parse_snapshot_stream("not json\n", stream, error));
}

TEST(Analyze, JsonTwinCarriesTheSchema) {
  SnapshotStream stream;
  std::string error;
  ASSERT_TRUE(parse_snapshot_stream(analytic_stream(), stream, error));
  const AnalysisResult result =
      analyze_stream(FlatReport{}, stream, AnalysisOptions{});
  const std::string json = analysis_json(result, AnalysisOptions{});
  EXPECT_NE(json.find("\"schema\":\"mac3d-analysis/1\""), std::string::npos);
  EXPECT_NE(json.find("\"derived_latency_cycles\""), std::string::npos);
  FlatReport twin;
  EXPECT_TRUE(flatten_json(json, twin, error)) << error;
}

}  // namespace
}  // namespace mac3d
