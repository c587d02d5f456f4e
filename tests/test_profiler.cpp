// Self-profiling subsystem (docs/OBSERVABILITY.md §profiler):
//  * ActivityCensus accounting on hand-built activity patterns — gap
//    cycles book as idle, observe() is idempotent per cycle, skip_to
//    credits threshold rows in closed form and never stamp rows, rows
//    registered mid-run count from their registration, the feeder row
//    follows mark_feeder, seal() keeps counts, and the export lands in
//    the metrics registry under <name>.{active,idle}_cycles;
//  * LatencyDecomposer residency histograms against analytic values,
//    the critical-stage attribution (argmax residency, earliest stage
//    wins ties) and the transparent downstream tee;
//  * empty-stream / zero-request edge cases;
//  * census exports are byte-identical between System::run and
//    System::run_event, and a census shared by a --jobs suite counts the
//    same as at jobs = 1;
//  * attaching census/decomposer/profiler never perturbs simulated
//    results (and the subsystem is inert under -DMAC3D_OBS=OFF).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "arch/system.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "obs/latency.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "sim/driver.hpp"
#include "sim/experiment.hpp"
#include "trace/trace.hpp"

namespace mac3d {
namespace {

/// Small deterministic trace: strided loads across `threads` threads.
MemoryTrace small_trace(std::uint32_t threads, std::uint32_t per_thread) {
  MemoryTrace trace(threads);
  for (std::uint32_t i = 0; i < per_thread; ++i) {
    for (std::uint32_t t = 0; t < threads; ++t) {
      trace.instr(static_cast<ThreadId>(t), 2);
      trace.load(static_cast<ThreadId>(t),
                 (static_cast<Address>(i) * threads + t) * 64);
    }
  }
  return trace;
}

// ----------------------------------------------------------- ActivityCensus

TEST(ActivityCensus, CountsActiveAndIdleWithGapCycles) {
  ActivityCensus census;
  census.add_component("even", [](Cycle now) { return now % 2 == 0; });
  census.add_component("never", [](Cycle) { return false; });
  for (Cycle now = 0; now < 4; ++now) census.observe(now);
  census.observe(3);  // idempotent: the cycle is already accounted
  census.observe(9);  // forward jump: 4..8 book as idle for everyone

  EXPECT_EQ(census.observed_cycles(), 10u);
  const auto& rows = census.rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "even");
  EXPECT_EQ(rows[0].active_cycles, 2u);  // probed active at 0 and 2 only
  EXPECT_EQ(rows[0].idle_cycles, 8u);
  EXPECT_EQ(rows[1].active_cycles, 0u);
  EXPECT_EQ(rows[1].idle_cycles, 10u);
  EXPECT_DOUBLE_EQ(census.dead_time_fraction(), 18.0 / 20.0);
}

TEST(ActivityCensus, SkipToCreditsThresholdRowsExactly) {
  ActivityCensus census;
  // Threshold row, like a bank busy-until: active while now < 7.
  const Cycle busy_until = 7;
  census.add_threshold("bank", busy_until);
  // Stamp row whose stamp lies inside the skipped span: stamps are never
  // credited across a skip (a stamped cycle is by definition visited).
  const Cycle last_work = 5;
  census.add_stamp("idle_unit", last_work);

  census.observe(0);   // both read at 0: bank active, idle_unit idle
  census.skip_to(10);  // span 1..9: bank active 1..6 (6), idle 7..9 (3)
  census.observe(10);  // landing cycle read normally (bank now idle)

  EXPECT_EQ(census.observed_cycles(), 11u);
  const auto& rows = census.rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].active_cycles, 7u);  // cycle 0 + span cycles 1..6
  EXPECT_EQ(rows[0].idle_cycles, 4u);    // 7..9 + landing cycle 10
  EXPECT_EQ(rows[1].active_cycles, 0u);
  EXPECT_EQ(rows[1].idle_cycles, 11u);
}

TEST(ActivityCensus, SkipToEdgeCases) {
  ActivityCensus census;
  Cycle busy_until = 0;
  census.add_threshold("unit", busy_until);
  census.add_feeder("feeder");

  census.observe(0);    // threshold 0: idle
  busy_until = 1000;    // cycle 0's tick raises the threshold
  census.skip_to(1);    // next == first unobserved cycle: a no-op
  EXPECT_EQ(census.observed_cycles(), 1u);

  census.skip_to(5);  // span 1..4
  EXPECT_EQ(census.observed_cycles(), 5u);
  const auto& rows = census.rows();
  // A threshold beyond the span credits the span, no more.
  EXPECT_EQ(rows[0].active_cycles, 4u);
  EXPECT_EQ(rows[0].idle_cycles, 1u);
  // The feeder is a stamp row: skipped spans are idle (nothing was fed
  // during a span nobody visited).
  EXPECT_EQ(rows[1].active_cycles, 0u);
  EXPECT_EQ(rows[1].idle_cycles, 5u);

  // skip_to on a fresh census starts the clock at cycle 0.
  ActivityCensus fresh;
  fresh.add_component("unit", [](Cycle) { return true; });
  fresh.skip_to(3);  // books 0..2, idle (a probe row is not a threshold)
  EXPECT_EQ(fresh.observed_cycles(), 3u);
  EXPECT_EQ(fresh.rows()[0].idle_cycles, 3u);
}

TEST(ActivityCensus, RowRegisteredMidRunCountsFromItsRegistration) {
  ActivityCensus census;
  census.add_component("early", [](Cycle) { return true; });
  census.observe(0);
  census.observe(1);
  const Cycle busy_until = 6;
  census.add_threshold("late", busy_until);  // joins at observed cycle 2
  census.observe(3);   // gap cycle 2 idle for both; 3 active for both
  census.skip_to(8);   // span 4..7: late active 4..5, early idle
  census.observe(8);   // early active; late idle (8 >= 6)

  EXPECT_EQ(census.observed_cycles(), 9u);
  const auto& rows = census.rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].active_cycles, 4u);  // 0, 1, 3, 8
  EXPECT_EQ(rows[0].idle_cycles, 5u);    // 2, 4..7
  EXPECT_EQ(rows[1].active_cycles, 3u);  // 3, 4, 5
  EXPECT_EQ(rows[1].idle_cycles, 4u);    // 2, 6, 7, 8 — not 0..1
}

TEST(ActivityCensus, FeederRowFollowsMarkFeeder) {
  ActivityCensus census;
  census.add_feeder("node0.feeder");
  census.mark_feeder(0);
  census.observe(0);
  census.observe(1);  // not marked: idle
  census.mark_feeder(2);
  census.observe(2);

  const auto& rows = census.rows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].active_cycles, 2u);
  EXPECT_EQ(rows[0].idle_cycles, 1u);
}

TEST(ActivityCensus, MovedCensusKeepsReadingItsRows) {
  // Rows point at the feeder marker and the generic probes' stamps; both
  // live outside the census object, so a move (the CLI keeps one census
  // per path in a vector) keeps every row live.
  ActivityCensus original;
  original.add_feeder("feeder");
  original.add_component("unit", [](Cycle now) { return now == 1; });
  std::vector<ActivityCensus> censuses;
  censuses.push_back(std::move(original));
  ActivityCensus& census = censuses.front();
  census.mark_feeder(0);
  census.observe(0);
  census.observe(1);

  const auto& rows = census.rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].active_cycles, 1u);  // fed at 0
  EXPECT_EQ(rows[1].active_cycles, 1u);  // probed active at 1
}

TEST(ActivityCensus, SealKeepsCountsAndExportLandsInRegistry) {
  ActivityCensus census;
  {
    // The probed component dies before the export: seal() first.
    const bool alive = true;
    census.add_component("node0.mac", [&alive](Cycle) { return alive; });
    census.observe(0);
    census.observe(1);
    census.seal();
  }
  ASSERT_EQ(census.rows().size(), 1u);
  EXPECT_EQ(census.rows()[0].active_cycles, 2u);

  MetricsRegistry registry;
  census.export_metrics(registry);
  const std::string json = registry.to_json();
  EXPECT_NE(json.find("node0.mac.active_cycles"), std::string::npos) << json;
  EXPECT_NE(json.find("node0.mac.idle_cycles"), std::string::npos) << json;

  // The table and JSON renderings carry the same counts.
  EXPECT_NE(census.to_table().find("node0.mac"), std::string::npos);
  EXPECT_NE(census.to_json().find("\"active_cycles\": 2"), std::string::npos);
}

// -------------------------------------------------------- LatencyDecomposer

TEST(LatencyDecomposer, ResidencyMatchesAnalyticDeltas) {
  LatencyDecomposer decomposer;
  // Three requests: queue_insert -> bank_access after d cycles ->
  // core_complete 5 cycles later. Residency[queue_insert] must hold
  // exactly {10, 20, 40}; residency[bank_access] exactly {5, 5, 5}.
  Tag tag = 0;
  for (const Cycle d : {10u, 20u, 40u}) {
    decomposer.on_stage(Stage::kQueueInsert, 0, tag, 100);
    decomposer.on_stage(Stage::kBankAccess, 0, tag, 100 + d);
    decomposer.on_stage(Stage::kCoreComplete, 0, tag, 100 + d + 5);
    ++tag;
  }

  EXPECT_EQ(decomposer.completed_requests(), 3u);
  EXPECT_EQ(decomposer.open_requests(), 0u);
  const Histogram& queue = decomposer.stage_residency(Stage::kQueueInsert);
  ASSERT_EQ(queue.count(), 3u);
  EXPECT_EQ(queue.quantile(0.0), 10u);  // exact min
  EXPECT_EQ(queue.quantile(1.0), 40u);  // exact max
  EXPECT_GE(queue.quantile(0.5), 10u);
  EXPECT_LE(queue.quantile(0.5), 40u);
  const Histogram& bank = decomposer.stage_residency(Stage::kBankAccess);
  ASSERT_EQ(bank.count(), 3u);
  EXPECT_EQ(bank.quantile(0.0), 5u);
  EXPECT_EQ(bank.quantile(1.0), 5u);
  // The terminal stage accrues no residency.
  EXPECT_EQ(decomposer.stage_residency(Stage::kCoreComplete).count(), 0u);

  // Critical attribution: queue_insert (>= 10 cycles) dominates every
  // request over bank_access (5 cycles).
  EXPECT_EQ(decomposer.critical_count(Stage::kQueueInsert), 3u);
  EXPECT_EQ(decomposer.critical_count(Stage::kBankAccess), 0u);
}

TEST(LatencyDecomposer, CriticalTieGoesToTheEarliestStage) {
  LatencyDecomposer decomposer;
  decomposer.on_stage(Stage::kQueueInsert, 1, 7, 0);
  decomposer.on_stage(Stage::kBankAccess, 1, 7, 8);    // residency 8
  decomposer.on_stage(Stage::kCoreComplete, 1, 7, 16);  // residency 8
  EXPECT_EQ(decomposer.critical_count(Stage::kQueueInsert), 1u);
  EXPECT_EQ(decomposer.critical_count(Stage::kBankAccess), 0u);
}

TEST(LatencyDecomposer, ForwardsEveryEventDownstream) {
  struct CountingSink final : EventSink {
    void on_stage(Stage, ThreadId, Tag, Cycle) override { ++stages; }
    void on_merge(ThreadId, Tag, ThreadId, Tag, Cycle) override { ++merges; }
    void on_hop(Hop, ThreadId, Tag, NodeId, NodeId, Cycle) override {
      ++hops;
    }
    int stages = 0;
    int merges = 0;
    int hops = 0;
  } downstream;
  LatencyDecomposer decomposer(&downstream);
  decomposer.on_stage(Stage::kCoreIssue, 0, 1, 10);
  decomposer.on_merge(0, 1, 0, 2, 11);
  decomposer.on_hop(Hop::kRequestSend, 0, 1, 0, 1, 12);
  EXPECT_EQ(downstream.stages, 1);
  EXPECT_EQ(downstream.merges, 1);
  EXPECT_EQ(downstream.hops, 1);
}

TEST(LatencyDecomposer, EmptyStreamAndZeroRequestEdgeCases) {
  LatencyDecomposer decomposer;
  EXPECT_EQ(decomposer.completed_requests(), 0u);
  EXPECT_EQ(decomposer.open_requests(), 0u);
  EXPECT_NE(decomposer.to_json().find("\"requests\""), std::string::npos);
  EXPECT_FALSE(decomposer.to_table().empty());

  // A request that never completes stays open and books no residency.
  decomposer.on_stage(Stage::kQueueInsert, 3, 9, 50);
  EXPECT_EQ(decomposer.open_requests(), 1u);
  EXPECT_EQ(decomposer.completed_requests(), 0u);
  EXPECT_EQ(decomposer.stage_residency(Stage::kQueueInsert).count(), 0u);

  ActivityCensus census;
  EXPECT_EQ(census.observed_cycles(), 0u);
  EXPECT_DOUBLE_EQ(census.dead_time_fraction(), 0.0);
  EXPECT_FALSE(census.to_table().empty());
}

// ------------------------------------------------------------- HostProfiler

TEST(HostProfiler, PhaseScopesAccumulate) {
  HostProfiler profiler;
  { HostProfiler::Scope scope(&profiler, HostPhase::kTick); }
  EXPECT_GE(profiler.phase_seconds(HostPhase::kTick), 0.0);
  { HostProfiler::Scope scope(nullptr, HostPhase::kTick); }  // no-op

  profiler.add_phase_seconds(HostPhase::kTelemetry, 1.5);
  EXPECT_DOUBLE_EQ(profiler.phase_seconds(HostPhase::kTelemetry), 1.5);

  const std::string json = profiler.to_json();
  EXPECT_NE(json.find("\"phase_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"tick\""), std::string::npos);
  EXPECT_NE(json.find("\"sampler\""), std::string::npos);
}

// -------------------------------------------- engine equivalence & inertness

TEST(ProfilerEquivalence, CensusExportsAreByteIdenticalAcrossEngines) {
  SimConfig config;
  config.nodes = 2;
  config.cores = 2;
  const MemoryTrace trace = small_trace(4, 100);

  const auto census_json = [&](bool event) {
    System system(config);
    system.attach_trace(trace);
    ActivityCensus census;
    system.attach_census(&census);
    const SystemRunSummary summary = event ? system.run_event() : system.run();
    EXPECT_TRUE(summary.completed);
    census.seal();
    return census.to_json();
  };
  EXPECT_EQ(census_json(false), census_json(true));
}

TEST(ProfilerEquivalence, SharedSuiteCensusMatchesAcrossJobCounts) {
  // A census shared by the whole suite counts in plain integers, so
  // run_suite must run one workload at a time whatever `jobs` says.
  const auto census_json = [](std::uint32_t jobs) {
    ActivityCensus census;
    SuiteOptions options;
    options.scale = 0.02;
    options.threads = 4;
    options.only = {"sg", "mg", "sparselu"};
    options.jobs = jobs;
    options.drive.census = &census;
    const std::vector<WorkloadRun> runs = run_suite(options);
    EXPECT_EQ(runs.size(), 3u);
    return census.to_json();
  };
  EXPECT_EQ(census_json(1), census_json(4));
}

TEST(ProfilerPerturbation, ProfiledRunsMatchUnprofiledRuns) {
  SimConfig config;
  const MemoryTrace trace = small_trace(4, 200);
  const DriveOptions plain;
  const DriverResult baseline = run_mac(trace, config, 4, plain);

  ActivityCensus census;
  HostProfiler profiler;
  LatencyDecomposer decomposer;
  DriveOptions profiled;
  profiled.sink = &decomposer;
  profiled.census = &census;
  profiled.profiler = &profiler;
  const DriverResult result = run_mac(trace, config, 4, profiled);

  StatSet expected;
  StatSet actual;
  baseline.collect(expected, "mac");
  result.collect(actual, "mac");
  EXPECT_EQ(expected.to_json(), actual.to_json());
#if MAC3D_OBS_ENABLED
  EXPECT_GT(census.observed_cycles(), 0u);
  EXPECT_GT(decomposer.completed_requests(), 0u);
#else
  // OFF build: the driver never touches the hooks, so the profiling
  // objects stay untouched (and simulated results above still match).
  EXPECT_EQ(census.observed_cycles(), 0u);
  EXPECT_EQ(decomposer.completed_requests(), 0u);
#endif
}

}  // namespace
}  // namespace mac3d
