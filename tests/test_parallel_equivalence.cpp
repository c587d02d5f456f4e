// Differential equivalence suite for the two engines (docs/PARALLELISM.md):
// the event-driven fast-forward engine (Engine::kEvent) must be
// bit-identical to the strict cycle engine (Engine::kSerial): same StatSets
// (compared as full-precision JSON), same run reports, same invariant-check
// counters, same idle-census exports — for every policy and feed mode.
// System::run_event must likewise match System::run. A randomized-config
// fuzz loop widens the net beyond the hand-picked grid. Run-level
// parallelism (SuiteOptions::jobs) must not change any result either.
// Both engines changing alike would pass all of that, so a golden file
// (tests/golden/engine_fingerprints.txt) also pins one hash per policy x
// feed x engine run and per System engine run to recorded outputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "arch/system.hpp"
#include "check/check.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/run_report.hpp"
#include "obs/sampler.hpp"
#include "obs/snapshot.hpp"
#include "recording_sink.hpp"
#include "sim/driver.hpp"
#include "sim/experiment.hpp"
#include "trace/trace.hpp"

namespace mac3d {
namespace {

/// Synthetic trace with tunable row locality (the test_properties.cpp
/// generator): sequential stream with probability `locality`, random row
/// jumps otherwise, with a fence/store/atomic sprinkle so every request
/// kind crosses the engine boundary.
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

/// Inputs shaped to stress every path's shared bookkeeping (accept map,
/// fence retirement, drain splitting) rather than to look like a workload.
enum class Shape {
  kLocality,     ///< locality_trace(0.6, 8, 300, 17): the default grid
  kOneBlock,     ///< every request hits one 64 B block
  kDenseFences,  ///< a fence every 2-3 records
  kTagPoolOne,   ///< locality traffic, streaming feed with one tag per thread
  kBankConflict,  ///< every request a different row of one bank
  kZipfHotRow,    ///< rows drawn Zipf(1.2) from 256: one row takes ~25%
};

/// Row of a kZipfHotRow request: inverse CDF over ranks 1..256 with
/// P(rank) ~ rank^-1.2, the hottest row first.
std::uint64_t zipf_row(Xoshiro256& rng) {
  static const std::vector<double> cdf = [] {
    std::vector<double> out;
    double sum = 0.0;
    for (int rank = 1; rank <= 256; ++rank) {
      sum += std::pow(rank, -1.2);
      out.push_back(sum);
    }
    for (double& p : out) p /= sum;
    return out;
  }();
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), rng.uniform());
  return static_cast<std::uint64_t>(
      std::min<std::ptrdiff_t>(it - cdf.begin(), 255));
}

/// 8 threads x 150 records of one adversarial shape's traffic.
MemoryTrace adversarial_trace(Shape shape, std::uint64_t seed) {
  const SimConfig config;
  // Rows `bank_stride` apart share vault and bank (address_map.hpp).
  const std::uint64_t bank_stride =
      std::uint64_t{config.vaults} * config.banks_per_vault;
  MemoryTrace trace(8);
  Xoshiro256 rng(seed);
  for (std::uint32_t t = 0; t < 8; ++t) {
    const auto tid = static_cast<ThreadId>(t);
    std::uint64_t until_fence = 2 + rng.below(2);
    for (std::uint32_t i = 0; i < 150; ++i) {
      trace.instr(tid, rng.below(3));
      if (shape == Shape::kDenseFences && --until_fence == 0) {
        trace.fence(tid);
        until_fence = 2 + rng.below(2);
        continue;
      }
      const Address flit = rng.below(config.row_bytes / 16) * 16;
      Address addr = 0;
      switch (shape) {
        case Shape::kOneBlock: addr = 0x4000 + rng.below(4) * 16; break;
        case Shape::kBankConflict:
          addr = rng.below(4096) * bank_stride * config.row_bytes + flit;
          break;
        case Shape::kZipfHotRow:
          addr = zipf_row(rng) * config.row_bytes + flit;
          break;
        default: addr = rng.below(64) * 256 + rng.below(16) * 16; break;
      }
      switch (rng.below(8)) {
        case 0: trace.store(tid, addr); break;
        case 1: trace.atomic(tid, addr); break;
        default: trace.load(tid, addr); break;
      }
    }
  }
  return trace;
}

CoalescerPolicy policy_of(const std::string& path) {
  CoalescerPolicy policy = CoalescerPolicy::kMac;
  EXPECT_TRUE(parse_policy(path, policy)) << path;
  return policy;
}

/// Run one path under the given options and render everything comparable
/// about the run into one string: the full StatSet, the check counters,
/// the idle-census export, the sampler CSV, the snapshot JSONL and the
/// lifecycle stamp stream. String equality == bit identity
/// (StatSet::to_json prints doubles at full round-trip precision).
/// `out`, when given, receives the run's DriverResult.
std::string run_fingerprint(const std::string& path, const MemoryTrace& trace,
                            const SimConfig& config, std::uint32_t threads,
                            DriveOptions options,
                            DriverResult* out = nullptr) {
  CheckContext checks(CheckContext::FailMode::kCount);
  ActivityCensus census;
  CycleSampler sampler(64);
  SnapshotStreamer snapshot(256);
  RecordingSink stamps;
  options.checks = &checks;
  options.census = &census;
  options.sampler = &sampler;
  options.snapshot = &snapshot;
  options.sink = &stamps;
  const DriverResult result =
      run_policy(policy_of(path), trace, config, threads, options);
  StatSet stats;
  result.collect(stats, path);
  stats.set("checks.run", static_cast<double>(result.checks_run));
  stats.set("checks.violations", static_cast<double>(result.check_violations));
  if (out != nullptr) *out = result;
  census.seal();
  return stats.to_json() + "\n" + census.to_json() + "\n" + sampler.to_csv() +
         snapshot.str() + stamps.str();
}

/// System::run (serial) or run_event at 4 nodes with every telemetry
/// surface attached, rendered like run_fingerprint plus the metrics
/// registry, the summary and the visited-cycle count (engine-specific:
/// it pins the event engine's skipping too). `node_policies` (the
/// SimConfig field) mixes policies across nodes, so every path's own
/// collect() output lands in the summary stats.
std::string system_fingerprint(bool event,
                               const std::string& node_policies = "") {
  SimConfig config;
  config.nodes = 4;
  config.cores = 2;
  config.node_policies = node_policies;
  const MemoryTrace trace = locality_trace(0.5, 8, 200, 61);
  System system(config);
  CheckContext checks(CheckContext::FailMode::kCount);
  MetricsRegistry registry;
  ActivityCensus census;
  CycleSampler sampler(64);
  SnapshotStreamer snapshot(256);
  RecordingSink stamps;
  HostProfiler profiler;  // host time only: never part of the fingerprint
  system.attach_checks(&checks);
  system.attach_sink(&stamps);
  system.attach_metrics(&registry);
  system.attach_census(&census);
  system.attach_sampler(&sampler);
  system.attach_snapshot(&snapshot);
  system.attach_profiler(&profiler);
  system.attach_trace(trace);
  const SystemRunSummary summary = event ? system.run_event() : system.run();
  checks.finalize();
  census.seal();
  std::ostringstream out;
  out << summary.cycles << ' ' << summary.completed << ' '
      << summary.requests << ' ' << summary.completions << ' '
      << summary.visited_cycles << ' ' << checks.checks_run() << ' '
      << checks.violations() << '\n'
      << summary.stats.to_json() << '\n'
      << registry.to_json() << '\n'
      << census.to_json() << '\n'
      << sampler.to_csv() << snapshot.str() << stamps.str();
  return out.str();
}

/// FNV-1a 64: a stable, platform-independent hash for the golden file.
std::string fnv1a_hex(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  std::ostringstream out;
  out << std::hex;
  out.width(16);
  out.fill('0');
  out << hash;
  return out.str();
}

struct GridCase {
  const char* path;
  FeedMode mode;
  Shape shape = Shape::kLocality;
  std::uint64_t seed = 17;
};

const char* mode_name(FeedMode mode) {
  switch (mode) {
    case FeedMode::kStreaming: return "_streaming_";
    case FeedMode::kClosedLoop: return "_closedloop_";
    case FeedMode::kLaneGroup: return "_lanegroup_";
  }
  return "_unknown_";
}

std::string case_name(const ::testing::TestParamInfo<GridCase>& info) {
  const GridCase& c = info.param;
  const char* shapes[] = {"",           "one_block_",     "dense_fences_",
                          "tag_pool_1_", "bank_conflict_", "zipf_hot_row_"};
  const std::string seed =
      c.shape == Shape::kLocality ? "" : "seed" + std::to_string(c.seed) + "_";
  return std::string(c.path) + mode_name(c.mode) +
         shapes[static_cast<int>(c.shape)] + seed + "event";
}

// ------------------------- policies x feed modes, strict vs event engine
class EngineGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(EngineGrid, EngineMatchesSerialBitForBit) {
  const GridCase& c = GetParam();
  SimConfig config;
  const MemoryTrace trace = c.shape == Shape::kLocality ||
                                    c.shape == Shape::kTagPoolOne
                                ? locality_trace(0.6, 8, 300, c.seed)
                                : adversarial_trace(c.shape, c.seed);

  DriveOptions serial;
  serial.mode = c.mode;
  serial.engine = Engine::kSerial;
  serial.tag_pool = c.shape == Shape::kTagPoolOne ? 1 : 0;
  DriverResult strict;
  const std::string expected =
      run_fingerprint(c.path, trace, config, 8, serial, &strict);

  DriveOptions event = serial;
  event.engine = Engine::kEvent;
  DriverResult jumped;
  const std::string actual =
      run_fingerprint(c.path, trace, config, 8, event, &jumped);

  EXPECT_EQ(expected, actual);
  EXPECT_GT(strict.checks_run, 0u);
  EXPECT_EQ(strict.check_violations, 0u);
  EXPECT_EQ(jumped.check_violations, 0u);
}

std::vector<GridCase> grid_cases() {
  std::vector<GridCase> cases;
  for (const char* path : {"mac", "raw", "mshr", "warp"}) {
    // The SIMT lockstep feed (a warp scheduler's issue pattern) must be
    // engine-invariant for every policy, not just the warp coalescer.
    for (const FeedMode mode : {FeedMode::kStreaming, FeedMode::kClosedLoop,
                                FeedMode::kLaneGroup}) {
      cases.push_back({path, mode});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllPathsModes, EngineGrid,
                         ::testing::ValuesIn(grid_cases()), case_name);

/// Adversarial traffic through every policy on the streaming feed (the
/// only one that honours tag_pool), two seeds per shape.
std::vector<GridCase> adversarial_cases() {
  std::vector<GridCase> cases;
  for (const char* path : {"mac", "raw", "mshr", "warp"}) {
    for (const Shape shape :
         {Shape::kOneBlock, Shape::kDenseFences, Shape::kTagPoolOne,
          Shape::kBankConflict, Shape::kZipfHotRow}) {
      for (const std::uint64_t seed : {3ull, 11ull}) {
        cases.push_back({path, FeedMode::kStreaming, shape, seed});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Adversarial, EngineGrid,
                         ::testing::ValuesIn(adversarial_cases()), case_name);

// ----------------------------------------------------- run-report parity
TEST(ReportEquivalence, SerialAndEventReportsRenderIdentically) {
  SimConfig config;
  const MemoryTrace trace = locality_trace(0.5, 8, 250, 29);

  const auto render = [&](Engine engine) {
    DriveOptions options;
    options.engine = engine;
    RunReport report;
    report.set_config(config);
    for (const char* path : {"raw", "mac", "mshr", "warp"}) {
      const DriverResult result =
          run_policy(policy_of(path), trace, config, 8, options);
      StatSet stats;
      result.collect(stats, path);
      report.set_path_stats(path, stats);
    }
    return report.to_json();
  };

  // The report deliberately carries no engine marker (apps/mac3d_cli.cpp),
  // so reports of the same run under any engine are the same bytes — the
  // CI equivalence jobs diff them as artifacts.
  EXPECT_EQ(render(Engine::kSerial), render(Engine::kEvent));
}

// ---------------------------------- closed-loop System engine equivalence
TEST(SystemEquivalence, RunEventMatchesRunAndSkipsCycles) {
  SimConfig config;
  config.nodes = 2;
  config.cores = 2;
  const MemoryTrace trace = locality_trace(0.5, 8, 200, 41);

  System reference(config);
  reference.attach_trace(trace);
  const SystemRunSummary expected = reference.run();
  ASSERT_TRUE(expected.completed);
  // The strict engine visits every cycle by definition.
  EXPECT_EQ(expected.visited_cycles, expected.cycles);

  System system(config);
  system.attach_trace(trace);
  const SystemRunSummary actual = system.run_event();
  EXPECT_TRUE(actual.completed);
  EXPECT_EQ(expected.cycles, actual.cycles);
  EXPECT_EQ(expected.requests, actual.requests);
  EXPECT_EQ(expected.completions, actual.completions);
  EXPECT_EQ(expected.stats.to_json(), actual.stats.to_json());
  // The whole point of the engine: it must have jumped over dead spans.
  EXPECT_LT(actual.visited_cycles, actual.cycles);
  EXPECT_GT(actual.visited_cycles, 0u);
}

TEST(SystemEquivalence, CensusAndMetricsMatchAcrossBothSystemEngines) {
  SimConfig config;
  config.nodes = 2;
  config.cores = 2;
  const MemoryTrace trace = locality_trace(0.5, 8, 150, 59);

  const auto fingerprint = [&](bool event) {
    System system(config);
    MetricsRegistry registry;
    ActivityCensus census;
    system.attach_metrics(&registry);
    system.attach_census(&census);
    system.attach_trace(trace);
    const SystemRunSummary summary = event ? system.run_event() : system.run();
    EXPECT_TRUE(summary.completed);
    census.seal();
    return census.to_json() + "\n" + registry.to_json();
  };

  const std::string reference = fingerprint(false);
  EXPECT_EQ(reference, fingerprint(true));
  // The fabric is a census row of its own.
  EXPECT_NE(reference.find("\"fabric\""), std::string::npos);
}

TEST(SystemEquivalence, MetricsRegistryExportsAreByteIdentical) {
  SimConfig config;
  config.nodes = 4;
  config.cores = 2;
  const MemoryTrace trace = locality_trace(0.5, 8, 200, 61);

  const auto export_metrics = [&](bool event) {
    System system(config);
    MetricsRegistry registry;
    system.attach_metrics(&registry);
    system.attach_trace(trace);
    const SystemRunSummary summary = event ? system.run_event() : system.run();
    EXPECT_TRUE(summary.completed);
    return registry.to_json();
  };

  const std::string serial = export_metrics(false);
  EXPECT_EQ(serial, export_metrics(true));
  // Non-trivial export: per-node and fabric namespaces are populated.
  EXPECT_NE(serial.find("node3.router.routed"), std::string::npos);
  EXPECT_NE(serial.find("fabric.link01.requests"), std::string::npos);
  EXPECT_NE(serial.find("system.cycles"), std::string::npos);
}

TEST(SystemEquivalence, SingleNodeNeedsNoFabricAndStillMatches) {
  SimConfig config;  // nodes = 1: no fabric
  const MemoryTrace trace = locality_trace(0.7, 4, 200, 43);

  System reference(config);
  reference.attach_trace(trace);
  const SystemRunSummary expected = reference.run();

  System system(config);
  system.attach_trace(trace);
  const SystemRunSummary actual = system.run_event();
  EXPECT_EQ(expected.stats.to_json(), actual.stats.to_json());
}

TEST(SystemEquivalence, ZeroHopFabricIsRejectedByEveryEngine) {
  // A zero-hop delivery would depend on node tick order, so both engines
  // must refuse it identically.
  SimConfig config;
  config.nodes = 2;
  config.remote_hop_cycles = 0;
  const MemoryTrace trace = locality_trace(0.5, 4, 50, 47);
  {
    System system(config);
    system.attach_trace(trace);
    EXPECT_THROW(system.run(), std::invalid_argument) << "run";
  }
  {
    System system(config);
    system.attach_trace(trace);
    EXPECT_THROW(system.run_event(), std::invalid_argument) << "run_event";
  }
  // A single node never crosses the fabric, so zero hops stays legal there.
  SimConfig single = config;
  single.nodes = 1;
  System system(single);
  system.attach_trace(trace);  // attach_trace keeps a reference
  EXPECT_TRUE(system.run().completed);
}

TEST(SystemEquivalence, ChecksMatchUnderBothEngines) {
  SimConfig config;
  config.nodes = 2;
  const MemoryTrace trace = locality_trace(0.6, 8, 150, 53);

  const auto counters = [&](bool event) {
    System system(config);
    system.attach_trace(trace);
    CheckContext checks(CheckContext::FailMode::kCount);
    system.attach_checks(&checks);
    const SystemRunSummary summary = event ? system.run_event() : system.run();
    EXPECT_TRUE(summary.completed);
    checks.finalize();
    return std::pair<std::uint64_t, std::uint64_t>(checks.checks_run(),
                                                   checks.violations());
  };

  const auto serial = counters(false);
  const auto event = counters(true);
  EXPECT_GT(serial.first, 0u);
  EXPECT_EQ(serial.first, event.first);
  EXPECT_EQ(serial.second, event.second);
  EXPECT_EQ(event.second, 0u);
}

// ------------------------------------------------- run-level parallelism
TEST(RunLevelJobs, SuiteResultsMatchAcrossJobCounts) {
  const auto render = [](std::uint32_t jobs) {
    SuiteOptions options;
    options.scale = 0.02;
    options.threads = 4;
    options.only = {"sg", "mg", "sparselu"};
    options.jobs = jobs;
    StatSet stats;
    for (const WorkloadRun& run : run_suite(options)) {
      run.raw.collect(stats, run.name + ".raw");
      run.mac.collect(stats, run.name + ".mac");
    }
    return stats.to_json();
  };
  EXPECT_EQ(render(1), render(4));
}

// --------------------------------------------------- randomized-config fuzz
// Random geometry / timing / feeder knobs, random trace shape: the strict
// and event engines must agree bit-for-bit on every path every time. Seeds
// are fixed so failures replay deterministically.
class EquivalenceFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EquivalenceFuzz, RandomConfigsStayBitIdentical) {
  Xoshiro256 rng(GetParam());
  SimConfig config;
  const std::uint32_t vault_choices[] = {8, 16, 32, 64};
  const std::uint32_t link_choices[] = {2, 4, 8};
  config.vaults = vault_choices[rng.below(4)];
  config.hmc_links = link_choices[rng.below(3)];
  if (config.hmc_links > config.vaults) config.hmc_links = config.vaults;
  config.arq_entries = 4u << rng.below(5);       // 4 .. 64
  config.builder_min_bytes = 16u << rng.below(3);  // 16 / 32 / 64
  config.open_page = rng.below(2) == 0;
  config.warp_lanes = 2u << rng.below(4);  // 2 .. 16
  config.warp_window_cycles =
      1u + static_cast<std::uint32_t>(rng.below(12));  // 1 .. 12
  config.validate();

  const std::uint32_t threads = 1u + static_cast<std::uint32_t>(rng.below(8));
  const double locality = 0.25 * static_cast<double>(rng.below(5));
  const MemoryTrace trace = locality_trace(
      locality, threads, 120 + static_cast<std::uint32_t>(rng.below(120)),
      GetParam() * 977 + 3);

  DriveOptions serial;
  serial.engine = Engine::kSerial;
  const FeedMode modes[] = {FeedMode::kStreaming, FeedMode::kClosedLoop,
                            FeedMode::kLaneGroup};
  serial.mode = modes[rng.below(3)];
  serial.tag_pool = serial.mode == FeedMode::kStreaming
                        ? static_cast<std::uint32_t>(rng.below(3)) * 8
                        : 0;  // 0 (full space), 8 or 16 outstanding tags
  DriveOptions event = serial;
  event.engine = Engine::kEvent;

  for (const char* path : {"mac", "raw", "mshr", "warp"}) {
    EXPECT_EQ(run_fingerprint(path, trace, config, threads, serial),
              run_fingerprint(path, trace, config, threads, event))
        << path << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceFuzz,
                         ::testing::Values(1ull, 2ull, 3ull, 5ull, 8ull, 13ull,
                                           21ull, 34ull, 55ull, 89ull));

// ------------------------------------------- outputs pinned to a golden file
// One FNV-1a hash per run fingerprint: 4 policies x 3 feeds x 2 engines
// over the EngineGrid trace, plus System::run / run_event at 4 nodes, once
// all-MAC and once with nodes 1-3 on raw, mshr and warp. A
// change that alters an output under both engines alike passes every
// strict-vs-event test above but fails here. The fingerprints include
// telemetry compiled out under -DMAC3D_OBS=OFF, so that build has no
// golden to compare against.
TEST(GoldenFingerprints, MatchRecordedHashes) {
  if (!MAC3D_OBS_ENABLED) {
    GTEST_SKIP() << "golden hashes cover telemetry; MAC3D_OBS is OFF";
  }
  std::map<std::string, std::string> expected;
  std::ifstream file(MAC3D_GOLDEN_FILE);
  ASSERT_TRUE(file.good()) << MAC3D_GOLDEN_FILE;
  for (std::string line; std::getline(file, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::string hash;
    fields >> name >> hash;
    expected[name] = hash;
  }

  std::map<std::string, std::string> actual;
  SimConfig config;
  const MemoryTrace trace = locality_trace(0.6, 8, 300, 17);
  for (const GridCase& c : grid_cases()) {
    for (const Engine engine : {Engine::kSerial, Engine::kEvent}) {
      DriveOptions options;
      options.mode = c.mode;
      options.engine = engine;
      const std::string name = std::string(c.path) + mode_name(c.mode) +
                               (engine == Engine::kSerial ? "serial" : "event");
      actual[name] =
          fnv1a_hex(run_fingerprint(c.path, trace, config, 8, options));
    }
  }
  actual["system_serial"] = fnv1a_hex(system_fingerprint(false));
  actual["system_event"] = fnv1a_hex(system_fingerprint(true));
  const std::string mixed = "1:raw;2:mshr;3:warp";
  actual["system_mixed_serial"] = fnv1a_hex(system_fingerprint(false, mixed));
  actual["system_mixed_event"] = fnv1a_hex(system_fingerprint(true, mixed));

  std::string listing;
  for (const auto& [name, hash] : actual) listing += name + " " + hash + "\n";
  EXPECT_EQ(expected, actual) << "recomputed hashes:\n" << listing;
}

}  // namespace
}  // namespace mac3d
