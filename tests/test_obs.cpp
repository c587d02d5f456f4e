// Request-lifecycle telemetry (src/obs/, docs/OBSERVABILITY.md):
//  * every path x feed mode runs with a zero-error lifecycle audit and the
//    kept records carry monotonic, complete stamp sequences;
//  * attaching a sink does not perturb the simulation (identical results);
//  * the cycle sampler emits exactly ceil(makespan / period) rows per run
//    with a stable column set and well-formed CSV;
//  * the Chrome trace-event stream parses, every (pid, tid) track has
//    balanced B/E nesting and flow s/f events pair up;
//  * RunReport renders the stable schema with config and per-path stats.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "arch/system.hpp"
#include "common/rng.hpp"
#include "obs/lifecycle.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "obs/run_report.hpp"
#include "obs/sampler.hpp"
#include "sim/driver.hpp"
#include "trace/trace.hpp"

namespace mac3d {
namespace {

/// Mixed random stream (loads/stores/atomics, compute gaps, fences) over a
/// small row range so every lifecycle shape appears, merges included.
MemoryTrace random_trace(std::uint64_t seed, std::uint32_t threads,
                         std::uint32_t records_per_thread) {
  MemoryTrace trace(threads);
  Xoshiro256 rng(seed);
  for (std::uint32_t t = 0; t < threads; ++t) {
    const auto tid = static_cast<ThreadId>(t);
    for (std::uint32_t i = 0; i < records_per_thread; ++i) {
      if (rng.below(32) == 0) {
        trace.fence(tid);
        continue;
      }
      if (rng.below(4) == 0) trace.instr(tid, rng.below(6));
      const Address addr = rng.below(256) * 256 + rng.below(16) * 16;
      switch (rng.below(8)) {
        case 0: trace.store(tid, addr); break;
        case 1: trace.atomic(tid, addr); break;
        default: trace.load(tid, addr); break;
      }
    }
    trace.fence(tid);
  }
  return trace;
}

DriverResult run_path(const std::string& path, const MemoryTrace& trace,
                      const SimConfig& config, const DriveOptions& options) {
  if (path == "mac") return run_mac(trace, config, 4, options);
  if (path == "raw") return run_raw(trace, config, 4, options);
  return run_mshr(trace, config, 4, 32, 64, options);
}

#if MAC3D_OBS_ENABLED

TEST(Lifecycle, EveryPathAndFeedModeAuditsCleanWithCompleteRecords) {
  const MemoryTrace trace = random_trace(21, 4, 300);
  SimConfig config;
  for (const std::string path : {"mac", "raw", "mshr"}) {
    for (const FeedMode mode : {FeedMode::kStreaming, FeedMode::kClosedLoop}) {
      LifecycleTracer tracer;
      tracer.keep_records(true);
      const std::string window =
          path + (mode == FeedMode::kStreaming ? "-str" : "-cl");
      tracer.begin_path(window);
      DriveOptions options;
      options.mode = mode;
      options.sink = &tracer;
      const DriverResult result = run_path(path, trace, config, options);
      tracer.finish();

      EXPECT_EQ(tracer.monotonicity_errors(), 0u) << window;
      EXPECT_EQ(tracer.completeness_errors(), 0u) << window;
      EXPECT_EQ(tracer.abandoned_records(), 0u) << window;
      EXPECT_EQ(tracer.open_records(), 0u) << window;

      const LifecycleTracer::PathTelemetry* telemetry = tracer.path(window);
      ASSERT_NE(telemetry, nullptr) << window;
      EXPECT_EQ(telemetry->completed, result.completions) << window;
      EXPECT_EQ(telemetry->records.size(), result.completions) << window;
      EXPECT_EQ(telemetry->request_latency.count(), result.completions)
          << window;

      // Re-audit the kept records independently of the tracer's counters.
      for (const LifecycleTracer::Record& record : telemetry->records) {
        ASSERT_GE(record.stamps.size(), 4u) << window;
        EXPECT_EQ(record.stamps.front().stage, Stage::kCoreIssue) << window;
        EXPECT_EQ(record.stamps.back().stage, Stage::kCoreComplete) << window;
        bool saw_insert = false;
        bool saw_match = false;
        for (std::size_t i = 0; i < record.stamps.size(); ++i) {
          const LifecycleTracer::Stamp& stamp = record.stamps[i];
          saw_insert |= stamp.stage == Stage::kQueueInsert;
          saw_match |= stamp.stage == Stage::kResponseMatch;
          if (i == 0) continue;
          EXPECT_GE(stamp.cycle, record.stamps[i - 1].cycle) << window;
          EXPECT_GT(static_cast<int>(stamp.stage),
                    static_cast<int>(record.stamps[i - 1].stage))
              << window << " stage order";
        }
        EXPECT_TRUE(saw_insert) << window;
        EXPECT_TRUE(saw_match) << window;
      }
    }
  }
}

TEST(Lifecycle, MacWindowRecordsMergesAndDeviceStages) {
  const MemoryTrace trace = random_trace(5, 4, 400);
  SimConfig config;
  LifecycleTracer tracer;
  tracer.begin_path("mac");
  DriveOptions options;
  options.sink = &tracer;
  const DriverResult result = run_mac(trace, config, 4, options);
  tracer.finish();
  const LifecycleTracer::PathTelemetry* telemetry = tracer.path("mac");
  ASSERT_NE(telemetry, nullptr);
  // The ARQ merges on this row-local trace, and the device stamps both
  // serialization and bank access for every target it receives.
  EXPECT_GT(telemetry->merges, 0u);
  EXPECT_GT(result.raw_requests - result.packets, 0u);
  const auto idx = [](Stage s) { return static_cast<std::size_t>(s); };
  EXPECT_GT(telemetry->stage_latency[idx(Stage::kBuilderPick)].count(), 0u);
  EXPECT_GT(telemetry->stage_latency[idx(Stage::kFlitAlloc)].count(), 0u);
  EXPECT_GT(telemetry->stage_latency[idx(Stage::kLinkSerialize)].count(), 0u);
  EXPECT_GT(telemetry->stage_latency[idx(Stage::kBankAccess)].count(), 0u);
}

TEST(Lifecycle, AttachingASinkDoesNotPerturbTheSimulation) {
  const MemoryTrace trace = random_trace(9, 4, 300);
  SimConfig config;
  for (const std::string path : {"mac", "raw", "mshr"}) {
    const DriverResult bare = run_path(path, trace, config, {});
    LifecycleTracer tracer;
    tracer.begin_path(path);
    DriveOptions options;
    options.sink = &tracer;
    const DriverResult traced = run_path(path, trace, config, options);
    tracer.finish();
    EXPECT_EQ(bare.makespan, traced.makespan) << path;
    EXPECT_EQ(bare.packets, traced.packets) << path;
    EXPECT_EQ(bare.completions, traced.completions) << path;
    EXPECT_EQ(bare.data_bytes, traced.data_bytes) << path;
    EXPECT_EQ(bare.link_bytes, traced.link_bytes) << path;
    EXPECT_DOUBLE_EQ(bare.avg_latency_cycles, traced.avg_latency_cycles)
        << path;
  }
}

/// Serializes every stamp into a line log so two runs' telemetry streams
/// can be compared byte-for-byte (engine-equivalence tests below).
class RecordingSink final : public EventSink {
 public:
  void on_stage(Stage stage, ThreadId tid, Tag tag, Cycle cycle) override {
    log_ << "s " << static_cast<int>(stage) << ' ' << tid << ' ' << tag << ' '
         << cycle << '\n';
  }
  void on_merge(ThreadId tid, Tag tag, ThreadId leader_tid, Tag leader_tag,
                Cycle cycle) override {
    log_ << "m " << tid << ' ' << tag << ' ' << leader_tid << ' '
         << leader_tag << ' ' << cycle << '\n';
  }
  void on_hop(Hop hop, ThreadId tid, Tag tag, NodeId src, NodeId dest,
              Cycle cycle) override {
    log_ << "h " << static_cast<int>(hop) << ' ' << tid << ' ' << tag << ' '
         << static_cast<unsigned>(src) << ' ' << static_cast<unsigned>(dest)
         << ' ' << cycle << '\n';
  }
  [[nodiscard]] std::string str() const { return log_.str(); }

 private:
  std::ostringstream log_;
};

// The other audit tests run the default event engine; this one pins the
// strict cycle engine to the same clean audit.
TEST(Lifecycle, StrictEngineAuditsClean) {
  const MemoryTrace trace = random_trace(21, 4, 300);
  SimConfig config;
  for (const std::string path : {"mac", "raw", "mshr"}) {
    for (const FeedMode mode : {FeedMode::kStreaming, FeedMode::kClosedLoop}) {
      LifecycleTracer tracer;
      tracer.keep_records(true);
      const std::string window =
          path + (mode == FeedMode::kStreaming ? "-str-serial" : "-cl-serial");
      tracer.begin_path(window);
      DriveOptions options;
      options.mode = mode;
      options.engine = Engine::kSerial;
      options.sink = &tracer;
      const DriverResult result = run_path(path, trace, config, options);
      tracer.finish();

      EXPECT_EQ(tracer.monotonicity_errors(), 0u) << window;
      EXPECT_EQ(tracer.completeness_errors(), 0u) << window;
      EXPECT_EQ(tracer.abandoned_records(), 0u) << window;
      EXPECT_EQ(tracer.open_records(), 0u) << window;

      const LifecycleTracer::PathTelemetry* telemetry = tracer.path(window);
      ASSERT_NE(telemetry, nullptr) << window;
      EXPECT_EQ(telemetry->completed, result.completions) << window;
      EXPECT_EQ(telemetry->records.size(), result.completions) << window;
    }
  }
}

TEST(Lifecycle, EventEngineStampStreamMatchesSerialByteForByte) {
  const MemoryTrace trace = random_trace(33, 4, 250);
  SimConfig config;
  for (const std::string path : {"mac", "raw", "mshr"}) {
    RecordingSink serial_log;
    DriveOptions serial;
    serial.engine = Engine::kSerial;
    serial.sink = &serial_log;
    (void)run_path(path, trace, config, serial);

    RecordingSink event_log;
    DriveOptions event;
    event.engine = Engine::kEvent;
    event.sink = &event_log;
    (void)run_path(path, trace, config, event);

    EXPECT_EQ(serial_log.str(), event_log.str()) << path;
    EXPECT_FALSE(serial_log.str().empty()) << path;
  }
}

TEST(Lifecycle, SystemRunEventStampStreamMatchesSerial) {
  SimConfig config;
  config.nodes = 2;
  config.cores = 2;
  const MemoryTrace trace = random_trace(27, 4, 150);

  RecordingSink serial_log;
  {
    System system(config);
    system.attach_sink(&serial_log);
    system.attach_trace(trace);
    EXPECT_TRUE(system.run().completed);
  }

  RecordingSink event_log;
  {
    System system(config);
    system.attach_sink(&event_log);
    system.attach_trace(trace);
    EXPECT_TRUE(system.run_event().completed);
  }

  EXPECT_EQ(serial_log.str(), event_log.str());
  EXPECT_FALSE(serial_log.str().empty());
  // Multi-node runs route remote traffic over the fabric, so the identical
  // streams must include hop events (request/response send+recv legs).
  EXPECT_NE(serial_log.str().find("\nh "), std::string::npos);
}

TEST(Registry, CountersGaugesAndHistogramsExportSortedJson) {
  MetricsRegistry registry;
  registry.counter("node1.router.routed").add(3);
  registry.counter("node0.router.routed").add();
  registry.gauge("system.cycles").set(42.0);
  registry.histogram("node0.latency").add(7);
  EXPECT_EQ(registry.size(), 4u);
  // find-or-register: same name returns the same metric.
  registry.counter("node0.router.routed").add(4);
  EXPECT_EQ(registry.size(), 4u);
  EXPECT_EQ(registry.counter("node0.router.routed").get(), 5u);

  const std::string json = registry.to_json();
  // Dotted names sort lexicographically: node0.* before node1.* before
  // system.*, regardless of registration order.
  const std::size_t n0 = json.find("node0.latency");
  const std::size_t n0r = json.find("node0.router.routed");
  const std::size_t n1 = json.find("node1.router.routed");
  const std::size_t sys = json.find("system.cycles");
  ASSERT_NE(n0, std::string::npos);
  ASSERT_NE(sys, std::string::npos);
  EXPECT_LT(n0, n0r);
  EXPECT_LT(n0r, n1);
  EXPECT_LT(n1, sys);
  EXPECT_NE(json.find("\"node1.router.routed\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"system.cycles\": 42"), std::string::npos);
}

TEST(Registry, MergeFoldsShardsCommutatively) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.counter("x").add(10);
  b.counter("x").add(5);
  b.counter("y").add(1);
  a.histogram("h").add(3);
  b.histogram("h").add(9);

  MetricsRegistry merged;
  merged.merge(a);
  merged.merge(b);
  EXPECT_EQ(merged.counter("x").get(), 15u);
  EXPECT_EQ(merged.counter("y").get(), 1u);

  MetricsRegistry reversed;
  reversed.merge(b);
  reversed.merge(a);
  EXPECT_EQ(merged.to_json(), reversed.to_json());
}

TEST(Registry, SystemRunPopulatesPerNodeAndFabricNamespaces) {
  SimConfig config;
  config.nodes = 2;
  config.cores = 2;
  const MemoryTrace trace = random_trace(17, 4, 150);
  MetricsRegistry registry;
  System system(config);
  system.attach_metrics(&registry);
  system.attach_trace(trace);
  ASSERT_TRUE(system.run().completed);

  EXPECT_GT(registry.counter("node0.router.routed").get(), 0u);
  EXPECT_GT(registry.counter("node1.router.routed").get(), 0u);
  EXPECT_GT(registry.counter("node0.completions").get(), 0u);
  // random_trace touches a small range homed on node 0, so node 1's
  // threads send requests over link 1->0 and completions return 0->1.
  EXPECT_GT(registry.counter("fabric.link10.requests").get(), 0u);
  EXPECT_GT(registry.counter("fabric.link01.completions").get(), 0u);
  EXPECT_GT(registry.gauge("system.cycles").get(), 0.0);

  RunReport report;
  report.set_metrics(registry);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"metrics\": {"), std::string::npos);
  EXPECT_NE(json.find("\"node0.router.routed\":"), std::string::npos);
  EXPECT_NE(json.find("\"fabric.link10.requests\":"), std::string::npos);
}

TEST(Sampler, EventEngineRowsAndCsvMatchSerial) {
  const MemoryTrace trace = random_trace(3, 4, 300);
  SimConfig config;
  CycleSampler serial_sampler(64);
  CycleSampler event_sampler(64);
  for (const std::string path : {"mac", "raw", "mshr"}) {
    DriveOptions serial;
    serial.engine = Engine::kSerial;
    serial.sampler = &serial_sampler;
    const DriverResult expected = run_path(path, trace, config, serial);

    DriveOptions event;
    event.engine = Engine::kEvent;
    event.sampler = &event_sampler;
    const DriverResult actual = run_path(path, trace, config, event);

    EXPECT_EQ(expected.makespan, actual.makespan) << path;
    const std::size_t rows = (expected.makespan + 63) / 64;  // ceil
    EXPECT_EQ(serial_sampler.rows_for(path), rows) << path;
    EXPECT_EQ(event_sampler.rows_for(path), rows) << path;
  }
  EXPECT_EQ(serial_sampler.to_csv(), event_sampler.to_csv());
}

TEST(Sampler, EmitsCeilMakespanOverPeriodRowsPerRun) {
  const MemoryTrace trace = random_trace(3, 4, 300);
  SimConfig config;
  CycleSampler sampler(64);
  std::map<std::string, Cycle> makespans;
  for (const std::string path : {"mac", "raw", "mshr"}) {
    DriveOptions options;
    options.sampler = &sampler;
    makespans[path] = run_path(path, trace, config, options).makespan;
  }
  std::size_t total = 0;
  for (const auto& [path, makespan] : makespans) {
    const std::size_t expect = (makespan + 63) / 64;  // ceil
    EXPECT_EQ(sampler.rows_for(path), expect) << path;
    total += expect;
  }
  EXPECT_EQ(sampler.row_count(), total);

  // CSV: header + one line per row, every line with the same field count.
  const std::string csv = sampler.to_csv();
  std::istringstream lines(csv);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("path,cycle,", 0), 0u) << line;
  const auto fields = [](const std::string& s) {
    return static_cast<std::size_t>(std::count(s.begin(), s.end(), ',')) + 1;
  };
  const std::size_t width = fields(line);
  EXPECT_EQ(width, sampler.columns().size() + 2);
  std::size_t data_lines = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_EQ(fields(line), width) << line;
    ++data_lines;
  }
  EXPECT_EQ(data_lines, total);
}

TEST(Sampler, CsvNumbersMatchPrintfPercentTenG) {
  // to_csv renders with std::to_chars(general, 10); the CSV must stay
  // byte-identical to the printf("%.10g") rendering it replaced.
  std::vector<double> values = {0.0,    1.0,         -7.0,   42.0,
                                0.1,    1e-5,        0.5,    12345678901.0,
                                1e300,  -2.5e-300,   1.0 / 3.0, 65536.0};
  Xoshiro256 rng(20190805);
  for (int i = 0; i < 2000; ++i) {
    // Random mantissas over a wide exponent range, plus small integers
    // and fractions like the sampler's busy fractions.
    const double mantissa = static_cast<double>(rng.below(1ull << 53)) /
                            static_cast<double>(1ull << 53);
    const int exponent = static_cast<int>(rng.below(601)) - 300;
    values.push_back(std::ldexp(mantissa, exponent));
    values.push_back(static_cast<double>(rng.below(1000000)));
    values.push_back(static_cast<double>(rng.below(17)) / 16.0);
  }
  CycleSampler sampler(1);
  sampler.begin_run("t");
  sampler.add_probe("v", [&values](Cycle cycle) { return values[cycle - 1]; });
  sampler.end_run(values.size());

  std::string expected = "path,cycle,v\n";
  char buf[40];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.10g", values[i]);
    expected += "t," + std::to_string(i + 1) + "," + buf + "\n";
  }
  EXPECT_EQ(sampler.to_csv(), expected);
}

/// Minimal line-oriented scan of the tracer's Chrome JSON (one event per
/// line): extracts ph / pid / tid and checks track nesting and flow pairing.
struct TraceScan {
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::int64_t> depth;
  std::uint64_t begins = 0, ends = 0, flows_out = 0, flows_in = 0;
  std::uint64_t events = 0;
  bool well_formed = true;

  static bool field(const std::string& line, const char* key,
                    std::uint64_t& out) {
    const std::string needle = std::string("\"") + key + "\":";
    const std::size_t at = line.find(needle);
    if (at == std::string::npos) return false;
    out = std::strtoull(line.c_str() + at + needle.size(), nullptr, 10);
    return true;
  }

  void feed(const std::string& line) {
    const std::size_t at = line.find("\"ph\":\"");
    if (at == std::string::npos) return;
    ++events;
    const char ph = line[at + 6];
    std::uint64_t pid = 0, tid = 0;
    if (!field(line, "pid", pid)) well_formed = false;
    field(line, "tid", tid);
    switch (ph) {
      case 'B': ++begins; ++depth[{pid, tid}]; break;
      case 'E': ++ends; --depth[{pid, tid}]; break;
      case 's': ++flows_out; break;
      case 'f': ++flows_in; break;
      case 'M': case 'i': case 'X': break;
      default: well_formed = false; break;
    }
  }
};

TEST(Tracer, ChromeTraceStreamBalancesEveryTrackAndPairsFlows) {
  const std::string file = ::testing::TempDir() + "mac3d_obs_trace.json";
  const MemoryTrace trace = random_trace(13, 4, 300);
  SimConfig config;
  LifecycleTracer tracer;
  ASSERT_TRUE(tracer.open_trace(file));
  for (const std::string path : {"raw", "mac"}) {
    tracer.begin_path(path);
    DriveOptions options;
    options.sink = &tracer;
    (void)run_path(path, trace, config, options);
  }
  tracer.finish();
  EXPECT_GT(tracer.trace_events_written(), 0u);

  std::ifstream in(file);
  ASSERT_TRUE(in.is_open());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line.rfind("{\"displayTimeUnit\"", 0), 0u);
  TraceScan scan;
  std::string last;
  while (std::getline(in, line)) {
    scan.feed(line);
    if (!line.empty()) last = line;
  }
  EXPECT_EQ(last, "]}");
  EXPECT_TRUE(scan.well_formed);
  EXPECT_EQ(scan.begins, scan.ends);
  EXPECT_GT(scan.begins, 0u);
  for (const auto& [track, depth] : scan.depth) {
    EXPECT_EQ(depth, 0) << "pid " << track.first << " tid " << track.second;
  }
  EXPECT_EQ(scan.flows_out, scan.flows_in);  // every merge s has its f
  std::remove(file.c_str());
}

TEST(Tracer, WindowCloseSeparatesInFlightFromAbandoned) {
  LifecycleTracer tracer;
  tracer.begin_path("a");
  // Healthy-but-open: starts at an entry stage with monotone stamps, so it
  // was simply still in flight when the window closed.
  tracer.on_stage(Stage::kCoreIssue, 0, 1, 0);
  tracer.on_stage(Stage::kQueueInsert, 0, 1, 1);
  // Abandoned: no entry stamp — the record is malformed, not in flight.
  tracer.on_stage(Stage::kQueueInsert, 0, 2, 3);
  tracer.begin_path("b");  // neither request ever completed
  tracer.finish();
  EXPECT_EQ(tracer.in_flight_at_end(), 1u);
  EXPECT_EQ(tracer.abandoned_records(), 1u);
  EXPECT_EQ(tracer.completed_records(), 0u);
}

TEST(Tracer, HopEventsEmitPairedFlowArrowsOnNodeFabricTracks) {
  const std::string file = ::testing::TempDir() + "mac3d_obs_hops.json";
  SimConfig config;
  config.nodes = 2;
  config.cores = 2;
  const MemoryTrace trace = random_trace(41, 4, 200);
  LifecycleTracer tracer;
  ASSERT_TRUE(tracer.open_trace(file));
  tracer.begin_path("system");
  System system(config);
  system.attach_sink(&tracer);
  system.attach_trace(trace);
  ASSERT_TRUE(system.run().completed);
  tracer.finish();
  EXPECT_GT(tracer.hop_events(), 0u);
  // Every send leg produced exactly one recv leg.
  EXPECT_EQ(tracer.hop_events() % 2, 0u);

  std::ifstream in(file);
  ASSERT_TRUE(in.is_open());
  TraceScan scan;
  std::string line;
  bool saw_fabric_track = false;
  while (std::getline(in, line)) {
    scan.feed(line);
    if (line.find("node0.fabric") != std::string::npos ||
        line.find("node1.fabric") != std::string::npos) {
      saw_fabric_track = true;
    }
  }
  EXPECT_TRUE(scan.well_formed);
  EXPECT_EQ(scan.begins, scan.ends);
  EXPECT_EQ(scan.flows_out, scan.flows_in);
  EXPECT_GE(scan.flows_out, tracer.hop_events() / 2);
  EXPECT_TRUE(saw_fabric_track);
  std::remove(file.c_str());
}

TEST(Tracer, AuditFlagsBackwardCycleAndStageOrder)
{
  LifecycleTracer tracer;
  tracer.begin_path("bad");
  tracer.on_stage(Stage::kCoreIssue, 0, 1, 10);
  tracer.on_stage(Stage::kQueueInsert, 0, 1, 5);  // cycle ran backwards
  tracer.on_stage(Stage::kResponseMatch, 0, 1, 12);
  tracer.on_stage(Stage::kCoreComplete, 0, 1, 13);
  tracer.on_stage(Stage::kQueueInsert, 0, 2, 0);  // skips the entry stamp...
  tracer.on_stage(Stage::kCoreComplete, 0, 2, 1);  // ...and response_match
  tracer.finish();
  EXPECT_GT(tracer.monotonicity_errors(), 0u);
  EXPECT_GT(tracer.completeness_errors(), 0u);
}

#else  // MAC3D_OBS_ENABLED

TEST(Lifecycle, DisabledBuildCompilesStampsToNothing) {
  // The macros must expand to no-ops without evaluating the sink.
  LifecycleTracer* sink = nullptr;
  MAC3D_OBS_STAMP(sink, Stage::kCoreIssue, 0, 0, 0);
  MAC3D_OBS_MERGE(sink, 0, 0, 0, 0, 0);
  MAC3D_OBS_HOP(sink, Hop::kRequestSend, 0, 0, 0, 1, 0);
  MetricCounter* counter = nullptr;
  MAC3D_OBS_COUNT(counter);
  MAC3D_OBS_COUNT_N(counter, 7);
  SUCCEED();
}

#endif  // MAC3D_OBS_ENABLED

TEST(RunReportJson, RendersSchemaConfigAndPerPathSections) {
  RunReport report;
  report.set_string("workload", "sg");
  report.set_number("threads", 4);
  report.set_bool("checks", true);
  SimConfig config;
  report.set_config(config);
  StatSet stats;
  stats.set("mac.packets", 128);
  report.set_path_stats("mac", stats);
  Histogram latency;
  for (std::uint64_t v : {3, 5, 9, 17, 900}) latency.add(v);
  report.set_path_request_latency("mac", latency);
  report.add_path_stage("mac", "bank_access", latency);

  const std::string json = report.to_json();
  EXPECT_EQ(json.rfind("{\n  \"schema\": \"mac3d-run-report/4\"", 0), 0u)
      << json;
  EXPECT_NE(json.find("\"workload\": \"sg\""), std::string::npos);
  EXPECT_NE(json.find("\"threads\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"checks\": true"), std::string::npos);
  EXPECT_NE(json.find("\"config\": {"), std::string::npos);
  EXPECT_NE(json.find("\"row_bytes\":256"), std::string::npos);
  EXPECT_NE(json.find("\"paths\": {"), std::string::npos);
  EXPECT_NE(json.find("\"mac\": {"), std::string::npos);
  EXPECT_NE(json.find("\"mac.packets\":128"), std::string::npos);
  EXPECT_NE(json.find("\"request_latency\": {\"count\":5"), std::string::npos);
  EXPECT_NE(json.find("\"bank_access\": {\"count\":5"), std::string::npos);
  // Quantiles: min/max exact, p50 resolves within [min, max].
  EXPECT_NE(json.find("\"min\":3"), std::string::npos);
  EXPECT_NE(json.find("\"max\":900"), std::string::npos);
  // Balanced braces/brackets => structurally sound JSON.
  std::int64_t braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(RunReportJson, WriteProducesTheSameBytesAsToJson) {
  const std::string file = ::testing::TempDir() + "mac3d_obs_report.json";
  RunReport report;
  report.set_string("workload", "unit");
  ASSERT_TRUE(report.write(file));
  std::ifstream in(file);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), report.to_json());
  std::remove(file.c_str());
}

TEST(StageNames, CoverAllTenStagesInPipelineOrder) {
  ASSERT_EQ(kStageCount, 10u);
  const char* expected[] = {"core_issue",     "router_enqueue",
                            "queue_insert",   "merge",
                            "builder_pick",   "flit_alloc",
                            "link_serialize", "bank_access",
                            "response_match", "core_complete"};
  for (std::size_t i = 0; i < kStageCount; ++i) {
    EXPECT_EQ(to_string(static_cast<Stage>(i)), expected[i]);
  }
}

}  // namespace
}  // namespace mac3d
