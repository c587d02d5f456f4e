#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <utility>

#include "cache/mshr.hpp"
#include "mac/arq.hpp"
#include "mac/coalescer.hpp"
#include "mac/warp_coalescer.hpp"
#include "mem/address_map.hpp"
#include "mem/hmc_device.hpp"
#include "obs/lifecycle.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "sim/experiment.hpp"
#include "telemetry.hpp"

namespace perfbench {

using mac3d::Cycle;
using mac3d::DriveOptions;
using mac3d::DriverResult;
using mac3d::MemoryTrace;
using mac3d::RawRequest;
using mac3d::SimConfig;

namespace {

// Inputs of the unit-cost and ledger measurements: the sg trace, whose
// request stream every policy and every System workload shares.
constexpr std::uint32_t kStreamThreads = StreamPolicies::kThreads;
constexpr double kUnitScale = 0.05;    // sg request stream for unit costs
constexpr double kLedgerScale = 0.01;  // per-surface ledger runs
constexpr std::uint32_t kLedgerNodes = NumaTelemetry::kNodes;
constexpr std::uint32_t kSystemThreads = NumaTelemetry::kThreads;
constexpr std::uint32_t kNuma16Nodes = 16;
constexpr double kNuma16Scale = 0.1;
constexpr int kRepeats = 3;  // median-of for every unit cost and ratio
constexpr std::uint64_t kHookCalls = 200'000;
// ROADMAP item 4 target bounds, printed for information only.
constexpr double kCheapSurfaceBound = 1.3;
constexpr double kProfileBound = 2.0;

struct Layer {
  MetricSink& sink;
  Accounting& accounting;
};

/// Median of `repeats` timings of `body`, seconds.
double median_seconds(int repeats, const std::function<void()>& body) {
  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) {
    const double start = host_seconds();
    body();
    samples.push_back(host_seconds() - start);
  }
  return median(samples);
}

/// The raw request stream the streaming driver would present, in order.
std::vector<RawRequest> request_stream(const MemoryTrace& trace,
                                       std::uint32_t threads,
                                       const SimConfig& config) {
  mac3d::InterleavedStream stream(trace, threads, config.cores);
  std::vector<RawRequest> out;
  out.reserve(stream.remaining());
  while (!stream.done()) out.push_back(stream.next());
  return out;
}

std::string ratio_note(double numerator, double denominator,
                       const char* what) {
  char note[128];
  std::snprintf(note, sizeof note, "%s: %.4g s / bare %.4g s", what,
                numerator, denominator);
  return note;
}

// ---- workloads -----------------------------------------------------------

template <typename Workload>
void measure_generation(Workload& workload, const LayerOptions& options,
                        Layer& layer) {
  std::vector<double> generate;
  double total = 0.0;
  while (generate.size() < kRepeats ||
         (total < 0.3 && generate.size() < 64)) {
    SpanRecorder spans;
    workload.setup(options.seed, &spans);
    generate.push_back(spans.total_seconds("workloads.generate"));
    total += generate.back();
  }
  const double gen_s = median(generate);
  layer.sink.add("workloads.gen_s", gen_s, "s",
                 "host; trace generation, median of " +
                     std::to_string(generate.size()));
  layer.sink.add("workloads.records_per_s",
                 static_cast<double>(workload.records()) / gen_s, "rec/s",
                 std::to_string(workload.records()) + " records / gen_s");
}

// ---- sim: run_policy and run_suite ----------------------------------------

std::string policy_metric(std::size_t p) {
  return "sim.ns_per_req." + std::string(mac3d::to_string(kPolicies[p]));
}

/// Host ns per raw request of each policy, from the spans of the traced
/// stream-policies sweeps.
void measure_policies(const SpanRecorder& spans,
                      const std::vector<PassResult>& traced, Layer& layer) {
  double requests = 0.0;  // per policy: every policy sees every request
  for (const PassResult& pass : traced) {
    requests += static_cast<double>(pass.raw_requests) /
                static_cast<double>(kPolicies.size());
  }
  for (std::size_t p = 0; p < kPolicies.size(); ++p) {
    layer.sink.add(policy_metric(p),
                   1e9 * spans.total_seconds(kPolicySpans[p]) / requests,
                   "ns", "host; traced sweeps, 12 traces");
  }
}

/// Host ns per raw request of each policy on the sg stream.
void measure_policies(const MemoryTrace& reference, const SimConfig& config,
                      Layer& layer) {
  for (std::size_t p = 0; p < kPolicies.size(); ++p) {
    std::uint64_t fed = 0;
    const double seconds = median_seconds(kRepeats, [&] {
      fed = mac3d::run_policy(kPolicies[p], reference, config, kStreamThreads)
                .raw_requests;
    });
    layer.sink.add(policy_metric(p), 1e9 * seconds / static_cast<double>(fed),
                   "ns", "host; sg stream, median of 3");
  }
}

/// run_suite at jobs=1 and jobs=4 on the stream-policies inputs. Both
/// must agree call for call, and with `sweep` (a stream-policies pass of
/// the same seed) when it is given.
void measure_jobs(const LayerOptions& options, const PassResult* sweep,
                  Layer& layer) {
  mac3d::SuiteOptions suite;
  suite.config = bench_config(1);
  suite.scale = StreamPolicies::kScale;
  suite.seed = options.seed;
  suite.run_mshr = true;
  suite.run_warp = true;
  std::vector<mac3d::WorkloadRun> runs[2];
  double seconds[2] = {};
  const std::uint32_t jobs[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    suite.jobs = jobs[i];
    const double start = host_seconds();
    runs[i] = mac3d::run_suite(suite);
    seconds[i] = host_seconds() - start;
  }
  std::size_t index = 0;
  for (std::size_t w = 0; w < runs[0].size(); ++w) {
    for (const mac3d::CoalescerPolicy policy : kPolicies) {
      const std::string label =
          runs[0][w].name + "/" + std::string(mac3d::to_string(policy));
      const std::string a =
          check_driver_call(label, runs[0][w].result(policy), 0, 0).digest;
      const std::string b =
          check_driver_call(label, runs[1][w].result(policy), 0, 0).digest;
      if (a != b) layer.accounting.fail(label + ": run_suite jobs=4 differs");
      if (sweep != nullptr && index < sweep->calls.size() &&
          sweep->calls[index].digest != a) {
        layer.accounting.fail(label + ": run_suite differs from run_policy");
      }
      ++index;
    }
  }
  layer.sink.add("sim.jobs4_speedup", seconds[0] / seconds[1], "x",
                 ratio_note(seconds[0], seconds[1], "run_suite jobs=1") +
                     " jobs=4 (informational)");
}

// ---- mac, cache, mem unit costs -------------------------------------------

void measure_arq(const std::vector<RawRequest>& requests,
                 const SimConfig& config, Layer& layer) {
  const mac3d::AddressMap map(config);
  std::uint64_t inserts = 0;
  const double seconds = median_seconds(kRepeats, [&] {
    mac3d::Arq arq(config, map);
    Cycle now = 0;
    inserts = 0;
    for (const RawRequest& request : requests) {
      // A full ARQ pops its head (the builder's one pop per cycle) and
      // the request is presented again.
      while (arq.insert(request, now) == mac3d::Arq::InsertResult::kRejected &&
             !arq.empty()) {
        (void)arq.pop();
        ++inserts;
      }
      ++inserts;
      ++now;
    }
  });
  layer.sink.add("mac.arq_insert_ns", 1e9 * seconds / static_cast<double>(inserts),
                 "ns", "host; Arq::insert on the sg stream, median of 3");
}

/// Cycles to push `requests` through a coalescer front-end (one intake
/// attempt per cycle, tick, drain) until it is idle again. Fails the
/// call when completions do not match requests.
template <typename Path>
Cycle drive_path(Path& path, const std::vector<RawRequest>& requests,
                 Layer& layer, const char* label) {
  std::size_t next = 0;
  std::uint64_t completions = 0;
  Cycle now = 0;
  const Cycle limit = 400 * static_cast<Cycle>(requests.size()) + 100'000;
  while ((next < requests.size() || !path.idle()) && now < limit) {
    if (next < requests.size() && path.try_accept(requests[next], now)) {
      ++next;
    }
    path.tick(now);
    completions += path.drain(now).size();
    ++now;
  }
  if (completions != requests.size()) {
    layer.accounting.fail(std::string(label) + ": " +
                          std::to_string(completions) + " completions for " +
                          std::to_string(requests.size()) + " requests");
  }
  return now;
}

template <typename Path, typename... Args>
void measure_path_cycle(const char* name, const char* label,
                        const std::vector<RawRequest>& requests,
                        const SimConfig& config, Layer& layer,
                        Args... args) {
  Cycle cycles = 0;
  const double seconds = median_seconds(kRepeats, [&] {
    mac3d::HmcDevice device(config);
    Path path(config, device, args...);
    cycles = drive_path(path, requests, layer, label);
  });
  layer.sink.add(name, 1e9 * seconds / static_cast<double>(cycles), "ns",
                 std::string("host; ") + label +
                     " try_accept+tick+drain per cycle, " +
                     std::to_string(cycles) + " cycles");
}

/// Host-clock read cost, subtracted from per-call timings: the fastest
/// of a few batches, since interference only ever adds time.
double clock_overhead() {
  constexpr int kReads = 20'000;
  double best = 1.0;
  for (int batch = 0; batch < 5; ++batch) {
    const double start = host_seconds();
    for (int i = 0; i < kReads; ++i) (void)host_seconds();
    best = std::min(best, (host_seconds() - start) / kReads);
  }
  return best;
}

void measure_device(const std::vector<RawRequest>& requests,
                    const SimConfig& config, Layer& layer) {
  const double overhead = clock_overhead();
  std::vector<double> submit_ns;
  std::vector<double> drain_ns;
  for (int r = 0; r < kRepeats; ++r) {
    mac3d::HmcDevice device(config);
    double submit_s = 0.0;
    double drain_s = 0.0;
    std::uint64_t submits = 0;
    std::uint64_t drains = 0;
    std::uint64_t responses = 0;
    Cycle now = 0;
    std::size_t next = 0;
    mac3d::TransactionId id = 1;
    while (next < requests.size() || !device.idle()) {
      // One 16 B transaction per raw request: the raw path's packets.
      while (next < requests.size() &&
             requests[next].op == mac3d::MemOp::kFence) {
        ++next;
      }
      if (next < requests.size()) {
        mac3d::HmcRequest packet;
        packet.id = id;
        packet.addr =
            requests[next].addr & ~mac3d::Address{mac3d::kFlitBytes - 1};
        packet.data_bytes = mac3d::kFlitBytes;
        packet.write = requests[next].op == mac3d::MemOp::kStore;
        packet.atomic = requests[next].op == mac3d::MemOp::kAtomic;
        if (device.can_accept(packet, now)) {
          const double start = host_seconds();
          (void)device.submit(std::move(packet), now);
          submit_s += host_seconds() - start - overhead;
          ++submits;
          ++id;
          ++next;
        }
      }
      const double start = host_seconds();
      responses += device.drain(now).size();
      drain_s += host_seconds() - start - overhead;
      ++drains;
      ++now;
    }
    if (responses != submits) {
      layer.accounting.fail("mem: " + std::to_string(responses) +
                            " responses for " + std::to_string(submits) +
                            " submits");
    }
    submit_ns.push_back(1e9 * submit_s / static_cast<double>(submits));
    drain_ns.push_back(1e9 * drain_s / static_cast<double>(drains));
  }
  char note[128];
  std::snprintf(note, sizeof note,
                "host; per call, clock read (%.1f ns) subtracted",
                1e9 * overhead);
  layer.sink.add("mem.submit_ns", median(submit_ns), "ns",
                 std::string(note) + "; 16 B packets of the sg stream");
  layer.sink.add("mem.drain_ns", median(drain_ns), "ns",
                 std::string(note) + "; one drain per cycle");
}

/// Exact simulated counts of the MAC path on the sg stream.
void measure_counts(const DriverResult& mac, Layer& layer) {
  layer.sink.add("mac.coalescing_eff", mac.coalescing_efficiency(), "ratio",
                 std::to_string(mac.packets) + " packets / " +
                     std::to_string(mac.raw_requests) + " raw requests");
  layer.sink.add("mac.targets_per_entry", mac.avg_targets_per_entry, "count",
                 "mean raw requests per ARQ entry");
  layer.sink.add("mem.packets", static_cast<double>(mac.packets), "count",
                 "HMC transactions, MAC path");
  layer.sink.add("mem.bank_conflicts", static_cast<double>(mac.bank_conflicts),
                 "count", "MAC path");
  layer.sink.add("mem.link_bytes", static_cast<double>(mac.link_bytes), "B",
                 "payload + control, MAC path");
  layer.sink.add("mem.device_latency_avg", mac.device_latency_avg, "cycles",
                 "simulated submit -> response, MAC path");
}

// ---- arch: fast-forward and the strict reference ---------------------------

/// The fast-forward metrics under `prefix` ("arch." or "arch.numa16.").
void add_arch(const std::string& prefix, std::uint64_t cycles,
              std::uint64_t visited, double seconds, double remote_frac,
              const std::string& where, Layer& layer) {
  layer.sink.add(prefix + "visited_cycles", static_cast<double>(visited),
                 "cycles", "simulated cycles the event engine ticked; " + where);
  layer.sink.add(prefix + "skip_ratio",
                 static_cast<double>(cycles) / static_cast<double>(visited),
                 "x",
                 std::to_string(cycles) + " simulated / " +
                     std::to_string(visited) + " visited cycles");
  layer.sink.add(prefix + "ns_per_visited_cycle",
                 1e9 * seconds / static_cast<double>(visited), "ns",
                 "host; untraced run / visited cycles");
  layer.sink.add(prefix + "remote_frac", remote_frac, "ratio",
                 "routed requests that crossed the fabric");
}

/// The 16-node System every traced run also measures: sg, one thread
/// stream per node, event engine, no telemetry — where fast-forward and
/// the fabric carry the host time.
void measure_numa16(const LayerOptions& options, Layer& layer) {
  const SimConfig config = bench_config(kNuma16Nodes);
  const MemoryTrace trace = make_trace("sg", kSystemThreads, kNuma16Scale,
                                       options.seed, config);
  std::vector<double> seconds;
  PassResult first;
  for (int r = 0; r < kRepeats; ++r) {
    SystemUnderTest sut(config, trace, 0);
    PassResult pass = run_system(sut, false, nullptr);
    layer.accounting.count(pass.calls.front(),
                           r == 0 ? nullptr : &first.calls.front());
    seconds.push_back(pass.calls.front().seconds);
    if (r == 0) first = std::move(pass);
  }
  add_arch("arch.numa16.", static_cast<std::uint64_t>(first.design.sim_cycles),
           first.visited_cycles, median(seconds), first.remote_frac,
           "16-node System, sg", layer);
}

/// Visited cycles of one streaming MAC run, counted by a census probe
/// the driver evaluates once per visited cycle.
void measure_stream_arch(const MemoryTrace& reference, const SimConfig& config,
                         Layer& layer) {
  const double seconds = median_seconds(kRepeats, [&] {
    (void)mac3d::run_policy(mac3d::CoalescerPolicy::kMac, reference, config,
                            kStreamThreads);
  });
  std::uint64_t visited = 0;
  mac3d::ActivityCensus census;
  census.add_component("perfbench.visits", [&visited](Cycle) {
    ++visited;
    return false;
  });
  DriveOptions drive;
  drive.census = &census;
  const DriverResult result = mac3d::run_policy(
      mac3d::CoalescerPolicy::kMac, reference, config, kStreamThreads, drive);
  add_arch("arch.", result.makespan, visited, seconds, 0.0,
           "sg stream, MAC path", layer);
}

void add_strict(double strict_seconds, double cycles,
                std::uint64_t mismatches, Layer& layer) {
  layer.sink.add("arch.strict_ns_per_cycle", 1e9 * strict_seconds / cycles,
                 "ns", "host; strict serial engine, shortened input");
  layer.sink.add("arch.strict_event_mismatches",
                 static_cast<double>(mismatches), "count",
                 "strict vs event simulated results (must be 0)");
}

/// Streaming strict reference: every policy on a shortened sg input under
/// Engine::kSerial and under the event engine; identical results required.
void measure_stream_strict(const LayerOptions& options, Layer& layer) {
  std::uint64_t mismatches = 0;
  double strict_seconds = 0.0;
  double cycles = 0.0;
  const SimConfig config = bench_config(1);
  const MemoryTrace trace = make_trace("sg", kStreamThreads, kLedgerScale,
                                       options.seed, config);
  for (const mac3d::CoalescerPolicy policy : kPolicies) {
    DriveOptions drive;
    drive.engine = mac3d::Engine::kSerial;
    const double start = host_seconds();
    const DriverResult strict =
        mac3d::run_policy(policy, trace, config, kStreamThreads, drive);
    strict_seconds += host_seconds() - start;
    const DriverResult event =
        mac3d::run_policy(policy, trace, config, kStreamThreads);
    cycles += static_cast<double>(strict.makespan);
    const std::string label = "strict/" + std::string(mac3d::to_string(policy));
    if (check_driver_call(label, strict, 0, 0).digest !=
        check_driver_call(label, event, 0, 0).digest) {
      ++mismatches;
      layer.accounting.fail(label + ": strict and event engines differ");
    }
  }
  add_strict(strict_seconds, cycles, mismatches, layer);
}

/// System strict reference: the numa-telemetry System (all surfaces) on a
/// shortened input under System::run and System::run_event; identical
/// simulated statistics and telemetry required.
void measure_system_strict(const LayerOptions& options, Layer& layer) {
  const SimConfig config = bench_config(NumaTelemetry::kNodes);
  const MemoryTrace trace =
      make_trace("sg", NumaTelemetry::kThreads,
                 std::min(NumaTelemetry::kScale, kLedgerScale), options.seed,
                 config);
  SystemUnderTest strict_sut(config, trace, kAllSurfaces);
  SystemUnderTest event_sut(config, trace, kAllSurfaces);
  const PassResult strict = run_system(strict_sut, true, nullptr);
  const PassResult event = run_system(event_sut, false, nullptr);
  layer.accounting.count(strict.calls.front(), nullptr);
  layer.accounting.count(event.calls.front(), &strict.calls.front());
  const bool mismatch = strict.calls.front().digest !=
                            event.calls.front().digest ||
                        strict.calls.front().telemetry_digest !=
                            event.calls.front().telemetry_digest;
  add_strict(strict.calls.front().seconds, strict.design.sim_cycles,
             mismatch ? 1 : 0, layer);
}

// ---- obs and check: the telemetry cost ledger ------------------------------

struct LedgerRow {
  std::string name;
  unsigned surfaces;
  double bound;  ///< ROADMAP item 4 target (0: none stated)
};

const std::vector<LedgerRow>& ledger_rows() {
  static const std::vector<LedgerRow> rows = [] {
    std::vector<LedgerRow> out;
    for (const SurfaceName& surface : kSurfaceNames) {
      const bool cheap = surface.surface == kReport ||
                         surface.surface == kSnapshot ||
                         surface.surface == kChecks;
      out.push_back({surface.name, surface.surface,
                     cheap ? kCheapSurfaceBound : 0.0});
    }
    out.push_back({"profile", kCensus | kLatency | kHostProfiler,
                   kProfileBound});
    return out;
  }();
  return rows;
}

/// Host seconds of one run with `surfaces` attached; bare when 0.
using SurfaceRun = std::function<double(unsigned surfaces)>;

void measure_ledger(const char* context, const SurfaceRun& run,
                    Layer& layer) {
  std::vector<double> bare;
  std::vector<std::pair<const LedgerRow*, double>> rows;
  for (const LedgerRow& row : ledger_rows()) {
    std::vector<double> with;
    for (int r = 0; r < kRepeats; ++r) {
      bare.push_back(run(0));
      with.push_back(run(row.surfaces));
    }
    rows.emplace_back(&row, median(with));
  }
  const double base = median(bare);
  std::fprintf(stderr, "\ntelemetry cost ledger (%s): surface / bare, "
               "median of %d, bare %.4g s\n", context, kRepeats, base);
  for (const auto& [row, seconds] : rows) {
    const double ratio = seconds / base;
    const std::string stem = row->surfaces == kChecks ? "check." : "obs.";
    layer.sink.add(stem + row->name + "_x." + context, ratio, "x",
                   ratio_note(seconds, base, row->name.c_str()));
    if (row->bound > 0.0) {
      std::fprintf(stderr, "  %-14s %7.3fx  target <= %.1fx (%s)\n",
                   row->name.c_str(), ratio, row->bound,
                   ratio <= row->bound ? "within" : "over");
    } else {
      std::fprintf(stderr, "  %-14s %7.3fx\n", row->name.c_str(), ratio);
    }
  }
}

void measure_telemetry(const LayerOptions& options,
                       const MemoryTrace& reference,
                       const SimConfig& stream_config, Layer& layer) {
  std::uint64_t checks_run = 0;
  std::uint64_t violations = 0;

  const SimConfig numa_config = bench_config(kLedgerNodes);
  const MemoryTrace numa_trace = make_trace(
      "sg", kSystemThreads, kLedgerScale, options.seed, numa_config);
  measure_ledger("numa", [&](unsigned surfaces) {
    SystemUnderTest sut(numa_config, numa_trace, surfaces);
    const PassResult pass = run_system(sut, false, nullptr);
    layer.accounting.count(pass.calls.front(), nullptr);
    if (sut.telemetry && (surfaces & kChecks) != 0) {
      checks_run += sut.telemetry->checks().checks_run();
      violations += sut.telemetry->checks().violations();
    }
    return pass.calls.front().seconds;
  }, layer);

  const std::uint64_t fences = count_fences(reference, kStreamThreads);
  const std::uint64_t requests = reference.size() - fences;
  measure_ledger("stream", [&](unsigned surfaces) {
    Telemetry telemetry(surfaces);
    DriveOptions drive;
    telemetry.attach(drive, "mac");
    const double start = host_seconds();
    const DriverResult result =
        mac3d::run_policy(mac3d::CoalescerPolicy::kMac, reference,
                          stream_config, kStreamThreads, drive);
    CallResult call = check_driver_call("ledger/mac", result, requests, fences);
    if (surfaces != 0) {
      const std::string failure = telemetry.finish(result, stream_config);
      if (call.failure.empty()) call.failure = failure;
    }
    const double seconds = host_seconds() - start;
    layer.accounting.count(call, nullptr);
    checks_run += telemetry.checks().checks_run();
    violations += telemetry.checks().violations();
    return seconds;
  }, layer);

  layer.sink.add("check.checks_run", static_cast<double>(checks_run), "count",
                 "invariant checks over the ledger's checked runs");
  layer.sink.add("check.violations", static_cast<double>(violations), "count",
                 "must be 0");
}

/// Hook costs, timed as calls into the telemetry entry points.
void measure_hooks(const LayerOptions& options, Layer& layer) {
  {
    const SimConfig config = bench_config(kLedgerNodes);
    const MemoryTrace trace = make_trace("sg", kSystemThreads, kLedgerScale,
                                         options.seed, config);
    mac3d::System system(config);
    system.attach_trace(trace);
    mac3d::ActivityCensus census;
    system.attach_census(&census);
    Cycle now = 0;
    const double seconds = median_seconds(kRepeats, [&] {
      for (std::uint64_t i = 0; i < kHookCalls / 10; ++i) census.observe(now++);
    });
    census.seal();
    layer.sink.add("obs.census_observe_ns",
                   1e9 * seconds / static_cast<double>(kHookCalls / 10), "ns",
                   "host; ActivityCensus::observe, " +
                       std::to_string(census.rows().size()) +
                       " rows (4-node System)");
  }
  {
    mac3d::MetricsRegistry registry;
    mac3d::MetricCounter& counter = registry.counter("perfbench.hook");
    const double seconds = median_seconds(kRepeats, [&] {
      for (std::uint64_t i = 0; i < kHookCalls; ++i) counter.add(1);
    });
    layer.sink.add("obs.registry_add_ns",
                   1e9 * seconds / static_cast<double>(kHookCalls), "ns",
                   "host; MetricCounter::add (" +
                       std::to_string(counter.get()) + " adds)");
  }
  {
    // A MAC-path request's lifecycle, stamped in stage order.
    constexpr mac3d::Stage kLife[] = {
        mac3d::Stage::kCoreIssue,     mac3d::Stage::kQueueInsert,
        mac3d::Stage::kBuilderPick,   mac3d::Stage::kFlitAlloc,
        mac3d::Stage::kLinkSerialize, mac3d::Stage::kBankAccess,
        mac3d::Stage::kResponseMatch, mac3d::Stage::kCoreComplete};
    constexpr std::size_t kStages = std::size(kLife);
    const std::uint64_t requests = kHookCalls / kStages;
    std::uint64_t stamps = 0;
    const double seconds = median_seconds(kRepeats, [&] {
      mac3d::LifecycleTracer tracer;
      tracer.begin_path("perfbench");
      Cycle cycle = 0;
      for (std::uint64_t r = 0; r < requests; ++r) {
        const auto tid = static_cast<mac3d::ThreadId>(r % 8);
        const auto tag = static_cast<mac3d::Tag>(r / 8);
        for (const mac3d::Stage stage : kLife) {
          tracer.on_stage(stage, tid, tag, ++cycle);
        }
      }
      tracer.finish();
      stamps = requests * kStages;
      if (tracer.monotonicity_errors() != 0 ||
          tracer.completeness_errors() != 0) {
        layer.accounting.fail("obs: stamped lifecycles failed the audit");
      }
    });
    layer.sink.add("obs.stamp_ns",
                   1e9 * seconds / static_cast<double>(stamps), "ns",
                   "host; LifecycleTracer::on_stage, 8-stage lifecycles");
  }
}

/// Untraced and traced sweeps alternate for 30% of the run; their time
/// ratio is the tracing overhead. Returns {untraced_s, traced_s}.
template <typename Workload>
std::pair<double, double> traced_sweeps(Workload& workload,
                                        const LayerOptions& options,
                                        SpanRecorder& spans,
                                        Accounting& accounting,
                                        std::vector<PassResult>& passes,
                                        std::vector<PassResult>& traced) {
  double untraced_s = 0.0;
  double traced_s = 0.0;
  const double budget = 0.3 * options.seconds;
  const double start = host_seconds();
  while (traced.size() < 2 || host_seconds() - start < budget) {
    passes.push_back(workload.pass(nullptr));
    accounting.count_pass(passes.back(),
                          passes.size() == 1 ? nullptr : &passes.front());
    traced.push_back(workload.pass(&spans));
    accounting.count_pass(traced.back(), &passes.front());
    for (const CallResult& call : passes.back().calls) untraced_s += call.seconds;
    for (const CallResult& call : traced.back().calls) traced_s += call.seconds;
  }
  return {untraced_s, traced_s};
}

/// The blocks that do not depend on the workload: unit costs and exact
/// counts on the sg request stream, the 16-node System, both ledgers and
/// the hook costs. Both workloads' traced runs take the same readings.
void measure_shared(const LayerOptions& options, const MemoryTrace& reference,
                    const SimConfig& stream_config, Layer& layer) {
  const std::vector<RawRequest> requests =
      request_stream(reference, kStreamThreads, stream_config);
  measure_arq(requests, stream_config, layer);
  measure_path_cycle<mac3d::MacCoalescer>("mac.cycle_ns", "MacCoalescer",
                                          requests, stream_config, layer);
  measure_path_cycle<mac3d::WarpCoalescer>("mac.warp_cycle_ns",
                                           "WarpCoalescer", requests,
                                           stream_config, layer);
  measure_path_cycle<mac3d::MshrCoalescer>(
      "cache.mshr_cycle_ns", "MshrCoalescer", requests, stream_config, layer,
      stream_config.mshr_entries, stream_config.mshr_block_bytes);
  measure_device(requests, stream_config, layer);
  measure_counts(mac3d::run_policy(mac3d::CoalescerPolicy::kMac, reference,
                                   stream_config, kStreamThreads),
                 layer);
  measure_numa16(options, layer);
  measure_telemetry(options, reference, stream_config, layer);
  measure_hooks(options, layer);
}

void finish(const SpanRecorder& spans, std::pair<double, double> sweeps,
            const LayerOptions& options, Layer& layer) {
  const auto [untraced_s, traced_s] = sweeps;
  layer.sink.add("bench.trace_overhead_x", traced_s / untraced_s, "x",
                 ratio_note(traced_s, untraced_s, "traced sweeps") +
                     " untraced");
  std::fprintf(stderr, "\nspan self time (traced sweeps, host s)\n");
  for (const auto& [name, self] : spans.self_seconds()) {
    std::fprintf(stderr, "  %-24s %10.4f\n", name.c_str(), self);
  }
  if (!options.spans_path.empty() && !spans.write_json(options.spans_path)) {
    std::fprintf(stderr, "cannot write %s\n", options.spans_path.c_str());
  }
}

}  // namespace

void run_layers(StreamPolicies& workload, const LayerOptions& options,
                MetricSink& sink, Accounting& accounting,
                std::vector<PassResult>& passes) {
  Layer layer{sink, accounting};
  SpanRecorder spans;
  std::vector<PassResult> traced;
  const auto sweeps =
      traced_sweeps(workload, options, spans, accounting, passes, traced);
  measure_generation(workload, options, layer);
  measure_policies(spans, traced, layer);
  measure_jobs(options, &passes.front(), layer);

  const SimConfig stream_config = bench_config(1);
  const MemoryTrace reference = make_trace("sg", kStreamThreads, kUnitScale,
                                           options.seed, stream_config);
  measure_stream_arch(reference, stream_config, layer);
  measure_stream_strict(options, layer);
  measure_shared(options, reference, stream_config, layer);
  finish(spans, sweeps, options, layer);
}

void run_layers(NumaTelemetry& workload, const LayerOptions& options,
                MetricSink& sink, Accounting& accounting,
                std::vector<PassResult>& passes) {
  Layer layer{sink, accounting};
  SpanRecorder spans;
  std::vector<PassResult> traced;
  const auto sweeps =
      traced_sweeps(workload, options, spans, accounting, passes, traced);
  measure_generation(workload, options, layer);

  const SimConfig stream_config = bench_config(1);
  const MemoryTrace reference = make_trace("sg", kStreamThreads, kUnitScale,
                                           options.seed, stream_config);
  measure_policies(reference, stream_config, layer);
  measure_jobs(options, nullptr, layer);

  std::vector<double> seconds;
  for (const PassResult& pass : passes) {
    seconds.push_back(pass.calls.front().seconds);
  }
  const PassResult& first = passes.front();
  add_arch("arch.", static_cast<std::uint64_t>(first.design.sim_cycles),
           first.visited_cycles, median(seconds), first.remote_frac,
           options.workload, layer);
  measure_system_strict(options, layer);
  measure_shared(options, reference, stream_config, layer);
  finish(spans, sweeps, options, layer);
}

}  // namespace perfbench
