// The benchmark's two workloads. Each one generates its inputs from a
// seed (set-up), then runs timed passes through the library's public API
// and returns, per simulation call, a digest of the simulated statistics
// plus the drain and invariant checks the benchmark gates on.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/system.hpp"
#include "common/config.hpp"
#include "harness.hpp"
#include "sim/driver.hpp"
#include "trace/trace.hpp"

namespace perfbench {

/// Seed of the held-out input every run also simulates (and checks
/// against the expected record): a seed the benchmark was not tuned on.
inline constexpr std::uint64_t kHeldoutSeed = 20190805;

/// The four coalescer policies, and the span each run_policy call on
/// that policy is recorded under.
inline constexpr std::array<mac3d::CoalescerPolicy, 4> kPolicies = {
    mac3d::CoalescerPolicy::kRaw, mac3d::CoalescerPolicy::kMac,
    mac3d::CoalescerPolicy::kMshr, mac3d::CoalescerPolicy::kWarp};
inline constexpr std::array<const char*, 4> kPolicySpans = {
    "sim.run_policy.raw", "sim.run_policy.mac", "sim.run_policy.mshr",
    "sim.run_policy.warp"};

/// One simulation call (a run_policy call or one System run).
struct CallResult {
  std::string label;
  double seconds = 0.0;  ///< host wall-clock of the call
  /// Digest of the simulated statistics: must repeat exactly across
  /// passes, runs and commits that do not mean to change the model.
  std::string digest;
  /// Digest of deterministic telemetry outputs (registry, census,
  /// snapshot stream, sampler, latency decomposition); compared between
  /// passes only.
  std::string telemetry_digest;
  /// Empty when the call drained and reported no invariant violation.
  std::string failure;
};

/// The modelled design's figures of merit for one pass (simulated
/// cycles and paper Eq. 1 / Eq. 3 ratios, all exactly repeatable).
struct DesignMetrics {
  double sim_cycles = 0.0;          ///< simulated makespan, cycles
  double sim_latency_cycles = 0.0;  ///< mean per-request latency, cycles
  double coalescing_eff = 0.0;      ///< Eq. 3 on the MAC path
  double bw_eff = 0.0;              ///< Eq. 1 on the MAC path
};

/// One timed pass: a sweep over a workload's simulation calls (the 48
/// run_policy calls of the suite, or one System run with its telemetry
/// finished and rendered).
struct PassResult {
  std::vector<CallResult> calls;
  DesignMetrics design;
  std::uint64_t raw_requests = 0;
  /// System workloads: cycles the event engine visited, and the share of
  /// routed requests that crossed the fabric.
  std::uint64_t visited_cycles = 0;
  double remote_frac = 0.0;
};

/// Attempted/failed simulation calls. A call fails when it does not
/// drain, reports an invariant violation or a telemetry fault, or its
/// digests differ from the same call in the first pass.
class Accounting {
 public:
  /// Count `call`; `reference` is the same call from the first pass
  /// (nullptr while recording the first pass itself).
  void count(const CallResult& call, const CallResult* reference);
  /// Count one failed check that is not a single simulation call.
  void fail(const std::string& message);
  void count_pass(const PassResult& pass, const PassResult* reference);

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  /// The first few failure descriptions.
  [[nodiscard]] const std::vector<std::string>& messages() const noexcept {
    return messages_;
  }

 private:
  void fail_counted(const std::string& message);

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

// ---- Building blocks shared by the workloads and the traced run ----------

/// Table 1 configuration with `nodes` NUMA nodes (env overrides are not
/// read: the benchmark's inputs come from its arguments only).
[[nodiscard]] mac3d::SimConfig bench_config(std::uint32_t nodes);

/// The `name` trace from the workload registry.
[[nodiscard]] mac3d::MemoryTrace make_trace(const std::string& name,
                                            std::uint32_t threads,
                                            double scale, std::uint64_t seed,
                                            const mac3d::SimConfig& config);

/// Fences among the first `threads` streams of `trace`.
[[nodiscard]] std::uint64_t count_fences(const mac3d::MemoryTrace& trace,
                                         std::uint32_t threads);

/// Check and digest one run_policy result.
[[nodiscard]] CallResult check_driver_call(const std::string& label,
                                           const mac3d::DriverResult& result,
                                           std::uint64_t expected_requests,
                                           std::uint64_t fences);

class Telemetry;

/// A System over `trace` with the `surfaces` telemetry attached.
struct SystemUnderTest {
  SystemUnderTest(const mac3d::SimConfig& config,
                  const mac3d::MemoryTrace& trace, unsigned surfaces);
  ~SystemUnderTest();
  SystemUnderTest(const SystemUnderTest&) = delete;
  SystemUnderTest& operator=(const SystemUnderTest&) = delete;

  mac3d::SimConfig config;
  std::unique_ptr<mac3d::System> system;
  /// Null when no surface is on. Declared after the system: its probes
  /// reference the system's nodes, so it is destroyed first.
  std::unique_ptr<Telemetry> telemetry;
};

/// Run `sut` once — the event engine, or the strict serial engine when
/// `strict` — then finish its telemetry. The returned pass holds the one
/// checked call (timed from the run to the rendered telemetry), the
/// design metrics, visited cycles and the remote fraction.
[[nodiscard]] PassResult run_system(SystemUnderTest& sut, bool strict,
                                    SpanRecorder* spans);

// ---- The workloads ------------------------------------------------------

/// stream-policies, the paper's figure path: the twelve-trace suite at 8
/// thread streams, streaming feed, event engine, one job, through all
/// four policies; a pass is the 48 run_policy calls.
class StreamPolicies {
 public:
  static constexpr std::uint32_t kThreads = 8;
  static constexpr double kScale = 0.05;

  /// Generate the twelve traces for `seed` ("workloads.generate" spans).
  void setup(std::uint64_t seed, SpanRecorder* spans);
  /// Records in the generated traces (for workloads.records_per_s).
  [[nodiscard]] std::uint64_t records() const noexcept { return records_; }
  /// One sweep; each run_policy call is recorded under kPolicySpans.
  PassResult pass(SpanRecorder* spans);

 private:
  mac3d::SimConfig config_;
  std::vector<mac3d::MemoryTrace> traces_;
  std::vector<std::uint64_t> fences_;
  std::uint64_t records_ = 0;
};

/// numa-telemetry: a 4-node System, closed-loop feed on the sg trace with
/// 16 thread streams and the event engine, with every leave-on telemetry
/// surface attached; a pass is one System run with its telemetry
/// finished and rendered.
class NumaTelemetry {
 public:
  static constexpr std::uint32_t kNodes = 4;
  static constexpr std::uint32_t kThreads = 16;
  /// Keeps a pass under a second, so a run holds enough passes for a
  /// tail percentile.
  static constexpr double kScale = 0.02;

  /// Generate the trace for `seed` and build the first pass's System.
  void setup(std::uint64_t seed, SpanRecorder* spans);
  [[nodiscard]] std::uint64_t records() const { return trace_->size(); }
  /// One System run; the next pass's System is built after the clock
  /// stops.
  PassResult pass(SpanRecorder* spans);

 private:
  mac3d::SimConfig config_;
  std::optional<mac3d::MemoryTrace> trace_;
  std::unique_ptr<SystemUnderTest> sut_;  // after the trace it reads
};

}  // namespace perfbench
