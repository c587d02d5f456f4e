#include "workloads.hpp"

#include "telemetry.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

using mac3d::CoalescerPolicy;
using mac3d::DriverResult;
using mac3d::MemoryTrace;
using mac3d::SimConfig;
using mac3d::StatSet;
using mac3d::System;
using mac3d::SystemRunSummary;

void Accounting::count(const CallResult& call, const CallResult* reference) {
  ++attempted_;
  std::string failure = call.failure;
  if (failure.empty() && reference != nullptr &&
      (call.digest != reference->digest ||
       call.telemetry_digest != reference->telemetry_digest)) {
    failure = "results differ from the first pass";
  }
  if (!failure.empty()) fail_counted(call.label + ": " + failure);
}

void Accounting::fail(const std::string& message) {
  ++attempted_;
  fail_counted(message);
}

void Accounting::count_pass(const PassResult& pass,
                            const PassResult* reference) {
  for (std::size_t i = 0; i < pass.calls.size(); ++i) {
    const bool comparable =
        reference != nullptr && i < reference->calls.size();
    count(pass.calls[i], comparable ? &reference->calls[i] : nullptr);
  }
  if (reference != nullptr && pass.calls.size() != reference->calls.size()) {
    fail("pass made " + std::to_string(pass.calls.size()) + " calls, not " +
         std::to_string(reference->calls.size()));
  }
}

void Accounting::fail_counted(const std::string& message) {
  ++failed_;
  if (messages_.size() < 8) messages_.push_back(message);
}

SimConfig bench_config(std::uint32_t nodes) {
  SimConfig config;
  config.nodes = nodes;
  config.validate();
  return config;
}

MemoryTrace make_trace(const std::string& name, std::uint32_t threads,
                       double scale, std::uint64_t seed,
                       const SimConfig& config) {
  mac3d::WorkloadParams params;
  params.threads = threads;
  params.scale = scale;
  params.seed = seed;
  params.config = config;
  return mac3d::find_workload(name)->trace(params);
}

std::uint64_t count_fences(const MemoryTrace& trace, std::uint32_t threads) {
  std::uint64_t fences = 0;
  for (mac3d::ThreadId t = 0; t < threads && t < trace.threads(); ++t) {
    for (const mac3d::MemRecord& record : trace.thread(t)) {
      if (record.op == mac3d::MemOp::kFence) ++fences;
    }
  }
  return fences;
}

CallResult check_driver_call(const std::string& label,
                             const DriverResult& result,
                             std::uint64_t expected_requests,
                             std::uint64_t fences) {
  CallResult call;
  call.label = label;
  StatSet stats;
  result.collect(stats, result.path);
  call.digest = digest(stats.to_json());
  if (result.raw_requests != expected_requests) {
    call.failure = "fed " + std::to_string(result.raw_requests) + " of " +
                   std::to_string(expected_requests) + " requests";
  } else if (result.completions != result.raw_requests + fences) {
    call.failure = "did not drain: " + std::to_string(result.completions) +
                   " completions for " +
                   std::to_string(result.raw_requests) + " requests + " +
                   std::to_string(fences) + " fences";
  } else if (result.check_violations != 0) {
    call.failure =
        std::to_string(result.check_violations) + " invariant violations";
  }
  return call;
}

SystemUnderTest::SystemUnderTest(const SimConfig& config_in,
                                 const MemoryTrace& trace,
                                 unsigned surfaces)
    : config(config_in), system(std::make_unique<System>(config_in)) {
  system->attach_trace(trace);
  if (surfaces != 0) {
    telemetry = std::make_unique<Telemetry>(surfaces);
    telemetry->attach(*system);
  }
}

SystemUnderTest::~SystemUnderTest() = default;

PassResult run_system(SystemUnderTest& sut, bool strict,
                      SpanRecorder* spans) {
  const double start = host_seconds();
  SystemRunSummary summary;
  {
    SpanRecorder::Scope span(spans, strict ? "arch.run" : "arch.run_event");
    summary = strict ? sut.system->run() : sut.system->run_event();
  }
  std::string telemetry_failure;
  if (sut.telemetry) {
    SpanRecorder::Scope span(spans, "obs.finish");
    telemetry_failure = sut.telemetry->finish(summary, sut.config);
  }
  const double seconds = host_seconds() - start;

  CallResult call;
  call.label = "sg/system";
  call.seconds = seconds;
  // visited_cycles is left out on purpose: it is the engine's cost, not
  // a simulated result, and a faster engine may change it.
  call.digest = digest(summary.stats.to_json() + "|" +
                       std::to_string(summary.requests) + "|" +
                       std::to_string(summary.completions));
  if (sut.telemetry) call.telemetry_digest = sut.telemetry->digest();
  if (!summary.completed) {
    call.failure = "did not complete (cycle limit or watchdog)";
  } else if (summary.completions != summary.requests) {
    call.failure = "did not drain: " + std::to_string(summary.completions) +
                   " completions for " + std::to_string(summary.requests) +
                   " requests";
  } else {
    call.failure = telemetry_failure;
  }

  PassResult out;
  out.raw_requests = summary.requests;
  out.visited_cycles = summary.visited_cycles;
  double raw_in = 0.0;
  double packets = 0.0;
  double data_bytes = 0.0;
  double link_bytes = 0.0;
  double routed = 0.0;
  double remote = 0.0;
  for (std::size_t i = 0; i < sut.system->node_count(); ++i) {
    const std::string node = "node" + std::to_string(i);
    raw_in += summary.stats.get(node + ".mac.raw_in");
    packets += summary.stats.get(node + ".mac.packets_out");
    data_bytes += summary.stats.get(node + ".hmc.data_bytes");
    link_bytes += summary.stats.get(node + ".hmc.link_bytes");
    routed += static_cast<double>(sut.system->node(i).router().routed());
    remote += static_cast<double>(sut.system->node(i).router().remote_out());
  }
  out.remote_frac = routed == 0.0 ? 0.0 : remote / routed;
  out.design.sim_cycles = static_cast<double>(summary.cycles);
  out.design.sim_latency_cycles = summary.avg_latency_cycles;
  out.design.coalescing_eff = raw_in == 0.0 ? 0.0 : 1.0 - packets / raw_in;
  out.design.bw_eff = link_bytes == 0.0 ? 0.0 : data_bytes / link_bytes;
  out.calls.push_back(std::move(call));
  return out;
}

void StreamPolicies::setup(std::uint64_t seed, SpanRecorder* spans) {
  config_ = bench_config(1);
  traces_.clear();
  fences_.clear();
  records_ = 0;
  for (const mac3d::Workload* workload : mac3d::workload_registry()) {
    SpanRecorder::Scope span(spans, "workloads.generate");
    traces_.push_back(
        make_trace(workload->name(), kThreads, kScale, seed, config_));
    fences_.push_back(count_fences(traces_.back(), kThreads));
    records_ += traces_.back().size();
  }
}

PassResult StreamPolicies::pass(SpanRecorder* spans) {
  const auto& registry = mac3d::workload_registry();
  mac3d::DriveOptions drive;  // streaming feed, event engine
  PassResult out;
  std::vector<DriverResult> results;
  std::vector<double> seconds;
  results.reserve(traces_.size() * kPolicies.size());
  for (std::size_t t = 0; t < traces_.size(); ++t) {
    for (std::size_t p = 0; p < kPolicies.size(); ++p) {
      SpanRecorder::Scope span(spans, kPolicySpans[p]);
      const double start = host_seconds();
      results.push_back(mac3d::run_policy(kPolicies[p], traces_[t], config_,
                                          kThreads, drive));
      seconds.push_back(host_seconds() - start);
    }
  }

  double latency_weighted = 0.0;
  double coalescing_sum = 0.0;
  double bw_sum = 0.0;
  for (std::size_t t = 0; t < traces_.size(); ++t) {
    const std::uint64_t requests =
        traces_[t].size() - fences_[t];  // every stream is fed
    for (std::size_t p = 0; p < kPolicies.size(); ++p) {
      const std::size_t index = t * kPolicies.size() + p;
      const DriverResult& result = results[index];
      out.calls.push_back(check_driver_call(
          registry[t]->name() + "/" +
              std::string(mac3d::to_string(kPolicies[p])),
          result, requests, fences_[t]));
      out.calls.back().seconds = seconds[index];
      out.raw_requests += result.raw_requests;
      out.design.sim_cycles += static_cast<double>(result.makespan);
      latency_weighted += result.avg_latency_cycles *
                          static_cast<double>(result.raw_requests);
      if (kPolicies[p] == CoalescerPolicy::kMac) {
        coalescing_sum += result.coalescing_efficiency();
        bw_sum += result.bandwidth_efficiency();
      }
    }
  }
  const auto traces = static_cast<double>(traces_.size());
  out.design.sim_latency_cycles =
      latency_weighted / static_cast<double>(out.raw_requests);
  // Fig. 10 / Fig. 13 report the plain average over the workloads.
  out.design.coalescing_eff = coalescing_sum / traces;
  out.design.bw_eff = bw_sum / traces;
  return out;
}

void NumaTelemetry::setup(std::uint64_t seed, SpanRecorder* spans) {
  sut_.reset();  // it points into the trace about to be replaced
  config_ = bench_config(kNodes);
  {
    SpanRecorder::Scope span(spans, "workloads.generate");
    trace_.emplace(make_trace("sg", kThreads, kScale, seed, config_));
  }
  sut_ = std::make_unique<SystemUnderTest>(config_, *trace_, kAllSurfaces);
}

PassResult NumaTelemetry::pass(SpanRecorder* spans) {
  PassResult out = run_system(*sut_, false, spans);
  sut_ = std::make_unique<SystemUnderTest>(config_, *trace_, kAllSurfaces);
  return out;
}

}  // namespace perfbench
