// mac3d_perfbench: the repository benchmark's measuring program.
//
//   mac3d_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--passes N] [--spans FILE]
//
// Untraced (--trace 0): set up the workload and run one timed pass (one
// sweep over its simulation calls), again and again for S seconds
// (setup_s is the median set-up), run one pass on the held-out seed, and
// report the end-to-end metrics.
// Traced (--trace 1): run the same passes with and without spans
// (bench.trace_overhead_x), then time the calls into every library layer
// and report the per-layer metrics.
//
// A human-readable table goes to stderr; the last line on stdout is one
// JSON object that perfbench/run.py turns into the benchmark's result.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Fixed pass count instead of a time budget (expected-record runs).
  std::uint64_t passes = 0;
  std::string spans_path;
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "mac3d_perfbench: %s\nusage: mac3d_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--passes N] "
               "[--spans FILE]\n",
               message);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else if (flag == "--passes") {
      options.passes = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.seconds <= 0.0) usage("--seconds must be positive");
  return options;
}

std::string calls_json(const PassResult& pass) {
  std::string out = "[";
  for (std::size_t i = 0; i < pass.calls.size(); ++i) {
    if (i != 0) out += ',';
    out += '[';
    out += json_quote(pass.calls[i].label) + "," +
           json_quote(pass.calls[i].digest) + "]";
  }
  return out + "]";
}

std::string design_json(const DesignMetrics& design) {
  return "{\"sim_cycles\":" + json_number(design.sim_cycles) +
         ",\"sim_latency_cycles\":" + json_number(design.sim_latency_cycles) +
         ",\"coalescing_eff\":" + json_number(design.coalescing_eff) +
         ",\"bw_eff\":" + json_number(design.bw_eff) + "}";
}

template <typename Workload>
int run(const Options& options) {
  Workload workload;
  const double scale = Workload::kScale;
  Accounting accounting;
  MetricSink sink;

  // Set-up (trace generation, System construction and attaching) is
  // timed before every pass, so its median spans the same stretch of
  // host time as the passes rather than one short burst.
  std::vector<double> setups;
  const auto timed_setup = [&] {
    const double start = host_seconds();
    workload.setup(options.seed, nullptr);
    setups.push_back(host_seconds() - start);
  };
  std::vector<PassResult> passes;
  if (options.trace) {
    timed_setup();
    run_layers(workload,
               {options.workload, options.seed, options.seconds,
                options.spans_path},
               sink, accounting, passes);
  } else {
    const double deadline = host_seconds() + options.seconds;
    do {
      timed_setup();
      passes.push_back(workload.pass(nullptr));
      accounting.count_pass(passes.back(),
                            passes.size() == 1 ? nullptr : &passes.front());
    } while (options.passes != 0 ? passes.size() < options.passes
                                 : host_seconds() < deadline);
  }

  // Held-out seed: same workload, inputs the benchmark was not tuned on.
  Workload heldout;
  heldout.setup(kHeldoutSeed, nullptr);
  const PassResult heldout_pass = heldout.pass(nullptr);
  accounting.count_pass(heldout_pass, nullptr);
  const PassResult& main_pass = passes.front();

  if (!options.trace) {
    std::vector<double> seconds;
    double total_seconds = 0.0;
    std::uint64_t total_requests = 0;
    for (const PassResult& pass : passes) {
      double pass_seconds = 0.0;
      for (const CallResult& call : pass.calls) pass_seconds += call.seconds;
      seconds.push_back(pass_seconds);
      total_seconds += pass_seconds;
      total_requests += pass.raw_requests;
    }
    const Tail slow = tail(seconds);
    const DesignMetrics& design = main_pass.design;
    char note[96];
    sink.add("setup_s", median(setups), "s",
             "host; median of " + std::to_string(setups.size()) +
                 " set-ups");
    sink.add("pass_s_p50", median(seconds), "s",
             "host; " + std::to_string(seconds.size()) + " passes");
    std::snprintf(note, sizeof note, "host; p%.1f of %zu passes",
                  slow.percentile, slow.samples);
    sink.add("pass_s_tail", slow.value, "s", note);
    sink.add("sim_req_per_s",
             static_cast<double>(total_requests) / total_seconds, "req/s",
             "simulated raw requests per host second");
    sink.add("peak_rss_mb", peak_rss_mb(), "MiB", "host");
    sink.add("sim_cycles", design.sim_cycles, "cycles", "simulated makespan");
    sink.add("sim_latency_cycles", design.sim_latency_cycles, "cycles",
             "simulated mean request latency");
    std::snprintf(note, sizeof note, "Eq. 3, MAC path; held-out seed %.6f",
                  heldout_pass.design.coalescing_eff);
    sink.add("coalescing_eff", design.coalescing_eff, "ratio", note);
    std::snprintf(note, sizeof note, "Eq. 1, MAC path; held-out seed %.6f",
                  heldout_pass.design.bw_eff);
    sink.add("bw_eff", design.bw_eff, "ratio", note);
  }
  sink.print_table(options.workload + " (seed " +
                   std::to_string(options.seed) + ", scale " +
                   json_number(scale) + (options.trace ? ", traced)" : ")"));

  std::string failures = "[";
  for (std::size_t i = 0; i < accounting.messages().size(); ++i) {
    if (i != 0) failures += ',';
    failures += json_quote(accounting.messages()[i]);
  }
  failures += "]";
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"scale\":%s,\"heldout_seed\":%llu,"
      "\"passes\":%zu,\"attempted\":%llu,\"failed\":%llu,\"failures\":%s,"
      "\"calls\":%s,\"design\":%s,\"heldout_calls\":%s,"
      "\"heldout_design\":%s,\"obs\":%d,\"checks\":%d,\"build_type\":%s,"
      "\"compiler\":%s,\"metrics\":%s}\n",
      json_quote(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed),
      json_number(scale).c_str(),
      static_cast<unsigned long long>(kHeldoutSeed), passes.size(),
      static_cast<unsigned long long>(accounting.attempted()),
      static_cast<unsigned long long>(accounting.failed()), failures.c_str(),
      calls_json(main_pass).c_str(), design_json(main_pass.design).c_str(),
      calls_json(heldout_pass).c_str(),
      design_json(heldout_pass.design).c_str(), MAC3D_PERFBENCH_OBS,
      MAC3D_PERFBENCH_CHECKS, json_quote(MAC3D_PERFBENCH_BUILD_TYPE).c_str(),
      json_quote(MAC3D_PERFBENCH_COMPILER).c_str(), sink.to_json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parse(argc, argv);
  if (options.workload == "stream-policies") {
    return perfbench::run<perfbench::StreamPolicies>(options);
  }
  if (options.workload == "numa-telemetry") {
    return perfbench::run<perfbench::NumaTelemetry>(options);
  }
  perfbench::usage(("unknown workload " + options.workload).c_str());
}
