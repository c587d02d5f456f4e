#include "arch/system.hpp"

#include <stdexcept>
#include <string>

#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/snapshot.hpp"

namespace mac3d {

System::System(const SimConfig& config) : config_(config) {
  config_.validate();
  fabric_ = std::make_unique<Interconnect>(config_, config_.nodes);
  nodes_.reserve(config_.nodes);
  for (std::uint32_t n = 0; n < config_.nodes; ++n) {
    nodes_.push_back(std::make_unique<Node>(config_, static_cast<NodeId>(n),
                                            &thread_owner_, &thread_core_));
  }
}

void System::attach_checks(CheckContext* context) {
  for (const auto& node : nodes_) node->attach_checks(context);
  fabric_->attach_checks(context);
}

void System::attach_sink(EventSink* sink) {
  sink_ = sink;
  for (const auto& node : nodes_) node->attach_sink(sink);
}

void System::attach_metrics(MetricsRegistry* registry) {
  registry_ = registry;
  for (const auto& node : nodes_) node->attach_metrics(registry);
  fabric_->attach_metrics(registry);
}

void System::attach_census(ActivityCensus* census) {
  census_ = census;
  if (census == nullptr) return;
  for (const auto& node : nodes_) node->attach_census(*census);
  if (nodes_.size() <= 1) return;
  census->add_stamp("fabric", fabric_->last_work());
}

void System::register_probes() {
  if (sampler_ != nullptr) {
    sampler_->begin_run("system");
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      Node* node = nodes_[i].get();
      const std::string prefix = "node" + std::to_string(i);
      sampler_->add_probe(prefix + "_local_queue", [node](Cycle) {
        return static_cast<double>(node->router().local_queue().size());
      });
      sampler_->add_probe(prefix + "_remote_queue", [node](Cycle) {
        return static_cast<double>(node->router().remote_queue().size());
      });
      sampler_->add_probe(prefix + "_global_queue", [node](Cycle) {
        return static_cast<double>(node->router().global_queue().size());
      });
    }
    if (nodes_.size() > 1) {
      Interconnect* fabric = fabric_.get();
      for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const NodeId dest = static_cast<NodeId>(i);
        sampler_->add_probe("fabric_req_backlog_n" + std::to_string(i),
                            [fabric, dest](Cycle) {
                              return static_cast<double>(
                                  fabric->request_backlog(dest));
                            });
        sampler_->add_probe("fabric_cmpl_backlog_n" + std::to_string(i),
                            [fabric, dest](Cycle) {
                              return static_cast<double>(
                                  fabric->completion_backlog(dest));
                            });
      }
    }
  }
  if (snapshot_ != nullptr) {
    snapshot_->begin_run("system");
    snapshot_->add_counter(SnapshotStreamer::kInjectedCounter, [this] {
      std::uint64_t total = 0;
      for (const auto& node : nodes_) {
        for (std::size_t c = 0; c < node->core_count(); ++c) {
          total += node->core(c).issued();
        }
      }
      return total;
    });
    snapshot_->add_counter(SnapshotStreamer::kCompletionsCounter, [this] {
      std::uint64_t total = 0;
      for (const auto& node : nodes_) total += node->completions_delivered();
      return total;
    });
    snapshot_->add_gauge("router_backlog", [this] {
      std::size_t total = 0;
      for (const auto& node : nodes_) {
        total += node->router().local_queue().size() +
                 node->router().remote_queue().size() +
                 node->router().global_queue().size();
      }
      return static_cast<double>(total);
    });
    snapshot_->attach_census(census_);
  }
}

void System::finalize_metrics(const SystemRunSummary& summary) {
  if (registry_ == nullptr) return;
  registry_->gauge("system.cycles").set(static_cast<double>(summary.cycles));
  registry_->gauge("system.avg_request_latency_cycles")
      .set(summary.avg_latency_cycles);
  if (census_ != nullptr) census_->export_metrics(*registry_);
  if (snapshot_ != nullptr) snapshot_->export_metrics(*registry_);
}

void System::attach_trace(const MemoryTrace& trace) {
  const std::uint32_t threads = trace.threads();
  thread_owner_.resize(threads);
  thread_core_.resize(threads);
  for (std::uint32_t t = 0; t < threads; ++t) {
    const NodeId node = static_cast<NodeId>(t % config_.nodes);
    const CoreId core =
        static_cast<CoreId>((t / config_.nodes) % config_.cores);
    thread_owner_[t] = node;
    thread_core_[t] = core;
    nodes_[node]->add_thread(static_cast<ThreadId>(t),
                             &trace.thread(static_cast<ThreadId>(t)));
  }
}

void System::validate_engine_config(const char* engine_name) const {
  if (nodes_.size() > 1 && config_.remote_hop_cycles == 0) {
    // A zero-hop fabric delivers a message within the sending cycle, so
    // whether the receiver sees it that cycle would depend on node tick
    // order (only later-ticking nodes would) — an artifact of the loop,
    // not of the model. Both engines refuse it uniformly.
    throw std::invalid_argument(std::string("System::") + engine_name +
                                " requires remote_hop_cycles >= 1 (got 0)");
  }
}

Cycle System::next_wake(Cycle now, const Interconnect* fabric,
                        Cycle max_cycles) const {
  Cycle next = 0;
  const auto merge = [&next, now](Cycle candidate) {
    if (candidate == 0) return;
    if (candidate <= now) candidate = now + 1;
    if (next == 0 || candidate < next) next = candidate;
  };
  for (const auto& node : nodes_) merge(node->next_activity_cycle(now));
  if (fabric != nullptr) merge(fabric->next_delivery());
  // No advertised activity but not drained either (the caller already
  // checked): fall back to single-stepping rather than stalling.
  if (next == 0) next = now + 1;
  // Snapshot boundaries are mandatory landing cycles: never skip over
  // one, so every engine samples every window at identical state.
  if (snapshot_ != nullptr && snapshot_->next_boundary(now) < next) {
    next = snapshot_->next_boundary(now);
  }
  return next < max_cycles ? next : max_cycles;
}

void System::credit_skip(Cycle now, Cycle next) {
  if (next <= now + 1) return;
  if (census_ != nullptr) {
    HostProfiler::Scope scope(profiler_, HostPhase::kTelemetry);
    census_->skip_to(next);
  }
  if (sampler_ != nullptr) {
    HostProfiler::Scope scope(profiler_, HostPhase::kSampler);
    sampler_->advance_to(next - 1);
  }
}

SystemRunSummary System::run(Cycle max_cycles) {
  return run_loop("run", false, max_cycles);
}

SystemRunSummary System::run_event(Cycle max_cycles) {
  return run_loop("run_event", true, max_cycles);
}

bool System::drained(const Interconnect* fabric) const {
  if (fabric != nullptr && !fabric->idle()) return false;
  for (const auto& node : nodes_) {
    if (!node->drained()) return false;
  }
  return true;
}

SystemRunSummary System::run_loop(const char* engine_name, bool event,
                                  Cycle max_cycles) {
  validate_engine_config(engine_name);
  Interconnect* fabric = nodes_.size() > 1 ? fabric_.get() : nullptr;
  register_probes();

  bool completed = false;
  Cycle now = 0;
  std::uint64_t visited = 0;
  try {
    while (now < max_cycles) {
      ++visited;
      {
        HostProfiler::Scope scope(profiler_, HostPhase::kTick);
        for (auto& node : nodes_) node->tick(now, fabric);
      }
      if (census_ != nullptr) {
        HostProfiler::Scope scope(profiler_, HostPhase::kTelemetry);
        census_->observe(now);
      }
      if (sampler_ != nullptr) {
        HostProfiler::Scope scope(profiler_, HostPhase::kSampler);
        sampler_->advance_to(now);
      }
      if (snapshot_ != nullptr) {
        HostProfiler::Scope scope(profiler_, HostPhase::kSampler);
        snapshot_->advance_to(now);
        // A fired watchdog abandons the run (summary.completed stays
        // false) — the only exit a stalled system has short of
        // max_cycles.
        if (snapshot_->watchdog_fired()) break;
      }
      if (drained(fabric)) {
        completed = true;
        ++now;
        break;
      }
      // The only fork between the engines: the strict loop steps one
      // cycle, the event engine jumps to the next wake-up.
      if (!event) {
        ++now;
        continue;
      }
      const Cycle next = next_wake(now, fabric, max_cycles);
      credit_skip(now, next);
      now = next;
    }
  } catch (...) {
    if (sampler_ != nullptr) sampler_->abort_run();
    if (snapshot_ != nullptr) snapshot_->abort_run();
    throw;
  }
  if (sampler_ != nullptr) sampler_->end_run(now);
  if (snapshot_ != nullptr) snapshot_->end_run(now);
  SystemRunSummary summary = summarize(now, completed);
  if (event) summary.visited_cycles = visited;
  finalize_metrics(summary);
  return summary;
}

SystemRunSummary System::summarize(Cycle cycles, bool completed) const {
  SystemRunSummary summary;
  summary.cycles = cycles;
  summary.completed = completed;
  summary.visited_cycles = cycles;
  RunningStat latency;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = *nodes_[i];
    node.collect(summary.stats, "node" + std::to_string(i));
    summary.completions += node.completions_delivered();
    for (std::size_t c = 0; c < node.core_count(); ++c) {
      summary.requests += node.core(c).issued();
    }
    latency.merge(node.request_latency());
  }
  summary.avg_latency_cycles = latency.mean();
  summary.stats.set("system.cycles", static_cast<double>(summary.cycles));
  summary.stats.set("system.completed", summary.completed ? 1.0 : 0.0);
  return summary;
}

}  // namespace mac3d
