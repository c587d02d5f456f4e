#include "arch/system.hpp"

#include <stdexcept>
#include <string>

#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/snapshot.hpp"
#include "sim/clock.hpp"

namespace mac3d {

namespace {

/// The System as a Clock feed: every node ticks in index order, the
/// fabric (null for a single node) rides along inside Node::tick.
struct NodesFeed {
  const std::vector<std::unique_ptr<Node>>& nodes;
  Interconnect* fabric;

  void tick(Cycle now) {
    for (const auto& node : nodes) node->tick(now, fabric);
  }

  /// Every node drained and (multi-node) the fabric idle.
  [[nodiscard]] bool drained() const {
    if (fabric != nullptr && !fabric->idle()) return false;
    for (const auto& node : nodes) {
      if (!node->drained()) return false;
    }
    return true;
  }

  /// The minimum of every node's next-activity oracle and the fabric's
  /// next delivery.
  [[nodiscard]] Cycle next_event(Cycle now) const {
    Cycle next = kNoActivity;
    const auto merge = [&next, now](Cycle candidate) {
      if (candidate == kNoActivity) return;
      if (candidate <= now) candidate = now + 1;
      if (next == kNoActivity || candidate < next) next = candidate;
    };
    for (const auto& node : nodes) merge(node->next_event(now));
    if (fabric != nullptr) merge(fabric->next_delivery());
    return next;
  }
};

}  // namespace

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

void System::register_probes(CycleSampler* sampler,
                             SnapshotStreamer* snapshot) {
  if (sampler != nullptr) {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      Node* node = nodes_[i].get();
      const std::string prefix = "node" + std::to_string(i);
      sampler->add_probe(prefix + "_local_queue", [node](Cycle) {
        return static_cast<double>(node->router().local_queue().size());
      });
      sampler->add_probe(prefix + "_remote_queue", [node](Cycle) {
        return static_cast<double>(node->router().remote_queue().size());
      });
      sampler->add_probe(prefix + "_global_queue", [node](Cycle) {
        return static_cast<double>(node->router().global_queue().size());
      });
    }
    if (nodes_.size() > 1) {
      Interconnect* fabric = fabric_.get();
      for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const NodeId dest = static_cast<NodeId>(i);
        sampler->add_probe("fabric_req_backlog_n" + std::to_string(i),
                           [fabric, dest](Cycle) {
                             return static_cast<double>(
                                 fabric->request_backlog(dest));
                           });
        sampler->add_probe("fabric_cmpl_backlog_n" + std::to_string(i),
                           [fabric, dest](Cycle) {
                             return static_cast<double>(
                                 fabric->completion_backlog(dest));
                           });
      }
    }
  }
  if (snapshot != nullptr) {
    snapshot->add_counter(SnapshotStreamer::kInjectedCounter, [this] {
      std::uint64_t total = 0;
      for (const auto& node : nodes_) {
        for (std::size_t c = 0; c < node->core_count(); ++c) {
          total += node->core(c).issued();
        }
      }
      return total;
    });
    snapshot->add_counter(SnapshotStreamer::kCompletionsCounter, [this] {
      std::uint64_t total = 0;
      for (const auto& node : nodes_) total += node->completions_delivered();
      return total;
    });
    snapshot->add_gauge("router_backlog", [this] {
      std::size_t total = 0;
      for (const auto& node : nodes_) {
        total += node->router().local_queue().size() +
                 node->router().remote_queue().size() +
                 node->router().global_queue().size();
      }
      return static_cast<double>(total);
    });
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

SystemRunSummary System::run(Cycle max_cycles) {
  return simulate("run", false, max_cycles);
}

SystemRunSummary System::run_event(Cycle max_cycles) {
  return simulate("run_event", true, max_cycles);
}

SystemRunSummary System::simulate(const char* engine_name, bool event,
                                  Cycle max_cycles) {
  validate_engine_config(engine_name);
  Clock sim_clock({census_, sampler_, snapshot_, profiler_}, "system",
                  event, /*seal_census=*/false);
  register_probes(sim_clock.sampler(), sim_clock.snapshot());
  NodesFeed feed{nodes_, nodes_.size() > 1 ? fabric_.get() : nullptr};
  const ClockRun run = sim_clock.run(feed, max_cycles);
  sim_clock.end(run.end);
  SystemRunSummary summary = summarize(run.end, run.completed);
  if (event) summary.visited_cycles = run.visited;
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
