#include "sim/driver.hpp"

#include <algorithm>
#include <span>
#include <type_traits>
#include <vector>

#include "cache/mshr.hpp"
#include "check/check.hpp"
#include "mac/coalescer.hpp"
#include "mac/warp_coalescer.hpp"
#include "mem/hmc_device.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/sampler.hpp"
#include "obs/snapshot.hpp"
#include "sim/clock.hpp"
#include "sim/raw_path.hpp"
#include "sim/tag_allocator.hpp"

namespace mac3d {

void DriverResult::collect(StatSet& out, const std::string& prefix) const {
  out.set(prefix + ".makespan_cycles", static_cast<double>(makespan));
  out.set(prefix + ".raw_requests", static_cast<double>(raw_requests));
  out.set(prefix + ".packets", static_cast<double>(packets));
  out.set(prefix + ".completions", static_cast<double>(completions));
  out.set(prefix + ".bank_conflicts", static_cast<double>(bank_conflicts));
  out.set(prefix + ".data_bytes", static_cast<double>(data_bytes));
  out.set(prefix + ".link_bytes", static_cast<double>(link_bytes));
  out.set(prefix + ".overhead_bytes", static_cast<double>(overhead_bytes));
  out.set(prefix + ".coalescing_efficiency", coalescing_efficiency());
  out.set(prefix + ".bandwidth_efficiency", bandwidth_efficiency());
  out.set(prefix + ".avg_latency_cycles", avg_latency_cycles);
  out.set(prefix + ".avg_packet_bytes", avg_packet_bytes);
  if (checks_run > 0) {
    out.set(prefix + ".checks_run", static_cast<double>(checks_run));
    out.set(prefix + ".check_violations",
            static_cast<double>(check_violations));
  }
}

namespace {

/// The earlier of `wake` (kNoActivity = none yet) and the cycle `at`.
[[nodiscard]] Cycle earlier(Cycle wake, Cycle at) {
  return wake == kNoActivity ? at : std::min(wake, at);
}

/// Thread `t`'s round-robin successor among `threads`.
[[nodiscard]] std::uint32_t next_thread(std::uint32_t t,
                                        std::uint32_t threads) {
  return t + 1 == threads ? 0 : t + 1;
}

/// A feed's port into the memory path: what all three driver feeds share.
template <typename Path>
struct PathPort {
  Path& path;
  const SimConfig& config;
  const DriveOptions& options;
  ActivityCensus* census;  ///< the clock's gated census (feeder marks)
  std::uint32_t threads;  ///< trace streams fed (<= the trace's threads)
  std::uint64_t records_left = 0;  ///< records not yet accepted
  std::uint64_t outstanding = 0;   ///< accepted, not yet completed
  Cycle makespan = 0;              ///< cycle of the last completion
  std::uint64_t completions = 0;   ///< data records + retired fences
  std::vector<std::span<const MemRecord>> streams{};  ///< per fed thread

  /// Thread `t`'s record stream (t < threads).
  [[nodiscard]] const std::span<const MemRecord>& records(
      std::uint32_t t) const {
    return streams[t];
  }

  /// Present thread `t`'s `record` under `tag`. core_issue marks the first
  /// presentation attempt (`stamped` remembers it across rejected
  /// attempts), so its delta to the path's queue_insert measures intake
  /// back-pressure. Returns whether the path accepted the request.
  bool present(std::uint32_t t, const MemRecord& record, Tag tag,
               bool& stamped, Cycle now) {
    RawRequest request;
    request.addr = record.addr;
    request.op = record.op;
    request.size = record.size;
    request.tid = static_cast<ThreadId>(t);
    request.tag = tag;
    request.core = static_cast<CoreId>(t % config.cores);
    if (!stamped) {
      MAC3D_OBS_STAMP(options.sink, Stage::kCoreIssue, request.tid, tag, now);
      stamped = true;
    }
    if (!path.try_accept(request, now)) return false;
    stamped = false;
    --records_left;
    ++outstanding;
    if (census != nullptr) census->mark_feeder(now);
    return true;
  }

  /// Tick the path, then hand the cycle's completions of fed threads to
  /// `on_done`. Livelock fault injection (watchdog testing): from
  /// inject_livelock_at on, completions stay undelivered in the path.
  template <typename OnDone>
  void tick(Cycle now, OnDone&& on_done) {
    path.tick(now);
    const Cycle livelock_at = options.inject_livelock_at;
    if (livelock_at != 0 && now >= livelock_at) return;
    for (const CompletedAccess& done : path.drain(now)) {
      makespan = std::max(makespan, done.completed);
      ++completions;
      MAC3D_OBS_STAMP(options.sink, Stage::kCoreComplete, done.target.tid,
                      done.target.tag, done.completed);
      if (done.target.tid >= threads) continue;
      --outstanding;
      on_done(done);
    }
  }

  [[nodiscard]] bool drained() const {
    return records_left == 0 && outstanding == 0 && path.idle();
  }

  /// Event-engine wake-up: the earlier of the feed's own `wake`
  /// (kNoActivity = none) and the path's next event.
  [[nodiscard]] Cycle next_event(Cycle now, Cycle wake) const {
    const Cycle path_next = path.next_event(now);
    return path_next <= now ? wake : earlier(wake, path_next);
  }
};

/// Trace streaming (paper Sec. 5.1): every thread's memory instruction
/// stream arrives open-loop, paced only by its recorded compute gaps (the
/// instruction stream the RISC-V tracer produced); the interleaved
/// arrivals are presented round-robin and the path absorbs as many as its
/// intake ports allow per cycle (the MAC: one merge + one allocation).
/// Back-pressure queues arrivals; it never slows the cores down.
/// A thread's (tid, tag) pair is its request identity on the response path
/// (the paper's 2 B tag field, Sec. 4.1.1). The open-loop feeder must not
/// reissue a tag while its predecessor is still in flight, or response
/// matching becomes ambiguous — and since completions are out of order
/// (bank scheduling), one long-lived request can outlive 65 K newer ones,
/// so each thread draws from a finite MSHR-style TagAllocator pool and
/// stalls only on pool exhaustion (the invariant fuzz suite caught the
/// ambiguity on bank-conflict-heavy traces back when tags were a bare
/// wrapping cursor).
template <typename Path>
class StreamingFeed {
 public:
  explicit StreamingFeed(PathPort<Path>& port)
      : port_(port),
        cursors_(port.threads),
        tags_(port.threads, TagAllocator(port.options.tag_pool)) {
    for (std::uint32_t t = 0; t < port_.threads; ++t) {
      const auto& records = port_.records(t);
      if (!records.empty() && port_.options.charge_gaps) {
        cursors_[t].arrive_at = records.front().gap;
      }
    }
  }

  void tick(Cycle now) {
    // Intake: present arrived records round-robin until the path's intake
    // ports reject one (or no arrival is pending).
    const std::uint32_t threads = port_.threads;
    bool intake_open = port_.records_left > 0;
    while (intake_open) {
      bool found = false;
      std::uint32_t t = turn_;
      for (std::uint32_t scan = 0; scan < threads;
           ++scan, t = next_thread(t, threads)) {
        Cursor& cursor = cursors_[t];
        const auto& records = port_.records(t);
        if (cursor.next >= records.size() || cursor.arrive_at > now ||
            !tags_[t].available()) {
          continue;
        }
        // peek() is stable across rejected attempts, so the core_issue
        // stamp matches the tag eventually allocated.
        if (!port_.present(t, records[cursor.next], tags_[t].peek(),
                           cursor.stamped, now)) {
          intake_open = false;
          break;
        }
        tags_[t].allocate();
        ++cursor.next;
        // Open-loop pacing: the next record arrives `gap` core cycles
        // after this one *was generated* (arrivals can back up).
        if (cursor.next < records.size() && port_.options.charge_gaps) {
          cursor.arrive_at += records[cursor.next].gap;
        }
        turn_ = next_thread(t, threads);
        found = true;
        break;
      }
      if (!found) break;
    }
    port_.tick(now, [this](const CompletedAccess& done) {
      tags_[done.target.tid].release(done.target.tag);
    });
  }

  [[nodiscard]] bool drained() const { return port_.drained(); }

  /// The earliest pending arrival; a thread stalled on tag-pool
  /// exhaustion wakes on a completion (a path event) instead.
  [[nodiscard]] Cycle next_event(Cycle now) const {
    Cycle wake = kNoActivity;
    for (std::uint32_t t = 0; t < port_.threads; ++t) {
      const Cursor& cursor = cursors_[t];
      if (cursor.next >= port_.records(t).size() || !tags_[t].available()) {
        continue;
      }
      if (cursor.arrive_at <= now) return now + 1;
      wake = earlier(wake, cursor.arrive_at);
    }
    return port_.next_event(now, wake);
  }

 private:
  struct Cursor {
    std::size_t next = 0;
    Cycle arrive_at = 0;  ///< when the current record reaches the queue
    bool stamped = false;  ///< core_issue emitted for the current record
  };

  PathPort<Path>& port_;
  std::vector<Cursor> cursors_;
  std::vector<TagAllocator> tags_;
  std::uint32_t turn_ = 0;
};

/// Closed-loop feed (paper Sec. 3): each hardware thread may have a small
/// number of loads outstanding (hit-under-miss) and posts stores through a
/// finite store buffer; it stalls otherwise, and pays its recorded compute
/// gap between references. Up to `intake_ports` requests (one per core
/// port) enter the path per cycle.
template <typename Path>
class ClosedLoopFeed {
 public:
  explicit ClosedLoopFeed(PathPort<Path>& port)
      : port_(port),
        ports_(port.options.intake_ports == 0 ? port.config.cores
                                              : port.options.intake_ports),
        cursors_(port.threads) {
    for (std::uint32_t t = 0; t < port_.threads; ++t) {
      const auto& records = port_.records(t);
      if (!records.empty() && port_.options.charge_gaps) {
        cursors_[t].ready_at = records.front().gap;
      }
    }
  }

  void tick(Cycle now) {
    // Intake: scan the threads round-robin, presenting issuable requests
    // until the path's intake ports reject one (or every thread is busy).
    const std::uint32_t threads = port_.threads;
    std::uint32_t accepted = 0;
    bool intake_open = true;
    while (port_.records_left > 0 && accepted < ports_ && intake_open) {
      bool found = false;
      std::uint32_t t = turn_;
      for (std::uint32_t scan = 0; scan < threads;
           ++scan, t = next_thread(t, threads)) {
        Cursor& cursor = cursors_[t];
        if (!issuable(t, now)) continue;
        const MemRecord& record = port_.records(t)[cursor.next];
        if (!port_.present(t, record, cursor.tag, cursor.stamped, now)) {
          intake_open = false;  // ports exhausted for this cycle
          break;
        }
        ++cursor.tag;
        ++cursor.next;
        if (record.op == MemOp::kStore) {
          ++cursor.stores;
        } else {
          ++cursor.loads;  // loads, atomics and fences all complete back
        }
        turn_ = next_thread(t, threads);
        found = true;
        ++accepted;
        break;
      }
      if (!found) break;
    }
    port_.tick(now, [this](const CompletedAccess& done) {
      Cursor& cursor = cursors_[done.target.tid];
      if (done.write && !done.atomic && !done.fence) {
        --cursor.stores;
      } else {
        --cursor.loads;  // loads, atomics and fences
      }
      const auto& records = port_.records(done.target.tid);
      Cycle ready = done.completed;
      if (port_.options.charge_gaps && cursor.next < records.size()) {
        ready += records[cursor.next].gap;
      }
      cursor.ready_at = std::max(cursor.ready_at, ready);
    });
  }

  [[nodiscard]] bool drained() const { return port_.drained(); }

  /// The earliest ready time of a thread blocked only on time (not on
  /// its occupancy window, which a completion — a path event — opens).
  [[nodiscard]] Cycle next_event(Cycle now) const {
    Cycle wake = kNoActivity;
    for (std::uint32_t t = 0; t < port_.threads; ++t) {
      const Cursor& cursor = cursors_[t];
      if (cursor.next >= port_.records(t).size() || !window_open(t)) {
        continue;
      }
      if (cursor.ready_at <= now) return now + 1;
      wake = earlier(wake, cursor.ready_at);
    }
    return port_.next_event(now, wake);
  }

 private:
  struct Cursor {
    std::size_t next = 0;
    std::uint32_t loads = 0;   ///< outstanding loads + atomics
    std::uint32_t stores = 0;  ///< store-buffer occupancy
    Cycle ready_at = 0;
    Tag tag = 0;
    bool stamped = false;  ///< core_issue emitted for the current record
  };

  /// Thread `t`'s occupancy window admits its next record.
  [[nodiscard]] bool window_open(std::uint32_t t) const {
    const Cursor& cursor = cursors_[t];
    switch (port_.records(t)[cursor.next].op) {
      case MemOp::kFence:  // a fence waits for all of the thread's ops
        return cursor.loads == 0 && cursor.stores == 0;
      case MemOp::kStore:
        return cursor.stores < port_.options.max_stores_per_thread;
      case MemOp::kLoad:
      case MemOp::kAtomic:
        return cursor.loads < port_.options.max_loads_per_thread;
    }
    return false;
  }

  [[nodiscard]] bool issuable(std::uint32_t t, Cycle now) const {
    const Cursor& cursor = cursors_[t];
    return cursor.next < port_.records(t).size() && cursor.ready_at <= now &&
           window_open(t);
  }

  PathPort<Path>& port_;
  std::uint32_t ports_;
  std::vector<Cursor> cursors_;
  std::uint32_t turn_ = 0;
};

/// SIMT lane-group feed (FeedMode::kLaneGroup): threads form consecutive
/// groups of config.warp_lanes lanes. A group presents record step `s` of
/// every lane in lane order — gated on all lanes having paid their compute
/// gaps — and advances to step `s+1` only once every lane's step-`s`
/// request completed, reproducing a warp scheduler's lockstep issue. Lanes
/// with shorter streams simply drop out of later steps. Each lane has at
/// most one request in flight, so a per-lane tag cursor never reissues a
/// live (tid, tag).
template <typename Path>
class LaneGroupFeed {
 public:
  explicit LaneGroupFeed(PathPort<Path>& port)
      : port_(port), lanes_(port.threads) {
    const std::uint32_t threads = port_.threads;
    for (std::uint32_t t = 0; t < threads; ++t) {
      const auto& records = port_.records(t);
      if (!records.empty() && port_.options.charge_gaps) {
        lanes_[t].ready_at = records.front().gap;
      }
    }
    const std::uint32_t width =
        std::max<std::uint32_t>(1, port_.config.warp_lanes);
    for (std::uint32_t first = 0; first < threads; first += width) {
      Group group;
      group.first = first;
      group.count = std::min(width, threads - first);
      for (std::uint32_t l = 0; l < group.count; ++l) {
        group.steps = std::max(group.steps, port_.records(first + l).size());
      }
      groups_.push_back(group);
    }
  }

  void tick(Cycle now) {
    // Intake: groups in index order, lanes in lane order, until the
    // path's intake ports reject one.
    bool intake_open = port_.records_left > 0;
    for (const Group& group : groups_) {
      if (!intake_open) break;
      if (group.step >= group.steps || gate(group) > now) continue;
      for (std::uint32_t t = group.first;
           t < group.first + group.count && intake_open; ++t) {
        Lane& lane = lanes_[t];
        if (!participates(group, t) || lane.issued) continue;
        if (!port_.present(t, port_.records(t)[group.step], lane.tag,
                           lane.stamped, now)) {
          intake_open = false;
          break;
        }
        lane.issued = true;
        lane.outstanding = true;
      }
    }
    port_.tick(now, [this](const CompletedAccess& done) {
      Lane& lane = lanes_[done.target.tid];
      lane.outstanding = false;
      lane.completed_at = std::max(lane.completed_at, done.completed);
    });
    // Advance every group whose step fully completed.
    for (Group& group : groups_) {
      if (group.step >= group.steps) continue;
      bool done_step = true;
      for (std::uint32_t t = group.first; t < group.first + group.count; ++t) {
        if (participates(group, t) &&
            (!lanes_[t].issued || lanes_[t].outstanding)) {
          done_step = false;
          break;
        }
      }
      if (!done_step) continue;
      ++group.step;
      for (std::uint32_t t = group.first; t < group.first + group.count; ++t) {
        Lane& lane = lanes_[t];
        lane.issued = false;
        lane.stamped = false;
        ++lane.tag;
        const auto& records = port_.records(t);
        if (port_.options.charge_gaps && group.step < records.size()) {
          lane.ready_at = std::max(
              lane.ready_at, lane.completed_at + records[group.step].gap);
        }
      }
    }
  }

  [[nodiscard]] bool drained() const { return port_.drained(); }

  /// The earliest gate of a group with unissued lanes; a fully issued
  /// group wakes on a completion (a path event).
  [[nodiscard]] Cycle next_event(Cycle now) const {
    Cycle wake = kNoActivity;
    for (const Group& group : groups_) {
      if (group.step >= group.steps) continue;
      bool any_unissued = false;
      for (std::uint32_t t = group.first; t < group.first + group.count; ++t) {
        if (participates(group, t) && !lanes_[t].issued) {
          any_unissued = true;
          break;
        }
      }
      if (!any_unissued) continue;
      const Cycle at = gate(group);
      if (at <= now) return now + 1;
      wake = earlier(wake, at);
    }
    return port_.next_event(now, wake);
  }

 private:
  struct Lane {
    bool issued = false;       ///< current step's request accepted
    bool outstanding = false;  ///< awaiting its completion
    Cycle ready_at = 0;        ///< gap pacing for the current step
    Cycle completed_at = 0;    ///< last completion (next step's gap base)
    Tag tag = 0;
    bool stamped = false;  ///< core_issue emitted for the current step
  };
  struct Group {
    std::uint32_t first = 0;
    std::uint32_t count = 0;
    std::size_t step = 0;
    std::size_t steps = 0;  ///< longest lane stream in the group
  };

  [[nodiscard]] bool participates(const Group& group, std::uint32_t t) const {
    return port_.records(t).size() > group.step;
  }
  /// Lockstep gate: the step may start only once every participating lane
  /// has paid its gap.
  [[nodiscard]] Cycle gate(const Group& group) const {
    Cycle at = 0;
    for (std::uint32_t t = group.first; t < group.first + group.count; ++t) {
      if (participates(group, t)) at = std::max(at, lanes_[t].ready_at);
    }
    return at;
  }

  PathPort<Path>& port_;
  std::vector<Lane> lanes_;
  std::vector<Group> groups_;
};

/// Scopes one run's slice of a (possibly shared) CheckContext: snapshots
/// the counters, and guarantees finalize() runs while the pipeline is still
/// alive — including when a kThrow-mode breach unwinds out of the run loop
/// (declare the window *after* the device and the path).
class CheckWindow {
 public:
  explicit CheckWindow(CheckContext* context)
      : context_(context),
        checks_before_(context != nullptr ? context->checks_run() : 0),
        violations_before_(context != nullptr ? context->violations() : 0) {}

  CheckWindow(const CheckWindow&) = delete;
  CheckWindow& operator=(const CheckWindow&) = delete;

  ~CheckWindow() {
    if (context_ == nullptr || closed_) return;
    // Unwinding (kThrow): run the end-of-run audits anyway so the hooks
    // release their captured components; secondary breaches stay counted
    // but must not escape a destructor.
    try {
      context_->finalize();
    } catch (const InvariantViolation&) {  // NOLINT(bugprone-empty-catch)
    }
  }

  /// Normal completion: finalize and report this run's deltas.
  void close(DriverResult& result) {
    closed_ = true;
    if (context_ == nullptr) return;
    context_->finalize();
    result.checks_run = context_->checks_run() - checks_before_;
    result.check_violations = context_->violations() - violations_before_;
  }

 private:
  CheckContext* context_;
  std::uint64_t checks_before_;
  std::uint64_t violations_before_;
  bool closed_ = false;
};


/// One run of `Path` over the trace: device + path, checks and sinks,
/// the run's telemetry rows, then the feed `options.mode` selects on one
/// Clock. `args` are the path's extra constructor arguments.
template <typename Path, typename... Args>
DriverResult run_path(const MemoryTrace& trace, const SimConfig& config,
                      std::uint32_t threads, const DriveOptions& options,
                      Args... args) {
  HmcDevice device(config);
  Path path(config, device, args...);
  CheckWindow window(options.checks);
  if (options.checks != nullptr) {
    device.attach_checks(options.checks);
    path.attach_checks(options.checks);
  }
#if MAC3D_OBS_ENABLED
  if (options.sink != nullptr) {
    path.attach_sink(options.sink);
    device.attach_sink(options.sink);
  }
#endif
  const char* name = to_string(Path::kPolicy).data();
  Clock sim_clock(
      {options.census, options.sampler, options.snapshot, options.profiler},
      name, options.engine == Engine::kEvent, /*seal_census=*/true);
  PathPort<Path> port{path, config, options, sim_clock.census(),
                      std::min(threads, trace.threads())};
  for (std::uint32_t t = 0; t < port.threads; ++t) {
    port.streams.emplace_back(trace.thread(static_cast<ThreadId>(t)));
    port.records_left += port.streams.back().size();
  }
  if (CycleSampler* sampler = sim_clock.sampler()) {
    // The path's two series, then the device's: a uniform column set.
    sampler->add_probe("queue_occupancy", [&path](Cycle) {
      return static_cast<double>(path.occupancy());
    });
    sampler->add_probe("issue_backlog", [&path](Cycle) {
      return static_cast<double>(path.issue_backlog());
    });
    sampler->add_probe("device_in_flight", [&device](Cycle) {
      return static_cast<double>(device.in_flight());
    });
    sampler->add_probe("banks_busy", [&device](Cycle cycle) {
      return device.banks_busy_fraction(cycle);
    });
    for (std::uint32_t v = 0; v < device.vault_count(); ++v) {
      sampler->add_probe("vault" + std::to_string(v) + "_busy",
                         [&device, v](Cycle cycle) {
                           return device.vault_busy_fraction(v, cycle);
                         });
    }
    for (std::uint32_t l = 0; l < device.link_count(); ++l) {
      sampler->add_probe("link" + std::to_string(l) + "_backlog",
                         [&device, l](Cycle cycle) {
                           return static_cast<double>(
                               device.link_request_backlog(l, cycle));
                         });
      sampler->add_probe("link" + std::to_string(l) + "_flits",
                         [&device, l](Cycle) {
                           return static_cast<double>(
                               device.link_flits_sent(l));
                         });
    }
  }
  if (ActivityCensus* census = sim_clock.census()) {
    census->add_feeder("node0.feeder");
    path.register_census(*census, "node0.");
    device.register_census(*census, "node0.");
  }
  if (SnapshotStreamer* snapshot = sim_clock.snapshot()) {
    // "injected" counts everything that will eventually complete —
    // fences retire like requests, so they are folded in.
    snapshot->add_counter(SnapshotStreamer::kInjectedCounter,
                          [&path] { return path.ledger().injected(); });
    snapshot->add_counter(SnapshotStreamer::kCompletionsCounter,
                          [&port] { return port.completions; });
    snapshot->add_gauge("queue_occupancy", [&path] {
      return static_cast<double>(path.occupancy());
    });
    const HmcStats& stats = device.stats();
    snapshot->add_counter("packets", [&stats] { return stats.requests; });
    snapshot->add_counter("data_bytes", [&stats] { return stats.data_bytes; });
    snapshot->add_counter("link_bytes", [&stats] { return stats.link_bytes; });
    snapshot->add_gauge("device_in_flight", [&device] {
      return static_cast<double>(device.in_flight());
    });
  }

  switch (options.mode) {
    case FeedMode::kClosedLoop: {
      ClosedLoopFeed<Path> feed(port);
      sim_clock.run(feed);
      break;
    }
    case FeedMode::kLaneGroup: {
      LaneGroupFeed<Path> feed(port);
      sim_clock.run(feed);
      break;
    }
    case FeedMode::kStreaming: {
      StreamingFeed<Path> feed(port);
      sim_clock.run(feed);
      break;
    }
  }
  sim_clock.end(port.makespan);

  DriverResult result;
  result.path = name;
  result.makespan = port.makespan;
  result.completions = port.completions;
  const HmcStats& hmc = device.stats();
  result.packets = hmc.requests;
  result.bank_conflicts = hmc.bank_conflicts;
  result.refresh_stalls = hmc.refresh_stalls;
  result.row_hit_rate =
      hmc.requests == 0 ? 0.0
                        : static_cast<double>(hmc.row_hits) /
                              static_cast<double>(hmc.requests);
  result.data_bytes = hmc.data_bytes;
  result.link_bytes = hmc.link_bytes;
  result.overhead_bytes = hmc.overhead_bytes;
  result.avg_packet_bytes = hmc.packet_data_bytes.mean();
  result.device_latency_sum = hmc.latency_cycles.sum();
  result.device_latency_avg = hmc.latency_cycles.mean();
  window.close(result);
  result.raw_requests = path.ledger().raw_in();
  result.avg_latency_cycles = path.ledger().raw_latency().mean();
  result.packets_by_size = path.packets_by_size();
  if constexpr (std::is_same_v<Path, MacCoalescer>) {
    result.avg_targets_per_entry = path.arq().stats().targets_per_entry.mean();
    result.max_targets_per_entry = path.arq().stats().targets_per_entry.max();
  }
  return result;
}

}  // namespace

DriverResult run_mac(const MemoryTrace& trace, const SimConfig& config,
                     std::uint32_t threads, const DriveOptions& options) {
  return run_path<MacCoalescer>(trace, config, threads, options);
}

DriverResult run_raw(const MemoryTrace& trace, const SimConfig& config,
                     std::uint32_t threads, const DriveOptions& options) {
  return run_path<RawPath>(trace, config, threads, options);
}

DriverResult run_mshr(const MemoryTrace& trace, const SimConfig& config,
                      std::uint32_t threads, std::uint32_t mshr_entries,
                      std::uint32_t block_bytes, const DriveOptions& options) {
  return run_path<MshrCoalescer>(trace, config, threads, options,
                                 mshr_entries, block_bytes);
}

DriverResult run_warp(const MemoryTrace& trace, const SimConfig& config,
                      std::uint32_t threads, const DriveOptions& options) {
  return run_path<WarpCoalescer>(trace, config, threads, options);
}

DriverResult run_policy(CoalescerPolicy policy, const MemoryTrace& trace,
                        const SimConfig& config, std::uint32_t threads,
                        const DriveOptions& options) {
  switch (policy) {
    case CoalescerPolicy::kRaw:
      return run_raw(trace, config, threads, options);
    case CoalescerPolicy::kMshr:
      return run_mshr(trace, config, threads, config.mshr_entries,
                      config.mshr_block_bytes, options);
    case CoalescerPolicy::kWarp:
      return run_warp(trace, config, threads, options);
    case CoalescerPolicy::kMac:
      break;
  }
  return run_mac(trace, config, threads, options);
}

}  // namespace mac3d
