#include "sim/driver.hpp"

#include <algorithm>
#include <limits>
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

constexpr Cycle kNever = std::numeric_limits<Cycle>::max();

struct LoopResult {
  Cycle makespan = 0;       ///< cycle of the last completion
  std::uint64_t completions = 0;  ///< data records + retired fences
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
void run_streaming(Path& path, const MemoryTrace& trace,
                   const SimConfig& config, std::uint32_t threads,
                   const DriveOptions& options, LoopResult& result) {
  struct ThreadCursor {
    std::size_t next = 0;
    Cycle arrive_at = 0;  ///< when the current record reaches the queue
    bool stamped = false;  ///< core_issue emitted for the current record
  };
  const bool charge_gaps = options.charge_gaps;

  threads = std::min(threads, trace.threads());
  std::vector<ThreadCursor> cursors(threads);
  std::vector<TagAllocator> tags(threads, TagAllocator(options.tag_pool));
  std::uint64_t records_left = 0;
  for (std::uint32_t t = 0; t < threads; ++t) {
    const auto& records = trace.thread(static_cast<ThreadId>(t));
    records_left += records.size();
    if (!records.empty() && charge_gaps) {
      cursors[t].arrive_at = records.front().gap;
    }
  }

  Cycle now = 0;
  std::uint32_t turn = 0;
  const bool event_engine = options.engine == Engine::kEvent;
#if MAC3D_OBS_ENABLED
  ActivityCensus* const census = options.census;
  HostProfiler* const profiler = options.profiler;
  SnapshotStreamer* const snapshot = options.snapshot;
#else
  ActivityCensus* const census = nullptr;
  HostProfiler* const profiler = nullptr;
  SnapshotStreamer* const snapshot = nullptr;
#endif
  if (snapshot != nullptr) {
    // The loop counts completions, so the reserved completions counter
    // registers here; the run_* wrappers register the rest. `result` is
    // caller-owned: the counter is read again at end_run, after the loop
    // has returned.
    snapshot->add_counter(SnapshotStreamer::kCompletionsCounter,
                          [&result] { return result.completions; });
  }
  const Cycle livelock_at = options.inject_livelock_at;

  while (records_left > 0 || !path.idle()) {
    // Intake: present arrived records round-robin until the path's intake
    // ports reject one (or no arrival is pending).
    bool intake_open = records_left > 0;
    while (intake_open) {
      bool found = false;
      for (std::uint32_t scan = 0; scan < threads; ++scan) {
        const std::uint32_t t = (turn + scan) % threads;
        const auto tid = static_cast<ThreadId>(t);
        ThreadCursor& cursor = cursors[t];
        const auto& records = trace.thread(tid);
        if (cursor.next >= records.size() || cursor.arrive_at > now ||
            !tags[t].available()) {
          continue;
        }
        const MemRecord& record = records[cursor.next];
        RawRequest request;
        request.addr = record.addr;
        request.op = record.op;
        request.size = record.size;
        request.tid = tid;
        request.tag = tags[t].peek();
        request.core = static_cast<CoreId>(t % config.cores);
#if MAC3D_OBS_ENABLED
        // core_issue marks the first presentation attempt; the delta to the
        // path's queue_insert measures intake back-pressure. peek() is
        // stable across rejected attempts, so the stamp matches the tag
        // eventually allocated.
        if (options.sink != nullptr && !cursor.stamped) {
          options.sink->on_stage(Stage::kCoreIssue, tid, request.tag, now);
          cursor.stamped = true;
        }
#endif
        if (!path.try_accept(request, now)) {
          intake_open = false;
          break;
        }
        tags[t].allocate();
        if (census != nullptr) census->mark_feeder(now);
        ++cursor.next;
        cursor.stamped = false;
        --records_left;
        // Open-loop pacing: the next record arrives `gap` core cycles
        // after this one *was generated* (arrivals can back up).
        if (cursor.next < records.size()) {
          cursor.arrive_at += charge_gaps ? records[cursor.next].gap : 0;
        }
        turn = (t + 1) % threads;
        found = true;
        break;
      }
      if (!found) break;
    }

    {
      HostProfiler::Scope scope(profiler, HostPhase::kTick);
      path.tick(now);
    }
    {
      HostProfiler::Scope scope(profiler, HostPhase::kTelemetry);
      // Livelock fault injection (watchdog testing): past the trigger
      // cycle completions are left undelivered in the path.
      const bool drain_open = livelock_at == 0 || now < livelock_at;
      for (const CompletedAccess& done :
           drain_open ? path.drain(now) : std::vector<CompletedAccess>{}) {
        result.makespan = std::max(result.makespan, done.completed);
        ++result.completions;
        MAC3D_OBS_STAMP(options.sink, Stage::kCoreComplete, done.target.tid,
                        done.target.tag, done.completed);
        if (done.target.tid < threads) {
          tags[done.target.tid].release(done.target.tag);
        }
      }
      // Serial point: the cycle's work (tick, drain) is done.
      if (census != nullptr) census->observe(now);
    }
#if MAC3D_OBS_ENABLED
    if (options.sampler != nullptr) {
      HostProfiler::Scope scope(profiler, HostPhase::kSampler);
      options.sampler->advance_to(now);
    }
#endif
    if (snapshot != nullptr) {
      HostProfiler::Scope scope(profiler, HostPhase::kSampler);
      snapshot->advance_to(now);
    }
    // A fired watchdog abandons the run at this serial point — the only
    // exit a livelocked pipeline has.
    if (snapshot != nullptr && snapshot->watchdog_fired()) break;

    // Advance time. The strict cycle engine always steps one cycle (the
    // reference semantics); the event engine jumps to the minimum
    // next-activity cycle — the feeder's earliest arrival and the path's
    // next_event oracle — crediting the skipped span to the census and
    // sampler BEFORE the landing tick (which can raise device busy
    // thresholds and would falsely mark the span active).
    if (!event_engine) {
      ++now;
      continue;
    }
    Cycle next = kNever;
    if (records_left > 0) {
      Cycle earliest = kNever;
      bool pending_now = false;
      for (std::uint32_t t = 0; t < threads; ++t) {
        const ThreadCursor& cursor = cursors[t];
        if (cursor.next >= trace.thread(static_cast<ThreadId>(t)).size()) {
          continue;
        }
        // A thread stalled on tag-pool exhaustion wakes on a completion
        // (path event), not on an arrival time.
        if (!tags[t].available()) continue;
        if (cursor.arrive_at <= now) {
          pending_now = true;
          break;
        }
        earliest = std::min(earliest, cursor.arrive_at);
      }
      if (pending_now) {
        next = now + 1;
      } else {
        next = earliest;
      }
    }
    const Cycle path_next = path.next_event(now);
    if (path_next > now) next = std::min(next, path_next);
    next = (next == kNever || next <= now) ? now + 1 : next;
    // Snapshot boundaries are mandatory landing cycles: never skip over
    // one, so every engine samples every window at identical state.
    if (snapshot != nullptr) {
      next = std::min(next, snapshot->next_boundary(now));
    }
    if (next > now + 1) {
      if (census != nullptr) census->skip_to(next);
#if MAC3D_OBS_ENABLED
      if (options.sampler != nullptr) {
        HostProfiler::Scope scope(profiler, HostPhase::kSampler);
        options.sampler->advance_to(next - 1);
      }
#endif
    }
    now = next;
  }
}

/// Closed-loop feed (paper Sec. 3): each hardware thread may have a small
/// number of loads outstanding (hit-under-miss) and posts stores through a
/// finite store buffer; it stalls otherwise, and pays its recorded compute
/// gap between references. Up to `intake_ports` requests (one per core
/// port) enter the path per cycle.
template <typename Path>
void run_closed_loop(Path& path, const MemoryTrace& trace,
                     const SimConfig& config, std::uint32_t threads,
                     const DriveOptions& options, LoopResult& result) {
  struct ThreadCursor {
    std::size_t next = 0;
    std::uint32_t loads = 0;   ///< outstanding loads + atomics
    std::uint32_t stores = 0;  ///< store-buffer occupancy
    Cycle ready_at = 0;
    Tag tag = 0;
    bool stamped = false;  ///< core_issue emitted for the current record
  };

  threads = std::min(threads, trace.threads());
  const std::uint32_t ports =
      options.intake_ports == 0 ? config.cores : options.intake_ports;
  std::vector<ThreadCursor> cursors(threads);
  std::uint64_t records_left = 0;
  for (std::uint32_t t = 0; t < threads; ++t) {
    const auto& records = trace.thread(static_cast<ThreadId>(t));
    records_left += records.size();
    if (!records.empty() && options.charge_gaps) {
      cursors[t].ready_at = records.front().gap;
    }
  }

  Cycle now = 0;
  std::uint32_t turn = 0;
  std::uint64_t outstanding_total = 0;
  const bool event_engine = options.engine == Engine::kEvent;
#if MAC3D_OBS_ENABLED
  ActivityCensus* const census = options.census;
  HostProfiler* const profiler = options.profiler;
  SnapshotStreamer* const snapshot = options.snapshot;
#else
  ActivityCensus* const census = nullptr;
  HostProfiler* const profiler = nullptr;
  SnapshotStreamer* const snapshot = nullptr;
#endif
  if (snapshot != nullptr) {
    // The loop counts completions, so the reserved completions counter
    // registers here; the run_* wrappers register the rest. `result` is
    // caller-owned: the counter is read again at end_run, after the loop
    // has returned.
    snapshot->add_counter(SnapshotStreamer::kCompletionsCounter,
                          [&result] { return result.completions; });
  }
  const Cycle livelock_at = options.inject_livelock_at;

  auto thread_issuable = [&](const ThreadCursor& cursor,
                             ThreadId tid) -> bool {
    const auto& records = trace.thread(tid);
    if (cursor.next >= records.size() || cursor.ready_at > now) return false;
    switch (records[cursor.next].op) {
      case MemOp::kFence:  // a fence waits for all of the thread's ops
        return cursor.loads == 0 && cursor.stores == 0;
      case MemOp::kStore:
        return cursor.stores < options.max_stores_per_thread;
      case MemOp::kLoad:
      case MemOp::kAtomic:
        return cursor.loads < options.max_loads_per_thread;
    }
    return false;
  };

  while (records_left > 0 || outstanding_total > 0 || !path.idle()) {
    // Intake: scan the threads round-robin, presenting issuable requests
    // until the path's intake ports reject one (or every thread is busy).
    std::uint32_t accepted = 0;
    bool intake_open = true;
    while (records_left > 0 && accepted < ports && intake_open) {
      bool found = false;
      for (std::uint32_t scan = 0; scan < threads; ++scan) {
        const std::uint32_t t = (turn + scan) % threads;
        const auto tid = static_cast<ThreadId>(t);
        ThreadCursor& cursor = cursors[t];
        if (!thread_issuable(cursor, tid)) continue;
        const MemRecord& record = trace.thread(tid)[cursor.next];
        RawRequest request;
        request.addr = record.addr;
        request.op = record.op;
        request.size = record.size;
        request.tid = tid;
        request.tag = cursor.tag;
        request.core = static_cast<CoreId>(t % config.cores);
#if MAC3D_OBS_ENABLED
        if (options.sink != nullptr && !cursor.stamped) {
          options.sink->on_stage(Stage::kCoreIssue, tid, cursor.tag, now);
          cursor.stamped = true;
        }
#endif
        if (!path.try_accept(request, now)) {
          intake_open = false;  // ports exhausted for this cycle
          break;
        }
        ++cursor.tag;
        if (census != nullptr) census->mark_feeder(now);
        ++cursor.next;
        cursor.stamped = false;
        if (record.op == MemOp::kStore) {
          ++cursor.stores;
        } else {
          ++cursor.loads;  // loads, atomics and fences all complete back
        }
        ++outstanding_total;
        --records_left;
        turn = (t + 1) % threads;
        found = true;
        ++accepted;
        break;
      }
      if (!found) break;
    }

    {
      HostProfiler::Scope scope(profiler, HostPhase::kTick);
      path.tick(now);
    }
    {
      HostProfiler::Scope scope(profiler, HostPhase::kTelemetry);
      // Livelock fault injection (watchdog testing): past the trigger
      // cycle completions are left undelivered in the path.
      const bool drain_open = livelock_at == 0 || now < livelock_at;
      for (const CompletedAccess& done :
           drain_open ? path.drain(now) : std::vector<CompletedAccess>{}) {
        result.makespan = std::max(result.makespan, done.completed);
        ++result.completions;
        MAC3D_OBS_STAMP(options.sink, Stage::kCoreComplete, done.target.tid,
                        done.target.tag, done.completed);
        const std::uint32_t t = done.target.tid;
        if (t >= threads) continue;  // foreign node traffic (not used here)
        ThreadCursor& cursor = cursors[t];
        if (done.write && !done.atomic && !done.fence) {
          --cursor.stores;
        } else {
          --cursor.loads;  // loads, atomics and fences
        }
        --outstanding_total;
        const auto& records = trace.thread(static_cast<ThreadId>(t));
        Cycle ready = done.completed;
        if (options.charge_gaps && cursor.next < records.size()) {
          ready += records[cursor.next].gap;
        }
        cursor.ready_at = std::max(cursor.ready_at, ready);
      }
      // Serial point: the cycle's work (tick, drain) is done.
      if (census != nullptr) census->observe(now);
    }
#if MAC3D_OBS_ENABLED
    if (options.sampler != nullptr) {
      HostProfiler::Scope scope(profiler, HostPhase::kSampler);
      options.sampler->advance_to(now);
    }
#endif
    if (snapshot != nullptr) {
      HostProfiler::Scope scope(profiler, HostPhase::kSampler);
      snapshot->advance_to(now);
    }
    // A fired watchdog abandons the run at this serial point — the only
    // exit a livelocked pipeline has.
    if (snapshot != nullptr && snapshot->watchdog_fired()) break;

    // Advance time. The strict cycle engine steps one cycle; the event
    // engine jumps to the earliest of (path event, thread ready time),
    // crediting the skipped span before the landing tick (see
    // run_streaming).
    if (!event_engine) {
      ++now;
      continue;
    }
    Cycle next = kNever;
    if (records_left > 0) {
      bool now_issuable = false;
      Cycle earliest_ready = kNever;
      for (std::uint32_t t = 0; t < threads; ++t) {
        const auto tid = static_cast<ThreadId>(t);
        const ThreadCursor& cursor = cursors[t];
        const auto& records = trace.thread(tid);
        if (cursor.next >= records.size()) continue;
        if (thread_issuable(cursor, tid)) {
          now_issuable = true;
          break;
        }
        // Blocked only on time (not on an occupancy window)?
        const MemRecord& record = records[cursor.next];
        bool window_ok = false;
        switch (record.op) {
          case MemOp::kFence:
            window_ok = cursor.loads == 0 && cursor.stores == 0;
            break;
          case MemOp::kStore:
            window_ok = cursor.stores < options.max_stores_per_thread;
            break;
          default:
            window_ok = cursor.loads < options.max_loads_per_thread;
        }
        if (window_ok && cursor.ready_at > now) {
          earliest_ready = std::min(earliest_ready, cursor.ready_at);
        }
      }
      if (now_issuable) {
        next = now + 1;
      } else if (earliest_ready != kNever) {
        next = earliest_ready;
      }
    }
    const Cycle path_next = path.next_event(now);
    if (path_next > now) next = std::min(next, path_next);
    next = (next == kNever || next <= now) ? now + 1 : next;
    // Snapshot boundaries are mandatory landing cycles: never skip over
    // one, so every engine samples every window at identical state.
    if (snapshot != nullptr) {
      next = std::min(next, snapshot->next_boundary(now));
    }
    if (next > now + 1) {
      if (census != nullptr) census->skip_to(next);
#if MAC3D_OBS_ENABLED
      if (options.sampler != nullptr) {
        HostProfiler::Scope scope(profiler, HostPhase::kSampler);
        options.sampler->advance_to(next - 1);
      }
#endif
    }
    now = next;
  }
}

/// SIMT lane-group feed (FeedMode::kLaneGroup): threads form consecutive
/// groups of config.warp_lanes lanes. A group presents record step `s` of
/// every lane in lane order — gated on all lanes having paid their compute
/// gaps — and advances to step `s+1` only once every lane's step-`s`
/// request completed, reproducing a warp scheduler's lockstep issue. Lanes
/// with shorter streams simply drop out of later steps. Each lane has at
/// most one request in flight, so a per-lane tag cursor never reissues a
/// live (tid, tag).
template <typename Path>
void run_lane_group(Path& path, const MemoryTrace& trace,
                    const SimConfig& config, std::uint32_t threads,
                    const DriveOptions& options, LoopResult& result) {
  struct LaneState {
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

  threads = std::min(threads, trace.threads());
  const std::uint32_t lanes = std::max<std::uint32_t>(1, config.warp_lanes);
  std::vector<LaneState> lane_state(threads);
  std::vector<Group> groups;
  std::uint64_t records_left = 0;
  for (std::uint32_t t = 0; t < threads; ++t) {
    const auto& records = trace.thread(static_cast<ThreadId>(t));
    records_left += records.size();
    if (!records.empty() && options.charge_gaps) {
      lane_state[t].ready_at = records.front().gap;
    }
  }
  for (std::uint32_t first = 0; first < threads; first += lanes) {
    Group group;
    group.first = first;
    group.count = std::min(lanes, threads - first);
    for (std::uint32_t l = 0; l < group.count; ++l) {
      group.steps = std::max(
          group.steps, trace.thread(static_cast<ThreadId>(first + l)).size());
    }
    groups.push_back(group);
  }

  Cycle now = 0;
  std::uint64_t outstanding_total = 0;
  const bool event_engine = options.engine == Engine::kEvent;
#if MAC3D_OBS_ENABLED
  ActivityCensus* const census = options.census;
  HostProfiler* const profiler = options.profiler;
  SnapshotStreamer* const snapshot = options.snapshot;
#else
  ActivityCensus* const census = nullptr;
  HostProfiler* const profiler = nullptr;
  SnapshotStreamer* const snapshot = nullptr;
#endif
  if (snapshot != nullptr) {
    // The loop counts completions, so the reserved completions counter
    // registers here; the run_* wrappers register the rest. `result` is
    // caller-owned: the counter is read again at end_run, after the loop
    // has returned.
    snapshot->add_counter(SnapshotStreamer::kCompletionsCounter,
                          [&result] { return result.completions; });
  }
  const Cycle livelock_at = options.inject_livelock_at;

  const auto participates = [&trace](const Group& group, std::uint32_t t) {
    return trace.thread(static_cast<ThreadId>(t)).size() > group.step;
  };
  // Lockstep gate: the step may start only once every participating lane
  // has paid its gap.
  const auto group_gate = [&](const Group& group) -> Cycle {
    Cycle gate = 0;
    for (std::uint32_t l = 0; l < group.count; ++l) {
      const std::uint32_t t = group.first + l;
      if (!participates(group, t)) continue;
      gate = std::max(gate, lane_state[t].ready_at);
    }
    return gate;
  };

  while (records_left > 0 || outstanding_total > 0 || !path.idle()) {
    // Intake: groups in index order, lanes in lane order, until the
    // path's intake ports reject one.
    bool intake_open = records_left > 0;
    for (Group& group : groups) {
      if (!intake_open) break;
      if (group.step >= group.steps) continue;
      if (group_gate(group) > now) continue;
      for (std::uint32_t l = 0; l < group.count && intake_open; ++l) {
        const std::uint32_t t = group.first + l;
        if (!participates(group, t)) continue;
        LaneState& lane = lane_state[t];
        if (lane.issued) continue;
        const auto tid = static_cast<ThreadId>(t);
        const MemRecord& record = trace.thread(tid)[group.step];
        RawRequest request;
        request.addr = record.addr;
        request.op = record.op;
        request.size = record.size;
        request.tid = tid;
        request.tag = lane.tag;
        request.core = static_cast<CoreId>(t % config.cores);
#if MAC3D_OBS_ENABLED
        if (options.sink != nullptr && !lane.stamped) {
          options.sink->on_stage(Stage::kCoreIssue, tid, lane.tag, now);
          lane.stamped = true;
        }
#endif
        if (!path.try_accept(request, now)) {
          intake_open = false;
          break;
        }
        lane.issued = true;
        lane.outstanding = true;
        if (census != nullptr) census->mark_feeder(now);
        ++outstanding_total;
        --records_left;
      }
    }

    {
      HostProfiler::Scope scope(profiler, HostPhase::kTick);
      path.tick(now);
    }
    {
      HostProfiler::Scope scope(profiler, HostPhase::kTelemetry);
      // Livelock fault injection (watchdog testing): past the trigger
      // cycle completions are left undelivered in the path.
      const bool drain_open = livelock_at == 0 || now < livelock_at;
      for (const CompletedAccess& done :
           drain_open ? path.drain(now) : std::vector<CompletedAccess>{}) {
        result.makespan = std::max(result.makespan, done.completed);
        ++result.completions;
        MAC3D_OBS_STAMP(options.sink, Stage::kCoreComplete, done.target.tid,
                        done.target.tag, done.completed);
        const std::uint32_t t = done.target.tid;
        if (t >= threads) continue;
        LaneState& lane = lane_state[t];
        lane.outstanding = false;
        lane.completed_at = std::max(lane.completed_at, done.completed);
        --outstanding_total;
      }
      // Advance every group whose step fully completed.
      for (Group& group : groups) {
        if (group.step >= group.steps) continue;
        bool done_step = true;
        for (std::uint32_t l = 0; l < group.count; ++l) {
          const std::uint32_t t = group.first + l;
          if (!participates(group, t)) continue;
          const LaneState& lane = lane_state[t];
          if (!lane.issued || lane.outstanding) {
            done_step = false;
            break;
          }
        }
        if (!done_step) continue;
        ++group.step;
        for (std::uint32_t l = 0; l < group.count; ++l) {
          const std::uint32_t t = group.first + l;
          LaneState& lane = lane_state[t];
          lane.issued = false;
          lane.stamped = false;
          ++lane.tag;
          const auto& records = trace.thread(static_cast<ThreadId>(t));
          if (options.charge_gaps && group.step < records.size()) {
            lane.ready_at = std::max(
                lane.ready_at, lane.completed_at + records[group.step].gap);
          }
        }
      }
      // Serial point: the cycle's work (tick, drain) is done.
      if (census != nullptr) census->observe(now);
    }
#if MAC3D_OBS_ENABLED
    if (options.sampler != nullptr) {
      HostProfiler::Scope scope(profiler, HostPhase::kSampler);
      options.sampler->advance_to(now);
    }
#endif
    if (snapshot != nullptr) {
      HostProfiler::Scope scope(profiler, HostPhase::kSampler);
      snapshot->advance_to(now);
    }
    // A fired watchdog abandons the run at this serial point — the only
    // exit a livelocked pipeline has.
    if (snapshot != nullptr && snapshot->watchdog_fired()) break;

    // Advance time (see run_streaming): the event engine jumps to the
    // earliest of (path event, earliest group gate).
    if (!event_engine) {
      ++now;
      continue;
    }
    Cycle next = kNever;
    if (records_left > 0) {
      bool pending_now = false;
      Cycle earliest = kNever;
      for (const Group& group : groups) {
        if (group.step >= group.steps) continue;
        bool any_unissued = false;
        for (std::uint32_t l = 0; l < group.count; ++l) {
          const std::uint32_t t = group.first + l;
          if (participates(group, t) && !lane_state[t].issued) {
            any_unissued = true;
            break;
          }
        }
        // A fully issued group wakes on a completion (a path event).
        if (!any_unissued) continue;
        const Cycle gate = group_gate(group);
        if (gate <= now) {
          pending_now = true;
          break;
        }
        earliest = std::min(earliest, gate);
      }
      if (pending_now) {
        next = now + 1;
      } else {
        next = earliest;
      }
    }
    const Cycle path_next = path.next_event(now);
    if (path_next > now) next = std::min(next, path_next);
    next = (next == kNever || next <= now) ? now + 1 : next;
    // Snapshot boundaries are mandatory landing cycles: never skip over
    // one, so every engine samples every window at identical state.
    if (snapshot != nullptr) {
      next = std::min(next, snapshot->next_boundary(now));
    }
    if (next > now + 1) {
      if (census != nullptr) census->skip_to(next);
#if MAC3D_OBS_ENABLED
      if (options.sampler != nullptr) {
        HostProfiler::Scope scope(profiler, HostPhase::kSampler);
        options.sampler->advance_to(next - 1);
      }
#endif
    }
    now = next;
  }
}

template <typename Path>
DriverResult finish(Path& path, const HmcDevice& device,
                    const LoopResult& loop, const char* name) {
  DriverResult result;
  result.path = name;
  result.makespan = loop.makespan;
  result.completions = loop.completions;
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
  (void)path;
  return result;
}

template <typename Path>
void dispatch(Path& path, const MemoryTrace& trace, const SimConfig& config,
              std::uint32_t threads, const DriveOptions& options,
              LoopResult& result) {
  switch (options.mode) {
    case FeedMode::kClosedLoop:
      run_closed_loop(path, trace, config, threads, options, result);
      return;
    case FeedMode::kLaneGroup:
      run_lane_group(path, trace, config, threads, options, result);
      return;
    case FeedMode::kStreaming:
      break;
  }
  run_streaming(path, trace, config, threads, options, result);
}

/// Scopes one run's slice of a (possibly shared) CheckContext: snapshots
/// the counters, and guarantees finalize() runs while the pipeline is still
/// alive — including when a kThrow-mode breach unwinds out of the run loop
/// (declare the window *after* the device and the path).
class CheckWindow {
 public:
  explicit CheckWindow(CheckContext* context) : context_(context) {
    if (context_ != nullptr) {
      checks_before_ = context_->checks_run();
      violations_before_ = context_->violations();
    }
  }

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
  std::uint64_t checks_before_ = 0;
  std::uint64_t violations_before_ = 0;
  bool closed_ = false;
};

/// Scopes one run's slice of a (possibly shared) CycleSampler: opens the
/// sampling window, and guarantees the probes — which capture the run's
/// path and device by reference — are dropped before those objects die,
/// including on exception unwind (declare after the device and the path).
class SamplerWindow {
 public:
  SamplerWindow(CycleSampler* sampler, const char* path_name)
      : sampler_(sampler) {
    if (sampler_ != nullptr) sampler_->begin_run(path_name);
  }

  SamplerWindow(const SamplerWindow&) = delete;
  SamplerWindow& operator=(const SamplerWindow&) = delete;

  ~SamplerWindow() {
    if (sampler_ != nullptr && !closed_) sampler_->abort_run();
  }

  /// Normal completion: flush the tail windows up to the makespan.
  void close(Cycle makespan) {
    closed_ = true;
    if (sampler_ != nullptr) sampler_->end_run(makespan);
  }

 private:
  CycleSampler* sampler_;
  bool closed_ = false;
};

/// Scopes one run's slice of a (possibly shared) SnapshotStreamer: opens
/// the snapshot run, and guarantees the probes — which capture the run's
/// path and device by reference — are dropped before those objects die,
/// including on exception unwind (same hazard as SamplerWindow).
class SnapshotWindow {
 public:
  SnapshotWindow(SnapshotStreamer* snapshot, const char* path_name)
      : snapshot_(snapshot) {
    if (snapshot_ != nullptr) snapshot_->begin_run(path_name);
  }

  SnapshotWindow(const SnapshotWindow&) = delete;
  SnapshotWindow& operator=(const SnapshotWindow&) = delete;

  ~SnapshotWindow() {
    if (snapshot_ != nullptr && !closed_) snapshot_->abort_run();
  }

  /// Normal completion: flush the tail windows and the run footer.
  void close(Cycle makespan) {
    closed_ = true;
    if (snapshot_ != nullptr) snapshot_->end_run(makespan);
  }

 private:
  SnapshotStreamer* snapshot_;
  bool closed_ = false;
};

/// Scopes one run's slice of a (possibly shared) ActivityCensus: its
/// probes capture the run's path and device by reference, so seal() must
/// run before those objects die — including on exception unwind (declare
/// after the device and the path, like SamplerWindow). Counts survive the
/// seal; a shared census accumulates across runs.
class CensusWindow {
 public:
  explicit CensusWindow(ActivityCensus* census) : census_(census) {}
  CensusWindow(const CensusWindow&) = delete;
  CensusWindow& operator=(const CensusWindow&) = delete;
  ~CensusWindow() {
    if (census_ != nullptr) census_->seal();
  }

 private:
  ActivityCensus* census_;
};

#if MAC3D_OBS_ENABLED
/// Device-side probes shared by every path (registered after the path's
/// own probes so the CSV column set is uniform: queue_occupancy,
/// issue_backlog, then the device series).
void register_device_probes(CycleSampler& sampler, const HmcDevice& device) {
  sampler.add_probe("device_in_flight", [&device](Cycle) {
    return static_cast<double>(device.in_flight());
  });
  sampler.add_probe("banks_busy", [&device](Cycle cycle) {
    return device.banks_busy_fraction(cycle);
  });
  for (std::uint32_t v = 0; v < device.vault_count(); ++v) {
    sampler.add_probe("vault" + std::to_string(v) + "_busy",
                      [&device, v](Cycle cycle) {
                        return device.vault_busy_fraction(v, cycle);
                      });
  }
  for (std::uint32_t l = 0; l < device.link_count(); ++l) {
    sampler.add_probe("link" + std::to_string(l) + "_backlog",
                      [&device, l](Cycle cycle) {
                        return static_cast<double>(
                            device.link_request_backlog(l, cycle));
                      });
    sampler.add_probe("link" + std::to_string(l) + "_flits",
                      [&device, l](Cycle) {
                        return static_cast<double>(device.link_flits_sent(l));
                      });
  }
}

/// Device-side snapshot counters/gauges shared by every path (the path
/// adapter registers the reserved injected counter and its own occupancy
/// gauge; the loop registers the reserved completions counter).
void register_device_snapshot(SnapshotStreamer& snapshot,
                              const HmcDevice& device) {
  const HmcStats& stats = device.stats();
  snapshot.add_counter("packets", [&stats] { return stats.requests; });
  snapshot.add_counter("data_bytes", [&stats] { return stats.data_bytes; });
  snapshot.add_counter("link_bytes", [&stats] { return stats.link_bytes; });
  snapshot.add_gauge("device_in_flight", [&device] {
    return static_cast<double>(device.in_flight());
  });
}
#endif  // MAC3D_OBS_ENABLED

}  // namespace

DriverResult run_mac(const MemoryTrace& trace, const SimConfig& config,
                     std::uint32_t threads, const DriveOptions& options) {
  HmcDevice device(config);
  MacCoalescer mac(config, device);
  CheckWindow window(options.checks);
  if (options.checks != nullptr) {
    device.attach_checks(options.checks);
    mac.attach_checks(options.checks);
  }
#if MAC3D_OBS_ENABLED
  if (options.sink != nullptr) {
    mac.attach_sink(options.sink);
    device.attach_sink(options.sink);
  }
#endif
#if MAC3D_OBS_ENABLED
  CycleSampler* const sampler = options.sampler;
  ActivityCensus* const census = options.census;
  SnapshotStreamer* const snapshot = options.snapshot;
#else
  CycleSampler* const sampler = nullptr;
  ActivityCensus* const census = nullptr;
  SnapshotStreamer* const snapshot = nullptr;
#endif
  SamplerWindow swindow(sampler, "mac");
  CensusWindow cwindow(census);
  SnapshotWindow snwindow(snapshot, "mac");
#if MAC3D_OBS_ENABLED
  if (sampler != nullptr) {
    sampler->add_probe("queue_occupancy", [&mac](Cycle) {
      return static_cast<double>(mac.arq().size());
    });
    sampler->add_probe("issue_backlog", [&mac](Cycle) {
      return static_cast<double>(mac.issue_backlog());
    });
    register_device_probes(*sampler, device);
  }
  if (census != nullptr) {
    census->add_feeder("node0.feeder");
    census->add_stamp("node0.mac", mac.last_work());
    census->add_stamp("node0.arq", mac.arq_last_work());
    census->add_stamp("node0.builder", mac.builder_last_work());
    census->add_stamp("node0.flit_table", mac.flit_table_last_work());
    device.register_census(*census, "node0.");
  }
  if (snapshot != nullptr) {
    // "injected" counts everything that will eventually complete —
    // fences retire like requests, so they are folded in.
    snapshot->add_counter(SnapshotStreamer::kInjectedCounter, [&mac] {
      return mac.stats().raw_in + mac.stats().fences_in;
    });
    snapshot->add_gauge("queue_occupancy", [&mac] {
      return static_cast<double>(mac.arq().size());
    });
    register_device_snapshot(*snapshot, device);
    snapshot->attach_census(census);
  }
#endif
  LoopResult loop;
  dispatch(mac, trace, config, threads, options, loop);
  DriverResult result = finish(mac, device, loop, "mac");
  snwindow.close(loop.makespan);
  swindow.close(loop.makespan);
  window.close(result);
  result.raw_requests = mac.stats().raw_in;
  result.avg_latency_cycles = mac.stats().raw_latency_cycles.mean();
  result.avg_targets_per_entry = mac.arq().stats().targets_per_entry.mean();
  result.max_targets_per_entry = mac.arq().stats().targets_per_entry.max();
  result.packets_by_size = mac.stats().packets_by_size;
  return result;
}

DriverResult run_raw(const MemoryTrace& trace, const SimConfig& config,
                     std::uint32_t threads, const DriveOptions& options) {
  HmcDevice device(config);
  RawPath raw(config, device);
  CheckWindow window(options.checks);
  if (options.checks != nullptr) {
    device.attach_checks(options.checks);
    raw.attach_checks(options.checks);
  }
#if MAC3D_OBS_ENABLED
  if (options.sink != nullptr) {
    raw.attach_sink(options.sink);
    device.attach_sink(options.sink);
  }
#endif
#if MAC3D_OBS_ENABLED
  CycleSampler* const sampler = options.sampler;
  ActivityCensus* const census = options.census;
  SnapshotStreamer* const snapshot = options.snapshot;
#else
  CycleSampler* const sampler = nullptr;
  ActivityCensus* const census = nullptr;
  SnapshotStreamer* const snapshot = nullptr;
#endif
  SamplerWindow swindow(sampler, "raw");
  CensusWindow cwindow(census);
  SnapshotWindow snwindow(snapshot, "raw");
#if MAC3D_OBS_ENABLED
  if (sampler != nullptr) {
    sampler->add_probe("queue_occupancy", [&raw](Cycle) {
      return static_cast<double>(raw.queue_depth());
    });
    sampler->add_probe("issue_backlog", [](Cycle) { return 0.0; });
    register_device_probes(*sampler, device);
  }
  if (census != nullptr) {
    census->add_feeder("node0.feeder");
    census->add_stamp("node0.queue", raw.last_work());
    device.register_census(*census, "node0.");
  }
  if (snapshot != nullptr) {
    snapshot->add_counter(SnapshotStreamer::kInjectedCounter, [&raw] {
      return raw.raw_in() + raw.fences_in();
    });
    snapshot->add_gauge("queue_occupancy", [&raw] {
      return static_cast<double>(raw.queue_depth());
    });
    register_device_snapshot(*snapshot, device);
    snapshot->attach_census(census);
  }
#endif
  LoopResult loop;
  dispatch(raw, trace, config, threads, options, loop);
  DriverResult result = finish(raw, device, loop, "raw");
  snwindow.close(loop.makespan);
  swindow.close(loop.makespan);
  window.close(result);
  result.raw_requests = raw.raw_in();
  result.avg_latency_cycles = raw.latency().mean();
  result.packets_by_size[kFlitBytes] = raw.packets_out();
  return result;
}

DriverResult run_mshr(const MemoryTrace& trace, const SimConfig& config,
                      std::uint32_t threads, std::uint32_t mshr_entries,
                      std::uint32_t block_bytes, const DriveOptions& options) {
  HmcDevice device(config);
  MshrCoalescer mshr(config, device, mshr_entries, block_bytes);
  CheckWindow window(options.checks);
  if (options.checks != nullptr) {
    device.attach_checks(options.checks);
    mshr.attach_checks(options.checks);
  }
#if MAC3D_OBS_ENABLED
  if (options.sink != nullptr) {
    mshr.attach_sink(options.sink);
    device.attach_sink(options.sink);
  }
#endif
#if MAC3D_OBS_ENABLED
  CycleSampler* const sampler = options.sampler;
  ActivityCensus* const census = options.census;
  SnapshotStreamer* const snapshot = options.snapshot;
#else
  CycleSampler* const sampler = nullptr;
  ActivityCensus* const census = nullptr;
  SnapshotStreamer* const snapshot = nullptr;
#endif
  SamplerWindow swindow(sampler, "mshr");
  CensusWindow cwindow(census);
  SnapshotWindow snwindow(snapshot, "mshr");
#if MAC3D_OBS_ENABLED
  if (sampler != nullptr) {
    sampler->add_probe("queue_occupancy", [&mshr](Cycle) {
      return static_cast<double>(mshr.occupancy());
    });
    sampler->add_probe("issue_backlog", [&mshr](Cycle) {
      return static_cast<double>(mshr.dispatch_backlog());
    });
    register_device_probes(*sampler, device);
  }
  if (census != nullptr) {
    census->add_feeder("node0.feeder");
    census->add_stamp("node0.mshr", mshr.last_work());
    device.register_census(*census, "node0.");
  }
  if (snapshot != nullptr) {
    snapshot->add_counter(SnapshotStreamer::kInjectedCounter, [&mshr] {
      return mshr.stats().raw_in + mshr.stats().fences_in;
    });
    snapshot->add_gauge("queue_occupancy", [&mshr] {
      return static_cast<double>(mshr.occupancy());
    });
    register_device_snapshot(*snapshot, device);
    snapshot->attach_census(census);
  }
#endif
  LoopResult loop;
  dispatch(mshr, trace, config, threads, options, loop);
  DriverResult result = finish(mshr, device, loop, "mshr");
  snwindow.close(loop.makespan);
  swindow.close(loop.makespan);
  window.close(result);
  result.raw_requests = mshr.stats().raw_in;
  result.avg_latency_cycles = mshr.stats().raw_latency_cycles.mean();
  result.packets_by_size[block_bytes] = mshr.stats().packets_out;
  return result;
}

DriverResult run_warp(const MemoryTrace& trace, const SimConfig& config,
                      std::uint32_t threads, const DriveOptions& options) {
  HmcDevice device(config);
  WarpCoalescer warp(config, device);
  CheckWindow window(options.checks);
  if (options.checks != nullptr) {
    device.attach_checks(options.checks);
    warp.attach_checks(options.checks);
  }
#if MAC3D_OBS_ENABLED
  if (options.sink != nullptr) {
    warp.attach_sink(options.sink);
    device.attach_sink(options.sink);
  }
#endif
#if MAC3D_OBS_ENABLED
  CycleSampler* const sampler = options.sampler;
  ActivityCensus* const census = options.census;
  SnapshotStreamer* const snapshot = options.snapshot;
#else
  CycleSampler* const sampler = nullptr;
  ActivityCensus* const census = nullptr;
  SnapshotStreamer* const snapshot = nullptr;
#endif
  SamplerWindow swindow(sampler, "warp");
  CensusWindow cwindow(census);
  SnapshotWindow snwindow(snapshot, "warp");
#if MAC3D_OBS_ENABLED
  if (sampler != nullptr) {
    sampler->add_probe("queue_occupancy", [&warp](Cycle) {
      return static_cast<double>(warp.occupancy());
    });
    sampler->add_probe("issue_backlog", [&warp](Cycle) {
      return static_cast<double>(warp.window_backlog());
    });
    register_device_probes(*sampler, device);
  }
  if (census != nullptr) {
    census->add_feeder("node0.feeder");
    census->add_stamp("node0.warp", warp.last_work());
    device.register_census(*census, "node0.");
  }
  if (snapshot != nullptr) {
    snapshot->add_counter(SnapshotStreamer::kInjectedCounter, [&warp] {
      return warp.stats().raw_in + warp.stats().fences_in;
    });
    snapshot->add_gauge("queue_occupancy", [&warp] {
      return static_cast<double>(warp.occupancy());
    });
    register_device_snapshot(*snapshot, device);
    snapshot->attach_census(census);
  }
#endif
  LoopResult loop;
  dispatch(warp, trace, config, threads, options, loop);
  DriverResult result = finish(warp, device, loop, "warp");
  snwindow.close(loop.makespan);
  swindow.close(loop.makespan);
  window.close(result);
  result.raw_requests = warp.stats().raw_in;
  result.avg_latency_cycles = warp.stats().raw_latency_cycles.mean();
  result.packets_by_size = warp.stats().packets_by_size;
  return result;
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
