// Warp-iterative coalescing policy (SIMT-style, after SimTight/GPU memory
// coalescers): intake buffers raw requests in arrival order, groups up to
// `warp_lanes` consecutive non-fence requests into a *window*, then serves
// the window one coalescing iteration per cycle — pick the first unserved
// lane as leader, merge every unserved lane that touches the same
// `warp_block_bytes` block with the same operation class into one HMC
// packet, replay the rest next iteration. A partially filled window is
// released after `warp_window_cycles` or when a fence bounds it.
// Mirrors the MacCoalescer cycle interface so drivers are path-generic.
#pragma once

#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "check/conservation.hpp"
#include "common/bitutil.hpp"
#include "common/config.hpp"
#include "common/flat_cycle_map.hpp"
#include "common/ring_queue.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mac/coalescer.hpp"  // CompletedAccess
#include "mem/hmc_device.hpp"
#include "obs/obs.hpp"

namespace mac3d {

struct WarpStats {
  std::uint64_t raw_in = 0;       ///< loads + stores + atomics accepted
  std::uint64_t fences_in = 0;
  std::uint64_t windows = 0;      ///< warp windows formed
  std::uint64_t packets_out = 0;  ///< HMC transactions dispatched
  std::uint64_t merged_lanes = 0; ///< non-leader lanes riding a packet
  std::uint64_t replays = 0;      ///< extra iterations beyond the first
  std::uint64_t completions = 0;  ///< raw completions delivered upstream
  std::map<std::uint32_t, std::uint64_t> packets_by_size;
  RunningStat raw_latency_cycles;  ///< accept -> completion, per raw request

  [[nodiscard]] double coalescing_efficiency() const noexcept {
    return raw_in == 0 ? 0.0
                       : 1.0 - static_cast<double>(packets_out) /
                                   static_cast<double>(raw_in);
  }

  void collect(StatSet& out, const std::string& prefix) const;
};

class WarpCoalescer {
 public:
  WarpCoalescer(const SimConfig& config, HmcDevice& device);
  ~WarpCoalescer();
  WarpCoalescer(const WarpCoalescer&) = delete;
  WarpCoalescer& operator=(const WarpCoalescer&) = delete;

  [[nodiscard]] bool can_accept() const noexcept {
    return pending_.size() < queue_capacity_;
  }

  /// FIFO intake, capped at two accepts per cycle (the same dual-ported
  /// intake budget as the MAC and the raw path).
  [[nodiscard]] bool try_accept(const RawRequest& request, Cycle now);

  void accept(const RawRequest& request, Cycle now) {
    const bool accepted = try_accept(request, now);
    assert(accepted);
    (void)accepted;
  }

  /// One cycle: retire a head fence once the pipeline drained, form a
  /// window when one is ready, then run one coalescing iteration.
  void tick(Cycle now);

  /// Completions available at or before `now` (MacCoalescer::drain's
  /// contract: valid until the next drain() on this object).
  const std::vector<CompletedAccess>& drain(Cycle now);

  [[nodiscard]] bool idle() const noexcept {
    return pending_.empty() && window_.empty() && outstanding_ == 0 &&
           ready_.empty();
  }

  /// Earliest cycle at which tick()/drain() could do work (0 when idle).
  [[nodiscard]] Cycle next_event(Cycle now) const noexcept;

  [[nodiscard]] const WarpStats& stats() const noexcept { return stats_; }

  // ---- Policy surface (MacCoalescer documents each member) --------------
  static constexpr CoalescerPolicy kPolicy = CoalescerPolicy::kWarp;
  [[nodiscard]] std::uint64_t raw_in() const noexcept { return stats_.raw_in; }
  [[nodiscard]] std::uint64_t injected() const noexcept {
    return stats_.raw_in + stats_.fences_in;
  }
  /// Raw requests buffered (intake FIFO + unserved window lanes).
  [[nodiscard]] std::size_t occupancy() const noexcept {
    return pending_.size() + unserved();
  }
  /// Window lanes not yet served by a coalescing iteration.
  [[nodiscard]] std::size_t issue_backlog() const noexcept {
    return unserved();
  }
  [[nodiscard]] const RunningStat& raw_latency() const noexcept {
    return stats_.raw_latency_cycles;
  }
  [[nodiscard]] std::map<std::uint32_t, std::uint64_t> packets_by_size()
      const {
    return stats_.packets_by_size;
  }
  template <typename Census>
  void register_census(Census& census, const std::string& prefix) const {
    census.add_stamp(prefix + "warp", last_work_);
  }
  void collect(StatSet& out, const std::string& prefix) const {
    stats_.collect(out, prefix + ".warp");
  }

  /// Enable invariant checking (docs/INVARIANTS.md): request conservation
  /// plus the warp window/packet invariants. Same contract as
  /// MacCoalescer::attach_checks.
  void attach_checks(CheckContext* context, const std::string& scope = "warp");

  /// Enable request-lifecycle telemetry (docs/OBSERVABILITY.md): stamps
  /// queue_insert at intake, builder_pick for the leader lane, merge for
  /// lanes riding its packet, response_match at drain. The sink must
  /// outlive the path; pass nullptr to detach.
  void attach_sink(EventSink* sink) noexcept { sink_ = sink; }

  // ---- Activity oracle (idle-cycle census, docs/OBSERVABILITY.md) --------
  [[nodiscard]] bool did_work_this_cycle(Cycle now) const noexcept {
    return last_work_ == now;
  }
  [[nodiscard]] const Cycle& last_work() const noexcept { return last_work_; }
  [[nodiscard]] Cycle next_activity_cycle(Cycle now) const noexcept {
    return next_event(now);
  }

 private:
  struct Lane {
    RawRequest request;
    Cycle accepted = 0;
    bool served = false;
  };

  [[nodiscard]] std::size_t unserved() const noexcept {
    return window_.size() - window_served_;
  }
  /// Consecutive non-fence lanes at the head of the intake FIFO, capped
  /// at the window size; `terminated` reports whether a fence bounds the
  /// run before the cap.
  [[nodiscard]] std::size_t head_run(bool& terminated) const noexcept;
  /// True once tick(now) may move the head run into a window.
  [[nodiscard]] bool window_ready(Cycle now) const noexcept;
  void form_window(Cycle now);
  /// One leader/merge iteration; returns false when the device refused
  /// the packet (retry next cycle).
  bool issue_iteration(Cycle now);

  static std::uint64_t key(const RawRequest& request) noexcept {
    return request_key(request.tid, request.tag);
  }
  static std::uint64_t key(const Target& target) noexcept {
    return request_key(target.tid, target.tag);
  }

  const SimConfig config_;
  HmcDevice& device_;
  std::size_t queue_capacity_;
  std::size_t lanes_;
  Cycle window_cycles_;
  Cycle accepts_at_ = ~Cycle{0};
  std::uint32_t accepts_this_cycle_ = 0;
  RingQueue<Lane> pending_;
  std::vector<Lane> window_;
  std::size_t window_served_ = 0;
  FlatCycleMap accept_cycle_;
  std::vector<CompletedAccess> ready_;
  std::vector<CompletedAccess> drained_;  ///< drain()'s result, reused
  std::uint64_t outstanding_ = 0;
  TransactionId next_txn_ = 1;
  Cycle last_cycle_ = 0;
  Cycle last_work_ = ~Cycle{0};  ///< census slot (MAC3D_OBS_ACTIVITY)
  WarpStats stats_;
  CheckContext* checks_ = nullptr;
  std::unique_ptr<ConservationChecker> conservation_;
  EventSink* sink_ = nullptr;
};

}  // namespace mac3d
