// The "without MAC" baseline memory path: every raw request goes to the
// 3D-stacked memory as its own single-FLIT (16 B) transaction — exactly
// the behaviour the paper's Fig. 2 (right) and Sec. 5.3 evaluate against.
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

class RawPath {
 public:
  RawPath(const SimConfig& config, HmcDevice& device)
      : device_(device), queue_capacity_(config.queue_depth) {}

  [[nodiscard]] bool can_accept() const noexcept {
    return queue_.size() < queue_capacity_;
  }

  /// The raw path is a plain FIFO: intake succeeds while there is space
  /// (capped at two per cycle, matching the MAC's dual-ported intake).
  [[nodiscard]] bool try_accept(const RawRequest& request, Cycle now) {
    if (queue_.size() >= queue_capacity_) return false;
    if (accepts_at_ == now && accepts_this_cycle_ >= 2) return false;
    if (accepts_at_ != now) {
      accepts_at_ = now;
      accepts_this_cycle_ = 0;
    }
    ++accepts_this_cycle_;
    queue_.push_back(request);
    MAC3D_OBS_ACTIVITY(last_work_, now);
    accept_cycle_.put(key(request), now);
    raw_in_ += request.op != MemOp::kFence ? 1 : 0;
    fences_in_ += request.op == MemOp::kFence ? 1 : 0;
    MAC3D_OBS_STAMP(sink_, Stage::kQueueInsert, request.tid, request.tag, now);
#if MAC3D_CHECKS_ENABLED
    if (conservation_ != nullptr) {
      conservation_->on_accept(request.tid, request.tag, request.op, now);
    }
#endif
    return true;
  }

  void accept(const RawRequest& request, Cycle now) {
    const bool accepted = try_accept(request, now);
    assert(accepted);
    (void)accepted;
  }

  void tick(Cycle now) {
    last_cycle_ = now;
    if (queue_.empty()) return;
    const RawRequest& head = queue_.front();
    if (head.op == MemOp::kFence) {
      if (outstanding_ == 0) {
        CompletedAccess done;
        done.target = Target{head.tid, head.tag, 0};
        done.fence = true;
        done.accepted = take_accept(done.target, now);
        done.completed = now;
        ready_.push_back(done);
        queue_.pop_front();
        MAC3D_OBS_ACTIVITY(last_work_, now);
      }
      return;
    }
    HmcRequest request;
    request.addr = align_down(head.addr, kFlitBytes);
    request.data_bytes = kFlitBytes;
    request.write = head.op == MemOp::kStore;
    request.atomic = head.op == MemOp::kAtomic;
    request.home_node = head.node;
    const std::uint32_t flit = device_.address_map().flit_of(
        device_.address_map().local_addr(head.addr));
    request.targets.push_back(
        Target{head.tid, head.tag, static_cast<std::uint8_t>(flit)});
    if (!device_.can_accept(request, now)) return;
    request.id = next_txn_++;
    device_.submit(std::move(request), now);
    ++outstanding_;
    ++packets_out_;
    queue_.pop_front();
    MAC3D_OBS_ACTIVITY(last_work_, now);
  }

  /// Completions available at or before `now` (MacCoalescer::drain's
  /// contract: valid until the next drain() on this object).
  const std::vector<CompletedAccess>& drain(Cycle now) {
    std::vector<CompletedAccess>& out = drained_;
    out.assign(ready_.begin(), ready_.end());
    ready_.clear();
    for (const HmcResponse& response : device_.drain(now)) {
      --outstanding_;
      for (const Target& target : response.targets) {
        CompletedAccess done;
        done.target = target;
        done.write = response.write;
        done.completed = response.completed;
        done.accepted = take_accept(target, response.completed);
        latency_.add(static_cast<double>(done.completed - done.accepted));
        out.push_back(done);
      }
    }
    if (!out.empty()) MAC3D_OBS_ACTIVITY(last_work_, now);
#if MAC3D_OBS_ENABLED
    if (sink_ != nullptr) {
      for (const CompletedAccess& done : out) {
        sink_->on_stage(Stage::kResponseMatch, done.target.tid,
                        done.target.tag, done.completed);
      }
    }
#endif
#if MAC3D_CHECKS_ENABLED
    if (conservation_ != nullptr) {
      for (const CompletedAccess& done : out) {
        conservation_->on_complete(done.target.tid, done.target.tag,
                                   done.fence, now);
      }
    }
#endif
    return out;
  }

  [[nodiscard]] bool idle() const noexcept {
    return queue_.empty() && outstanding_ == 0 && ready_.empty();
  }

  [[nodiscard]] Cycle next_event(Cycle now) const noexcept {
    if (idle()) return 0;
    if (!ready_.empty()) return now;
    if (!queue_.empty() && queue_.front().op != MemOp::kFence) return now + 1;
    const Cycle completion = device_.next_completion();
    return completion > now ? completion : now + 1;
  }

  // ---- Policy surface (MacCoalescer documents each member) --------------
  static constexpr CoalescerPolicy kPolicy = CoalescerPolicy::kRaw;
  [[nodiscard]] std::uint64_t raw_in() const noexcept { return raw_in_; }
  [[nodiscard]] std::uint64_t injected() const noexcept {
    return raw_in_ + fences_in_;
  }
  /// Requests waiting in the FIFO.
  [[nodiscard]] std::size_t occupancy() const noexcept {
    return queue_.size();
  }
  /// The FIFO issues straight from its head: there is no backlog stage.
  [[nodiscard]] std::size_t issue_backlog() const noexcept { return 0; }
  [[nodiscard]] const RunningStat& raw_latency() const noexcept {
    return latency_;
  }
  /// Every transaction is one FLIT.
  [[nodiscard]] std::map<std::uint32_t, std::uint64_t> packets_by_size()
      const {
    return {{kFlitBytes, packets_out_}};
  }
  template <typename Census>
  void register_census(Census& census, const std::string& prefix) const {
    census.add_stamp(prefix + "queue", last_work_);
  }
  void collect(StatSet& out, const std::string& prefix) const {
    const std::string base = prefix + ".raw";
    out.set(base + ".raw_in", static_cast<double>(raw_in_));
    out.set(base + ".packets_out", static_cast<double>(packets_out_));
    out.set(base + ".avg_raw_latency_cycles", latency_.mean());
  }

  /// Enable request/response conservation checking (docs/INVARIANTS.md
  /// §conservation). Same contract as MacCoalescer::attach_checks.
  void attach_checks(CheckContext* context, const std::string& scope = "raw") {
    if (context == nullptr) {
      conservation_.reset();
      return;
    }
    conservation_ = std::make_unique<ConservationChecker>(*context, scope);
    context->on_finalize([this](CheckContext&) {
      if (conservation_ != nullptr) conservation_->finalize(last_cycle_);
    });
  }

  /// Enable request-lifecycle telemetry (docs/OBSERVABILITY.md): stamps
  /// queue_insert at intake and response_match at drain. The sink must
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
  static std::uint64_t key(const RawRequest& request) noexcept {
    return request_key(request.tid, request.tag);
  }
  static std::uint64_t key(const Target& target) noexcept {
    return request_key(target.tid, target.tag);
  }

  Cycle take_accept(const Target& target, Cycle fallback) {
    return accept_cycle_.take(key(target), fallback);
  }

  HmcDevice& device_;
  std::size_t queue_capacity_;
  Cycle accepts_at_ = ~Cycle{0};
  std::uint32_t accepts_this_cycle_ = 0;
  RingQueue<RawRequest> queue_;
  FlatCycleMap accept_cycle_;
  std::vector<CompletedAccess> ready_;
  std::vector<CompletedAccess> drained_;  ///< drain()'s result, reused
  std::uint64_t outstanding_ = 0;
  std::uint64_t raw_in_ = 0;
  std::uint64_t fences_in_ = 0;
  std::uint64_t packets_out_ = 0;
  TransactionId next_txn_ = 1;
  Cycle last_cycle_ = 0;
  Cycle last_work_ = ~Cycle{0};  ///< census slot (MAC3D_OBS_ACTIVITY)
  RunningStat latency_;
  std::unique_ptr<ConservationChecker> conservation_;
  EventSink* sink_ = nullptr;
};

}  // namespace mac3d
