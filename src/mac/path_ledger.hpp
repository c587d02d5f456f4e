// The policy-independent half of a memory path (DESIGN.md §policy). All
// four paths (mac, raw, mshr, warp) accept raw requests, submit packets to
// the HMC device and split each response back into one completion per
// raw request it carries (paper Sec. 4.1/4.4). Everything about that which
// does not depend on the policy lives here, once:
//   * intake accounting: the accept cycle per (tid, tag), raw_in/fences_in;
//   * transaction ids and the outstanding-packet count (submit);
//   * fence retirement and the ready list it feeds;
//   * drain: splitting responses into completions into one reused buffer,
//     the per-request latency stat, and the completion counts;
//   * the queue_insert / merge / response_match lifecycle stamps, the
//     conservation checker and the path's top census slot.
// A path keeps its admission rule, packet formation, next_event and its
// own stats and invariants; it owns one PathLedger and calls into it.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "check/conservation.hpp"
#include "common/flat_cycle_map.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/hmc_device.hpp"
#include "obs/obs.hpp"

namespace mac3d {

/// One raw request's completion, de-coalesced from a packet response
/// (or a retired fence).
struct CompletedAccess {
  Target target;
  bool write = false;
  bool fence = false;
  bool atomic = false;
  Cycle accepted = 0;   ///< cycle the raw request entered the path
  Cycle completed = 0;  ///< cycle its data/ack became available
};

class PathLedger {
 public:
  PathLedger() = default;
  PathLedger(const PathLedger&) = delete;  // the finalize hook holds `this`
  PathLedger& operator=(const PathLedger&) = delete;

  /// The path accepted `request` (or a fence) at `now`.
  void accept(const RawRequest& request, Cycle now) {
    accept_cycle_.put(request_key(request.tid, request.tag), now);
    if (request.op == MemOp::kFence) {
      ++fences_in_;
    } else {
      ++raw_in_;
    }
    worked(now);
    MAC3D_OBS_STAMP(sink_, Stage::kQueueInsert, request.tid, request.tag, now);
#if MAC3D_CHECKS_ENABLED
    if (conservation_ != nullptr) {
      conservation_->on_accept(request.tid, request.tag, request.op, now);
    }
#endif
  }

  /// `request`, just accepted, merged into an entry led by `leader` (null
  /// when unknown): the merge stamp and its leader edge.
  void merged(const RawRequest& request, const Target* leader, Cycle now) {
    MAC3D_OBS_STAMP(sink_, Stage::kMerge, request.tid, request.tag, now);
    if (leader != nullptr) {
      MAC3D_OBS_MERGE(sink_, request.tid, request.tag, leader->tid,
                      leader->tag, now);
    }
    static_cast<void>(request);
    static_cast<void>(now);
  }

  /// The path ticks at `now` (non-decreasing): the last such cycle is the
  /// one the end-of-run conservation audit runs at.
  void on_tick(Cycle now) noexcept {
    assert(now >= last_tick_);
    last_tick_ = now;
  }

  /// Send `request` to `device` under the next transaction id (returned).
  TransactionId submit(HmcDevice& device, HmcRequest&& request, Cycle now) {
    const TransactionId id = next_txn_++;
    request.id = id;
    device.submit(std::move(request), now);
    ++outstanding_;
    worked(now);
    return id;
  }

  /// A fence retires at `now`: every older operation has completed. Its
  /// completion waits in the ready list for the next drain.
  void retire_fence(const Target& target, Cycle now) {
    CompletedAccess done;
    done.target = target;
    done.fence = true;
    done.accepted = accept_cycle_.take(key(target), now);
    done.completed = now;
    ready_.push_back(done);
    worked(now);
  }

  /// Completions available at or before `now`: retired fences first, then
  /// each device response split by `split(response, emit)`, which calls
  /// `emit(target, write, atomic)` once per raw request the response
  /// answers. The result stays valid until the next drain().
  template <typename Split>
  const std::vector<CompletedAccess>& drain(HmcDevice& device, Cycle now,
                                            Split&& split) {
    std::vector<CompletedAccess>& out = drained_;
    out.assign(ready_.begin(), ready_.end());
    fence_completions_ += ready_.size();
    ready_.clear();
    for (const HmcResponse& response : device.drain(now)) {
      assert(outstanding_ > 0);
      --outstanding_;
      const Cycle completed = response.completed;
      split(response, [&](const Target& target, bool write, bool atomic) {
        CompletedAccess done;
        done.target = target;
        done.write = write;
        done.atomic = atomic;
        done.completed = completed;
        done.accepted = accept_cycle_.take(key(target), completed);
        latency_.add(static_cast<double>(done.completed - done.accepted));
        out.push_back(done);
      });
    }
    completions_ += out.size();
    if (!out.empty()) worked(now);
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

  /// drain() for paths whose responses carry their own targets.
  const std::vector<CompletedAccess>& drain(HmcDevice& device, Cycle now) {
    return drain(device, now, [](const HmcResponse& response, auto&& emit) {
      for (const Target& target : response.targets) {
        emit(target, response.write, false);
      }
    });
  }

  /// The census slot: the path did useful work at `now`.
  void worked(Cycle now) noexcept {
    MAC3D_OBS_ACTIVITY(last_work_, now);
    static_cast<void>(now);
  }

  /// Attach the conservation checker under `scope` and register its
  /// end-of-run audit (docs/INVARIANTS.md §conservation). Run
  /// context.finalize() while the ledger is alive; nullptr detaches.
  void attach_checks(CheckContext* context, const std::string& scope) {
    checks_ = context;
    if (context == nullptr) {
      conservation_.reset();
      return;
    }
    conservation_ = std::make_unique<ConservationChecker>(*context, scope);
    context->on_finalize([this](CheckContext&) {
      if (conservation_ != nullptr) conservation_->finalize(last_tick_);
    });
  }
  void attach_sink(EventSink* sink) noexcept { sink_ = sink; }
  [[nodiscard]] CheckContext* checks() const noexcept { return checks_; }
  [[nodiscard]] EventSink* sink() const noexcept { return sink_; }

  /// Census stamp row `name` reading the path's last-work cycle.
  template <typename Census>
  void register_census(Census& census, const std::string& name) const {
    census.add_stamp(name, last_work_);
  }

  /// Emit `<base>.raw_in`, `.packets_out` and `.avg_raw_latency_cycles`.
  void collect(StatSet& out, const std::string& base) const {
    out.set(base + ".raw_in", static_cast<double>(raw_in_));
    out.set(base + ".packets_out", static_cast<double>(packets_out()));
    out.set(base + ".avg_raw_latency_cycles", latency_.mean());
  }

  /// No packet in flight and no retired fence waiting for drain().
  [[nodiscard]] bool idle() const noexcept {
    return outstanding_ == 0 && ready_.empty();
  }
  [[nodiscard]] bool has_ready() const noexcept { return !ready_.empty(); }
  [[nodiscard]] std::uint64_t outstanding() const noexcept {
    return outstanding_;
  }

  /// Raw requests (loads + stores + atomics) accepted.
  [[nodiscard]] std::uint64_t raw_in() const noexcept { return raw_in_; }
  [[nodiscard]] std::uint64_t fences_in() const noexcept { return fences_in_; }
  /// Everything accepted that will complete: raw requests plus fences.
  [[nodiscard]] std::uint64_t injected() const noexcept {
    return raw_in_ + fences_in_;
  }
  /// Transactions submitted to the device.
  [[nodiscard]] std::uint64_t packets_out() const noexcept {
    return next_txn_ - 1;
  }
  /// Completions drain() delivered: split responses plus retired fences.
  [[nodiscard]] std::uint64_t completions() const noexcept {
    return completions_;
  }
  /// Completions split from device responses (fences excluded).
  [[nodiscard]] std::uint64_t data_completions() const noexcept {
    return completions_ - fence_completions_;
  }
  /// Per raw request, accept -> complete.
  [[nodiscard]] const RunningStat& raw_latency() const noexcept {
    return latency_;
  }
  /// Request-reduction ratio (paper Eq. 3 as used in Sec. 5.3.1):
  /// 1 - (requests with coalescing / raw requests without).
  [[nodiscard]] double coalescing_efficiency() const noexcept {
    return raw_in_ == 0 ? 0.0
                        : 1.0 - static_cast<double>(packets_out()) /
                                    static_cast<double>(raw_in_);
  }
  /// Census stamp slot: the cycle the path last did useful work.
  [[nodiscard]] const Cycle& last_work() const noexcept { return last_work_; }

 private:
  static std::uint64_t key(const Target& target) noexcept {
    return request_key(target.tid, target.tag);
  }

  FlatCycleMap accept_cycle_;
  std::vector<CompletedAccess> ready_;    ///< retired fences awaiting drain
  std::vector<CompletedAccess> drained_;  ///< drain()'s result, reused
  std::uint64_t raw_in_ = 0;
  std::uint64_t fences_in_ = 0;
  std::uint64_t outstanding_ = 0;
  std::uint64_t completions_ = 0;
  std::uint64_t fence_completions_ = 0;
  TransactionId next_txn_ = 1;
  Cycle last_tick_ = 0;
  Cycle last_work_ = ~Cycle{0};  ///< census slot (MAC3D_OBS_ACTIVITY)
  RunningStat latency_;
  CheckContext* checks_ = nullptr;
  EventSink* sink_ = nullptr;
  std::unique_ptr<ConservationChecker> conservation_;
};

}  // namespace mac3d
