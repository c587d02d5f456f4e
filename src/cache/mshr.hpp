// MSHR-based fixed-granularity coalescer — the conventional Dynamic Memory
// Coalescing baseline of paper Sec. 2.3: a miss-handling architecture that
// merges outstanding requests to the same cache-line-sized block, always
// dispatching fixed 64 B transactions regardless of how many requests merge.
//
// Exposes the same cycle-level interface as MacCoalescer so the simulation
// driver can run either path over identical traces (ablation benches).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mac/coalescer.hpp"  // CompletedAccess
#include "mem/hmc_device.hpp"

namespace mac3d {

class CheckContext;
class ConservationChecker;
class EventSink;

struct MshrStats {
  std::uint64_t raw_in = 0;
  std::uint64_t fences_in = 0;     ///< fences accepted (complete like requests)
  std::uint64_t merged = 0;        ///< requests merged into an existing entry
  std::uint64_t packets_out = 0;   ///< fixed-size transactions dispatched
  std::uint64_t stalls_full = 0;   ///< cycles an allocation failed
  RunningStat raw_latency_cycles;

  [[nodiscard]] double coalescing_efficiency() const noexcept {
    return raw_in == 0 ? 0.0
                       : 1.0 - static_cast<double>(packets_out) /
                                   static_cast<double>(raw_in);
  }
};

class MshrCoalescer {
 public:
  /// `entries`: MSHR file size; `block_bytes`: fixed transaction size.
  MshrCoalescer(const SimConfig& config, HmcDevice& device,
                std::uint32_t entries = 32, std::uint32_t block_bytes = 64);
  ~MshrCoalescer();
  MshrCoalescer(const MshrCoalescer&) = delete;
  MshrCoalescer& operator=(const MshrCoalescer&) = delete;

  [[nodiscard]] bool can_accept() const noexcept;
  /// Dual-ported intake symmetric with MacCoalescer: one merge and one
  /// allocation per cycle. Returns false when rejected (retry next cycle).
  [[nodiscard]] bool try_accept(const RawRequest& request, Cycle now);
  void accept(const RawRequest& request, Cycle now);
  void tick(Cycle now);
  /// Completions available at or before `now` (MacCoalescer::drain's
  /// contract: valid until the next drain() on this object).
  const std::vector<CompletedAccess>& drain(Cycle now);
  [[nodiscard]] bool idle() const noexcept;
  [[nodiscard]] Cycle next_event(Cycle now) const noexcept;

  [[nodiscard]] const MshrStats& stats() const noexcept { return stats_; }

  // ---- Policy surface (MacCoalescer documents each member) --------------
  static constexpr CoalescerPolicy kPolicy = CoalescerPolicy::kMshr;
  [[nodiscard]] std::uint64_t raw_in() const noexcept { return stats_.raw_in; }
  [[nodiscard]] std::uint64_t injected() const noexcept {
    return stats_.raw_in + stats_.fences_in;
  }
  /// Live MSHR file entries.
  [[nodiscard]] std::size_t occupancy() const noexcept { return file_.size(); }
  /// Entries waiting to dispatch a transaction.
  [[nodiscard]] std::size_t issue_backlog() const noexcept {
    return dispatch_queue_.size();
  }
  [[nodiscard]] const RunningStat& raw_latency() const noexcept {
    return stats_.raw_latency_cycles;
  }
  /// Every transaction is one fixed-size block.
  [[nodiscard]] std::map<std::uint32_t, std::uint64_t> packets_by_size()
      const {
    return {{block_bytes_, stats_.packets_out}};
  }
  template <typename Census>
  void register_census(Census& census, const std::string& prefix) const {
    census.add_stamp(prefix + "mshr", last_work_);
  }
  void collect(StatSet& out, const std::string& prefix) const;

  /// Enable request/response conservation checking plus the MSHR
  /// occupancy-bound invariant (docs/INVARIANTS.md §cache). Same contract
  /// as MacCoalescer::attach_checks.
  void attach_checks(CheckContext* context, const std::string& scope = "mshr");

  /// Enable request-lifecycle telemetry (docs/OBSERVABILITY.md). The sink
  /// must outlive the coalescer; pass nullptr to detach.
  void attach_sink(EventSink* sink) noexcept { sink_ = sink; }

  // ---- Activity oracle (idle-cycle census, docs/OBSERVABILITY.md) --------
  [[nodiscard]] bool did_work_this_cycle(Cycle now) const noexcept {
    return last_work_ == now;
  }
  [[nodiscard]] const Cycle& last_work() const noexcept { return last_work_; }
  [[nodiscard]] Cycle next_activity_cycle(Cycle now) const noexcept {
    return next_event(now);
  }

  /// Deliberate model bug for the invariant test suite: let the next
  /// `n` allocations ignore the entry-count capacity test, overfilling
  /// the file (mshr.occupancy_bound must fire).
  void inject_capacity_overrun(std::uint32_t n) noexcept {
    inject_overrun_ = n;
  }

 private:
  struct Entry {
    Address block = 0;
    bool write = false;
    bool dispatched = false;
    std::vector<Target> targets;
    std::vector<Cycle> accept_cycles;
  };

  static std::uint64_t entry_key(Address block, bool write) noexcept {
    return block | (write ? 1ull : 0ull);
  }

  [[nodiscard]] bool intake(const RawRequest& request, Cycle now);

  SimConfig config_;
  HmcDevice& device_;
  std::uint32_t entries_;
  std::uint32_t block_bytes_;
  std::unordered_map<std::uint64_t, Entry> file_;  ///< key -> live entry
  std::deque<std::uint64_t> dispatch_queue_;       ///< keys awaiting dispatch
  std::unordered_map<TransactionId, std::uint64_t> in_flight_;
  std::unordered_set<std::uint64_t> atomic_keys_;
  std::deque<std::pair<Target, Cycle>> fences_;
  std::uint32_t barrier_pending_ = 0;
  std::uint64_t next_unique_ = 0;
  Cycle merge_port_used_at_ = ~Cycle{0};
  Cycle alloc_port_used_at_ = ~Cycle{0};
  std::vector<CompletedAccess> ready_completions_;
  std::vector<CompletedAccess> drained_;  ///< drain()'s result, reused
  TransactionId next_txn_ = 1;
  Cycle last_cycle_ = 0;
  Cycle last_work_ = ~Cycle{0};  ///< census slot (MAC3D_OBS_ACTIVITY)
  MshrStats stats_;
  std::uint32_t inject_overrun_ = 0;
  CheckContext* checks_ = nullptr;
  EventSink* sink_ = nullptr;
  std::unique_ptr<ConservationChecker> conservation_;
};

}  // namespace mac3d
