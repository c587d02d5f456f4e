// HMCSim-style timed model of one 3D-stacked memory cube.
//
// The model follows the request path of an HMC 2.1 device as described in
// the paper: packets are serialized over one of `hmc_links` external links
// (selected by vault quadrant), pass through SerDes + vault controller,
// access one closed-page bank inside one of the interleaved vaults, and the
// response is serialized back. Every access pays the 32 B control overhead
// of the packetized protocol; every arrival at a busy bank counts as a bank
// conflict (Sec. 2.2.1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/address_map.hpp"
#include "mem/bank.hpp"
#include "mem/link.hpp"
#include "mem/packet.hpp"

namespace mac3d {

class CheckContext;
class EventSink;
class HmcChecker;

/// Aggregate device counters.
struct HmcStats {
  std::uint64_t requests = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t atomics = 0;
  std::uint64_t bank_conflicts = 0;
  std::uint64_t refresh_stalls = 0;  ///< accesses delayed by a refresh
  std::uint64_t row_hits = 0;        ///< open-page mode row-buffer hits
  std::uint64_t data_bytes = 0;      ///< payload moved
  std::uint64_t link_bytes = 0;      ///< payload + control on the links
  std::uint64_t overhead_bytes = 0;  ///< control only (32 B per access)
  RunningStat latency_cycles;        ///< submit -> response available
  RunningStat packet_data_bytes;     ///< payload size distribution
  Histogram latency_hist{40};

  /// Measured Eq. 1 over the whole run.
  [[nodiscard]] double measured_bandwidth_efficiency() const noexcept {
    return link_bytes == 0
               ? 0.0
               : static_cast<double>(data_bytes) /
                     static_cast<double>(link_bytes);
  }

  void collect(StatSet& out, const std::string& prefix) const;
};

class HmcDevice {
 public:
  explicit HmcDevice(const SimConfig& config, NodeId node = 0);
  ~HmcDevice();
  HmcDevice(const HmcDevice&) = delete;
  HmcDevice& operator=(const HmcDevice&) = delete;

  /// Link-level back-pressure: false when the target link's request
  /// direction is backlogged beyond the injection-queue horizon.
  [[nodiscard]] bool can_accept(const HmcRequest& request,
                                Cycle now) const noexcept;

  /// Schedule a request submitted at `now`. Returns the completion cycle.
  /// The response is retrievable via drain() once `now >= completion`.
  Cycle submit(HmcRequest request, Cycle now);

  /// Pop all responses completed at or before `now` (completion order).
  std::vector<HmcResponse> drain(Cycle now);

  /// True when no undelivered response remains.
  [[nodiscard]] bool idle() const noexcept { return pending_.empty(); }

  /// Earliest completion among in-flight transactions (0 when idle).
  [[nodiscard]] Cycle next_completion() const noexcept {
    return pending_.empty() ? 0 : pending_.top().completed;
  }

  [[nodiscard]] std::size_t in_flight() const noexcept {
    return pending_.size();
  }

  [[nodiscard]] const HmcStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const AddressMap& address_map() const noexcept { return map_; }
  /// Every bank, flat [vault][bank].
  [[nodiscard]] const std::vector<Bank>& banks() const noexcept {
    return banks_;
  }

  /// Per-link FLIT totals (request dir, response dir).
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> link_flits() const;

  // ---- Cycle-sampler probes (docs/OBSERVABILITY.md) ----------------------
  /// Fraction of all banks busy (activating/moving data/precharging) at
  /// `now`.
  [[nodiscard]] double banks_busy_fraction(Cycle now) const noexcept;
  /// Fraction of one vault's banks busy at `now`.
  [[nodiscard]] double vault_busy_fraction(std::uint32_t vault,
                                           Cycle now) const noexcept;
  [[nodiscard]] std::uint32_t vault_count() const noexcept {
    return config_.vaults;
  }
  [[nodiscard]] std::uint32_t link_count() const noexcept {
    return static_cast<std::uint32_t>(links_.size());
  }
  /// Request-direction serialization backlog of one link, in cycles.
  [[nodiscard]] Cycle link_request_backlog(std::uint32_t link,
                                           Cycle now) const noexcept {
    return links_[link].request_backlog(now);
  }
  /// Cumulative FLITs moved by one link (both directions) — sampled as a
  /// monotone counter; consumers difference adjacent rows for utilization.
  [[nodiscard]] std::uint64_t link_flits_sent(std::uint32_t link) const noexcept {
    return links_[link].request_flits_sent() +
           links_[link].response_flits_sent();
  }

  // ---- Activity oracle (idle-cycle census, docs/OBSERVABILITY.md) --------
  /// Any bank is mid-access at `now` (the device's coarse activity bit;
  /// the per-unit census rows below are the fine-grained view).
  [[nodiscard]] bool did_work_this_cycle(Cycle now) const noexcept {
    return now < banks_busy_until_;
  }
  /// Earliest in-flight completion (0 = drained) — the event-driven
  /// engine's wake-up oracle for the device.
  [[nodiscard]] Cycle next_activity_cycle(Cycle now) const noexcept {
    (void)now;
    return next_completion();
  }

  // ---- Busy thresholds (census threshold rows) ---------------------------
  // Every device activity probe has the form "active iff now < threshold".
  // The bank thresholds are running maxima kept at submit (exact, since a
  // bank's free_at never decreases), and all thresholds are frozen while
  // the event engine fast-forwards (no submits happen mid-span), so the
  // active cycles inside a skipped span are exactly countable — that is
  // what keeps the census byte-identical between the cycle and event
  // engines. The references stay valid for the device's lifetime.
  /// Cycle the last busy bank frees (0 = all banks idle).
  [[nodiscard]] const Cycle& banks_busy_until() const noexcept {
    return banks_busy_until_;
  }
  /// Cycle one vault's last busy bank frees.
  [[nodiscard]] const Cycle& vault_busy_until(
      std::uint32_t vault) const noexcept {
    return vault_busy_until_[vault];
  }
  /// Cycle one link's request direction drains.
  [[nodiscard]] const Cycle& link_request_free_at(
      std::uint32_t link) const noexcept {
    return links_[link].request_free_at();
  }

  /// Register this device's idle-cycle census threshold rows under
  /// `prefix` (e.g. "node0."): `<prefix>banks`, `<prefix>vault<V>` and
  /// `<prefix>link<L>`. Templated on the census (normally obs's
  /// ActivityCensus — mem avoids the link dependency). The device must
  /// outlive the census's observed run; seal the census before tearing
  /// the device down.
  template <typename Census>
  void register_census(Census& census, const std::string& prefix) const {
    census.add_threshold(prefix + "banks", banks_busy_until());
    for (std::uint32_t v = 0; v < vault_count(); ++v) {
      census.add_threshold(prefix + "vault" + std::to_string(v),
                           vault_busy_until(v));
    }
    for (std::uint32_t l = 0; l < link_count(); ++l) {
      census.add_threshold(prefix + "link" + std::to_string(l),
                           link_request_free_at(l));
    }
  }

  void reset();

  /// Enable model-invariant checking (docs/INVARIANTS.md §hmc). The
  /// context must outlive the device; pass nullptr to detach.
  void attach_checks(CheckContext* context);

  /// Deliberate model bugs for the invariant test suite.
  enum class Fault {
    kNone,
    kDropTarget,       ///< drop one merged target from the next response
    kInflateOverhead,  ///< charge one extra control FLIT on the next access
  };
  /// Arm a one-shot fault applied to the next submitted request.
  void inject_fault(Fault fault) noexcept { fault_ = fault; }

  /// Enable request-lifecycle telemetry (docs/OBSERVABILITY.md): stamps
  /// link_serialize and bank_access for every merged target of a packet
  /// that carries target identities. The sink must outlive the device;
  /// pass nullptr to detach.
  void attach_sink(EventSink* sink) noexcept { sink_ = sink; }

 private:
  struct PendingGreater {
    bool operator()(const HmcResponse& a, const HmcResponse& b) const {
      return a.completed > b.completed || (a.completed == b.completed &&
                                           a.id > b.id);
    }
  };

  [[nodiscard]] std::uint32_t link_of(std::uint32_t vault) const noexcept {
    return vault / vaults_per_link_;
  }

  SimConfig config_;
  AddressMap map_;
  NodeId node_;
  std::uint32_t vaults_per_link_;
  std::vector<Bank> banks_;  ///< flat [vault][bank]
  std::vector<Link> links_;
  std::priority_queue<HmcResponse, std::vector<HmcResponse>, PendingGreater>
      pending_;
  HmcStats stats_;
  CheckContext* checks_ = nullptr;
  EventSink* sink_ = nullptr;
  std::unique_ptr<HmcChecker> checker_;
  Fault fault_ = Fault::kNone;
  // Busy thresholds kept at submit; last, so the hot layout is unchanged.
  std::vector<Cycle> vault_busy_until_;  ///< per vault: max bank free_at
  Cycle banks_busy_until_ = 0;           ///< max over vault_busy_until_
};

}  // namespace mac3d
