// Node-to-node interconnect (paper Sec. 3): fixed-latency message channel
// carrying raw requests to remote nodes and completions back. The paper
// leaves the fabric unspecified ("not within the scope of this paper"); we
// model a constant per-hop latency with FIFO delivery per destination.
// Messages enter their lane in send order, i.e. node-tick order.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "check/invariants.hpp"
#include "common/config.hpp"
#include "common/types.hpp"
#include "mac/path_ledger.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"

namespace mac3d {

class Interconnect {
 public:
  Interconnect(const SimConfig& config, std::uint32_t nodes)
      : hop_cycles_(config.remote_hop_cycles),
        request_lanes_(nodes),
        completion_lanes_(nodes) {}

  /// `src` is the sending node (it selects the per-link metric).
  void send_request(const RawRequest& request, NodeId dest, Cycle now,
                    [[maybe_unused]] NodeId src = 0) {
    MAC3D_OBS_ACTIVITY(last_work_, now);
    if (consume_drop_fault()) return;
    request_lanes_.at(dest).queue.push_back({now + hop_cycles_, request});
    ++messages_;
    ++sends_;
    MAC3D_OBS_COUNT(link_metric(link_requests_, src, dest));
  }

  void send_completion(const CompletedAccess& completion, NodeId dest,
                       Cycle now, [[maybe_unused]] NodeId src = 0) {
    MAC3D_OBS_ACTIVITY(last_work_, now);
    if (consume_drop_fault()) return;
    completion_lanes_.at(dest).queue.push_back(
        {now + hop_cycles_, completion});
    ++messages_;
    ++sends_;
    MAC3D_OBS_COUNT(link_metric(link_completions_, src, dest));
  }

  /// Pop all requests due at or before `now` destined to `dest` (FIFO).
  std::vector<RawRequest> deliver_requests(NodeId dest, Cycle now) {
    std::vector<RawRequest> out = deliver(request_lanes_.at(dest), now);
    if (!out.empty()) MAC3D_OBS_ACTIVITY(last_work_, now);
    return out;
  }
  std::vector<CompletedAccess> deliver_completions(NodeId dest, Cycle now) {
    std::vector<CompletedAccess> out = deliver(completion_lanes_.at(dest), now);
    if (!out.empty()) MAC3D_OBS_ACTIVITY(last_work_, now);
    return out;
  }

  /// Census stamp slot: the last cycle the fabric did work (stamped at
  /// sends and non-empty deliveries).
  [[nodiscard]] const Cycle& last_work() const noexcept { return last_work_; }

  [[nodiscard]] bool idle() const noexcept {
    for (const auto& lane : request_lanes_) {
      if (!lane.queue.empty()) return false;
    }
    for (const auto& lane : completion_lanes_) {
      if (!lane.queue.empty()) return false;
    }
    return true;
  }

  /// Earliest pending delivery time across all lanes (0 when idle).
  [[nodiscard]] Cycle next_delivery() const noexcept {
    Cycle next = 0;
    auto scan = [&next](const auto& lanes) {
      for (const auto& lane : lanes) {
        if (!lane.queue.empty() &&
            (next == 0 || lane.queue.front().due < next)) {
          next = lane.queue.front().due;
        }
      }
    };
    scan(request_lanes_);
    scan(completion_lanes_);
    return next;
  }

  [[nodiscard]] std::uint64_t messages() const noexcept { return messages_; }
  [[nodiscard]] Cycle hop_cycles() const noexcept { return hop_cycles_; }

  /// Pending (sent, not yet delivered) messages destined to `dest` —
  /// sampler probe fodder.
  [[nodiscard]] std::size_t request_backlog(NodeId dest) const {
    return request_lanes_.at(dest).queue.size();
  }
  [[nodiscard]] std::size_t completion_backlog(NodeId dest) const {
    return completion_lanes_.at(dest).queue.size();
  }

  /// Register per-directed-link counters ("<prefix>.link<S><D>.requests" /
  /// ".completions") for every src != dest pair. Increments happen as a
  /// message enters a delivery lane. Pass nullptr to detach; the registry
  /// must outlive the interconnect.
  void attach_metrics(MetricsRegistry* registry,
                      const std::string& prefix = "fabric") {
    link_requests_.clear();
    link_completions_.clear();
    if (registry == nullptr) return;
    const std::size_t nodes = request_lanes_.size();
    link_requests_.assign(nodes * nodes, nullptr);
    link_completions_.assign(nodes * nodes, nullptr);
    for (std::size_t src = 0; src < nodes; ++src) {
      for (std::size_t dest = 0; dest < nodes; ++dest) {
        if (src == dest) continue;
        const std::string link = prefix + ".link" + std::to_string(src) +
                                 std::to_string(dest);
        link_requests_[src * nodes + dest] =
            &registry->counter(link + ".requests");
        link_completions_[src * nodes + dest] =
            &registry->counter(link + ".completions");
      }
    }
  }
  [[nodiscard]] std::uint64_t sends() const noexcept { return sends_; }
  [[nodiscard]] std::uint64_t deliveries() const noexcept {
    std::uint64_t total = 0;
    for (const auto& lane : request_lanes_) total += lane.delivered;
    for (const auto& lane : completion_lanes_) total += lane.delivered;
    return total;
  }

  /// Enable fabric checks (docs/INVARIANTS.md §fabric). Registers an
  /// end-of-run credit audit: sends must balance deliveries and every lane
  /// must have drained. The context must outlive the interconnect.
  void attach_checks(CheckContext* context) {
    checks_ = context;
    if (context == nullptr) return;
    context->on_finalize([this](CheckContext&) { check_drained(); });
  }

  /// Credit conservation (docs/INVARIANTS.md §fabric): a fixed-latency
  /// fabric neither drops nor duplicates, so lifetime sends equal lifetime
  /// deliveries once the lanes drain.
  void check_drained() {
    std::uint64_t queued = 0;
    for (const auto& lane : request_lanes_) queued += lane.queue.size();
    for (const auto& lane : completion_lanes_) queued += lane.queue.size();
    const std::uint64_t delivered = deliveries();
    MAC3D_CHECK(checks_, inv::kFabricCredit,
                sends_ == delivered + queued && queued == 0, 0,
                std::to_string(sends_) + " messages sent, " +
                    std::to_string(delivered) + " delivered, " +
                    std::to_string(queued) + " still in flight");
  }

  /// Deliberate model bug for the invariant test suite: silently drop the
  /// next message handed to the fabric (one-shot), breaching credit
  /// conservation.
  void inject_drop_next_message() noexcept { drop_next_ = true; }

 private:
  template <typename T>
  struct Message {
    Cycle due = 0;
    T payload;
  };

  template <typename T>
  struct Lane {
    std::deque<Message<T>> queue;
    std::uint64_t delivered = 0;
  };

  template <typename T>
  static std::vector<T> deliver(Lane<T>& lane, Cycle now) {
    std::vector<T> out;
    // Constant hop latency => lanes are ordered by due time.
    while (!lane.queue.empty() && lane.queue.front().due <= now) {
      out.push_back(std::move(lane.queue.front().payload));
      lane.queue.pop_front();
    }
    lane.delivered += out.size();
    return out;
  }

  /// One-shot drop fault; consumed at the point a message would enter a
  /// lane.
  [[nodiscard]] bool consume_drop_fault() noexcept {
    if (!drop_next_) return false;
    drop_next_ = false;
    ++sends_;  // the sender spent the credit; the fabric lost the message
    return true;
  }

  [[nodiscard]] MetricCounter* link_metric(
      const std::vector<MetricCounter*>& links, NodeId src,
      NodeId dest) const noexcept {
    const std::size_t index =
        static_cast<std::size_t>(src) * request_lanes_.size() + dest;
    return index < links.size() ? links[index] : nullptr;
  }

  Cycle hop_cycles_;
  std::uint64_t messages_ = 0;
  std::uint64_t sends_ = 0;
  std::vector<Lane<RawRequest>> request_lanes_;
  std::vector<Lane<CompletedAccess>> completion_lanes_;
  bool drop_next_ = false;
  Cycle last_work_ = ~Cycle{0};  ///< census slot (MAC3D_OBS_ACTIVITY)
  CheckContext* checks_ = nullptr;
  std::vector<MetricCounter*> link_requests_;
  std::vector<MetricCounter*> link_completions_;
};

}  // namespace mac3d
