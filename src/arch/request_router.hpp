// Request router (paper Sec. 3.1): classifies raw requests by home node
// and buffers them in the three FIFO queues that decouple the cores from
// the memory subsystem:
//   * Local Access Queue  — local cores -> local 3D-stacked memory
//   * Global Access Queue — local cores -> remote nodes (via interconnect)
//   * Remote Access Queue — remote nodes -> local 3D-stacked memory
//
// A router belongs to exactly one node; remote traffic reaches it only
// through the interconnect.
#pragma once

#include <cstdint>
#include <string>

#include "check/check.hpp"
#include "check/invariants.hpp"
#include "common/config.hpp"
#include "common/fixed_queue.hpp"
#include "common/types.hpp"
#include "mem/address_map.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"

namespace mac3d {

class RequestRouter {
 public:
  RequestRouter(const SimConfig& config, const AddressMap& map, NodeId node)
      : map_(map),
        node_(node),
        local_(config.queue_depth),
        global_(config.queue_depth),
        remote_(config.queue_depth) {}

  /// Route a request generated by a local core. Returns false when the
  /// destination queue is full (the core must retry — back-pressure).
  /// `now` is only used to stamp router_enqueue telemetry; callers without
  /// a cycle in scope may omit it.
  [[nodiscard]] bool route_local(const RawRequest& request, Cycle now = 0) {
    const bool is_local =
        request.op == MemOp::kFence || map_.node_of(request.addr) == node_;
    FixedQueue<RawRequest>& queue = is_local ? local_ : global_;
    if (queue.full()) return false;
    queue.push(request);
    routed_ += 1;
    remote_out_ += is_local ? 0 : 1;
    MAC3D_OBS_COUNT(m_routed_);
    if (!is_local) MAC3D_OBS_COUNT(m_remote_out_);
    MAC3D_OBS_ACTIVITY(last_work_, now);
    MAC3D_OBS_STAMP(sink_, Stage::kRouterEnqueue, request.tid, request.tag,
                    now);
    static_cast<void>(now);  // only the stamp reads it; may be compiled out
    return true;
  }

  /// Enqueue a request arriving from a remote node.
  [[nodiscard]] bool route_remote(const RawRequest& request) {
    if (remote_.full()) return false;
    MAC3D_CHECK(checks_, inv::kRouterClassification,
                request.op != MemOp::kFence &&
                    map_.node_of(request.addr) == node_,
                0,
                "node " + std::to_string(node_) +
                    " received a remote request homed at node " +
                    std::to_string(map_.node_of(request.addr)) + " (tid " +
                    std::to_string(request.tid) + ")");
    remote_.push(request);
    remote_in_ += 1;
    MAC3D_OBS_COUNT(m_remote_in_);
    return true;
  }

  /// The MAC pulls one raw request per cycle; local and remote queues are
  /// served round-robin so incoming remote traffic cannot be starved.
  [[nodiscard]] bool has_mac_request() const noexcept {
    return !local_.empty() || !remote_.empty();
  }
  RawRequest pop_mac_request() {
    const bool use_remote =
        (!remote_.empty() && (local_.empty() || prefer_remote_));
    prefer_remote_ = !prefer_remote_;
    RawRequest request = use_remote ? remote_.pop() : local_.pop();
    popped_ += 1;
    MAC3D_OBS_COUNT(m_popped_);
    MAC3D_CHECK(checks_, inv::kRouterClassification,
                request.op == MemOp::kFence ||
                    map_.node_of(request.addr) == node_,
                0,
                "node " + std::to_string(node_) +
                    " handed its MAC a request homed at node " +
                    std::to_string(map_.node_of(request.addr)) + " (tid " +
                    std::to_string(request.tid) + ")");
    return request;
  }

  [[nodiscard]] FixedQueue<RawRequest>& global_queue() noexcept {
    return global_;
  }
  [[nodiscard]] const FixedQueue<RawRequest>& local_queue() const noexcept {
    return local_;
  }
  [[nodiscard]] const FixedQueue<RawRequest>& remote_queue() const noexcept {
    return remote_;
  }

  [[nodiscard]] std::uint64_t routed() const noexcept { return routed_; }
  [[nodiscard]] std::uint64_t remote_out() const noexcept {
    return remote_out_;
  }
  [[nodiscard]] std::uint64_t remote_in() const noexcept { return remote_in_; }

  /// Enable routing checks (docs/INVARIANTS.md §router). Registers an
  /// end-of-run audit: every request pushed toward the local MAC must have
  /// been popped (no dropped TIDs). The context must outlive the router.
  void attach_checks(CheckContext* context) {
    checks_ = context;
    if (context == nullptr) return;
    context->on_finalize([this](CheckContext&) { check_drained(); });
  }

  /// Enable request-lifecycle telemetry (docs/OBSERVABILITY.md): stamps
  /// router_enqueue when a local core's request is queued. Remote arrivals
  /// are not re-stamped — they already carry the origin node's stamp. The
  /// sink must outlive the router; pass nullptr to detach.
  void attach_sink(EventSink* sink) noexcept { sink_ = sink; }

  // ---- Activity oracle (idle-cycle census, docs/OBSERVABILITY.md) --------
  /// route_local stamps itself; route_remote and pop_mac_request have no
  /// cycle in scope, so the owning Node calls note_work from its tick when
  /// it drives either of them.
  void note_work(Cycle now) noexcept {
    MAC3D_OBS_ACTIVITY(last_work_, now);
    static_cast<void>(now);
  }
  [[nodiscard]] bool did_work_this_cycle(Cycle now) const noexcept {
    return last_work_ == now;
  }
  [[nodiscard]] const Cycle& last_work() const noexcept { return last_work_; }
  [[nodiscard]] Cycle next_activity_cycle(Cycle now) const noexcept {
    return (has_mac_request() || !global_.empty()) ? now + 1 : 0;
  }

  /// Register this router's counters under `prefix` (e.g. "node3.router")
  /// in `registry`. Pass nullptr to detach. The registry must outlive the
  /// router.
  void attach_metrics(MetricsRegistry* registry, const std::string& prefix) {
    if (registry == nullptr) {
      m_routed_ = m_remote_out_ = m_remote_in_ = m_popped_ = nullptr;
      return;
    }
    m_routed_ = &registry->counter(prefix + ".routed");
    m_remote_out_ = &registry->counter(prefix + ".remote_out");
    m_remote_in_ = &registry->counter(prefix + ".remote_in");
    m_popped_ = &registry->counter(prefix + ".popped");
  }

  /// Push/pop balance for the two MAC-facing queues; the global queue is
  /// audited by the destination node's remote-in accounting.
  void check_drained() {
    const std::uint64_t pushed = routed_ - remote_out_ + remote_in_;
    const std::uint64_t queued = local_.size() + remote_.size();
    MAC3D_CHECK(checks_, inv::kRouterConservation,
                pushed == popped_ + queued && queued == 0 && global_.empty(),
                0,
                "node " + std::to_string(node_) + ": " +
                    std::to_string(pushed) + " requests pushed toward the " +
                    "MAC, " + std::to_string(popped_) + " popped, " +
                    std::to_string(queued) + " still queued (global queue: " +
                    std::to_string(global_.size()) + ")");
  }

 private:
  const AddressMap& map_;
  NodeId node_;
  FixedQueue<RawRequest> local_;
  FixedQueue<RawRequest> global_;
  FixedQueue<RawRequest> remote_;
  bool prefer_remote_ = false;
  std::uint64_t routed_ = 0;
  std::uint64_t remote_out_ = 0;
  std::uint64_t remote_in_ = 0;
  std::uint64_t popped_ = 0;
  Cycle last_work_ = ~Cycle{0};  ///< census slot (MAC3D_OBS_ACTIVITY)
  CheckContext* checks_ = nullptr;
  EventSink* sink_ = nullptr;
  MetricCounter* m_routed_ = nullptr;
  MetricCounter* m_remote_out_ = nullptr;
  MetricCounter* m_remote_in_ = nullptr;
  MetricCounter* m_popped_ = nullptr;
};

}  // namespace mac3d
