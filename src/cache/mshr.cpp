#include "cache/mshr.hpp"

#include <algorithm>
#include <cassert>

#include "check/check.hpp"
#include "check/conservation.hpp"
#include "check/invariants.hpp"
#include "common/bitutil.hpp"
#include "obs/obs.hpp"

namespace mac3d {

void MshrCoalescer::collect(StatSet& out, const std::string& prefix) const {
  const std::string base = prefix + ".mshr";
  out.set(base + ".raw_in", static_cast<double>(stats_.raw_in));
  out.set(base + ".merged", static_cast<double>(stats_.merged));
  out.set(base + ".packets_out", static_cast<double>(stats_.packets_out));
  out.set(base + ".stalls_full", static_cast<double>(stats_.stalls_full));
  out.set(base + ".coalescing_efficiency", stats_.coalescing_efficiency());
  out.set(base + ".avg_raw_latency_cycles",
          stats_.raw_latency_cycles.mean());
}

MshrCoalescer::MshrCoalescer(const SimConfig& config, HmcDevice& device,
                             std::uint32_t entries, std::uint32_t block_bytes)
    : config_(config),
      device_(device),
      entries_(entries),
      block_bytes_(block_bytes) {
  assert(is_pow2(block_bytes));
  assert(block_bytes >= kFlitBytes && block_bytes <= config.row_bytes);
}

MshrCoalescer::~MshrCoalescer() = default;

void MshrCoalescer::attach_checks(CheckContext* context,
                                  const std::string& scope) {
  checks_ = context;
  if (context == nullptr) {
    conservation_.reset();
    return;
  }
  conservation_ = std::make_unique<ConservationChecker>(*context, scope);
  context->on_finalize([this](CheckContext&) {
    if (conservation_ != nullptr) conservation_->finalize(last_cycle_);
  });
}

bool MshrCoalescer::can_accept() const noexcept {
  // Conservative: require a free entry (a merging request would not need
  // one, but the allocation decision must be guaranteed up front), and no
  // pending barrier.
  return barrier_pending_ == 0 && file_.size() < entries_;
}

bool MshrCoalescer::try_accept(const RawRequest& request, Cycle now) {
  const bool accepted = intake(request, now);
#if MAC3D_CHECKS_ENABLED
  if (accepted && conservation_ != nullptr) {
    conservation_->on_accept(request.tid, request.tag, request.op, now);
  }
#endif
  return accepted;
}

bool MshrCoalescer::intake(const RawRequest& request, Cycle now) {
  const bool merge_free = merge_port_used_at_ != now;
  const bool alloc_free = alloc_port_used_at_ != now;

  if (request.op == MemOp::kFence) {
    if (!alloc_free) return false;
    fences_.push_back({Target{request.tid, request.tag, 0}, now});
    ++stats_.fences_in;
    ++barrier_pending_;
    alloc_port_used_at_ = now;
    MAC3D_OBS_ACTIVITY(last_work_, now);
    MAC3D_OBS_STAMP(sink_, Stage::kQueueInsert, request.tid, request.tag, now);
    return true;
  }
  if (barrier_pending_ > 0) return false;  // strict barrier

  const std::uint32_t flit = device_.address_map().flit_of(
      device_.address_map().local_addr(request.addr));
  const Target target{request.tid, request.tag,
                      static_cast<std::uint8_t>(flit)};

  if (request.op == MemOp::kAtomic) {
    // Atomics bypass the MSHR file's merging entirely.
    if (!alloc_free || file_.size() >= entries_) return false;
    Entry entry;
    entry.block = align_down(request.addr, kFlitBytes);
    entry.write = true;
    entry.dispatched = false;
    entry.targets.push_back(target);
    entry.accept_cycles.push_back(now);
    const std::uint64_t key = (1ull << 63) | next_unique_++;
    file_.emplace(key, std::move(entry));
    dispatch_queue_.push_back(key);
    atomic_keys_.insert(key);
    alloc_port_used_at_ = now;
    MAC3D_OBS_ACTIVITY(last_work_, now);
    ++stats_.raw_in;
    MAC3D_OBS_STAMP(sink_, Stage::kQueueInsert, request.tid, request.tag, now);
    return true;
  }

  const Address block = align_down(request.addr, block_bytes_);
  const std::uint64_t key = entry_key(block, request.op == MemOp::kStore);
  const auto it = file_.find(key);
  if (it != file_.end()) {
    if (!merge_free) return false;
    it->second.targets.push_back(target);
    it->second.accept_cycles.push_back(now);
    merge_port_used_at_ = now;
    MAC3D_OBS_ACTIVITY(last_work_, now);
    ++stats_.merged;
    ++stats_.raw_in;
    MAC3D_OBS_STAMP(sink_, Stage::kQueueInsert, request.tid, request.tag, now);
    MAC3D_OBS_STAMP(sink_, Stage::kMerge, request.tid, request.tag, now);
#if MAC3D_OBS_ENABLED
    if (sink_ != nullptr && !it->second.targets.empty()) {
      const Target& leader = it->second.targets.front();
      sink_->on_merge(request.tid, request.tag, leader.tid, leader.tag, now);
    }
#endif
    return true;
  }

  const bool over_capacity = file_.size() >= entries_;
  if (!alloc_free || (over_capacity && inject_overrun_ == 0)) {
    ++stats_.stalls_full;
    return false;
  }
  if (over_capacity) --inject_overrun_;
  Entry entry;
  entry.block = block;
  entry.write = request.op == MemOp::kStore;
  entry.targets.push_back(target);
  entry.accept_cycles.push_back(now);
  file_.emplace(key, std::move(entry));
  dispatch_queue_.push_back(key);
  alloc_port_used_at_ = now;
  MAC3D_OBS_ACTIVITY(last_work_, now);
  ++stats_.raw_in;
  MAC3D_CHECK(checks_, inv::kMshrOccupancy, file_.size() <= entries_, now,
              "MSHR file occupancy " + std::to_string(file_.size()) +
                  " exceeds " + std::to_string(entries_) + " entries");
  MAC3D_OBS_STAMP(sink_, Stage::kQueueInsert, request.tid, request.tag, now);
  return true;
}

void MshrCoalescer::accept(const RawRequest& request, Cycle now) {
  const bool accepted = try_accept(request, now);
  assert(accepted && "MshrCoalescer::accept rejected");
  (void)accepted;
}

void MshrCoalescer::tick(Cycle now) {
  last_cycle_ = now;
  // Retire a pending barrier once everything older has drained.
  if (barrier_pending_ > 0 && file_.empty() && dispatch_queue_.empty() &&
      in_flight_.empty()) {
    const auto [target, accepted] = fences_.front();
    fences_.pop_front();
    --barrier_pending_;
    CompletedAccess done;
    done.target = target;
    done.fence = true;
    done.accepted = accepted;
    done.completed = now;
    ready_completions_.push_back(done);
    MAC3D_OBS_ACTIVITY(last_work_, now);
  }

  // Dispatch one transaction per cycle.
  if (dispatch_queue_.empty()) return;
  const std::uint64_t key = dispatch_queue_.front();
  auto it = file_.find(key);
  assert(it != file_.end());
  Entry& entry = it->second;

  HmcRequest request;
  request.addr = entry.block;
  const bool is_atomic = atomic_keys_.count(key) != 0;
  request.data_bytes = is_atomic ? kFlitBytes : block_bytes_;
  request.write = entry.write;
  request.atomic = is_atomic;
  if (!device_.can_accept(request, now)) return;
  request.id = next_txn_++;
  in_flight_.emplace(request.id, key);
  device_.submit(std::move(request), now);
  entry.dispatched = true;
  dispatch_queue_.pop_front();
  MAC3D_OBS_ACTIVITY(last_work_, now);
  ++stats_.packets_out;
}

const std::vector<CompletedAccess>& MshrCoalescer::drain(Cycle now) {
  std::vector<CompletedAccess>& out = drained_;
  out.assign(ready_completions_.begin(), ready_completions_.end());
  ready_completions_.clear();

  for (const HmcResponse& response : device_.drain(now)) {
    const auto flight = in_flight_.find(response.id);
    assert(flight != in_flight_.end());
    const std::uint64_t key = flight->second;
    in_flight_.erase(flight);
    const auto it = file_.find(key);
    assert(it != file_.end());
    Entry& entry = it->second;
    for (std::size_t i = 0; i < entry.targets.size(); ++i) {
      CompletedAccess done;
      done.target = entry.targets[i];
      done.write = entry.write;
      done.atomic = atomic_keys_.count(key) != 0;
      done.accepted = entry.accept_cycles[i];
      done.completed = response.completed;
      stats_.raw_latency_cycles.add(
          static_cast<double>(done.completed - done.accepted));
      out.push_back(done);
    }
    atomic_keys_.erase(key);
    file_.erase(it);
  }
  if (!out.empty()) MAC3D_OBS_ACTIVITY(last_work_, now);
#if MAC3D_OBS_ENABLED
  if (sink_ != nullptr) {
    for (const CompletedAccess& done : out) {
      sink_->on_stage(Stage::kResponseMatch, done.target.tid, done.target.tag,
                      done.completed);
    }
  }
#endif
#if MAC3D_CHECKS_ENABLED
  if (conservation_ != nullptr) {
    for (const CompletedAccess& done : out) {
      conservation_->on_complete(done.target.tid, done.target.tag, done.fence,
                                 now);
    }
  }
#endif
  return out;
}

bool MshrCoalescer::idle() const noexcept {
  return file_.empty() && dispatch_queue_.empty() && in_flight_.empty() &&
         ready_completions_.empty() && barrier_pending_ == 0;
}

Cycle MshrCoalescer::next_event(Cycle now) const noexcept {
  if (idle()) return 0;
  if (!ready_completions_.empty() || !dispatch_queue_.empty() ||
      barrier_pending_ > 0) {
    return now + 1;
  }
  const Cycle completion = device_.next_completion();
  return completion > now ? completion : now + 1;
}

}  // namespace mac3d
