#include "check/check.hpp"

#include <sstream>
#include <utility>

#include "common/stats.hpp"

namespace mac3d {

std::string Violation::to_string() const {
  std::ostringstream out;
  out << "[" << mac3d::to_string(invariant->severity) << "] "
      << invariant->id << " @ cycle " << cycle << ": " << detail
      << " (invariant: " << invariant->summary << "; paper "
      << invariant->paper_ref << ")";
  return out.str();
}

void CheckContext::fail(const Invariant& invariant, Cycle cycle,
                        std::string detail) {
  ++violations_;
  Violation violation{&invariant, cycle, std::move(detail)};
  ++by_id_[std::string(invariant.id)];
  if (mode_ == FailMode::kThrow) throw InvariantViolation(violation);
  if (first_failures_.size() < kMaxStoredFailures) {
    first_failures_.push_back(std::move(violation));
  }
}

void CheckContext::on_finalize(std::function<void(CheckContext&)> hook) {
  finalizers_.push_back(std::move(hook));
}

void CheckContext::finalize() {
  // Clear first: a finalizer may throw (kThrow mode) and the hooks capture
  // components that will be gone by the time the context is reused.
  std::vector<std::function<void(CheckContext&)>> hooks;
  hooks.swap(finalizers_);
  for (const auto& hook : hooks) hook(*this);
}

std::uint64_t CheckContext::violations(std::string_view id) const {
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? 0 : it->second;
}

std::string CheckContext::report() const {
  std::ostringstream out;
  out << "invariant checks: " << checks_run_ << " run, " << violations_
      << " violation" << (violations_ == 1 ? "" : "s") << "\n";
  for (const auto& [id, count] : by_id_) {
    out << "  " << id << ": " << count << "\n";
  }
  if (!first_failures_.empty()) {
    out << "first failures:\n";
    for (const Violation& violation : first_failures_) {
      out << "  " << violation.to_string() << "\n";
    }
  }
  return out.str();
}

void CheckContext::collect(StatSet& out, const std::string& prefix) const {
  out.set(prefix + ".checks_run", static_cast<double>(checks_run_));
  out.set(prefix + ".violations", static_cast<double>(violations_));
  for (const auto& [id, count] : by_id_) {
    out.set(prefix + ".violations." + id, static_cast<double>(count));
  }
}

}  // namespace mac3d
