#include "obs/sampler.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>

namespace mac3d {

void CycleSampler::begin_run(std::string path_name) {
  run_name_ = std::move(path_name);
  probes_.clear();
  next_boundary_ = period_;
  running_ = true;
}

void CycleSampler::add_probe(std::string name, Probe probe) {
  probes_.emplace_back(std::move(name), std::move(probe));
}

void CycleSampler::advance_to(Cycle now) {
  if (!running_) return;
  while (next_boundary_ <= now) {
    sample_boundary(next_boundary_);
    next_boundary_ += period_;
  }
}

void CycleSampler::end_run(Cycle makespan) {
  if (!running_) return;
  // Row k (boundary k*period) covers window ((k-1)*period, k*period]; the
  // run needs every window whose start precedes the makespan:
  // exactly ceil(makespan / period) rows. The tail row is sampled at the
  // makespan itself (the boundary would lie beyond the end of time).
  while (next_boundary_ - period_ < makespan) {
    sample_boundary(std::min(next_boundary_, makespan));
    next_boundary_ += period_;
  }
  abort_run();
}

void CycleSampler::abort_run() noexcept {
  probes_.clear();
  running_ = false;
}

void CycleSampler::sample_boundary(Cycle boundary) {
  if (columns_.empty()) {
    columns_.reserve(probes_.size());
    for (const auto& [name, probe] : probes_) columns_.push_back(name);
  }
  Row row;
  row.path = run_name_;
  row.cycle = boundary;
  row.values.reserve(probes_.size());
  for (const auto& [name, probe] : probes_) row.values.push_back(probe(boundary));
  rows_.push_back(std::move(row));
}

std::size_t CycleSampler::rows_for(std::string_view path) const noexcept {
  return static_cast<std::size_t>(
      std::count_if(rows_.begin(), rows_.end(),
                    [path](const Row& row) { return row.path == path; }));
}

std::string CycleSampler::to_csv() const {
  std::string out = "path,cycle";
  for (const auto& column : columns_) (out += ',') += column;
  out += '\n';
  // to_chars(general, 10) is specified to match printf("%.10g") exactly.
  char buf[40];
  for (const auto& row : rows_) {
    (out += row.path) += ',';
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), row.cycle).ptr);
    for (const double value : row.values) {
      const auto end = std::to_chars(buf, buf + sizeof(buf), value,
                                     std::chars_format::general, 10);
      (out += ',').append(buf, end.ptr);
    }
    out += '\n';
  }
  return out;
}

bool CycleSampler::write_csv(const std::string& file) const {
  std::ofstream out(file, std::ios::out | std::ios::trunc);
  if (!out.is_open()) return false;
  out << to_csv();
  return out.good();
}

}  // namespace mac3d
