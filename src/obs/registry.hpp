// MetricsRegistry: the hierarchical metrics backbone of the multi-node
// observability stack (docs/OBSERVABILITY.md §multi-node).
//
// Components register counters / gauges / histograms under dotted
// namespaces ("node3.router.remote_in", "fabric.link01.flits") at attach
// time; the hot path then updates through stable references with plain
// integer adds — one null-pointer test plus one add per site, and nothing
// at all under -DMAC3D_OBS=OFF (the MAC3D_OBS_COUNT* macros).
//
// Threading contract: a registry belongs to one run at a time. Nothing
// inside a run is concurrent, and run-level parallelism (run_suite's and
// `mac3d run`'s --jobs) falls back to one run at a time whenever a shared
// hook is attached (docs/PARALLELISM.md), so the counters need no
// atomics. Export renders in sorted-name order, so the cycle and event
// engines produce byte-identical JSON — test_parallel_equivalence locks
// this in.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "common/stats.hpp"

namespace mac3d {

/// Monotonic event counter.
class MetricCounter {
 public:
  void add(std::uint64_t delta = 1) noexcept { value_ += delta; }
  [[nodiscard]] std::uint64_t get() const noexcept { return value_; }
  /// Fold another counter's total in.
  void merge(const MetricCounter& other) noexcept { add(other.get()); }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time gauge (queue occupancy, busy fraction). Last write wins.
class MetricGauge {
 public:
  void set(double value) noexcept { value_ = value; }
  [[nodiscard]] double get() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Hierarchical metric registry. Registration (counter()/gauge()/
/// histogram()) happens single-threaded at attach time and returns
/// references that stay valid for the registry's lifetime (deque-backed);
/// the hot path only touches the returned objects. Namespaces are dotted
/// metric names; the registry itself stays flat and sorts on export.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-register under `name`. Re-registering the same name returns
  /// the same object (so re-attaching components accumulates, matching
  /// CheckContext semantics).
  MetricCounter& counter(const std::string& name);
  MetricGauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, std::size_t buckets = 32);

  [[nodiscard]] std::size_t size() const noexcept {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Fold another registry in (counters add, histograms merge, gauges
  /// last-write-wins in call order).
  void merge(const MetricsRegistry& shard);

  /// Flatten every metric into `out` under `prefix` ("metrics" by
  /// convention): counters and gauges as scalars, histograms as
  /// .count/.mean-style derived scalars.
  void collect(StatSet& out, const std::string& prefix) const;

  /// Render as one sorted JSON object: counters/gauges as numbers,
  /// histograms via RunReport::histogram_json-compatible objects.
  /// Deterministic: byte-identical across runs with equal metric values.
  [[nodiscard]] std::string to_json() const;

 private:
  // deque => stable addresses across registration; map => sorted export.
  std::deque<MetricCounter> counters_;
  std::deque<MetricGauge> gauges_;
  std::deque<Histogram> histograms_;
  std::map<std::string, MetricCounter*> counter_names_;
  std::map<std::string, MetricGauge*> gauge_names_;
  std::map<std::string, Histogram*> histogram_names_;
};

}  // namespace mac3d
