#include "sim/memory_path.hpp"

#include <type_traits>

#include "cache/mshr.hpp"
#include "mac/coalescer.hpp"
#include "mac/warp_coalescer.hpp"
#include "mem/hmc_device.hpp"
#include "obs/profiler.hpp"
#include "sim/raw_path.hpp"

namespace mac3d {

MemoryPath::~MemoryPath() = default;

namespace {

/// The one adapter: every path class carries the same policy surface
/// (kPolicy, register_census, collect, ...), so each call forwards as is.
template <typename Path>
class PathAdapter final : public MemoryPath {
 public:
  template <typename... Args>
  explicit PathAdapter(Args&&... args)
      : path_(std::forward<Args>(args)...) {}

  [[nodiscard]] const char* name() const noexcept override {
    return to_string(Path::kPolicy).data();  // enum names are NUL-terminated
  }

  [[nodiscard]] bool can_accept() const override { return path_.can_accept(); }
  void accept(const RawRequest& request, Cycle now) override {
    path_.accept(request, now);
  }
  void tick(Cycle now) override { path_.tick(now); }
  const std::vector<CompletedAccess>& drain(Cycle now) override {
    return path_.drain(now);
  }
  [[nodiscard]] bool idle() const override { return path_.idle(); }
  [[nodiscard]] Cycle next_event(Cycle now) const override {
    return path_.next_event(now);
  }
  void attach_checks(CheckContext* context,
                     const std::string& scope_prefix) override {
    path_.attach_checks(context, scope_prefix + name());
  }
  void attach_sink(EventSink* sink) override { path_.attach_sink(sink); }
  void register_census(ActivityCensus& census,
                       const std::string& prefix) override {
    path_.register_census(census, prefix);
  }
  void collect(StatSet& out, const std::string& prefix) const override {
    path_.collect(out, prefix);
  }
  [[nodiscard]] MacCoalescer* as_mac() noexcept override {
    if constexpr (std::is_same_v<Path, MacCoalescer>) {
      return &path_;
    } else {
      return nullptr;
    }
  }

 private:
  Path path_;
};

}  // namespace

std::unique_ptr<MemoryPath> make_memory_path(const SimConfig& config,
                                             HmcDevice& device) {
  switch (config.policy) {
    case CoalescerPolicy::kRaw:
      return std::make_unique<PathAdapter<RawPath>>(config, device);
    case CoalescerPolicy::kMshr:
      return std::make_unique<PathAdapter<MshrCoalescer>>(
          config, device, config.mshr_entries, config.mshr_block_bytes);
    case CoalescerPolicy::kWarp:
      return std::make_unique<PathAdapter<WarpCoalescer>>(config, device);
    case CoalescerPolicy::kMac:
      break;
  }
  return std::make_unique<PathAdapter<MacCoalescer>>(config, device);
}

}  // namespace mac3d
