// Finite MSHR-style tag allocator for the open-loop feeder.
//
// A thread's (tid, tag) pair is its request identity on the response path
// (the paper's 2 B tag field, Sec. 4.1.1), so a tag must not be reissued
// while its predecessor is in flight. The feeder originally modeled this
// as a sequential cursor that stalled whenever the *next* tag was still
// busy; real hardware holds a finite pool of transaction IDs (like MSHR
// entries) and hands out any free one. This allocator models that pool of
// `capacity` tags: allocation order is 0,1,2,... through the never-used
// tags, then recycled tags in completion order, so with the full 64 K pool
// it reproduces the sequential cursor exactly until a trace wraps the tag
// space (2^16 requests per thread). The never-used tags are a counter, not
// a list, so a pool costs nothing until tags come back.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "common/ring_queue.hpp"
#include "common/types.hpp"

namespace mac3d {

class TagAllocator {
 public:
  static constexpr std::size_t kTagSpace = std::size_t{1}
                                           << (8 * sizeof(Tag));

  /// `capacity` = number of simultaneously outstanding tags (MSHR-style
  /// pool size), clamped to the 2 B tag space. 0 selects the full space.
  explicit TagAllocator(std::uint32_t capacity = 0)
      : capacity_(capacity == 0 || capacity > kTagSpace ? kTagSpace
                                                        : capacity) {}

  /// A tag is available (the thread is not stalled on pool exhaustion).
  [[nodiscard]] bool available() const noexcept {
    return fresh_ < capacity_ || !recycled_.empty();
  }

  /// The tag the next allocate() will return. The feeder stamps telemetry
  /// against the peeked tag before the path accepts the request, so peek
  /// must be stable across rejected presentation attempts.
  [[nodiscard]] Tag peek() const noexcept {
    assert(available());
    return fresh_ < capacity_ ? static_cast<Tag>(fresh_) : recycled_.front();
  }

  Tag allocate() {
    const Tag tag = peek();
    if (fresh_ < capacity_) {
      ++fresh_;
    } else {
      recycled_.pop_front();
    }
    ++allocated_;
    const std::size_t outstanding = allocated_ - released_;
    if (outstanding > high_water_) high_water_ = outstanding;
    return tag;
  }

  /// Return a completed request's tag to the pool (FIFO recycle).
  void release(Tag tag) {
    recycled_.push_back(tag);
    ++released_;
  }

  [[nodiscard]] std::uint64_t allocated() const noexcept { return allocated_; }
  [[nodiscard]] std::uint64_t released() const noexcept { return released_; }
  [[nodiscard]] std::size_t outstanding() const noexcept {
    return allocated_ - released_;
  }
  /// Peak simultaneously outstanding tags — how big the pool *needed* to
  /// be; compare against capacity to size real MSHR files.
  [[nodiscard]] std::size_t high_water() const noexcept { return high_water_; }

 private:
  std::size_t capacity_;     ///< pool size, <= kTagSpace
  std::size_t fresh_ = 0;    ///< never-used tags handed out (0..fresh_-1)
  RingQueue<Tag> recycled_;  ///< released tags, FIFO
  std::uint64_t allocated_ = 0;
  std::uint64_t released_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace mac3d
