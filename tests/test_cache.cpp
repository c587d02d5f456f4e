// Unit tests: cache model (Fig. 1 substrate) and the MSHR fixed-64 B
// coalescer baseline (Sec. 2.3).
#include <gtest/gtest.h>

#include "cache/cache.hpp"
#include "cache/mshr.hpp"
#include "common/rng.hpp"
#include "mem/hmc_device.hpp"

namespace mac3d {
namespace {

// ------------------------------------------------------------------ cache
TEST(Cache, ColdMissThenHit) {
  Cache cache(CacheConfig{"L1", 1024, 64, 2, true});
  EXPECT_FALSE(cache.access(0x100, false));
  EXPECT_TRUE(cache.access(0x100, false));
  EXPECT_TRUE(cache.access(0x13F, false));   // same 64 B line
  EXPECT_FALSE(cache.access(0x140, false));  // next line
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(Cache, LruEvictsOldest) {
  // 2-way, 64 B lines, 2 sets -> 256 B cache; three lines mapping to set 0.
  Cache cache(CacheConfig{"L1", 256, 64, 2, true});
  cache.access(0x000, false);
  cache.access(0x100, false);
  cache.access(0x000, false);  // refresh line 0
  cache.access(0x200, false);  // evicts 0x100 (LRU)
  EXPECT_TRUE(cache.contains(0x000));
  EXPECT_FALSE(cache.contains(0x100));
  EXPECT_TRUE(cache.contains(0x200));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(Cache, DirtyEvictionCountsWriteback) {
  Cache cache(CacheConfig{"L1", 256, 64, 2, true});
  cache.access(0x000, true);   // dirty fill
  cache.access(0x100, false);
  cache.access(0x200, false);  // evicts dirty 0x000
  EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(Cache, WriteAroundPolicySkipsFill) {
  Cache cache(CacheConfig{"L1", 256, 64, 2, false});
  cache.access(0x000, true);
  EXPECT_FALSE(cache.contains(0x000));
}

TEST(Cache, SequentialStreamMissesOncePerLine) {
  Cache cache(CacheConfig{"L1", 32 * 1024, 64, 8, true});
  for (Address a = 0; a < 8 * 1024; a += 8) cache.access(a, false);
  // 8 accesses per 64 B line: miss rate 1/8.
  EXPECT_NEAR(cache.stats().miss_rate(), 0.125, 1e-6);
}

TEST(Cache, RandomStreamOverLargeFootprintMostlyMisses) {
  Cache cache(CacheConfig{"L1", 32 * 1024, 64, 8, true});
  Xoshiro256 rng(5);
  for (int i = 0; i < 20000; ++i) {
    cache.access(rng.below(1ull << 30), false);
  }
  EXPECT_GT(cache.stats().miss_rate(), 0.95);
}

TEST(Cache, RejectsBadGeometry) {
  EXPECT_THROW(Cache(CacheConfig{"x", 1000, 64, 3, true}),
               std::invalid_argument);
  EXPECT_THROW(Cache(CacheConfig{"x", 1024, 48, 2, true}),
               std::invalid_argument);
}

TEST(CacheHierarchy, MissesFallThroughLevels) {
  CacheHierarchy hierarchy({CacheConfig{"L1", 256, 64, 2, true},
                            CacheConfig{"L2", 1024, 64, 2, true}});
  EXPECT_EQ(hierarchy.access(0x000, false), 2u);  // memory
  EXPECT_EQ(hierarchy.access(0x000, false), 0u);  // L1 hit
  // Thrash L1 set 0 (2 sets, 2 ways): lines 0x000/0x100/0x200 collide.
  hierarchy.access(0x100, false);
  hierarchy.access(0x200, false);
  EXPECT_EQ(hierarchy.access(0x000, false), 1u);  // evicted to... L2 hit
  EXPECT_GT(hierarchy.overall_miss_rate(), 0.0);
  EXPECT_LT(hierarchy.overall_miss_rate(), 1.0);
}

TEST(CacheHierarchy, ResetClearsAllLevels) {
  CacheHierarchy hierarchy({CacheConfig{"L1", 256, 64, 2, true}});
  hierarchy.access(0x0, false);
  hierarchy.reset();
  EXPECT_EQ(hierarchy.level(0).stats().accesses, 0u);
  EXPECT_EQ(hierarchy.overall_miss_rate(), 0.0);
}

// ------------------------------------------------------------------- mshr
class MshrTest : public ::testing::Test {
 protected:
  SimConfig config_;
  HmcDevice device_{config_};
  MshrCoalescer mshr_{config_, device_, 32, 64};

  void settle(Cycle& now) {
    while (!mshr_.idle()) {
      mshr_.tick(now);
      completions_ += mshr_.drain(now).size();
      const Cycle next = mshr_.next_event(now);
      now = next <= now ? now + 1 : next;
    }
  }

  std::size_t completions_ = 0;
};

TEST_F(MshrTest, MergesSameBlock) {
  Cycle now = 0;
  RawRequest a;
  a.addr = 0x1000;
  a.tid = 0;
  a.tag = 1;
  RawRequest b;
  b.addr = 0x1038;  // same 64 B block
  b.tid = 1;
  b.tag = 1;
  ASSERT_TRUE(mshr_.try_accept(a, now));
  ++now;  // merge port is per-cycle
  ASSERT_TRUE(mshr_.try_accept(b, now));
  settle(now);
  EXPECT_EQ(mshr_.ledger().packets_out(), 1u);
  EXPECT_EQ(mshr_.stats().merged, 1u);
  EXPECT_EQ(completions_, 2u);
}

TEST_F(MshrTest, AlwaysDispatches64B) {
  Cycle now = 0;
  for (int i = 0; i < 4; ++i) {
    RawRequest request;
    request.addr = 0xA00 + static_cast<Address>(i) * 64;
    request.tid = 0;
    request.tag = static_cast<Tag>(i);
    ASSERT_TRUE(mshr_.try_accept(request, now));
    ++now;
  }
  settle(now);
  EXPECT_EQ(mshr_.ledger().packets_out(), 4u);
  EXPECT_EQ(device_.stats().data_bytes, 4u * 64);
}

TEST_F(MshrTest, LoadsAndStoresDoNotMerge) {
  Cycle now = 0;
  RawRequest load;
  load.addr = 0x2000;
  load.tag = 1;
  RawRequest store = load;
  store.op = MemOp::kStore;
  store.tag = 2;
  ASSERT_TRUE(mshr_.try_accept(load, now));
  ++now;
  ASSERT_TRUE(mshr_.try_accept(store, now));
  settle(now);
  EXPECT_EQ(mshr_.ledger().packets_out(), 2u);
}

TEST_F(MshrTest, FenceDrainsBeforeRetiring) {
  Cycle now = 0;
  RawRequest load;
  load.addr = 0x3000;
  load.tag = 1;
  ASSERT_TRUE(mshr_.try_accept(load, now));
  RawRequest fence;
  fence.op = MemOp::kFence;
  fence.tag = 2;
  ++now;
  ASSERT_TRUE(mshr_.try_accept(fence, now));
  EXPECT_FALSE(mshr_.can_accept());  // barrier blocks intake
  settle(now);
  EXPECT_EQ(completions_, 2u);
  EXPECT_TRUE(mshr_.can_accept());
}

TEST_F(MshrTest, AtomicBypassesMerging) {
  Cycle now = 0;
  RawRequest amo;
  amo.op = MemOp::kAtomic;
  amo.addr = 0x4000;
  amo.tag = 1;
  RawRequest amo2 = amo;
  amo2.tag = 2;
  ASSERT_TRUE(mshr_.try_accept(amo, now));
  ++now;
  ASSERT_TRUE(mshr_.try_accept(amo2, now));
  settle(now);
  EXPECT_EQ(mshr_.ledger().packets_out(), 2u);  // never merged
  EXPECT_EQ(device_.stats().atomics, 2u);
}

TEST_F(MshrTest, CapacityRejectsAllocation) {
  Cycle now = 0;
  std::uint32_t accepted = 0;
  for (int i = 0; i < 64; ++i) {
    RawRequest request;
    request.addr = static_cast<Address>(i) * 4096;  // all distinct blocks
    request.tag = static_cast<Tag>(i);
    if (mshr_.try_accept(request, now)) ++accepted;
    ++now;  // one allocation port per cycle
    if (accepted >= 40) break;
  }
  // The file has 32 entries; some dispatch+complete may free a few, but
  // well under 64 distinct blocks can be outstanding at once.
  EXPECT_LE(mshr_.ledger().packets_out() + 32, 64u);
  settle(now);
  EXPECT_EQ(completions_, accepted);
}

}  // namespace
}  // namespace mac3d
