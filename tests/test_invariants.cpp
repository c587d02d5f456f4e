// The model-invariant checking subsystem (src/check/, docs/INVARIANTS.md):
//  * every workload generator replays clean through the fully-checked MAC;
//  * randomized trace fuzzing across all three paths and both feed modes;
//  * the multi-node system (routers included) runs clean;
//  * deliberately injected model bugs (dropped target, inflated overhead,
//    truncated packet) are caught by the matching invariant;
//  * targeted regressions for fence ordering and FLIT-byte conservation;
//  * FailMode::kThrow fails loudly on the first breach.
#include <gtest/gtest.h>

#include <string>

#include "cache/cache.hpp"
#include "cache/mshr.hpp"
#include "check/check.hpp"
#include "check/conservation.hpp"
#include "check/invariants.hpp"
#include "common/rng.hpp"
#include "mac/coalescer.hpp"
#include "mem/hmc_device.hpp"
#include "arch/system.hpp"
#include "sim/driver.hpp"
#include "trace/trace.hpp"
#include "workloads/all.hpp"

namespace mac3d {
namespace {

WorkloadParams small_params(std::uint32_t threads = 4) {
  WorkloadParams params;
  params.threads = threads;
  params.scale = 0.03;
  return params;
}

/// A random main-memory instruction stream: FLIT-aligned loads, stores and
/// atomics over a small row range (so merges happen), sprinkled with
/// compute gaps and per-thread fences.
MemoryTrace random_trace(std::uint64_t seed, std::uint32_t threads,
                         std::uint32_t records_per_thread) {
  MemoryTrace trace(threads);
  Xoshiro256 rng(seed);
  for (std::uint32_t t = 0; t < threads; ++t) {
    const auto tid = static_cast<ThreadId>(t);
    for (std::uint32_t i = 0; i < records_per_thread; ++i) {
      if (rng.below(32) == 0) {
        trace.fence(tid);
        continue;
      }
      if (rng.below(4) == 0) trace.instr(tid, rng.below(6));
      const Address addr = rng.below(256) * 256 + rng.below(16) * 16;
      switch (rng.below(8)) {
        case 0: trace.store(tid, addr); break;
        case 1: trace.atomic(tid, addr); break;
        default: trace.load(tid, addr); break;
      }
    }
    trace.fence(tid);  // every stream ends ordered
  }
  return trace;
}

/// Manual MAC pipeline driven to completion (fault-injection tests).
class CheckedMac : public ::testing::Test {
 protected:
  void attach(CheckContext& context) {
    device_.attach_checks(&context);
    mac_.attach_checks(&context);
  }

  RawRequest make(Address addr, ThreadId tid, Tag tag,
                  MemOp op = MemOp::kLoad) {
    RawRequest request;
    request.addr = addr;
    request.op = op;
    request.tid = tid;
    request.tag = tag;
    return request;
  }

  void settle(Cycle& now) {
    while (!mac_.idle()) {
      mac_.tick(now);
      (void)mac_.drain(now);
      const Cycle next = mac_.next_event(now);
      now = next <= now ? now + 1 : next;
    }
  }

  SimConfig config_;
  HmcDevice device_{config_};
  MacCoalescer mac_{config_, device_};
};

// ------------------------------------------------------- clean replays

TEST(InvariantReplay, EveryWorkloadReplaysCleanThroughTheCheckedMac) {
  SimConfig config;
  CheckContext context;
  DriveOptions options;
  options.checks = &context;
  for (const Workload* workload : workload_registry()) {
    const MemoryTrace trace = workload->trace(small_params());
    const DriverResult result = run_mac(trace, config, 4, options);
    EXPECT_GT(result.checks_run, 0u) << workload->name();
    EXPECT_EQ(result.check_violations, 0u) << workload->name()
                                           << "\n" << context.report();
  }
  EXPECT_EQ(context.violations(), 0u) << context.report();
}

TEST(InvariantReplay, RandomTraceFuzzAllPathsBothFeedModes) {
  SimConfig config;
  CheckContext context;
  for (std::uint64_t seed : {1ull, 7ull, 1234ull}) {
    const MemoryTrace trace = random_trace(seed, 4, 400);
    for (const FeedMode mode : {FeedMode::kStreaming, FeedMode::kClosedLoop}) {
      DriveOptions options;
      options.mode = mode;
      options.checks = &context;
      const DriverResult mac = run_mac(trace, config, 4, options);
      const DriverResult raw = run_raw(trace, config, 4, options);
      const DriverResult mshr = run_mshr(trace, config, 4, 32, 64, options);
      EXPECT_GT(mac.checks_run, 0u);
      EXPECT_EQ(mac.check_violations + raw.check_violations +
                    mshr.check_violations,
                0u)
          << "seed " << seed << "\n" << context.report();
    }
  }
  EXPECT_EQ(context.violations(), 0u) << context.report();
}

TEST(InvariantReplay, MultiNodeSystemWithRoutersRunsClean) {
  SimConfig config;
  config.nodes = 2;
  config.cores = 4;
  const MemoryTrace trace = random_trace(5, 8, 200);
  CheckContext context;
  {
    System system(config);
    system.attach_checks(&context);
    system.attach_trace(trace);
    const SystemRunSummary summary = system.run();
    EXPECT_TRUE(summary.completed);
    context.finalize();  // while nodes are alive
  }
  EXPECT_GT(context.checks_run(), 0u);
  EXPECT_EQ(context.violations(), 0u) << context.report();
}

TEST(InvariantReplay, CleanRunExportsCheckCountsIntoStats) {
  SimConfig config;
  CheckContext context;
  DriveOptions options;
  options.checks = &context;
  const DriverResult result =
      run_mac(random_trace(2, 2, 100), config, 2, options);
  StatSet stats;
  result.collect(stats, "mac");
  EXPECT_GT(stats.get("mac.checks_run"), 0.0);
  EXPECT_EQ(stats.get("mac.check_violations"), 0.0);
  context.collect(stats, "checks");
  EXPECT_EQ(stats.get("checks.violations"), 0.0);
  EXPECT_NE(context.report().find("0 violations"), std::string::npos);
}

// --------------------------------------------------- injected model bugs

TEST_F(CheckedMac, DroppedTargetIsCaughtAsMissingCompletion) {
  CheckContext context;
  attach(context);
  device_.inject_fault(HmcDevice::Fault::kDropTarget);
  Cycle now = 0;
  for (std::uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(mac_.try_accept(
        make(0xA00 + i * 16, static_cast<ThreadId>(i), 1), now));
    ++now;
  }
  settle(now);
  context.finalize();
  EXPECT_GT(context.violations(inv::kOneCompletion.id), 0u)
      << context.report();
}

TEST_F(CheckedMac, InflatedOverheadIsCaughtByPacketAccounting) {
  CheckContext context;
  attach(context);
  device_.inject_fault(HmcDevice::Fault::kInflateOverhead);
  Cycle now = 0;
  ASSERT_TRUE(mac_.try_accept(make(0xB00, 0, 1), now));
  settle(now);
  context.finalize();
  EXPECT_GT(context.violations(inv::kPacketOverhead.id), 0u)
      << context.report();
}

TEST_F(CheckedMac, TruncatedPacketViolatesFlitByteConservation) {
  CheckContext context;
  attach(context);
  mac_.inject_truncate_next_packet();
  Cycle now = 0;
  // FLITs 0 and 15 of one row: the packet must span the full 256 B row;
  // the injected truncation halves it and loses FLIT 15's bytes.
  ASSERT_TRUE(mac_.try_accept(make(0xA00, 0, 1), now));
  ASSERT_TRUE(mac_.try_accept(make(0xAF0, 1, 1), now));
  settle(now);
  context.finalize();
  EXPECT_GT(context.violations(inv::kFlitCoverage.id), 0u)
      << context.report();
}

TEST_F(CheckedMac, ThrowModeFailsLoudlyOnTheFirstBreach) {
  CheckContext context(CheckContext::FailMode::kThrow);
  attach(context);
  mac_.inject_truncate_next_packet();
  Cycle now = 0;
  ASSERT_TRUE(mac_.try_accept(make(0xA00, 0, 1), now));
  ASSERT_TRUE(mac_.try_accept(make(0xAF0, 1, 1), now));
  EXPECT_THROW(settle(now), InvariantViolation);
}

TEST_F(CheckedMac, CleanPipelineSatisfiesThrowMode) {
  CheckContext context(CheckContext::FailMode::kThrow);
  attach(context);
  Cycle now = 0;
  for (std::uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(mac_.try_accept(
        make(0xC00 + i * 16, static_cast<ThreadId>(i), 1), now));
    ++now;
  }
  EXPECT_NO_THROW(settle(now));
  EXPECT_NO_THROW(context.finalize());
  EXPECT_EQ(context.violations(), 0u);
}

// ------------------------------------------------- fabric credit checks

RawRequest remote_load(Address addr, ThreadId tid, Tag tag) {
  RawRequest request;
  request.addr = addr;
  request.op = MemOp::kLoad;
  request.tid = tid;
  request.tag = tag;
  return request;
}

TEST(FabricCredit, DrainedFabricBalancesItsCredits) {
  SimConfig config;
  Interconnect fabric(config, 2);
  CheckContext context;
  fabric.attach_checks(&context);
  for (std::uint32_t i = 0; i < 8; ++i) {
    fabric.send_request(remote_load(i * 16, 0, static_cast<Tag>(i)),
                        /*dest=*/1, /*now=*/i, /*src=*/0);
  }
  // Deliver everything: constant hop latency, so one late pop drains all.
  const auto delivered =
      fabric.deliver_requests(1, 8 + fabric.hop_cycles());
  EXPECT_EQ(delivered.size(), 8u);
  context.finalize();
  EXPECT_GT(context.checks_run(), 0u);
  EXPECT_EQ(context.violations(inv::kFabricCredit.id), 0u)
      << context.report();
}

TEST(FabricCredit, InjectedDropBreachesCreditConservation) {
  SimConfig config;
  Interconnect fabric(config, 2);
  CheckContext context;
  fabric.attach_checks(&context);
  fabric.send_request(remote_load(0x000, 0, 1), 1, 0, 0);
  fabric.inject_drop_next_message();
  fabric.send_request(remote_load(0x100, 1, 2), 1, 1, 0);  // lost in transit
  fabric.send_request(remote_load(0x200, 2, 3), 1, 2, 0);
  const auto delivered =
      fabric.deliver_requests(1, 2 + fabric.hop_cycles());
  EXPECT_EQ(delivered.size(), 2u);  // the dropped message never arrives
  context.finalize();
  EXPECT_EQ(context.violations(inv::kFabricCredit.id), 1u)
      << context.report();
}

TEST(FabricCredit, UndeliveredMessagesFailTheDrainAudit) {
  SimConfig config;
  Interconnect fabric(config, 2);
  CheckContext context;
  fabric.attach_checks(&context);
  fabric.send_request(remote_load(0x000, 0, 1), 1, 0, 0);
  context.finalize();  // lane still holds the message: not drained
  EXPECT_EQ(context.violations(inv::kFabricCredit.id), 1u)
      << context.report();
}

TEST(FabricCredit, SystemRunWithInjectedDropIsCaughtEndToEnd) {
  SimConfig config;
  config.nodes = 2;
  config.cores = 2;
  const MemoryTrace trace = random_trace(9, 4, 60);
  CheckContext context;
  {
    System system(config);
    system.attach_checks(&context);  // nodes, routers and fabric
    system.attach_trace(trace);
    system.fabric().inject_drop_next_message();
    // The lost remote reference can never complete, so the run times out;
    // a modest cycle cap keeps the test fast.
    const SystemRunSummary summary = system.run(/*max_cycles=*/60'000);
    EXPECT_FALSE(summary.completed);
    context.finalize();
  }
  EXPECT_GT(context.violations(inv::kFabricCredit.id), 0u)
      << context.report();
}

// ------------------------------------------------ cache hierarchy checks

TEST(CacheInvariants, RandomAccessStreamSatisfiesLruStackProperty) {
  CheckContext context;
  CacheHierarchy caches({
      CacheConfig{"L1", 1024, 64, 4, true},
      CacheConfig{"L2", 4096, 64, 4, true},
  });
  caches.attach_checks(&context);
  Xoshiro256 rng(11);
  for (int i = 0; i < 5000; ++i) {
    caches.access(rng.below(256) * 64, rng.below(2) == 0);
  }
  EXPECT_GT(context.checks_run(), 0u);
  EXPECT_EQ(context.violations(), 0u) << context.report();
}

TEST(CacheInvariants, InjectedLruCorruptionFiresTheStackProperty) {
  CheckContext context;
  Cache cache(CacheConfig{"L1", 1024, 64, 4, true});  // 4 sets
  cache.attach_checks(&context);
  // Warm set 0 with two lines so a zeroed recency stamp cannot be the
  // set's strict maximum (set stride = 4 sets x 64 B = 256 B).
  cache.access(0x000, false);
  cache.access(0x100, false);
  EXPECT_EQ(context.violations(), 0u) << context.report();
  cache.inject_lru_corruption(1);
  cache.access(0x200, false);  // fills set 0 with stamp 0: not the MRU
  EXPECT_GT(context.violations(inv::kCacheLruStack.id), 0u)
      << context.report();
}

TEST(CacheInvariants, DuplicateRecencyStampsViolateTheStackProperty) {
  CheckContext context;
  Cache cache(CacheConfig{"L1", 1024, 64, 4, true});
  cache.attach_checks(&context);
  // Two corrupted fills in an otherwise-empty set both record stamp 0:
  // the second access finds a duplicate stamp (and is not the strict MRU).
  cache.inject_lru_corruption(2);
  cache.access(0x000, false);
  cache.access(0x100, false);
  EXPECT_GT(context.violations(inv::kCacheLruStack.id), 0u)
      << context.report();
}

TEST(CacheInvariants, InjectedCapacityOverrunFiresTheOccupancyBound) {
  SimConfig config;
  HmcDevice device(config);
  MshrCoalescer mshr(config, device, /*entries=*/2, /*block_bytes=*/64);
  CheckContext context;
  mshr.attach_checks(&context);
  mshr.inject_capacity_overrun(4);
  Cycle now = 0;
  for (std::uint32_t i = 0; i < 6; ++i) {  // distinct blocks: all allocate
    RawRequest request;
    request.addr = static_cast<Address>(i) * 0x1000;
    request.op = MemOp::kLoad;
    request.tid = static_cast<ThreadId>(i);
    request.tag = 1;
    (void)mshr.try_accept(request, now);
    ++now;  // the allocation port admits one entry per cycle
  }
  EXPECT_GT(context.violations(inv::kMshrOccupancy.id), 0u)
      << context.report();
}

// ------------------------------------------------- targeted regressions

TEST(ConservationRegression, FenceRetiringBeforeOlderRequestIsCaught) {
  CheckContext context;
  ConservationChecker checker(context, "test");
  checker.on_accept(0, 0, MemOp::kLoad, 10);   // older load...
  checker.on_accept(0, 1, MemOp::kFence, 11);  // ...then a fence
  checker.on_complete(0, 1, /*fence=*/true, 20);  // fence retires first: bug
  EXPECT_GT(context.violations(inv::kFenceOrdering.id), 0u)
      << context.report();
  checker.on_complete(0, 0, /*fence=*/false, 25);
  checker.finalize(30);
  EXPECT_EQ(context.violations(inv::kOneCompletion.id), 0u);
}

TEST(ConservationRegression, FenceAfterAllOlderCompletionsIsLegal) {
  CheckContext context;
  ConservationChecker checker(context, "test");
  checker.on_accept(0, 0, MemOp::kLoad, 10);
  checker.on_accept(0, 1, MemOp::kFence, 11);
  checker.on_complete(0, 0, /*fence=*/false, 15);
  checker.on_complete(0, 1, /*fence=*/true, 20);
  checker.finalize(30);
  EXPECT_EQ(context.violations(), 0u) << context.report();
}

TEST(ConservationRegression, OrphanAndDuplicateAndLostRequestsAreCaught) {
  CheckContext context;
  ConservationChecker checker(context, "test");
  checker.on_complete(3, 9, /*fence=*/false, 5);  // never accepted
  EXPECT_EQ(context.violations(inv::kOrphanCompletion.id), 1u);
  checker.on_accept(1, 2, MemOp::kLoad, 6);
  checker.on_accept(1, 2, MemOp::kLoad, 7);  // (tid, tag) reuse in flight
  EXPECT_EQ(context.violations(inv::kDuplicateInFlight.id), 1u);
  checker.finalize(100);  // the accepted load never completed
  EXPECT_GT(context.violations(inv::kOneCompletion.id), 0u)
      << context.report();
}

}  // namespace
}  // namespace mac3d
