// Component microbenchmarks (google-benchmark): throughput of the hot
// simulator paths — FLIT map/table operations, ARQ comparator insert,
// full MAC cycles, HMC device submission and drain, cache accesses.
#include <benchmark/benchmark.h>

#include "cache/cache.hpp"
#include "common/rng.hpp"
#include "mac/coalescer.hpp"
#include "mac/flit_map.hpp"
#include "mac/flit_table.hpp"
#include "mem/hmc_device.hpp"

namespace {

using namespace mac3d;

void BM_FlitMapGroupPattern(benchmark::State& state) {
  FlitMap map(16);
  map.set(5);
  map.set(8);
  map.set(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.group_pattern(4));
  }
}
BENCHMARK(BM_FlitMapGroupPattern);

void BM_FlitTableLookup(benchmark::State& state) {
  FlitTable table(256, 64);
  std::uint32_t pattern = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(pattern));
    pattern = pattern % 15 + 1;
  }
}
BENCHMARK(BM_FlitTableLookup);

void BM_ArqInsert(benchmark::State& state) {
  SimConfig config;
  const AddressMap map(config);
  Xoshiro256 rng(1);
  Arq arq(config, map);
  Cycle now = 0;
  for (auto _ : state) {
    RawRequest request;
    request.addr = rng.below(config.hmc_capacity) & ~0xFULL;
    request.tid = static_cast<ThreadId>(now % 8);
    request.tag = static_cast<Tag>(now);
    benchmark::DoNotOptimize(arq.insert(request, now));
    if (arq.size() > config.arq_entries - 2) {
      while (!arq.empty()) arq.pop();
    }
    ++now;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ArqInsert);

void BM_MacCycle(benchmark::State& state) {
  SimConfig config;
  HmcDevice device(config);
  MacCoalescer mac(config, device);
  Xoshiro256 rng(2);
  Cycle now = 0;
  for (auto _ : state) {
    RawRequest request;
    request.addr = rng.below(1u << 24) & ~0xFULL;
    request.tid = static_cast<ThreadId>(now % 8);
    request.tag = static_cast<Tag>(now);
    (void)mac.try_accept(request, now);
    mac.tick(now);
    benchmark::DoNotOptimize(mac.drain(now));
    ++now;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MacCycle);

void BM_HmcSubmit(benchmark::State& state) {
  SimConfig config;
  HmcDevice device(config);
  Xoshiro256 rng(3);
  Cycle now = 0;
  TransactionId id = 1;
  for (auto _ : state) {
    HmcRequest request;
    request.id = id++;
    request.addr = rng.below(config.hmc_capacity) & ~0xFFULL;
    request.data_bytes = 64u << (id % 3);
    benchmark::DoNotOptimize(device.submit(std::move(request), now));
    device.drain(now);
    now += 4;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HmcSubmit);

/// drain() with nothing due: the per-visited-cycle cost of a device whose
/// responses are all still on their way (the common case).
void BM_HmcDrainIdle(benchmark::State& state) {
  SimConfig config;
  HmcDevice device(config);
  for (std::uint32_t i = 0; i < 64; ++i) {
    HmcRequest request;
    request.id = i + 1;
    request.addr = static_cast<Address>(i) * config.row_bytes;
    device.submit(std::move(request), 0);
  }
  const Cycle now = device.next_completion() - 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(device.drain(now).size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HmcDrainIdle);

/// A steady submit+drain stream of 16 B packets over every link: one
/// submit per cycle, each cycle draining what came due (about one
/// response). Items are responses drained.
void BM_HmcDrainDue(benchmark::State& state) {
  SimConfig config;
  HmcDevice device(config);
  Xoshiro256 rng(5);
  Cycle now = 0;
  TransactionId id = 1;
  std::uint64_t responses = 0;
  for (auto _ : state) {
    HmcRequest request;
    request.id = id++;
    request.addr = rng.below(config.hmc_capacity) & ~0xFULL;
    request.targets.push_back(Target{0, static_cast<Tag>(id), 0});
    if (device.can_accept(request, now)) {
      device.submit(std::move(request), now);
    }
    responses += device.drain(now).size();
    ++now;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(responses));
}
BENCHMARK(BM_HmcDrainDue);

void BM_CacheAccess(benchmark::State& state) {
  Cache cache(CacheConfig{"L1", 32 * 1024, 64, 8, true});
  Xoshiro256 rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(rng.below(1u << 20), false));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

}  // namespace

BENCHMARK_MAIN();
