// Unit tests: bank timing, link serialization and the HMC device model —
// including the Table 1 latency calibration, the Fig. 2 bank-conflict
// scenario, and the busy thresholds the device keeps for the idle census.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "mem/bank.hpp"
#include "mem/hmc_device.hpp"
#include "mem/link.hpp"

namespace mac3d {
namespace {

// ------------------------------------------------------------------- bank
TEST(Bank, FirstAccessHasNoConflict) {
  Bank bank;
  const auto sched = bank.access(100, 200, 46);
  EXPECT_FALSE(sched.conflict);
  EXPECT_EQ(sched.start, 100u);
  EXPECT_EQ(sched.data_ready, 300u);
  EXPECT_EQ(bank.free_at(), 346u);
}

TEST(Bank, BusyBankConflictsAndSerializes) {
  Bank bank;
  bank.access(0, 200, 46);
  const auto sched = bank.access(10, 200, 46);
  EXPECT_TRUE(sched.conflict);
  EXPECT_EQ(sched.start, 246u);  // waits for precharge of the first
  EXPECT_EQ(bank.conflicts(), 1u);
  EXPECT_EQ(bank.accesses(), 2u);
}

TEST(Bank, IdleGapAvoidsConflict) {
  Bank bank;
  bank.access(0, 200, 46);
  const auto sched = bank.access(1000, 200, 46);
  EXPECT_FALSE(sched.conflict);
  EXPECT_EQ(bank.conflicts(), 0u);
}

TEST(Bank, SixteenSameRowAccessesCauseFifteenConflicts) {
  // Paper Fig. 2: sixteen 16 B requests to one row open/close it 16 times.
  Bank bank;
  for (int i = 0; i < 16; ++i) bank.access(static_cast<Cycle>(i), 200, 46);
  EXPECT_EQ(bank.conflicts(), 15u);
}

// ------------------------------------------------------------------- link
TEST(Link, SerializesFlits) {
  Link link(2);
  EXPECT_EQ(link.send_request(0, 1), 2u);
  EXPECT_EQ(link.send_request(2, 17), 2u + 34u);
  EXPECT_EQ(link.request_flits_sent(), 18u);
}

TEST(Link, BackToBackPacketsQueue) {
  Link link(2);
  link.send_request(0, 10);           // occupies cycles 0..20
  EXPECT_EQ(link.send_request(0, 1), 22u);
  EXPECT_EQ(link.request_backlog(0), 22u);
  EXPECT_EQ(link.request_backlog(30), 0u);
}

TEST(Link, DirectionsAreIndependent) {
  Link link(1);
  link.send_request(0, 100);
  EXPECT_EQ(link.send_response(0, 2), 2u);  // response path not blocked
}

// ----------------------------------------------------------------- device
class HmcDeviceTest : public ::testing::Test {
 protected:
  SimConfig config_;
  HmcDevice device_{config_};
};

TEST_F(HmcDeviceTest, IsolatedReadLatencyMatchesTable1) {
  // Table 1: average HMC access latency 93 ns (= ~307 cycles at 3.3 GHz).
  HmcRequest request;
  request.id = 1;
  request.addr = 0x1000;
  request.data_bytes = 16;
  const Cycle done = device_.submit(std::move(request), 0);
  const double ns = config_.cycles_to_ns(done);
  EXPECT_GE(ns, 85.0);
  EXPECT_LE(ns, 101.0);
}

TEST_F(HmcDeviceTest, LargerPacketsTakeLongerOnTheLink) {
  HmcRequest small;
  small.id = 1;
  small.addr = 0;
  small.data_bytes = 16;
  HmcRequest large;
  large.id = 2;
  large.addr = 8192 * 256;  // different vault/bank, same link quadrant? no:
  large.addr = 0x100;       // row 1 -> vault 1, same link 0
  large.data_bytes = 256;
  HmcDevice fresh1(config_);
  HmcDevice fresh2(config_);
  const Cycle t_small = fresh1.submit(std::move(small), 0);
  const Cycle t_large = fresh2.submit(std::move(large), 0);
  EXPECT_GT(t_large, t_small);
}

TEST_F(HmcDeviceTest, DrainReturnsCompletedInOrder) {
  for (int i = 0; i < 4; ++i) {
    HmcRequest request;
    request.id = static_cast<TransactionId>(i + 1);
    request.addr = static_cast<Address>(i) * 256;  // four different vaults
    request.data_bytes = 16;
    device_.submit(std::move(request), 0);
  }
  EXPECT_TRUE(device_.drain(10).empty());  // nothing ready yet
  auto done = device_.drain(100000);
  ASSERT_EQ(done.size(), 4u);
  for (std::size_t i = 1; i < done.size(); ++i) {
    EXPECT_LE(done[i - 1].completed, done[i].completed);
  }
  EXPECT_TRUE(device_.idle());
}

TEST_F(HmcDeviceTest, SameRowRequestsConflict) {
  for (int i = 0; i < 16; ++i) {
    HmcRequest request;
    request.id = static_cast<TransactionId>(i + 1);
    request.addr = 0xA00 + static_cast<Address>(i) * 16;
    request.data_bytes = 16;
    device_.submit(std::move(request), static_cast<Cycle>(i));
  }
  EXPECT_EQ(device_.stats().bank_conflicts, 15u);
}

TEST_F(HmcDeviceTest, CoalescedRequestAvoidsConflicts) {
  HmcRequest request;
  request.id = 1;
  request.addr = 0xA00;
  request.data_bytes = 256;
  device_.submit(std::move(request), 0);
  EXPECT_EQ(device_.stats().bank_conflicts, 0u);
  EXPECT_EQ(device_.stats().requests, 1u);
}

TEST_F(HmcDeviceTest, ByteAccountingMatchesEq1) {
  HmcRequest request;
  request.id = 1;
  request.addr = 0;
  request.data_bytes = 256;
  device_.submit(std::move(request), 0);
  EXPECT_EQ(device_.stats().data_bytes, 256u);
  EXPECT_EQ(device_.stats().link_bytes, 288u);
  EXPECT_EQ(device_.stats().overhead_bytes, 32u);
  EXPECT_NEAR(device_.stats().measured_bandwidth_efficiency(), 8.0 / 9.0,
              1e-9);
}

TEST_F(HmcDeviceTest, WriteAccountingSymmetric) {
  HmcRequest request;
  request.id = 1;
  request.addr = 0;
  request.data_bytes = 64;
  request.write = true;
  device_.submit(std::move(request), 0);
  EXPECT_EQ(device_.stats().writes, 1u);
  EXPECT_EQ(device_.stats().link_bytes, 96u);  // 64 + 32 control
}

TEST_F(HmcDeviceTest, RejectsMalformedPackets) {
  HmcRequest bad_size;
  bad_size.addr = 0;
  bad_size.data_bytes = 20;  // not FLIT-multiple
  EXPECT_THROW(device_.submit(std::move(bad_size), 0), std::invalid_argument);

  HmcRequest too_big;
  too_big.addr = 0;
  too_big.data_bytes = 512;  // beyond a row
  EXPECT_THROW(device_.submit(std::move(too_big), 0), std::invalid_argument);

  HmcRequest crossing;
  crossing.addr = 0x80;  // 128 B into a row
  crossing.data_bytes = 256;
  EXPECT_THROW(device_.submit(std::move(crossing), 0), std::invalid_argument);

  HmcRequest out_of_range;
  out_of_range.addr = 8ull << 30;
  out_of_range.data_bytes = 16;
  out_of_range.home_node = 0;
  // Node-local address wraps via local_addr; address 8 GB in node 0 space
  // maps to node 1, so local part is 0 -> fine. Use capacity-1 instead:
  out_of_range.addr = (8ull << 30) - 8;
  EXPECT_THROW(device_.submit(std::move(out_of_range), 0),
               std::invalid_argument);
}

TEST_F(HmcDeviceTest, BackPressureEngagesUnderBurst) {
  // Saturate one link's request direction with large writes.
  bool refused = false;
  for (int i = 0; i < 200 && !refused; ++i) {
    HmcRequest request;
    request.id = static_cast<TransactionId>(i + 1);
    request.addr = 0;  // all to vault 0 -> link 0
    request.data_bytes = 256;
    request.write = true;
    if (!device_.can_accept(request, 0)) {
      refused = true;
      break;
    }
    device_.submit(std::move(request), 0);
  }
  EXPECT_TRUE(refused);
}

TEST_F(HmcDeviceTest, AtomicsHoldTheBankLonger) {
  HmcRequest plain;
  plain.id = 1;
  plain.addr = 0;
  plain.data_bytes = 16;
  HmcRequest amo = plain;
  amo.id = 2;
  amo.atomic = true;
  HmcDevice d1(config_);
  HmcDevice d2(config_);
  EXPECT_GT(d2.submit(std::move(amo), 0), d1.submit(std::move(plain), 0));
}

TEST_F(HmcDeviceTest, ResetClearsEverything) {
  HmcRequest request;
  request.id = 1;
  request.addr = 0;
  request.data_bytes = 16;
  device_.submit(std::move(request), 0);
  device_.reset();
  EXPECT_TRUE(device_.idle());
  EXPECT_EQ(device_.stats().requests, 0u);
  EXPECT_EQ(device_.link_flits().first, 0u);
}

TEST(BankRefresh, AccessInsideWindowIsPushedOut) {
  Bank bank;
  bank.configure_refresh(/*interval=*/1000, /*duration=*/100, /*phase=*/0);
  // Arrival at cycle 50 falls inside the [0, 100) refresh window.
  const auto pushed = bank.access(50, 200, 46);
  EXPECT_TRUE(pushed.refresh_stall);
  EXPECT_EQ(pushed.start, 100u);
  EXPECT_EQ(bank.refresh_stalls(), 1u);
  // Arrival mid-period is untouched.
  const auto clean = bank.access(500, 200, 46);
  EXPECT_FALSE(clean.refresh_stall);
  EXPECT_EQ(clean.start, 500u);
}

TEST(BankRefresh, PhaseShiftsTheWindow) {
  Bank bank;
  bank.configure_refresh(1000, 100, 950);
  // (start + 950) % 1000 < 100  =>  windows at start in [50, 150).
  EXPECT_FALSE(bank.access(20, 10, 10).refresh_stall);
  Bank bank2;
  bank2.configure_refresh(1000, 100, 950);
  const auto sched = bank2.access(60, 10, 10);
  EXPECT_TRUE(sched.refresh_stall);
  EXPECT_EQ(sched.start, 150u);
}

TEST(BankRefresh, DeviceCountsRefreshStalls) {
  SimConfig config;
  config.t_refi = 2000;
  config.t_rfc = 500;
  HmcDevice device(config);
  // Hammer one bank across several refresh periods.
  Cycle now = 0;
  for (int i = 0; i < 40; ++i) {
    HmcRequest request;
    request.id = static_cast<TransactionId>(i + 1);
    request.addr = 0;
    request.data_bytes = 16;
    device.submit(std::move(request), now);
    now += 400;
  }
  EXPECT_GT(device.stats().refresh_stalls, 0u);
}

TEST(BankRefresh, DisabledByDefault) {
  SimConfig config;
  EXPECT_EQ(config.t_refi, 0u);
  HmcDevice device(config);
  HmcRequest request;
  request.id = 1;
  request.addr = 0;
  request.data_bytes = 16;
  device.submit(std::move(request), 0);
  EXPECT_EQ(device.stats().refresh_stalls, 0u);
}

TEST(OpenPage, RowHitSkipsActivation) {
  Bank bank;
  const auto miss = bank.access_open_page(0, 7, 90, 90, 46);
  EXPECT_FALSE(miss.row_hit);
  EXPECT_EQ(miss.data_ready, 180u);  // ACT + CAS (no row was open)
  const auto hit = bank.access_open_page(200, 7, 90, 90, 46);
  EXPECT_TRUE(hit.row_hit);
  EXPECT_EQ(hit.data_ready, 290u);  // CAS only
  EXPECT_EQ(bank.row_hits(), 1u);
}

TEST(OpenPage, RowMissPaysPrecharge) {
  Bank bank;
  bank.access_open_page(0, 7, 90, 90, 46);
  const auto sched = bank.access_open_page(500, 9, 90, 90, 46);
  EXPECT_FALSE(sched.row_hit);
  EXPECT_EQ(sched.data_ready, 500u + 46 + 90 + 90);  // PRE + ACT + CAS
}

TEST(OpenPage, DeviceModeCountsRowHits) {
  SimConfig config;
  config.open_page = true;
  HmcDevice device(config);
  for (int i = 0; i < 8; ++i) {
    HmcRequest request;
    request.id = static_cast<TransactionId>(i + 1);
    request.addr = 0xA00 + static_cast<Address>(i) * 16;  // same row
    request.data_bytes = 16;
    device.submit(std::move(request), static_cast<Cycle>(i));
  }
  EXPECT_EQ(device.stats().row_hits, 7u);
}

TEST(OpenPage, ClosedPageNeverReportsRowHits) {
  SimConfig config;  // closed page (the real HMC)
  HmcDevice device(config);
  for (int i = 0; i < 4; ++i) {
    HmcRequest request;
    request.id = static_cast<TransactionId>(i + 1);
    request.addr = 0xA00;
    request.data_bytes = 16;
    device.submit(std::move(request), static_cast<Cycle>(i));
  }
  EXPECT_EQ(device.stats().row_hits, 0u);
}

TEST_F(HmcDeviceTest, LinkFlitTotalsMatchTraffic) {
  HmcRequest request;
  request.id = 1;
  request.addr = 0;
  request.data_bytes = 64;  // read: 1 flit out, 5 flits back
  device_.submit(std::move(request), 0);
  const auto [req, resp] = device_.link_flits();
  EXPECT_EQ(req, 1u);
  EXPECT_EQ(resp, 5u);
}

// ------------------------------------------------------- busy thresholds
// vault_busy_until / banks_busy_until are running maxima kept at commit;
// they must equal a brute-force scan of Bank::free_at() after every
// submit, in every bank mode and across reset().

void expect_thresholds_match_scan(const HmcDevice& device,
                                  const SimConfig& config) {
  Cycle all = 0;
  for (std::uint32_t v = 0; v < device.vault_count(); ++v) {
    Cycle vault = 0;
    for (std::uint32_t b = 0; b < config.banks_per_vault; ++b) {
      vault = std::max(
          vault, device.banks()[v * config.banks_per_vault + b].free_at());
    }
    ASSERT_EQ(device.vault_busy_until(v), vault) << "vault " << v;
    all = std::max(all, vault);
  }
  ASSERT_EQ(device.banks_busy_until(), all);
}

/// Random packets (sizes, kinds, addresses clustered onto few rows so
/// banks conflict) at a random non-decreasing clock.
void submit_random(HmcDevice& device, const SimConfig& config,
                   Xoshiro256& rng, TransactionId id, Cycle now) {
  HmcRequest request;
  request.id = id;
  request.data_bytes = 16u << rng.below(5);  // 16 .. 256
  const std::uint64_t row = rng.below(4096);
  request.addr = row * config.row_bytes +
                 rng.below(config.row_bytes / request.data_bytes) *
                     request.data_bytes;
  request.write = rng.below(3) == 0;
  request.atomic = !request.write && rng.below(8) == 0;
  device.submit(std::move(request), now);
}

class BusyThresholdProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(BusyThresholdProperty, KeptThresholdsEqualBankScan) {
  for (int mode = 0; mode < 3; ++mode) {
    SimConfig config;
    config.open_page = mode == 1;
    config.t_refi = mode == 2 ? 2000 : 0;
    HmcDevice device(config);
    Xoshiro256 rng(GetParam() * 31 + static_cast<std::uint64_t>(mode));
    TransactionId id = 1;
    for (int round = 0; round < 2; ++round) {
      expect_thresholds_match_scan(device, config);
      Cycle now = 0;
      for (int i = 0; i < 400; ++i) {
        now += rng.below(40);
        submit_random(device, config, rng, id++, now);
        expect_thresholds_match_scan(device, config);
        for (std::uint32_t v = 0; v < device.vault_count(); ++v) {
          // The early-out must not change a sampled fraction.
          if (now >= device.vault_busy_until(v)) {
            EXPECT_EQ(device.vault_busy_fraction(v, now), 0.0);
          }
        }
        EXPECT_EQ(now < device.banks_busy_until(),
                  device.banks_busy_fraction(now) > 0.0);
      }
      device.reset();  // round 2 replays from a zeroed device
      EXPECT_EQ(device.banks_busy_until(), 0u);
    }
  }
}

/// Every census threshold the device registers: banks, vaults, links.
std::vector<Cycle> census_thresholds(const HmcDevice& device) {
  std::vector<Cycle> out{device.banks_busy_until()};
  for (std::uint32_t v = 0; v < device.vault_count(); ++v) {
    out.push_back(device.vault_busy_until(v));
  }
  for (std::uint32_t l = 0; l < device.link_count(); ++l) {
    out.push_back(device.link_request_free_at(l));
  }
  return out;
}

// The census re-reads a device's thresholds only when threshold_epoch()
// moved: no operation may change one without moving it.
TEST_P(BusyThresholdProperty, ThresholdsMoveOnlyWithTheEpoch) {
  for (int mode = 0; mode < 3; ++mode) {
    SimConfig config;
    config.open_page = mode == 1;
    config.t_refi = mode == 2 ? 2000 : 0;
    HmcDevice device(config);
    Xoshiro256 rng(GetParam() * 17 + static_cast<std::uint64_t>(mode));
    TransactionId id = 1;
    Cycle now = 0;
    for (int i = 0; i < 1500; ++i) {
      const std::vector<Cycle> before = census_thresholds(device);
      const std::uint64_t epoch = device.threshold_epoch();
      const std::uint64_t op = rng.below(100);
      if (op == 0) {
        device.reset();
        now = 0;
      } else if (op < 20) {
        now += rng.below(400);
        device.drain(now);
      } else {
        now += rng.below(12);
        submit_random(device, config, rng, id++, now);
      }
      if (census_thresholds(device) != before) {
        ASSERT_NE(device.threshold_epoch(), epoch) << "operation " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BusyThresholdProperty,
                         ::testing::Values(1ull, 7ull, 20190805ull));

// ------------------------------------------------- response order property
// The device keeps one completion-sorted FIFO per link and merges the
// heads at drain. Against a plain reference list, every drain must return
// exactly the (completed, id)-sorted responses due, including completion
// ties across links.

/// A random packet for `link` (any of its vaults), carrying one target
/// that encodes `id`.
HmcRequest packet_on_link(const HmcDevice& device, const SimConfig& config,
                          Xoshiro256& rng, std::uint32_t link,
                          std::uint32_t data_bytes, TransactionId id) {
  const std::uint32_t vaults_per_link = config.vaults / config.hmc_links;
  std::uint64_t row = 0;
  do {
    row = rng.below(1u << 16);
  } while (device.address_map().vault_of(row) / vaults_per_link != link);
  HmcRequest request;
  request.id = id;
  request.data_bytes = data_bytes;
  request.addr = device.address_map().row_base(row) +
                 rng.below(config.row_bytes / data_bytes) * data_bytes;
  request.write = rng.below(3) == 0;
  request.targets.push_back(Target{static_cast<ThreadId>(id % 64),
                                   static_cast<Tag>(id), 0});
  return request;
}

class ResponseOrderProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ResponseOrderProperty, DrainEqualsSortedReference) {
  struct Shape {
    std::uint32_t links;
    std::uint32_t t_link_flit;
  };
  for (const Shape shape : {Shape{4, 1}, Shape{1, 1}, Shape{2, 3},
                            Shape{8, 2}}) {
    SimConfig config;
    config.hmc_links = shape.links;
    config.t_link_flit = shape.t_link_flit;
    HmcDevice device(config);
    Xoshiro256 rng(GetParam() * 131 + shape.links * 7 + shape.t_link_flit);
    // Unique ids in shuffled order, so an id tie-break never follows the
    // link index or the submit order by accident.
    std::vector<TransactionId> ids(600);
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i + 1;
    for (std::size_t i = ids.size() - 1; i > 0; --i) {
      std::swap(ids[i], ids[rng.below(i + 1)]);
    }
    std::vector<std::pair<Cycle, TransactionId>> pending;  // reference
    std::size_t next_id = 0;
    std::size_t ties = 0;
    Cycle now = 0;
    auto check_pending = [&] {
      ASSERT_EQ(device.in_flight(), pending.size());
      ASSERT_EQ(device.idle(), pending.empty());
      Cycle first = 0;
      for (const auto& [completed, id] : pending) {
        if (first == 0 || completed < first) first = completed;
      }
      ASSERT_EQ(device.next_completion(), first);
    };
    while (next_id < ids.size() || !pending.empty()) {
      now += rng.below(4) == 0 ? rng.below(600) : rng.below(6);
      if (next_id < ids.size() && rng.below(3) != 0) {
        // A same-cycle burst of identical packets, one per link in random
        // order: on idle links and banks they complete in the same cycle.
        const bool burst = rng.below(4) == 0;
        const std::uint32_t count = burst ? config.hmc_links : 1;
        const std::uint32_t bytes = 16u << rng.below(5);
        std::vector<std::uint32_t> links(config.hmc_links);
        for (std::uint32_t l = 0; l < config.hmc_links; ++l) links[l] = l;
        for (std::uint32_t l = config.hmc_links - 1; l > 0; --l) {
          std::swap(links[l], links[rng.below(l + 1)]);
        }
        std::vector<Cycle> burst_done;
        for (std::uint32_t k = 0; k < count && next_id < ids.size(); ++k) {
          const TransactionId id = ids[next_id++];
          const std::uint32_t link =
              burst ? links[k]
                    : static_cast<std::uint32_t>(rng.below(config.hmc_links));
          const Cycle completed = device.submit(
              packet_on_link(device, config, rng, link, bytes, id), now);
          pending.emplace_back(completed, id);
          burst_done.push_back(completed);
        }
        for (std::size_t k = 1; k < burst_done.size(); ++k) {
          ties += burst_done[k] == burst_done[0] ? 1 : 0;
        }
      }
      check_pending();
      if (rng.below(3) == 0) continue;  // not every cycle drains
      const std::vector<HmcResponse>& got = device.drain(now);
      std::sort(pending.begin(), pending.end());
      std::size_t due = 0;
      while (due < pending.size() && pending[due].first <= now) ++due;
      ASSERT_EQ(got.size(), due) << "drain at " << now;
      for (std::size_t i = 0; i < due; ++i) {
        ASSERT_EQ(got[i].completed, pending[i].first) << i;
        ASSERT_EQ(got[i].id, pending[i].second) << i;
        ASSERT_EQ(got[i].targets.size(), 1u);
        EXPECT_EQ(got[i].targets[0].tag, static_cast<Tag>(got[i].id));
      }
      pending.erase(pending.begin(),
                    pending.begin() + static_cast<std::ptrdiff_t>(due));
      check_pending();
    }
    if (config.hmc_links > 1) {
      EXPECT_GT(ties, 0u) << "no cross-link completion tie was exercised";
    }
    // reset() empties everything, mid-flight included.
    const TransactionId id = ids.size() + 1;
    device.submit(packet_on_link(device, config, rng, 0, 16, id), now);
    ASSERT_FALSE(device.idle());
    device.reset();
    EXPECT_TRUE(device.idle());
    EXPECT_EQ(device.in_flight(), 0u);
    EXPECT_EQ(device.next_completion(), 0u);
    EXPECT_TRUE(device.drain(~Cycle{0}).empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResponseOrderProperty,
                         ::testing::Values(1ull, 7ull, 20190805ull));

}  // namespace
}  // namespace mac3d
