// Unit tests: bank timing, link serialization and the HMC device model —
// including the Table 1 latency calibration, the Fig. 2 bank-conflict
// scenario, and the busy thresholds the device keeps for the idle census.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstddef>
#include <functional>

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
// submit, in every bank mode, across reset() and under staged stepping.

/// Runs shard work inline, in order (the serial stepper contract).
struct InlineStepper {
  void for_shards(std::size_t count,
                  const std::function<void(std::size_t)>& fn) const {
    for (std::size_t i = 0; i < count; ++i) fn(i);
  }
};

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
        EXPECT_EQ(device.did_work_this_cycle(now),
                  device.banks_busy_fraction(now) > 0.0);
      }
      device.reset();  // round 2 replays from a zeroed device
      EXPECT_EQ(device.banks_busy_until(), 0u);
    }
  }
}

TEST_P(BusyThresholdProperty, StagedCommitKeepsThresholds) {
  SimConfig config;
  HmcDevice device(config);
  device.begin_staged();
  InlineStepper stepper;
  Xoshiro256 rng(GetParam());
  TransactionId id = 1;
  Cycle now = 0;
  for (int i = 0; i < 100; ++i) {
    now += 1 + rng.below(20);
    const int burst = 1 + static_cast<int>(rng.below(4));
    for (int k = 0; k < burst; ++k) {
      submit_random(device, config, rng, id++, now);
    }
    device.step_staged(stepper);
    expect_thresholds_match_scan(device, config);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BusyThresholdProperty,
                         ::testing::Values(1ull, 7ull, 20190805ull));

}  // namespace
}  // namespace mac3d
