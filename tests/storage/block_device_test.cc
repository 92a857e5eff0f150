#include "storage/block_device.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "sim/simulator.h"

namespace bdio::storage {
namespace {

class BlockDeviceTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
  DiskParameters params_;
  BlockDevice dev_{&sim_, "sda", DiskParameters{}, Rng(1)};
};

TEST_F(BlockDeviceTest, SingleReadCompletes) {
  bool done = false;
  dev_.Submit(IoType::kRead, Sectors(0), Sectors(8), [&] { done = true; });
  sim_.Run();
  EXPECT_TRUE(done);
  auto st = dev_.Stats();
  EXPECT_EQ(st.ios[0], 1u);
  EXPECT_EQ(st.sectors[0], 8u);
  EXPECT_EQ(st.in_flight, 0u);
  EXPECT_GT(st.io_ticks, SimDuration{});
}

TEST_F(BlockDeviceTest, AwaitAtLeastServiceTime) {
  // Saturate with random reads; await >= svctm must hold in aggregate.
  Rng rng(2);
  int remaining = 200;
  for (int i = 0; i < 200; ++i) {
    dev_.Submit(IoType::kRead, Sectors(rng.Uniform(1000000) * 8), Sectors(8),
                [&] { --remaining; });
  }
  sim_.Run();
  EXPECT_EQ(remaining, 0);
  auto st = dev_.Stats();
  EXPECT_EQ(st.ios[0], 200u);
  const double await =
      static_cast<double>(st.ticks[0].ns()) / static_cast<double>(st.ios[0]);
  const double svctm =
      static_cast<double>(st.io_ticks.ns()) / static_cast<double>(st.ios[0]);
  EXPECT_GE(await, svctm * 0.999);
  // With a deep queue, waiting dominates service.
  EXPECT_GT(await, 2 * svctm);
}

TEST_F(BlockDeviceTest, UtilizationBoundedByWallClock) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    dev_.Submit(IoType::kWrite, Sectors(rng.Uniform(100000) * 8), Sectors(16), nullptr);
  }
  sim_.Run();
  auto st = dev_.Stats();
  EXPECT_LE(st.io_ticks.ns(), sim_.Now().ns());
  EXPECT_GT(st.io_ticks, SimDuration{});
}

TEST_F(BlockDeviceTest, AdjacentBiosMerge) {
  // Sequential 4 KiB bios submitted together should merge in the elevator.
  int completions = 0;
  for (int i = 0; i < 16; ++i) {
    dev_.Submit(IoType::kWrite, Sectors(1000 + i * 8), Sectors(8), [&] { ++completions; });
  }
  sim_.Run();
  EXPECT_EQ(completions, 16);
  auto st = dev_.Stats();
  EXPECT_EQ(st.sectors[1], 16u * 8);
  EXPECT_GT(st.merges[1], 0u);
  EXPECT_LT(st.ios[1], 16u);
}

TEST_F(BlockDeviceTest, SequentialFasterThanRandom) {
  sim::Simulator sim_seq, sim_rnd;
  BlockDevice seq(&sim_seq, "seq", params_, Rng(4));
  BlockDevice rnd(&sim_rnd, "rnd", params_, Rng(4));
  const int n = 100;
  for (int i = 0; i < n; ++i) {
    seq.Submit(IoType::kRead, Sectors(i * 128), Sectors(128), nullptr);
  }
  Rng rng(5);
  for (int i = 0; i < n; ++i) {
    rnd.Submit(IoType::kRead, Sectors(rng.Uniform(1000000) * 128), Sectors(128), nullptr);
  }
  sim_seq.Run();
  sim_rnd.Run();
  EXPECT_LT(sim_seq.Now().ns(), sim_rnd.Now().ns() / 5);
}

TEST_F(BlockDeviceTest, TimeInQueueGrowsWithDepth) {
  // Submit a burst; weighted queue time must exceed busy time when depth>1.
  Rng rng(6);
  for (int i = 0; i < 64; ++i) {
    dev_.Submit(IoType::kRead, Sectors(rng.Uniform(1000000) * 8), Sectors(8), nullptr);
  }
  sim_.Run();
  auto st = dev_.Stats();
  EXPECT_GT(st.time_in_queue, st.io_ticks);
}

TEST_F(BlockDeviceTest, StatsSnapshotIsMonotone) {
  Rng rng(7);
  for (int i = 0; i < 32; ++i) {
    dev_.Submit(IoType::kRead, Sectors(rng.Uniform(100000) * 8), Sectors(8), nullptr);
  }
  uint64_t last_ios = 0;
  SimDuration last_ticks;
  while (sim_.Step()) {
    auto st = dev_.Stats();
    EXPECT_GE(st.TotalIos(), last_ios);
    EXPECT_GE(st.io_ticks, last_ticks);
    last_ios = st.TotalIos();
    last_ticks = st.io_ticks;
  }
}

}  // namespace
}  // namespace bdio::storage
