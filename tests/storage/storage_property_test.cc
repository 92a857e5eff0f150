// Property sweep over the storage stack: for every combination of elevator,
// NCQ depth and access mix, a batch of bios must complete with consistent
// accounting.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "common/random.h"
#include "sim/simulator.h"
#include "storage/block_device.h"

namespace bdio::storage {
namespace {

enum class Mix { kSeqRead, kSeqWrite, kRandomRead, kRandomMixed };

const char* MixName(Mix m) {
  switch (m) {
    case Mix::kSeqRead:
      return "SeqRead";
    case Mix::kSeqWrite:
      return "SeqWrite";
    case Mix::kRandomRead:
      return "RandomRead";
    case Mix::kRandomMixed:
      return "RandomMixed";
  }
  return "?";
}

// Elevator names are std::string, not const char*: gtest prints a pointer
// parameter as its address, which would leak into the ctest test names.
using Param = std::tuple<std::string /*elevator*/, uint32_t /*ncq*/, Mix>;

class StorageProperty : public ::testing::TestWithParam<Param> {};

TEST_P(StorageProperty, BatchCompletesWithConsistentAccounting) {
  const auto [elevator, ncq, mix] = GetParam();
  sim::Simulator sim;
  DiskParameters p;
  p.ncq_depth = ncq;
  BlockDevice dev(&sim, "sda", p, Rng(1), elevator);
  Rng rng(42);

  constexpr int kBios = 300;
  uint64_t submitted_sectors = 0;
  int completions = 0;
  uint64_t seq_pos = 4096;
  for (int i = 0; i < kBios; ++i) {
    IoType type = IoType::kRead;
    uint64_t sector = 0;
    uint64_t sectors = 8 + 8 * rng.Uniform(16);
    switch (mix) {
      case Mix::kSeqRead:
        sector = seq_pos;
        seq_pos += sectors;
        break;
      case Mix::kSeqWrite:
        type = IoType::kWrite;
        sector = seq_pos;
        seq_pos += sectors;
        break;
      case Mix::kRandomRead:
        sector = rng.Uniform(p.TotalSectors() / 2048) * 1024;
        break;
      case Mix::kRandomMixed:
        type = rng.Bernoulli(0.5) ? IoType::kRead : IoType::kWrite;
        sector = rng.Uniform(p.TotalSectors() / 2048) * 1024;
        break;
    }
    submitted_sectors += sectors;
    dev.Submit(type, Sectors(sector), Sectors(sectors), [&] { ++completions; });
  }
  sim.Run();

  EXPECT_EQ(completions, kBios);
  const DiskStatsSnapshot st = dev.Stats();
  // Sector conservation: merged or not, every submitted sector is serviced
  // exactly once.
  EXPECT_EQ(st.TotalSectors(), submitted_sectors);
  // Completed requests + merges == submitted bios.
  EXPECT_EQ(st.TotalIos() + st.merges[0] + st.merges[1],
            static_cast<uint64_t>(kBios));
  EXPECT_EQ(st.in_flight, 0u);
  // Busy time bounded by wall clock and positive.
  EXPECT_GT(st.io_ticks, SimDuration{});
  EXPECT_LE(st.io_ticks.ns(), sim.Now().ns());
  // Latency accounting: total latency >= total busy time (queueing >= 0).
  EXPECT_GE(st.ticks[0] + st.ticks[1], st.io_ticks);
  // Weighted queue time >= busy time whenever anything queued.
  EXPECT_GE(st.time_in_queue, st.io_ticks);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StorageProperty,
    ::testing::Combine(::testing::Values("noop", "deadline", "cfq"),
                       ::testing::Values(1u, 8u, 32u),
                       ::testing::Values(Mix::kSeqRead, Mix::kSeqWrite,
                                         Mix::kRandomRead,
                                         Mix::kRandomMixed)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::get<0>(info.param) + "_ncq" +
             std::to_string(std::get<1>(info.param)) + "_" +
             MixName(std::get<2>(info.param));
    });

using SeqParam = std::tuple<std::string /*elevator*/, uint32_t /*ncq*/>;

class SeqThroughputProperty : public ::testing::TestWithParam<SeqParam> {};

TEST_P(SeqThroughputProperty, SequentialStreamNearSustainedRate) {
  const auto [elevator, ncq] = GetParam();
  sim::Simulator sim;
  DiskParameters p;
  p.ncq_depth = ncq;
  BlockDevice dev(&sim, "sda", p, Rng(2), elevator);
  // 128 MiB sequential read in 512 KiB bios.
  int completions = 0;
  for (int i = 0; i < 256; ++i) {
    dev.Submit(IoType::kRead, Sectors(static_cast<uint64_t>(i) * 1024), Sectors(1024),
               [&] { ++completions; });
  }
  sim.Run();
  EXPECT_EQ(completions, 256);
  const double mb_per_s = 128.0 / ToSeconds(sim.Now());
  EXPECT_GT(mb_per_s, 120.0);  // outer zone is 150 MB/s
  EXPECT_LE(mb_per_s, 151.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SeqThroughputProperty,
    ::testing::Combine(::testing::Values("noop", "deadline"),
                       ::testing::Values(1u, 32u)),
    [](const ::testing::TestParamInfo<SeqParam>& info) {
      return std::get<0>(info.param) + "_ncq" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace bdio::storage
