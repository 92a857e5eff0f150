// End-to-end consistency tests across the whole stack: workload plan ->
// MapReduce engine -> HDFS -> page cache -> block devices -> iostat/blktrace.

#include <gtest/gtest.h>

#include "bdio_blkparse/blkparse.h"
#include "cluster/cluster.h"
#include "core/experiment.h"
#include "hdfs/hdfs.h"
#include "iostat/iostat.h"
#include "mapreduce/engine.h"
#include "obs/blktrace.h"
#include "sim/simulator.h"
#include "workloads/profile.h"

namespace bdio {
namespace {

struct Testbed {
  explicit Testbed(double scale = 1.0 / 256, uint32_t workers = 4) {
    cluster::ClusterParams cp;
    cp.num_workers = workers;
    cp.node.memory_bytes = static_cast<uint64_t>(GiB(16) * scale);
    cp.node.daemon_bytes = static_cast<uint64_t>(GiB(2) * scale);
    cp.node.per_slot_heap_bytes = static_cast<uint64_t>(MiB(200) * scale);
    cp.node.min_cache_bytes = MiB(16);
    cluster = std::make_unique<cluster::Cluster>(&sim, cp, 16, Rng(1));
    dfs = std::make_unique<hdfs::Hdfs>(cluster.get(), hdfs::HdfsParams{},
                                       Rng(2));
    engine = std::make_unique<mapreduce::MrEngine>(
        cluster.get(), dfs.get(), mapreduce::SlotConfig::Paper_1_8(), Rng(3));
  }

  sim::Simulator sim;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<hdfs::Hdfs> dfs;
  std::unique_ptr<mapreduce::MrEngine> engine;
};

uint64_t TotalDeviceBytes(cluster::Cluster* cluster, bool hdfs_class,
                          int direction) {
  uint64_t sectors = 0;
  for (uint32_t n = 0; n < cluster->num_workers(); ++n) {
    for (uint32_t d = 0; d < 3; ++d) {
      auto* dev = hdfs_class ? cluster->node(n)->hdfs_disk(d)
                             : cluster->node(n)->mr_disk(d);
      sectors += dev->Stats().sectors[direction];
    }
  }
  return sectors * kSectorSize;
}

TEST(PipelineTest, VolumeConservationTeraSort) {
  Testbed bed;
  workloads::PlanOptions options;
  options.scale = 1.0 / 256;
  auto plan = workloads::BuildPlan(workloads::WorkloadKind::kTeraSort,
                                   options);
  ASSERT_TRUE(bed.dfs->Preload(plan.dataset_path, plan.dataset_bytes).ok());

  mapreduce::JobCounters counters;
  bool done = false;
  bed.engine->RunJob(plan.jobs[0].spec,
                     [&](Status s, const mapreduce::JobCounters& c) {
                       ASSERT_TRUE(s.ok());
                       counters = c;
                       done = true;
                     });
  bed.sim.Run();
  ASSERT_TRUE(done);

  // Cold input: the HDFS disks must physically read at least the logical
  // input volume (readahead may add a bounded overshoot).
  const uint64_t hdfs_read = TotalDeviceBytes(bed.cluster.get(), true, 0);
  EXPECT_GE(hdfs_read, counters.hdfs_read_bytes * 95 / 100);
  EXPECT_LE(hdfs_read, counters.hdfs_read_bytes * 13 / 10);

  // Flush trailing writeback, then the HDFS disks must hold exactly the
  // output (logical bytes; TeraSort output replication is 1).
  bool flushed = false;
  bed.cluster->node(0)->cache()->SyncAll([&] { flushed = true; });
  for (uint32_t n = 1; n < bed.cluster->num_workers(); ++n) {
    bed.cluster->node(n)->cache()->SyncAll(nullptr);
  }
  bed.sim.Run();
  ASSERT_TRUE(flushed);
  const uint64_t hdfs_written = TotalDeviceBytes(bed.cluster.get(), true, 1);
  EXPECT_GE(hdfs_written, counters.hdfs_write_bytes * 95 / 100);
  EXPECT_LE(hdfs_written, counters.hdfs_write_bytes * 11 / 10);

  // Intermediate data is written once and read at most ~2x (shuffle +
  // merges), but cache hits may absorb some reads.
  const uint64_t mr_written = TotalDeviceBytes(bed.cluster.get(), false, 1);
  const uint64_t mr_read = TotalDeviceBytes(bed.cluster.get(), false, 0);
  EXPECT_LE(mr_written, counters.intermediate_write_bytes * 11 / 10);
  // Shuffle slices are unaligned and readahead overshoots across their
  // boundaries, so physical reads exceed logical by a bounded factor.
  EXPECT_LE(mr_read, counters.intermediate_read_bytes * 15 / 10);
}

TEST(PipelineTest, TraceMatchesDiskstats) {
  Testbed bed;
  obs::BlktraceSession session(&bed.sim);
  bed.cluster->AttachBlktrace(&session);
  ASSERT_TRUE(bed.dfs->Preload("/in", MiB(128)).ok());
  mapreduce::SimJobSpec spec;
  spec.input_path = "/in";
  spec.output_path = "/out";
  bool done = false;
  bed.engine->RunJob(spec, [&](Status s, const mapreduce::JobCounters&) {
    ASSERT_TRUE(s.ok());
    done = true;
  });
  bed.sim.Run();
  ASSERT_TRUE(done);
  ASSERT_EQ(session.dropped_records(), 0u);
  // Every completed request in diskstats is one C record and vice versa.
  // AttachBlktrace registers each worker's hdfs disks, then its mr disks.
  uint16_t index = 0;
  auto check = [&](storage::BlockDevice* dev) {
    ASSERT_EQ(session.device(index).name, dev->name());
    uint64_t completions = 0;
    uint64_t traced_sectors = 0;
    for (const obs::BlktraceRecord& r : session.DeviceRecords(index++)) {
      if (r.action == static_cast<uint8_t>(obs::BlkAction::kComplete)) {
        ++completions;
        traced_sectors += r.sectors;
      }
    }
    const auto stats = dev->Stats();
    EXPECT_EQ(completions, stats.TotalIos()) << dev->name();
    EXPECT_EQ(traced_sectors, stats.TotalSectors()) << dev->name();
  };
  for (uint32_t n = 0; n < bed.cluster->num_workers(); ++n) {
    cluster::Node* node = bed.cluster->node(n);
    for (uint32_t d = 0; d < node->num_hdfs_disks(); ++d) {
      check(node->hdfs_disk(d));
    }
    for (uint32_t d = 0; d < node->num_mr_disks(); ++d) {
      check(node->mr_disk(d));
    }
  }
  EXPECT_EQ(index, session.num_devices());
}

TEST(PipelineTest, IostatInvariantsDuringWorkload) {
  Testbed bed;
  iostat::Monitor monitor(&bed.sim, Seconds(1));
  for (uint32_t d = 0; d < 3; ++d) {
    monitor.AddDevice(bed.cluster->node(0)->hdfs_disk(d), "hdfs");
    monitor.AddDevice(bed.cluster->node(0)->mr_disk(d), "mr");
  }
  monitor.Start();
  ASSERT_TRUE(bed.dfs->Preload("/in", MiB(256)).ok());
  mapreduce::SimJobSpec spec;
  spec.input_path = "/in";
  spec.output_path = "/out";
  bool done = false;
  bed.engine->RunJob(spec, [&](Status s, const mapreduce::JobCounters&) {
    ASSERT_TRUE(s.ok());
    done = true;
    monitor.Stop();
  });
  bed.sim.Run();
  ASSERT_TRUE(done);
  for (const char* name :
       {"n0-hdfs0", "n0-hdfs1", "n0-hdfs2", "n0-mr0", "n0-mr1", "n0-mr2"}) {
    for (const auto& s : monitor.DeviceSamples(name)) {
      EXPECT_GE(s.util_pct, 0.0);
      EXPECT_LE(s.util_pct, 100.0);
      EXPECT_GE(s.await_ms, s.svctm_ms - 1e-9) << name;
      EXPECT_GE(s.r_s, 0.0);
      EXPECT_GE(s.avgrq_sz, 0.0);
      // Requests can't be larger than the block-layer cap.
      EXPECT_LE(s.avgrq_sz, 1024.0 + 1e-9);
    }
  }
}

TEST(PipelineTest, HdfsPatternSequentialMrPatternSeeky) {
  Testbed bed;
  obs::BlktraceSession session(&bed.sim);
  bed.cluster->AttachBlktrace(&session);
  workloads::PlanOptions options;
  options.scale = 1.0 / 256;
  auto plan =
      workloads::BuildPlan(workloads::WorkloadKind::kTeraSort, options);
  ASSERT_TRUE(bed.dfs->Preload(plan.dataset_path, plan.dataset_bytes).ok());
  bool done = false;
  bed.engine->RunJob(plan.jobs[0].spec,
                     [&](Status s, const mapreduce::JobCounters&) {
                       ASSERT_TRUE(s.ok());
                       done = true;
                     });
  bed.sim.Run();
  ASSERT_TRUE(done);
  blkparse::Report report =
      blkparse::Analyze(blkparse::FromSession(session));
  const blkparse::ScopeSummary& hdfs = report.classes["hdfs"];
  const blkparse::ScopeSummary& mr = report.classes["mr"];
  ASSERT_GT(hdfs.requests, 50u);
  ASSERT_GT(mr.requests, 50u);
  // The paper's Observation 4.
  EXPECT_GT(hdfs.seq_score, mr.seq_score + 0.2);
  EXPECT_GT(hdfs.avgrq_sectors, mr.avgrq_sectors);
}

TEST(PipelineTest, CompressionReducesMrTrafficEndToEnd) {
  auto run = [&](bool compress) {
    Testbed bed;
    workloads::PlanOptions options;
    options.scale = 1.0 / 256;
    options.compress_intermediate = compress;
    auto plan =
        workloads::BuildPlan(workloads::WorkloadKind::kTeraSort, options);
    EXPECT_TRUE(
        bed.dfs->Preload(plan.dataset_path, plan.dataset_bytes).ok());
    bool done = false;
    bed.engine->RunJob(plan.jobs[0].spec,
                       [&](Status s, const mapreduce::JobCounters&) {
                         EXPECT_TRUE(s.ok());
                         done = true;
                       });
    bed.sim.Run();
    EXPECT_TRUE(done);
    return TotalDeviceBytes(bed.cluster.get(), false, 1);
  };
  const uint64_t off = run(false);
  const uint64_t on = run(true);
  EXPECT_LT(on, off * 8 / 10);
}

}  // namespace
}  // namespace bdio
