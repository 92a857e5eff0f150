// bdio::invariants: the debug-mode runtime checker must pass cleanly on a
// healthy run, catch planted accounting violations, and perturb nothing —
// a checked run stays byte-identical to an unchecked one.

#include <cstdlib>
#include <memory>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "check/invariants.h"
#include "cluster/cluster.h"
#include "common/io_tag.h"
#include "core/experiment.h"
#include "core/testbed.h"
#include "dag/job_dag.h"
#include "hdfs/hdfs.h"
#include "mapreduce/engine.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "workloads/profile.h"

namespace bdio::invariants {
namespace {

CheckerConfig NonFatal(uint64_t interval = 256) {
  CheckerConfig config;
  config.audit_interval = interval;
  config.fatal = false;
  return config;
}

TEST(InvariantCheckerTest, EnabledFromEnvParsesStrictly) {
  ::unsetenv("BDIO_CHECK_INVARIANTS");
  EXPECT_FALSE(InvariantChecker::EnabledFromEnv());
  ::setenv("BDIO_CHECK_INVARIANTS", "1", 1);
  EXPECT_TRUE(InvariantChecker::EnabledFromEnv());
  for (const char* off : {"0", "", "yes", "11"}) {
    ::setenv("BDIO_CHECK_INVARIANTS", off, 1);
    EXPECT_FALSE(InvariantChecker::EnabledFromEnv()) << "'" << off << "'";
  }
  ::unsetenv("BDIO_CHECK_INVARIANTS");
}

TEST(InvariantCheckerTest, MaybeAttachFromEnvHonorsTheSwitch) {
  sim::Simulator sim;
  ::unsetenv("BDIO_CHECK_INVARIANTS");
  EXPECT_EQ(MaybeAttachFromEnv(&sim, nullptr, nullptr, nullptr, nullptr),
            nullptr);
  ::setenv("BDIO_CHECK_INVARIANTS", "1", 1);
  auto checker = MaybeAttachFromEnv(&sim, nullptr, nullptr, nullptr, nullptr);
  ASSERT_NE(checker, nullptr);
  ::unsetenv("BDIO_CHECK_INVARIANTS");
}

TEST(InvariantCheckerTest, DetectsIncompleteTagAttribution) {
  sim::Simulator sim;
  obs::MetricsRegistry metrics;
  InvariantChecker checker(&sim, NonFatal());
  checker.WatchMetrics(&metrics);

  checker.CheckNow();
  EXPECT_TRUE(checker.last_violation().empty()) << checker.last_violation();

  // Tagged bytes with no matching total: attribution no longer sums up.
  const obs::Labels labels{{"source", IoTagName(IoTag::kHdfsInput)}};
  metrics.GetCounter("pagecache.tag_disk_read_bytes", labels)->Add(4096);
  checker.CheckNow();
  EXPECT_NE(checker.last_violation().find("tagged pagecache reads"),
            std::string::npos)
      << checker.last_violation();
}

TEST(InvariantCheckerTest, BalancedTagAttributionPasses) {
  sim::Simulator sim;
  obs::MetricsRegistry metrics;
  const obs::Labels in{{"source", IoTagName(IoTag::kHdfsInput)}};
  const obs::Labels spill{{"source", IoTagName(IoTag::kMapSpill)}};
  metrics.GetCounter("pagecache.tag_disk_read_bytes", in)->Add(4096);
  metrics.GetCounter("pagecache.tag_disk_read_bytes", spill)->Add(512);
  metrics.GetCounter("pagecache.disk_read_bytes")->Add(4608);
  metrics.GetCounter("pagecache.tag_disk_write_bytes", spill)->Add(100);
  metrics.GetCounter("pagecache.writeback_bytes")->Add(100);

  InvariantChecker checker(&sim, NonFatal());
  checker.WatchMetrics(&metrics);
  checker.CheckNow();
  EXPECT_TRUE(checker.last_violation().empty()) << checker.last_violation();
}

TEST(InvariantCheckerTest, HookDetachesOnDestruction) {
  sim::Simulator sim;
  int fired = 0;
  {
    InvariantChecker checker(&sim, NonFatal());
    sim.ScheduleAfter(Seconds(1), [&fired] { ++fired; });
    sim.Run();
    EXPECT_EQ(checker.events_checked(), 1u);
  }
  // The destroyed checker's hook must be gone: events still run fine.
  sim.ScheduleAfter(Seconds(1), [&fired] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(InvariantCheckerTest, CleanTeraSortRunPassesEveryAudit) {
  sim::Simulator sim;
  cluster::ClusterParams cp;
  cp.num_workers = 4;
  cp.node.memory_bytes = GiB(16) / 256;
  cp.node.daemon_bytes = GiB(2) / 256;
  cp.node.per_slot_heap_bytes = MiB(200) / 256;
  cp.node.min_cache_bytes = MiB(16);
  cluster::Cluster cluster(&sim, cp, 16, Rng(1));
  hdfs::Hdfs dfs(&cluster, hdfs::HdfsParams{}, Rng(2));
  mapreduce::MrEngine engine(&cluster, &dfs,
                             mapreduce::SlotConfig::Paper_1_8(), Rng(3));
  obs::MetricsRegistry metrics;
  cluster.AttachObs(nullptr, &metrics);
  dfs.AttachObs(nullptr, &metrics);
  engine.AttachObs(nullptr, &metrics);

  InvariantChecker checker(&sim, NonFatal(/*interval=*/128));
  checker.WatchCluster(&cluster);
  checker.WatchHdfs(&dfs);
  checker.WatchEngine(&engine);
  checker.WatchMetrics(&metrics);

  workloads::PlanOptions options;
  options.scale = 1.0 / 256;
  auto plan =
      workloads::BuildPlan(workloads::WorkloadKind::kTeraSort, options);
  ASSERT_TRUE(dfs.Preload(plan.dataset_path, plan.dataset_bytes).ok());
  bool done = false;
  engine.RunJob(plan.jobs[0].spec,
                [&](Status s, const mapreduce::JobCounters&) {
                  ASSERT_TRUE(s.ok());
                  done = true;
                });
  sim.Run();
  ASSERT_TRUE(done);

  EXPECT_GT(checker.events_checked(), 0u);
  EXPECT_GT(checker.audits_run(), 0u) << "audit interval never reached";
  EXPECT_TRUE(checker.last_violation().empty()) << checker.last_violation();
  checker.CheckNow();  // post-drain state must hold too
  EXPECT_TRUE(checker.last_violation().empty()) << checker.last_violation();
}

TEST(InvariantCheckerTest, CheckedExperimentIsByteIdenticalToUnchecked) {
  core::ExperimentSpec spec;
  spec.workload = workloads::WorkloadKind::kTeraSort;
  spec.scale = 1.0 / 512;
  spec.seed = 42;

  ::unsetenv("BDIO_CHECK_INVARIANTS");
  auto plain = core::RunExperiment(spec);
  ASSERT_TRUE(plain.ok());

  ::setenv("BDIO_CHECK_INVARIANTS", "1", 1);
  auto checked = core::RunExperiment(spec);
  ::unsetenv("BDIO_CHECK_INVARIANTS");
  ASSERT_TRUE(checked.ok());

  // The checker is read-only: not one metric may move.
  EXPECT_EQ(plain->duration_s, checked->duration_s);
  EXPECT_EQ(plain->metrics->ToCsv(), checked->metrics->ToCsv());
}

/// A two-node chain /in -> /mid -> /out-<name>: once it finishes, /mid is
/// an expired intermediate path that must stay empty.
dag::DagSpec ChainDag(const std::string& name) {
  dag::DagSpec spec;
  spec.name = name;
  for (const auto& [in, out] :
       {std::pair<std::string, std::string>{"/in", "/mid-" + name},
        {"/mid-" + name, "/out-" + name}}) {
    dag::DagNode node;
    node.spec.name = name;
    node.spec.input_path = in;
    node.spec.output_path = out;
    node.spec.num_reduce_tasks = 2;
    if (!spec.nodes.empty()) node.deps.push_back(0);
    spec.nodes.push_back(std::move(node));
  }
  return spec;
}

// The checker audits every dag it watches, not only the last one
// registered: blocks planted under the first dag's expired path are found.
TEST(InvariantCheckerTest, AuditsEveryWatchedDag) {
  sim::Simulator sim;
  cluster::ClusterParams cp;
  cp.num_workers = 4;
  cp.node.memory_bytes = GiB(4);
  cp.node.daemon_bytes = MiB(256);
  cp.node.per_slot_heap_bytes = MiB(16);
  cluster::Cluster cluster(&sim, cp, 8, Rng(1));
  hdfs::Hdfs dfs(&cluster, hdfs::HdfsParams{}, Rng(2));
  mapreduce::MrEngine engine(&cluster, &dfs, mapreduce::SlotConfig{4, 4, "t"},
                             Rng(3));
  ASSERT_TRUE(dfs.Preload("/in", MiB(64)).ok());
  dag::JobDag first(&sim, &engine, &dfs, ChainDag("first"));
  dag::JobDag second(&sim, &engine, &dfs, ChainDag("second"));
  first.Run([](Status s) { EXPECT_TRUE(s.ok()) << s.ToString(); });
  second.Run([](Status s) { EXPECT_TRUE(s.ok()) << s.ToString(); });
  sim.Run();

  InvariantChecker checker(&sim, NonFatal());
  checker.WatchDag(&first);
  checker.WatchDag(&second);
  checker.CheckNow();
  ASSERT_TRUE(checker.last_violation().empty()) << checker.last_violation();
  ASSERT_TRUE(dfs.Preload("/mid-first/orphan", MiB(1)).ok());
  checker.CheckNow();
  EXPECT_NE(checker.last_violation().find("dag first: expired path"),
            std::string::npos)
      << checker.last_violation();
}

// Under BDIO_CHECK_INVARIANTS=1 a Testbed's checker watches every dag added
// to it: blocks planted under the second dag's expired path abort the run
// at the checker's final audit.
TEST(InvariantCheckerDeathTest, TestbedAuditsEveryDag) {
  EXPECT_DEATH(
      {
        ::setenv("BDIO_CHECK_INVARIANTS", "1", 1);
        core::TestbedSpec spec;
        spec.cluster = core::ScaledClusterParams(GiB(16), 1.0 / 256, 4);
        core::Testbed bed(spec, Rng(42));
        BDIO_CHECK_OK(bed.Preload("/in", MiB(64)));
        bed.AddDag(ChainDag("first")).Run([](Status) {});
        bed.AddDag(ChainDag("second")).Run([](Status) {});
        bed.sim().Run();
        BDIO_CHECK_OK(bed.Preload("/mid-second/orphan", MiB(1)));
      },
      "dag second: expired path");
}

}  // namespace
}  // namespace bdio::invariants
