// The determinism contract for the JobDag driver: a dag-driven iterative
// run — with a chaos plan armed (DataNode death + fail-slow disk) — is
// byte-identical across repeated runs and across worker-thread counts.
// Companion to determinism_test.cc, which covers the one-pass grid path.

#include <future>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/runner/thread_pool.h"
#include "core/testbed.h"
#include "dag/job_dag.h"
#include "faults/fault_plan.h"
#include "workloads/graph_profile.h"

namespace bdio::dag {
namespace {

/// One faulted SSSP dag run, serialized to every observable byte of the
/// dag's ledger (hex times and byte counts — exact equality, no rounding).
std::string RunFaultedGraphDag(uint64_t seed) {
  workloads::GraphPlanOptions plan_options;
  plan_options.scale = 1.0 / 512;
  plan_options.model_nodes = 256;
  plan_options.seed = seed;
  workloads::GraphDagPlan plan =
      workloads::BuildGraphDag(workloads::GraphWorkload::kSssp, plan_options);

  core::TestbedSpec spec;
  spec.cluster.num_workers = 8;
  spec.cluster.node.memory_bytes = GiB(4);
  spec.cluster.node.daemon_bytes = MiB(256);
  spec.cluster.node.per_slot_heap_bytes = MiB(16);
  spec.slots = mapreduce::SlotConfig{2, 2, "test"};
  spec.faults = true;
  core::Testbed bed(spec, Rng(seed));
  sim::Simulator& sim = bed.sim();
  EXPECT_TRUE(bed.Preload(plan.dataset_path, plan.dataset_bytes).ok());

  faults::FaultPlan chaos;
  chaos.KillDataNode(3, TimeAt(Seconds(2)));
  chaos.DegradeDisk(5, /*mr_disk=*/true, 0, /*factor=*/4.0, TimeAt(Seconds(1)),
                    TimeAt(Seconds(60)));

  JobDag& jobdag = bed.AddDag(std::move(plan.dag));
  bool done = false;
  jobdag.Run([&](Status s) {
    EXPECT_TRUE(s.ok()) << s.ToString();
    done = true;
  });
  EXPECT_TRUE(bed.injector()->Arm(chaos).ok());
  sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(jobdag.AuditInvariants(), "");

  std::ostringstream out;
  out << sim.events_processed() << ' ' << sim.Now() << '\n';
  for (const NodeRecord& node : jobdag.node_records()) {
    out << node.id << ' ' << node.round << ' ' << node.name << ' '
        << node.counters.hdfs_read_bytes << ' '
        << node.counters.hdfs_write_bytes << ' '
        << node.counters.intermediate_write_bytes << ' '
        << node.counters.shuffle_network_bytes << ' '
        << node.counters.maps_launched << ' '
        << node.counters.reduces_launched << ' '
        << node.counters.start_time << ' ' << node.counters.end_time << '\n';
  }
  for (const RoundRecord& round : jobdag.round_records()) {
    out << round.round << ' ' << round.start_time << ' ' << round.end_time
        << ' ' << round.hdfs_read_bytes << ' ' << round.hdfs_write_bytes
        << ' ' << round.expired_bytes << ' ' << round.expired_files << '\n';
  }
  out << jobdag.intermediate_published_bytes() << ' '
      << jobdag.intermediate_expired_bytes() << ' '
      << jobdag.intermediate_expired_files() << '\n';
  return out.str();
}

TEST(DagDeterminismTest, FaultedDagByteIdenticalAcrossJobCounts) {
  const std::vector<uint64_t> seeds = {7, 21, 42};

  // Serial baseline (--jobs 1).
  std::vector<std::string> serial;
  for (const uint64_t seed : seeds) serial.push_back(RunFaultedGraphDag(seed));

  // Four worker threads (--jobs 4), results consumed in submission order.
  core::runner::ThreadPool pool(4);
  std::vector<std::future<std::string>> futures;
  for (const uint64_t seed : seeds) {
    futures.push_back(pool.Async([seed] { return RunFaultedGraphDag(seed); }));
  }
  for (size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(serial[i], futures[i].get())
        << "seed " << seeds[i] << ": 4 workers diverged from serial";
  }

  // Sanity: the serialization is not degenerate — different seeds produce
  // genuinely different runs.
  EXPECT_NE(serial[0], serial[1]);
}

TEST(DagDeterminismTest, RepeatedFaultedRunsAreByteIdentical) {
  EXPECT_EQ(RunFaultedGraphDag(42), RunFaultedGraphDag(42));
}

}  // namespace
}  // namespace bdio::dag
