// Trace analysis: record the block-layer Q/M/D/C lifecycle trace of every
// HDFS and MapReduce disk during a TeraSort run, round-trip it through the
// binary artifact format (docs/BLKTRACE.md), and print the bdio-blkparse
// characterization that backs the paper's "HDFS is large sequential,
// MapReduce is small random" observation.
//
//   $ ./trace_analysis [trace_output_dir]

#include <cstdio>
#include <string>

#include "bdio_blkparse/blkparse.h"
#include "cluster/cluster.h"
#include "hdfs/hdfs.h"
#include "mapreduce/engine.h"
#include "obs/blktrace.h"
#include "sim/simulator.h"
#include "workloads/profile.h"

int main(int argc, char** argv) {
  using namespace bdio;
  const std::string out_dir = argc > 1 ? argv[1] : "/tmp";

  Rng rng(42);
  sim::Simulator sim;
  cluster::ClusterParams cp;
  const double scale = 1.0 / 256;
  cp.node.memory_bytes = static_cast<uint64_t>(GiB(16) * scale);
  cp.node.daemon_bytes = static_cast<uint64_t>(GiB(2) * scale);
  cp.node.per_slot_heap_bytes = static_cast<uint64_t>(MiB(200) * scale);
  cp.node.min_cache_bytes = MiB(16);
  cluster::Cluster cluster(&sim, cp, 16, rng.Fork());
  hdfs::Hdfs dfs(&cluster, hdfs::HdfsParams{}, rng.Fork());

  workloads::PlanOptions options;
  options.scale = scale;
  const workloads::WorkloadPlan plan =
      workloads::BuildPlan(workloads::WorkloadKind::kTeraSort, options);
  BDIO_CHECK_OK(dfs.Preload(plan.dataset_path, plan.dataset_bytes));

  // Trace every disk of every worker; devices are tagged "hdfs" or "mr".
  obs::BlktraceSession session(&sim);
  cluster.AttachBlktrace(&session);

  mapreduce::MrEngine engine(&cluster, &dfs,
                             mapreduce::SlotConfig::Paper_1_8(), rng.Fork());
  bool ok = false;
  engine.RunJob(plan.jobs[0].spec,
                [&](Status s, const mapreduce::JobCounters&) { ok = s.ok(); });
  sim.Run();
  if (!ok) {
    std::fprintf(stderr, "job failed\n");
    return 1;
  }

  // Persist and reload the trace (the artifact bdio-blkparse reads).
  const std::string path = out_dir + "/terasort.blk";
  BDIO_CHECK_OK(session.WriteFile(path));
  auto loaded = blkparse::ParseFile(path);
  BDIO_CHECK(loaded.ok()) << loaded.status().ToString();
  blkparse::Report report = blkparse::Analyze(loaded.value());
  const blkparse::ScopeSummary& hdfs = report.classes["hdfs"];
  const blkparse::ScopeSummary& mr = report.classes["mr"];
  std::printf("requests captured: hdfs %llu, mr %llu -> %s\n\n",
              static_cast<unsigned long long>(hdfs.requests),
              static_cast<unsigned long long>(mr.requests), path.c_str());
  std::printf("%s", blkparse::RenderText(report).c_str());

  std::printf("\nObservation 4 in numbers:\n");
  std::printf("  sequential fraction   hdfs %.2f vs mr %.2f\n",
              hdfs.seq_score, mr.seq_score);
  std::printf("  mean request size     hdfs %.0f vs mr %.0f sectors\n",
              hdfs.avgrq_sectors, mr.avgrq_sectors);
  std::printf("  median queue wait     hdfs %.1f vs mr %.1f ms\n",
              hdfs.wait_ms.p50, mr.wait_ms.p50);
  return 0;
}
