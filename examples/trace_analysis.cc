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
#include "core/testbed.h"
#include "workloads/profile.h"

int main(int argc, char** argv) {
  using namespace bdio;
  const std::string out_dir = argc > 1 ? argv[1] : "/tmp";

  // The paper's testbed at 1/256 scale, recording a block trace of every
  // disk of every worker; devices are tagged "hdfs" or "mr".
  const double scale = 1.0 / 256;
  core::TestbedSpec testbed;
  testbed.cluster = core::ScaledClusterParams(GiB(16), scale, 10);
  testbed.blktrace = true;
  core::Testbed bed(testbed, Rng(42));

  workloads::PlanOptions options;
  options.scale = scale;
  const workloads::WorkloadPlan plan =
      workloads::BuildPlan(workloads::WorkloadKind::kTeraSort, options);
  BDIO_CHECK_OK(bed.Preload(plan.dataset_path, plan.dataset_bytes));

  bool ok = false;
  bed.engine().RunJob(
      plan.jobs[0].spec,
      [&](Status s, const mapreduce::JobCounters&) { ok = s.ok(); });
  bed.sim().Run();
  if (!ok) {
    std::fprintf(stderr, "job failed\n");
    return 1;
  }

  // Persist and reload the trace (the artifact bdio-blkparse reads).
  const std::string path = out_dir + "/terasort.blk";
  BDIO_CHECK_OK(bed.blktrace()->WriteFile(path));
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
