// Extension bench: TestDFSIO, the classic Hadoop storage benchmark, against
// the simulated testbed — raw HDFS write/read throughput as a function of
// concurrency and replication. Useful for separating what the cluster's
// storage layer *can* do from what the paper's workloads *make* it do.

#include <cstdio>

#include "bench/figure_common.h"
#include "cluster/cluster.h"
#include "common/table.h"
#include "hdfs/hdfs.h"
#include "sim/simulator.h"
#include "workloads/dfsio.h"

namespace {

using namespace bdio;

workloads::DfsioResult Run(const core::BenchOptions& options,
                           uint32_t files, uint64_t file_bytes,
                           uint32_t replication,
                           core::ExperimentResult* obs_out = nullptr) {
  Rng rng(options.seed);
  sim::Simulator sim;
  sim::ScopedLogClock log_clock(&sim);
  cluster::Cluster cluster(&sim, bench::MakeScaledClusterParams(options), 16,
                           rng.Fork());
  hdfs::Hdfs dfs(&cluster, hdfs::HdfsParams{}, rng.Fork());

  if (obs_out) {
    bench::AttachObsSinks(options, &sim, &cluster, obs_out);
    dfs.AttachObs(obs_out->trace.get(), obs_out->metrics.get());
  }

  workloads::DfsioSpec spec;
  spec.num_files = files;
  spec.file_bytes = file_bytes;
  spec.replication = replication;
  Result<workloads::DfsioResult> result = Status::Internal("not run");
  workloads::RunDfsio(&cluster, &dfs, spec,
                      [&](Result<workloads::DfsioResult> r) {
                        result = std::move(r);
                      });
  sim.Run();
  BDIO_CHECK(result.ok()) << result.status().ToString();
  return result.value();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bdio;
  const core::BenchOptions options = core::BenchOptions::Parse(argc, argv);
  core::PrintFigureHeader(
      "Extension", "TestDFSIO: raw HDFS throughput on the testbed", options);

  struct Config {
    uint32_t files;
    uint64_t bytes;
    uint32_t replication;
  };
  const Config configs[] = {
      {1, MiB(256), 3},  {10, MiB(128), 3}, {30, MiB(64), 3},
      {10, MiB(128), 1}, {30, MiB(64), 1},
  };

  TextTable table;
  table.SetHeader({"files", "MB/file", "repl", "write MB/s", "read MB/s"});
  const bool want_obs = bench::WantsObs(options);
  core::ExperimentResult obs_holder;  // only label and the sinks are used
  obs_holder.label = "dfsio_1x256MB_r3";
  std::vector<workloads::DfsioResult> results;
  std::vector<Config> cfgs;
  for (const Config& c : configs) {
    const bool first = results.empty();
    results.push_back(Run(options, c.files, c.bytes, c.replication,
                          first && want_obs ? &obs_holder : nullptr));
    cfgs.push_back(c);
    const auto& r = results.back();
    table.AddRow({std::to_string(c.files),
                  TextTable::Num(static_cast<double>(c.bytes) / 1e6, 0),
                  std::to_string(c.replication),
                  TextTable::Num(r.write_mb_s, 1),
                  TextTable::Num(r.read_mb_s, 1)});
  }
  std::fputs(table.ToString().c_str(), stdout);

  if (want_obs) {
    core::WriteObsArtifacts(options,
                            {{obs_holder.label, &obs_holder}});
  }

  std::vector<core::ShapeCheck> checks;
  // A single writer is NIC-bound (~118 MB/s payload); ten writers spread
  // over ten NICs but share them with 2x replication traffic and pay the
  // durability flush, so the scaling is sublinear.
  checks.push_back(core::ShapeCheck{
      "parallel writers scale aggregate write throughput",
      results[1].write_mb_s > 2.5 * results[0].write_mb_s});
  checks.push_back(core::ShapeCheck{
      "replication 1 writes faster than replication 3",
      results[3].write_mb_s > results[1].write_mb_s});
  checks.push_back(core::ShapeCheck{
      "reads beat triple-replicated writes",
      results[1].read_mb_s > results[1].write_mb_s});
  checks.push_back(core::ShapeCheck{
      "30 local readers approach the spindle aggregate",
      results[2].read_mb_s > 500.0});  // 30 disks x >= ~17 MB/s effective
  return core::PrintShapeChecks(checks);
}
