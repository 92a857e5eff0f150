// Extension bench: fault tolerance. Hadoop's answer to a TaskTracker death
// is re-execution — lost map outputs are recomputed and in-flight reducers
// restart elsewhere — and HDFS's answer to the co-hosted DataNode dying is
// re-replication of every block the node held. This bench drives both
// through a faults::FaultPlan and quantifies the extra I/O and runtime a
// mid-job node failure costs TeraSort on the simulated testbed.

#include <cstdio>

#include "bench/figure_common.h"
#include "common/table.h"
#include "faults/fault_plan.h"
#include "workloads/profile.h"

namespace {

using namespace bdio;

struct RunResult {
  double duration_s = 0;
  mapreduce::JobCounters counters;
  uint64_t rereplicated_blocks = 0;
  uint64_t rereplicated_bytes = 0;
};

RunResult RunTeraSort(const core::BenchOptions& options,
                      const faults::FaultPlan& plan,
                      core::ExperimentResult* obs_out = nullptr) {
  core::TestbedSpec spec = bench::MakeTestbedSpec(options, obs_out != nullptr);
  spec.faults = true;
  core::Testbed bed(spec, Rng(options.seed));
  if (obs_out) bed.ExportObs(obs_out);

  const auto workload =
      bench::CompressedPlan(options, workloads::WorkloadKind::kTeraSort);
  bench::PreloadOrExit(&bed, workload.dataset_path, workload.dataset_bytes);

  RunResult result;
  bool done = false;
  bed.engine().RunJob(workload.jobs[0].spec,
                      [&](Status s, const mapreduce::JobCounters& c) {
                        BDIO_CHECK_OK(s);
                        result.counters = c;
                        done = true;
                      });
  BDIO_CHECK_OK(bed.injector()->Arm(plan));
  bed.sim().Run();
  BDIO_CHECK(done);
  result.duration_s = result.counters.DurationSeconds();
  result.rereplicated_blocks = bed.hdfs().rereplicated_blocks();
  result.rereplicated_bytes = bed.hdfs().rereplicated_bytes();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bdio;
  const core::BenchOptions options = core::BenchOptions::Parse(argc, argv);
  core::PrintFigureHeader(
      "Extension", "Node-failure recovery cost under TeraSort", options);

  // The observed run is the early-failure one: its trace shows the killed
  // node's spans close out, the re-executed maps appear elsewhere, and the
  // hdfs.rereplication.* counters tick as the DataNode's blocks re-home.
  const bool want_obs = bench::WantsObs(options);
  core::ExperimentResult obs_holder;  // only label and the sinks are used
  obs_holder.label = "TS_fail_at_25pct";
  const RunResult healthy = RunTeraSort(options, faults::FaultPlan{});
  const auto plan_at = [&](double fraction) {
    return faults::FaultPlan{}.KillDataNode(
        3, TimeAt(FromSeconds(healthy.duration_s * fraction)));
  };
  const RunResult early = RunTeraSort(options, plan_at(0.25),
                                      want_obs ? &obs_holder : nullptr);
  const RunResult late = RunTeraSort(options, plan_at(0.75));

  TextTable table;
  table.SetHeader({"scenario", "duration_s", "maps launched",
                   "hdfs read MB", "intermediate written MB",
                   "re-replicated MB"});
  auto row = [&](const char* name, const RunResult& r) {
    table.AddRow({name, TextTable::Num(r.duration_s, 1),
                  std::to_string(r.counters.maps_launched),
                  TextTable::Num(
                      static_cast<double>(r.counters.hdfs_read_bytes) / 1e6,
                      0),
                  TextTable::Num(
                      static_cast<double>(
                          r.counters.intermediate_write_bytes) /
                          1e6,
                      0),
                  TextTable::Num(
                      static_cast<double>(r.rereplicated_bytes) / 1e6, 0)});
  };
  row("healthy (10 nodes)", healthy);
  row("node fails at 25%", early);
  row("node fails at 75%", late);
  std::fputs(table.ToString().c_str(), stdout);

  if (want_obs) {
    core::WriteObsArtifacts(options,
                            {{obs_holder.label, &obs_holder}});
  }

  std::vector<core::ShapeCheck> checks;
  checks.push_back(core::ShapeCheck{
      "failure slows the job down", early.duration_s > healthy.duration_s &&
                                        late.duration_s >
                                            healthy.duration_s});
  checks.push_back(core::ShapeCheck{
      "failure causes map re-execution",
      early.counters.maps_launched > healthy.counters.maps_launched ||
          late.counters.maps_launched > healthy.counters.maps_launched});
  checks.push_back(core::ShapeCheck{
      "late failure wastes more finished work than an early one",
      late.counters.maps_launched >= early.counters.maps_launched});
  checks.push_back(core::ShapeCheck{
      "re-execution re-reads input",
      late.counters.hdfs_read_bytes > healthy.counters.hdfs_read_bytes});
  checks.push_back(core::ShapeCheck{
      "a healthy run re-replicates nothing",
      healthy.rereplicated_blocks == 0});
  checks.push_back(core::ShapeCheck{
      "the dead DataNode's blocks re-replicate",
      early.rereplicated_blocks > 0 && late.rereplicated_blocks > 0});
  return core::PrintShapeChecks(checks);
}
