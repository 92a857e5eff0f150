// Ablation bench for the Hadoop-side knobs the paper holds fixed: the
// map-side sort buffer (io.sort.mb), the reducer's parallel shuffle copies,
// and the reduce slow-start threshold — each shifts where and when the
// intermediate data hits the disks. Runs TeraSort, the workload whose
// intermediate path dominates.

#include <cstdio>

#include "bench/figure_common.h"
#include "common/table.h"

namespace {

using namespace bdio;

core::ExperimentResult Run(const core::BenchOptions& options,
                           const std::string& label,
                           std::function<void(core::ExperimentSpec*)> tweak,
                           bool observed = false) {
  core::ExperimentSpec spec = options.MakeSpec(
      workloads::WorkloadKind::kTeraSort, core::SlotsLevels()[0]);
  // Only the observed run records the span trace and the blktrace.
  spec.collect_trace = observed && !options.trace_out.empty();
  spec.collect_blktrace = observed && !options.blktrace_out.empty();
  tweak(&spec);
  auto result = core::RunExperiment(spec);
  BDIO_CHECK(result.ok()) << result.status().ToString();
  result->label = label;
  return std::move(result).value();
}

uint64_t Spills(const core::ExperimentResult& r) {
  uint64_t total = 0;
  for (const auto& j : r.jobs) total += j.spills;
  return total;
}

uint64_t IntermediateWrites(const core::ExperimentResult& r) {
  uint64_t total = 0;
  for (const auto& j : r.jobs) total += j.intermediate_write_bytes;
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bdio;
  const core::BenchOptions options = core::BenchOptions::Parse(argc, argv);
  core::PrintFigureHeader(
      "Ablation", "Hadoop tuning knobs under TeraSort (io.sort.mb, "
                  "parallel copies, slow-start)",
      options);

  std::vector<core::ExperimentResult> results;
  results.push_back(Run(options, "defaults (100MB/5/0.05)",
                        [](core::ExperimentSpec*) {}, /*observed=*/true));
  results.push_back(Run(options, "io.sort.mb 32MB",
                        [](core::ExperimentSpec* s) {
                          s->sort_buffer_bytes = MiB(32);
                        }));
  results.push_back(Run(options, "io.sort.mb 200MB",
                        [](core::ExperimentSpec* s) {
                          s->sort_buffer_bytes = MiB(200);
                        }));
  results.push_back(Run(options, "parallel copies 1",
                        [](core::ExperimentSpec* s) {
                          s->parallel_copies = 1;
                        }));
  results.push_back(Run(options, "parallel copies 20",
                        [](core::ExperimentSpec* s) {
                          s->parallel_copies = 20;
                        }));
  results.push_back(Run(options, "slow-start 0.8",
                        [](core::ExperimentSpec* s) {
                          s->reduce_slowstart = 0.8;
                        }));

  TextTable table;
  table.SetHeader({"configuration", "duration_s", "spills",
                   "intermediate written MB", "mr util%", "mr wait ms"});
  for (const auto& r : results) {
    table.AddRow({r.label, TextTable::Num(r.duration_s, 1),
                  std::to_string(Spills(r)),
                  TextTable::Num(
                      static_cast<double>(IntermediateWrites(r)) / 1e6, 0),
                  TextTable::Num(r.mr.util.Mean(), 1),
                  TextTable::Num(r.mr.wait_ms.ActiveMean(), 1)});
  }
  std::fputs(table.ToString().c_str(), stdout);

  std::vector<std::pair<std::string, const core::ExperimentResult*>> obs;
  for (const auto& r : results) obs.emplace_back(r.label, &r);
  core::WriteObsArtifacts(options, obs);

  std::vector<core::ShapeCheck> checks;
  checks.push_back(core::ShapeCheck{
      "smaller sort buffer means more spills",
      Spills(results[1]) > Spills(results[0])});
  checks.push_back(core::ShapeCheck{
      "multi-spill maps add a merge pass of intermediate writes",
      IntermediateWrites(results[1]) > IntermediateWrites(results[0])});
  checks.push_back(core::ShapeCheck{
      "a single shuffle copy stream slows the job",
      results[3].duration_s > results[0].duration_s});
  checks.push_back(core::ShapeCheck{
      "late reducer start (0.8) is no faster than slow-start 0.05",
      results[5].duration_s >= results[0].duration_s * 0.95});
  return core::PrintShapeChecks(checks);
}
