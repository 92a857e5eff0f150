// Ablation bench for the design choices DESIGN.md calls out, centred on the
// paper's Observation 4: HDFS and MapReduce data have different I/O modes,
// so storage should be configured per mode. Runs TeraSort (the workload
// exercising both disk classes) under:
//   - disk split 3+3 (paper) vs 4+2 vs 2+4,
//   - deadline vs noop elevator,
//   - readahead 1 MiB vs 128 KiB,
//   - writeback period 5 s vs 30 s.

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

}  // namespace

int main(int argc, char** argv) {
  using namespace bdio;
  const core::BenchOptions options = core::BenchOptions::Parse(argc, argv);
  core::PrintFigureHeader(
      "Ablation", "Storage-configuration choices under TeraSort", options);

  std::vector<core::ExperimentResult> results;
  results.push_back(Run(options, "baseline 3+3 deadline",
                        [](core::ExperimentSpec*) {}, /*observed=*/true));
  results.push_back(Run(options, "disks 4 hdfs + 2 mr",
                        [](core::ExperimentSpec* s) {
                          s->num_hdfs_disks = 4;
                          s->num_mr_disks = 2;
                        }));
  results.push_back(Run(options, "disks 2 hdfs + 4 mr",
                        [](core::ExperimentSpec* s) {
                          s->num_hdfs_disks = 2;
                          s->num_mr_disks = 4;
                        }));
  results.push_back(Run(options, "noop elevator",
                        [](core::ExperimentSpec* s) {
                          s->io_scheduler = "noop";
                        }));
  results.push_back(Run(options, "cfq elevator",
                        [](core::ExperimentSpec* s) {
                          s->io_scheduler = "cfq";
                        }));
  results.push_back(Run(options, "readahead 128K",
                        [](core::ExperimentSpec* s) {
                          s->readahead_max_bytes = KiB(128);
                        }));
  results.push_back(Run(options, "writeback 30s",
                        [](core::ExperimentSpec* s) {
                          s->writeback_period = Seconds(30);
                        }));
  results.push_back(Run(options, "NCQ depth 32 (SPTF)",
                        [](core::ExperimentSpec* s) {
                          s->ncq_depth = 32;
                        }));
  results.push_back(Run(options, "SSD intermediate disks",
                        [](core::ExperimentSpec* s) {
                          s->ssd_intermediate = true;
                        }));

  TextTable table;
  table.SetHeader({"configuration", "duration_s", "hdfs util%", "mr util%",
                   "mr wait ms", "hdfs rMB/s", "mr avgrq-sz"});
  for (const auto& r : results) {
    table.AddRow({r.label, TextTable::Num(r.duration_s, 1),
                  TextTable::Num(r.hdfs.util.Mean(), 1),
                  TextTable::Num(r.mr.util.Mean(), 1),
                  TextTable::Num(r.mr.wait_ms.ActiveMean(), 1),
                  TextTable::Num(r.hdfs.read_mbps.Mean(), 1),
                  TextTable::Num(r.mr.avgrq_sz.ActiveMean(), 0)});
  }
  std::fputs(table.ToString().c_str(), stdout);

  std::vector<std::pair<std::string, const core::ExperimentResult*>> obs;
  for (const auto& r : results) obs.emplace_back(r.label, &r);
  core::WriteObsArtifacts(options, obs);

  std::vector<core::ShapeCheck> checks;
  // TeraSort is MR-bound: giving the intermediate data more spindles must
  // beat giving HDFS more (the paper's per-mode provisioning implication).
  checks.push_back(core::ShapeCheck{
      "4 MR disks beat 2 MR disks for the MR-bound workload",
      results[2].duration_s < results[1].duration_s});
  // The deadline elevator's sorting must not be worse than FIFO on seeky
  // MR traffic.
  checks.push_back(core::ShapeCheck{
      "deadline elevator no slower than noop",
      results[0].duration_s <= results[3].duration_s * 1.10});
  // Flash for the random-small class: the paper's per-mode provisioning
  // taken to 2013 hardware.
  checks.push_back(core::ShapeCheck{
      "SSD intermediate disks speed up the sort",
      results.back().duration_s < results[0].duration_s * 0.8});
  return core::PrintShapeChecks(checks);
}
