// Validation bench: the reproduction's central methodological claim is that
// the paper's *shapes* are invariant under the dataset/memory scale factor
// (both are scaled together). This bench runs TeraSort and Aggregation at
// three scales and checks that the shape-carrying statistics hold at every
// one of them.

#include <cstdio>

#include "bench/figure_common.h"
#include "common/table.h"

namespace {

using namespace bdio;

core::ExperimentResult RunAt(const core::BenchOptions& base, double scale,
                             workloads::WorkloadKind w,
                             bool observed = false) {
  core::BenchOptions options = base;
  options.scale = scale;
  core::ExperimentSpec spec = options.MakeSpec(w, core::SlotsLevels()[0]);
  // Only the observed run records the span trace and the blktrace.
  spec.collect_trace = observed && !options.trace_out.empty();
  spec.collect_blktrace = observed && !options.blktrace_out.empty();
  auto result = core::RunExperiment(spec);
  BDIO_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bdio;
  const core::BenchOptions options = core::BenchOptions::Parse(argc, argv);
  core::PrintFigureHeader(
      "Validation", "Shape invariance across simulation scales", options);

  const double scales[] = {1.0 / 512, 1.0 / 256, 1.0 / 128};

  TextTable table;
  table.SetHeader({"scale", "workload", "hdfs rqsz", "mr rqsz", "hdfs wait",
                   "mr wait", "hdfs >90%", "mr >90%"});
  std::vector<core::ShapeCheck> checks;
  std::vector<core::ExperimentResult> all;  // kept alive for --metrics-out
  all.reserve(2 * (sizeof(scales) / sizeof(scales[0])));  // refs stay valid
  std::vector<std::pair<std::string, const core::ExperimentResult*>> obs;
  for (double scale : scales) {
    all.push_back(RunAt(options, scale, workloads::WorkloadKind::kTeraSort,
                        /*observed=*/all.empty()));
    const auto& ts = all.back();
    all.push_back(
        RunAt(options, scale, workloads::WorkloadKind::kAggregation));
    const auto& agg = all.back();
    char label[32];
    std::snprintf(label, sizeof(label), "1/%.0f", 1.0 / scale);
    for (const auto* r : {&ts, &agg}) {
      obs.emplace_back(std::string(label) + (r == &ts ? "/TS" : "/AGG"), r);
      table.AddRow({label,
                    r == &ts ? "TS" : "AGG",
                    TextTable::Num(r->hdfs.avgrq_sz.ActiveMean(), 0),
                    TextTable::Num(r->mr.avgrq_sz.ActiveMean(), 0),
                    TextTable::Num(r->hdfs.wait_ms.ActiveMean(), 1),
                    TextTable::Num(r->mr.wait_ms.ActiveMean(), 1),
                    TextTable::Percent(r->hdfs.util_above_90),
                    TextTable::Percent(r->mr.util_above_90)});
    }
    // The shape-carrying orderings, at this scale:
    checks.push_back(core::ShapeCheck{
        std::string("TS: HDFS requests larger than MR requests @") + label,
        ts.hdfs.avgrq_sz.ActiveMean() > ts.mr.avgrq_sz.ActiveMean()});
    checks.push_back(core::ShapeCheck{
        std::string("TS: MR wait exceeds HDFS wait @") + label,
        ts.mr.wait_ms.ActiveMean() > ts.hdfs.wait_ms.ActiveMean()});
    checks.push_back(core::ShapeCheck{
        std::string("TS saturates MR disks, AGG does not @") + label,
        ts.mr.util_above_90 > 0.05 && agg.mr.util_above_90 < 0.02});
    // NOTE: the >90% *tail* statistic needs runs long enough that busy
    // bursts span whole 1 s sampling intervals, so it only stabilizes from
    // ~1/256 scale up (AGG's scan at 1/512 finishes in a couple of
    // samples). The mean-utilization ordering is scale-robust.
    checks.push_back(core::ShapeCheck{
        std::string("AGG keeps HDFS disks busier than TS does @") + label,
        agg.hdfs.util.Mean() > ts.hdfs.util.Mean()});
  }
  std::fputs(table.ToString().c_str(), stdout);
  core::WriteObsArtifacts(options, obs);
  return core::PrintShapeChecks(checks);
}
