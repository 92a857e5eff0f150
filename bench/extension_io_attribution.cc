// Extension bench: the paper's stated future work — "combine a low-level
// description of physical resources and the high-level functional
// composition of big data workloads to reveal the major source of I/O
// demand". Every file in the stack is tagged with its role; the page cache
// attributes each physical byte to a source counter in the metrics
// registry; this bench reads the registry and prints the breakdown per
// workload.

#include <cstdio>
#include <map>

#include "bench/figure_common.h"
#include "common/io_tag.h"
#include "common/table.h"

int main(int argc, char** argv) {
  using namespace bdio;
  core::BenchOptions options = core::BenchOptions::Parse(argc, argv);
  core::PrintFigureHeader(
      "Extension", "Sources of physical I/O demand per workload", options);

  const core::Factors factors = core::SlotsLevels()[0];  // 1_8, 16G, on
  if (!options.trace_out.empty() || !options.blktrace_out.empty()) {
    options.trace_label = factors.Label(workloads::AllWorkloads().front());
  }
  core::GridRunner grid(options);
  grid.PrefetchAll({factors});  // all four workloads run concurrently

  TextTable table;
  table.SetHeader({"workload", "source", "read MB", "written MB",
                   "share of demand"});
  std::map<workloads::WorkloadKind, std::map<std::string, double>> share;
  for (workloads::WorkloadKind w : workloads::AllWorkloads()) {
    const auto& res = grid.Get(w, factors);
    // Per-source physical bytes, straight from the registry counters the
    // page caches bump on every disk-bound bio. Sorted by source name so
    // the rows are deterministic.
    struct Volume {
      uint64_t read = 0;
      uint64_t written = 0;
    };
    std::map<std::string, Volume> sources;
    uint64_t total = 0;
    for (uint32_t t = 0; t < kNumIoTags; ++t) {
      const std::string src = IoTagName(static_cast<IoTag>(t));
      const obs::Labels labels{{"source", src}};
      const uint64_t r =
          res.metrics->CounterValue("pagecache.tag_disk_read_bytes", labels);
      const uint64_t wr =
          res.metrics->CounterValue("pagecache.tag_disk_write_bytes", labels);
      if (r + wr == 0) continue;
      sources[src] = Volume{r, wr};
      total += r + wr;
    }
    for (const auto& [src, v] : sources) {
      const double frac = static_cast<double>(v.read + v.written) /
                          static_cast<double>(total);
      share[w][src] = frac;
      table.AddRow({workloads::WorkloadShortName(w), src,
                    TextTable::Num(static_cast<double>(v.read) / 1e6, 0),
                    TextTable::Num(static_cast<double>(v.written) / 1e6, 0),
                    TextTable::Percent(frac)});
    }
  }
  std::fputs(table.ToString().c_str(), stdout);

  std::vector<std::pair<std::string, const core::ExperimentResult*>> obs;
  for (workloads::WorkloadKind w : workloads::AllWorkloads()) {
    const auto& res = grid.Get(w, factors);
    obs.emplace_back(res.label, &res);
  }
  core::WriteObsArtifacts(options, obs);

  using workloads::WorkloadKind;
  std::vector<core::ShapeCheck> checks;
  checks.push_back(core::ShapeCheck{
      "AGG demand is almost entirely input scanning",
      share[WorkloadKind::kAggregation]["hdfs-input"] > 0.9});
  const double ts_intermediate =
      share[WorkloadKind::kTeraSort]["map-spill"] +
      share[WorkloadKind::kTeraSort]["map-output"] +
      share[WorkloadKind::kTeraSort]["shuffle-run"];
  checks.push_back(core::ShapeCheck{
      "TS demand is dominated by intermediate data (spill+output+runs)",
      ts_intermediate > 0.4});
  checks.push_back(core::ShapeCheck{
      "TS output replication shows up as hdfs-output demand",
      share[WorkloadKind::kTeraSort]["hdfs-output"] > 0.05});
  checks.push_back(core::ShapeCheck{
      "KM demand is input re-scanning (iterations)",
      share[WorkloadKind::kKMeans]["hdfs-input"] > 0.8});
  checks.push_back(core::ShapeCheck{
      "PR shows all source classes (state + contributions)",
      share[WorkloadKind::kPageRank].size() >= 3});
  return core::PrintShapeChecks(checks);
}
