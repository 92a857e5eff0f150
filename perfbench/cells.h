#ifndef BDIO_PERFBENCH_CELLS_H_
#define BDIO_PERFBENCH_CELLS_H_

// The benchmark's workloads: fixed batches of simulation cells, each put
// together from the same public calls core::RunExperiment makes, so that
// set-up, the event loop and result extraction are timed apart.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "spans.h"

namespace perfbench {

/// Host seconds spent in each phase of one cell (or summed over cells).
struct PhaseTimes {
  double plan_s = 0;      ///< Workload plan and functional model.
  double bringup_s = 0;   ///< Simulator, cluster, HDFS, engine, dag, sinks.
  double preload_s = 0;   ///< Input dataset materialized in HDFS.
  double arm_s = 0;       ///< Dag submitted and fault plan armed.
  double loop_s = 0;      ///< Inside Simulator::Run.
  double extract_s = 0;   ///< iostat series and counters read back.
  double teardown_s = 0;  ///< Testbed destroyed.

  double setup_s() const { return plan_s + bringup_s + preload_s + arm_s; }
};

/// Named numbers, in a fixed order.
using Fields = std::vector<std::pair<std::string, double>>;

struct CellResult {
  std::string label;
  bool ok = false;
  std::string error;   ///< Why the cell failed ("" when ok).
  std::string digest;  ///< Of the simulated outputs; event count excluded.
  uint64_t events = 0;
  double sim_s = 0;
  PhaseTimes times;
  /// Host seconds before the first event: this run's, then one per
  /// set-up-only pass.
  std::vector<double> setup_samples;
};

/// One run of a workload: every cell once, plus the per-layer counts of
/// the whole batch (deterministic: a function of workload and seed).
struct WorkloadRun {
  std::vector<CellResult> cells;
  Fields layers;
};

/// The benchmark's workloads, in presentation order.
std::vector<std::string> WorkloadNames();

/// Cell labels of `workload`; empty when the name is unknown.
std::vector<std::string> CellLabels(const std::string& workload);

/// Runs every cell of `workload` once, on inputs made from `seed`, then
/// sets every cell up again without running its loop, pass after pass,
/// for about `setup_budget_s` host seconds.
WorkloadRun RunWorkload(const std::string& workload, uint64_t seed,
                        double setup_budget_s, SpanLog* spans);

/// Runs the first cell of `workload` through the benchmark's own bring-up
/// and through core::RunExperiment on the same spec, and names every field
/// whose values differ (event count and metrics registry included). Only
/// workloads made of RunExperiment cells have a parity cell.
std::vector<std::string> ParityMismatches(const std::string& workload,
                                          uint64_t seed);

}  // namespace perfbench

#endif  // BDIO_PERFBENCH_CELLS_H_
