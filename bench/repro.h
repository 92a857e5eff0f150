#ifndef BDIO_BENCH_REPRO_H_
#define BDIO_BENCH_REPRO_H_

#include <functional>
#include <string>
#include <vector>

#include "core/report.h"

namespace bdio::bench {

/// One section of the paper's results (a table or a figure): a grid of the
/// four workloads over a few factor levels, printed as the paper reports
/// it, then judged by the paper's qualitative claims as shape checks.
struct Section {
  std::string id;       ///< "Figure 7"
  std::string caption;  ///< Paper caption paraphrase.
  std::vector<core::Factors> levels;  ///< Factor levels the section reads.

  /// Prints the section's body (everything between the header and the
  /// shape checks) from the completed grid and returns its shape checks.
  std::function<std::vector<core::ShapeCheck>(
      core::GridRunner&, const core::BenchOptions&,
      const std::vector<core::Factors>&)>
      body;
};

/// The paper's results in paper order: Table 3, Figures 1-12, Tables 5-7.
const std::vector<Section>& PaperSections();

/// Every distinct factor setting the sections read, in first-use order
/// (five settings; with four workloads, the paper's 20 cells).
std::vector<core::Factors> PaperLevels();

/// Reproduces the whole paper: submits every section's cells to one
/// GridRunner (each distinct cell simulates once), prints each section —
/// header, body, shape checks — in registry order, then writes the
/// artifacts the options ask for: metrics over every cell, the span trace
/// and blktrace of the first cell. `run` overrides the experiment executor
/// (tests inject stubs). Returns the total number of failed checks.
int RunPaper(core::BenchOptions options, core::GridRunner::RunFn run = {});

}  // namespace bdio::bench

#endif  // BDIO_BENCH_REPRO_H_
