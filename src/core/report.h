#ifndef BDIO_CORE_REPORT_H_
#define BDIO_CORE_REPORT_H_

#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/table.h"
#include "core/experiment.h"
#include "core/runner/thread_pool.h"
#include "iostat/iostat.h"

namespace bdio::core {

/// Command-line options shared by every bench binary.
struct BenchOptions {
  double scale = 1.0 / 128;
  uint64_t seed = 42;
  uint32_t num_workers = 10;
  uint32_t jobs = 0;      ///< Parallel simulations; 0 = BDIO_JOBS env var,
                          ///< else hardware_concurrency.
  bool csv = false;       ///< Also dump full per-second series as CSV.
  bool calibrate = false; ///< Measure volume ratios with the real engine.
  std::string outdir;     ///< If set, write per-series CSV files here.
  /// If set, write a Chrome/Perfetto trace of one experiment here.
  std::string trace_out;
  /// If set, dump every experiment's metrics registry here (.csv => CSV,
  /// anything else => JSON).
  std::string metrics_out;
  /// If set, write the binary block-layer Q/M/D/C lifecycle trace of one
  /// experiment here (analyze with tools/bdio-blkparse; docs/BLKTRACE.md).
  std::string blktrace_out;
  /// Experiment label to trace when trace_out/blktrace_out is set; empty =
  /// the bench's first grid cell (set by the bench, not a flag).
  std::string trace_label;

  /// Parses --scale=<den|frac>, --seed=, --workers=, --jobs=N, --csv,
  /// --calibrate, --outdir=<dir>, --trace-out=<file>, --metrics-out=<file>,
  /// --blktrace-out=<file> (the last three also read the BDIO_TRACE_OUT /
  /// BDIO_METRICS_OUT / BDIO_BLKTRACE_OUT env vars). Every flag that takes
  /// a value accepts both "--flag=V" and "--flag V".
  /// Numeric flag values are validated: a malformed or out-of-range
  /// --scale/--seed/--workers/--jobs aborts with exit code 2 instead of
  /// silently wrapping. Unknown flags abort with a usage message.
  static BenchOptions Parse(int argc, char** argv);

  /// Parse variant for benches with extra flags: `extra` sees each unknown
  /// flag first and returns true to claim it; unclaimed flags still abort.
  /// `extra_usage` is appended to --help output.
  static BenchOptions Parse(int argc, char** argv,
                            const std::function<bool(const std::string&)>&
                                extra,
                            const std::string& extra_usage);

  /// The worker-thread count `jobs` resolves to (see the field comment).
  uint32_t ResolvedJobs() const;

  ExperimentSpec MakeSpec(workloads::WorkloadKind workload,
                          const Factors& factors) const;
};

/// The three factor contexts the paper's figures use.
/// Slots figures: 16 GB nodes, intermediate data compressed.
std::vector<Factors> SlotsLevels();
/// Memory figures: 1_8 slots, intermediate data NOT compressed.
std::vector<Factors> MemoryLevels();
/// Compression figures: 1_8 slots, 32 GB nodes.
std::vector<Factors> CompressionLevels();

/// How a metric's time series is summarized into one number for the
/// comparison tables: bandwidth/util use the whole-run mean; ratio metrics
/// (await, wait, avgrq-sz, svctm) use the mean over active samples.
double Summarize(const GroupObservation& obs, iostat::Metric metric);
const TimeSeries& SeriesOf(const GroupObservation& obs,
                           iostat::Metric metric);

/// Runs the grid workloads x levels with memoization, executing up to
/// `options.jobs` simulations concurrently on a work-stealing pool.
///
/// The cache maps `Factors::Label(workload)` to a per-key shared future:
/// the first Prefetch/Get for a key submits the simulation, every later
/// call joins the same in-flight future, so two figures (or two threads)
/// never simulate the same grid point twice. Results are immutable once
/// published; references returned by Get stay valid for the runner's
/// lifetime.
class GridRunner {
 public:
  /// `run` overrides the experiment executor (tests inject counters/stubs);
  /// the default is RunExperiment.
  using RunFn = std::function<Result<ExperimentResult>(const ExperimentSpec&)>;
  explicit GridRunner(const BenchOptions& options, RunFn run = {});

  /// Submits the experiment to the pool if neither cached nor in flight.
  /// Returns immediately; a later Get joins the result.
  void Prefetch(workloads::WorkloadKind workload, const Factors& factors);

  /// Submits every workload x level grid point (workload-major, the order
  /// figures print) so the whole grid runs concurrently.
  void PrefetchAll(const std::vector<Factors>& levels);

  /// Returns the experiment result, running it (or waiting for the
  /// in-flight run) if needed. Aborts the process if the experiment failed.
  const ExperimentResult& Get(workloads::WorkloadKind workload,
                              const Factors& factors);

 private:
  // The Result travels through the future so a failed experiment aborts on
  // the caller thread in Get(), at a well-defined point in output order —
  // not from a pool worker mid-print. shared_future::get() returns a
  // reference into the shared state, which the cache keeps alive, so
  // results returned by Get are reference-stable.
  using Entry = std::shared_future<Result<ExperimentResult>>;
  Entry EntryFor(workloads::WorkloadKind workload, const Factors& factors);

  BenchOptions options_;
  RunFn run_;
  runner::ThreadPool pool_;
  std::mutex mu_;
  std::map<std::string, Entry> cache_;
};

/// One shape expectation derived from the paper, checked against measured
/// values. Benches print all checks and a final verdict line.
struct ShapeCheck {
  std::string description;
  bool pass = false;
};

/// Prints the checks and a "SHAPE: k/n checks hold" footer; returns the
/// number of failed checks.
int PrintShapeChecks(const std::vector<ShapeCheck>& checks);

/// True if |a-b| <= tol * max(|a|,|b|, floor) — "the factor has little
/// effect on this metric".
bool RoughlyEqual(double a, double b, double rel_tol, double floor = 1.0);

/// Prints a figure header: id, paper caption, factor context, scale.
void PrintFigureHeader(const std::string& id, const std::string& caption,
                       const BenchOptions& options);

/// Dumps one labeled series as CSV ("# <label>" then time,value lines).
void PrintSeriesCsv(const std::string& label, const TimeSeries& series);

/// Writes one series to `<outdir>/<name>.csv` (slashes and spaces in the
/// name are sanitized). Creates the directory if missing. Returns the
/// written path.
std::string WriteSeriesCsv(const std::string& outdir, const std::string& name,
                           const TimeSeries& series);

/// Writes the observability artifacts the options ask for (no-op when none
/// of --trace-out/--metrics-out/--blktrace-out is set): the first result
/// carrying a trace is written as Chrome trace-event JSON to
/// options.trace_out, the first result carrying a blktrace is written as
/// the binary lifecycle artifact to options.blktrace_out, and every
/// result's metrics registry is dumped to options.metrics_out (CSV when
/// the path ends in ".csv", else a JSON document keyed by label). Prints
/// one "wrote ..." line per file.
void WriteObsArtifacts(
    const BenchOptions& options,
    const std::vector<std::pair<std::string, const ExperimentResult*>>&
        results);

}  // namespace bdio::core

#endif  // BDIO_CORE_REPORT_H_
