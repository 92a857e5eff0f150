#ifndef BDIO_CORE_EXPERIMENT_H_
#define BDIO_CORE_EXPERIMENT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/time_series.h"
#include "common/units.h"
#include "iostat/iostat.h"
#include "mapreduce/job.h"
#include "obs/blktrace.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workloads/profile.h"

namespace bdio::core {

/// The paper's three experimental factors.
struct Factors {
  mapreduce::SlotConfig slots = mapreduce::SlotConfig::Paper_1_8();
  uint64_t memory_bytes = GiB(16);  ///< Paper-scale node memory (16G/32G).
  bool compress_intermediate = false;

  /// "AGG_1_8_16G_off"-style label.
  std::string Label(workloads::WorkloadKind workload) const;
  std::string MemoryLabel() const;
  const char* CompressionLabel() const {
    return compress_intermediate ? "on" : "off";
  }
};

/// One full experiment: a workload under a factor setting on the simulated
/// testbed.
struct ExperimentSpec {
  workloads::WorkloadKind workload = workloads::WorkloadKind::kTeraSort;
  Factors factors;

  /// Scale applied to dataset sizes and node memory. The default keeps
  /// every figure's sweep within seconds of wall time.
  double scale = 1.0 / 128;
  uint32_t num_workers = 10;
  uint64_t seed = 42;
  SimDuration iostat_interval = Seconds(1);
  uint32_t kmeans_iterations = 3;
  uint32_t pagerank_iterations = 3;
  /// If > 0, PageRank converges on the model run's rank delta instead of
  /// running a fixed iteration count (see PlanOptions::pagerank_epsilon).
  double pagerank_epsilon = 0;
  /// Calibrate volume ratios with the functional engine instead of the
  /// baked-in defaults (slower, exercises the full pipeline).
  bool calibrate = false;

  // --- Testbed overrides (ablation studies) -----------------------------
  std::string io_scheduler = "deadline";
  uint32_t num_hdfs_disks = 3;
  uint32_t num_mr_disks = 3;
  uint64_t readahead_max_bytes = MiB(1);
  SimDuration writeback_period = Seconds(5);
  uint32_t ncq_depth = 1;
  /// Replace the intermediate-data spindles with 2013-era SATA SSDs.
  bool ssd_intermediate = false;

  // --- Hadoop tuning overrides (0 / negative = keep the plan default) ----
  uint64_t sort_buffer_bytes = 0;   ///< io.sort.mb.
  uint32_t parallel_copies = 0;     ///< mapred.reduce.parallel.copies.
  double reduce_slowstart = -1.0;   ///< mapred.reduce.slowstart.

  /// Record a cross-layer I/O lifecycle trace (spans + flow events) of this
  /// run, returned in ExperimentResult::trace. Off by default: tracing
  /// never perturbs the simulation, but event storage is proportional to
  /// simulated I/O.
  bool collect_trace = false;

  /// Record a block-layer Q/M/D/C lifecycle trace of every data disk
  /// (docs/BLKTRACE.md), returned in ExperimentResult::blktrace. Off by
  /// default for the same reason as collect_trace; recording never
  /// perturbs the simulation. Each device's ring holds
  /// obs::BlktraceSession::kDefaultMaxRecordsPerDevice records; overwrites
  /// are counted in the "blktrace.dropped_records" registry counter.
  bool collect_blktrace = false;
};

/// Per-disk-class observation of one run: every iostat metric as a
/// time series of per-disk means, plus the utilization tail statistics.
struct GroupObservation {
  TimeSeries read_mbps;
  TimeSeries write_mbps;
  TimeSeries util;
  TimeSeries await_ms;
  TimeSeries svctm_ms;
  TimeSeries wait_ms;
  TimeSeries avgrq_sz;

  double util_above_90 = 0;
  double util_above_95 = 0;
  double util_above_99 = 0;

  /// Peak of the per-disk mean read bandwidth (Table 5's statistic).
  double peak_read_mbps = 0;
};

/// Physical bytes attributed to one I/O-demand source.
struct IoSourceVolumes {
  uint64_t disk_read_bytes = 0;
  uint64_t disk_write_bytes = 0;

  uint64_t total() const { return disk_read_bytes + disk_write_bytes; }
};

/// Everything measured from one experiment.
struct ExperimentResult {
  std::string label;
  double duration_s = 0;
  /// Simulator events executed by this run — the denominator of the
  /// events/sec trajectory tracked by bench/perf_events (BENCH_perf.json).
  /// Deterministic: a pure function of the spec, byte-identical across
  /// hosts and --jobs levels.
  uint64_t events_processed = 0;
  GroupObservation hdfs;
  GroupObservation mr;
  std::vector<mapreduce::JobCounters> jobs;

  /// Cluster-wide physical I/O per high-level demand source (IoTag name) —
  /// the attribution the paper's conclusion proposes as future work.
  std::map<std::string, IoSourceVolumes> io_sources;

  /// Cluster-mean CPU utilization per interval (fraction of all cores in
  /// use) — the basis of Table 3's CPU-bound / I/O-bound classification.
  TimeSeries cpu_util;

  /// Task-concurrency timeline (JobTracker-history style): executing map
  /// and reduce tasks sampled per interval.
  TimeSeries maps_running;
  TimeSeries reduces_running;

  /// Unified metrics registry of the run (always populated): page-cache,
  /// scheduler, disk, HDFS, MR, and network instruments.
  std::shared_ptr<obs::MetricsRegistry> metrics;

  /// Chrome-trace session of the run; null unless spec.collect_trace.
  std::shared_ptr<obs::TraceSession> trace;

  /// Block-layer lifecycle trace of every data disk; null unless
  /// spec.collect_blktrace.
  std::shared_ptr<obs::BlktraceSession> blktrace;

  const GroupObservation& group(const std::string& name) const {
    return name == "hdfs" ? hdfs : mr;
  }
};

/// Builds the simulated testbed, runs the workload plan to completion
/// (including trailing writeback), and extracts the observations.
Result<ExperimentResult> RunExperiment(const ExperimentSpec& spec);

}  // namespace bdio::core

#endif  // BDIO_CORE_EXPERIMENT_H_
