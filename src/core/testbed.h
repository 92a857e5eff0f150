#ifndef BDIO_CORE_TESTBED_H_
#define BDIO_CORE_TESTBED_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/invariants.h"
#include "cluster/cluster.h"
#include "common/random.h"
#include "common/status.h"
#include "common/units.h"
#include "core/experiment.h"
#include "dag/job_dag.h"
#include "faults/injector.h"
#include "hdfs/hdfs.h"
#include "iostat/iostat.h"
#include "mapreduce/engine.h"
#include "mapreduce/job.h"
#include "obs/blktrace.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace bdio::core {

/// The paper's worker node (Tables 1 and 2) with its memory-side quantities
/// scaled: `memory_bytes` of RAM (16G/32G at paper scale), 2 GiB of
/// daemons and 200 MiB task heaps, each times `scale`, and a 16 MiB page
/// cache floor; `workers` worker nodes. Disks and links stay unscaled.
cluster::ClusterParams ScaledClusterParams(uint64_t memory_bytes,
                                           double scale, uint32_t workers);

/// What one Testbed is built from.
struct TestbedSpec {
  cluster::ClusterParams cluster;
  mapreduce::SlotConfig slots = mapreduce::SlotConfig::Paper_1_8();
  bool trace = false;     ///< Record a span trace (obs::TraceSession).
  bool blktrace = false;  ///< Record a block trace of every data disk.
  bool faults = false;    ///< Build a FaultInjector over the stack.
};

/// One simulated testbed: the simulator, the cluster, HDFS and the
/// MapReduce engine, wired to one metrics registry, plus what a run asks
/// for on top (span trace, block trace, fault injector, iostat, job dags).
/// Under BDIO_CHECK_INVARIANTS=1 an invariant checker watches all of it.
///
/// The constructor forks `rng` three times, in order: cluster, HDFS,
/// engine. Members are declared in construction order; the checker comes
/// last, so it is destroyed first and its final audit still sees every
/// subsystem and dag alive.
class Testbed {
 public:
  Testbed(const TestbedSpec& spec, Rng rng);
  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  sim::Simulator& sim() { return sim_; }
  cluster::Cluster& cluster() { return cluster_; }
  hdfs::Hdfs& hdfs() { return hdfs_; }
  mapreduce::MrEngine& engine() { return engine_; }
  obs::MetricsRegistry& metrics() { return *metrics_; }
  /// Null unless the spec asked for a block trace.
  obs::BlktraceSession* blktrace() { return blktrace_.get(); }
  /// Null unless the spec asked for faults.
  faults::FaultInjector* injector() { return injector_.get(); }
  /// Null unless BDIO_CHECK_INVARIANTS=1.
  const invariants::InvariantChecker* checker() const {
    return checker_.get();
  }

  /// Materializes an input dataset in HDFS (no simulated time passes).
  Status Preload(const std::string& path, uint64_t bytes);

  /// Samples every data disk of every worker each `interval`, HDFS disks
  /// under the "hdfs" group and intermediate disks under "mr", and starts
  /// the monitor.
  iostat::Monitor& MonitorDisks(SimDuration interval);

  /// Builds a dag over this testbed, attached to the registry and, under
  /// BDIO_CHECK_INVARIANTS=1, watched by the invariant checker.
  dag::JobDag& AddDag(dag::DagSpec spec);

  /// Hands the run's registry and traces to `out`; they outlive the
  /// testbed.
  void ExportObs(ExperimentResult* out) const;

 private:
  sim::Simulator sim_;
  // Log lines emitted while this testbed lives carry its sim-time.
  sim::ScopedLogClock log_clock_;
  cluster::Cluster cluster_;
  hdfs::Hdfs hdfs_;
  mapreduce::MrEngine engine_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  std::shared_ptr<obs::TraceSession> trace_;
  std::shared_ptr<obs::BlktraceSession> blktrace_;
  std::unique_ptr<faults::FaultInjector> injector_;
  std::unique_ptr<iostat::Monitor> monitor_;
  std::vector<std::unique_ptr<dag::JobDag>> dags_;
  std::unique_ptr<invariants::InvariantChecker> checker_;
};

}  // namespace bdio::core

#endif  // BDIO_CORE_TESTBED_H_
