#ifndef BDIO_CHECK_INVARIANTS_H_
#define BDIO_CHECK_INVARIANTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/units.h"
#include "dag/job_dag.h"
#include "hdfs/hdfs.h"
#include "mapreduce/engine.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace bdio::invariants {

/// Checker tuning. The cheap clock check runs after every event; the full
/// cross-subsystem audit runs every `audit_interval` events (and once at
/// detach), bounding the overhead on large simulations.
struct CheckerConfig {
  uint64_t audit_interval = 2048;
  /// Abort the process on a violation (the default — a violated invariant
  /// means later results are garbage). Tests set this false and poll
  /// last_violation() instead.
  bool fatal = true;
};

/// Debug-mode runtime invariant checker (docs/STATIC_ANALYSIS.md). Hooks
/// the simulator's post-event callback and cross-checks the watched
/// subsystems' internal accounting:
///
///  - simulated time never moves backwards across events;
///  - page cache: dirty/clean/writeback unit recounts, LRU consistency,
///    writeback-inflight cap, capacity vs eviction (PageCache audit);
///  - disks: in_flight vs elevator+NCQ+service recount, io_ticks bounded
///    by elapsed time (utilization <= 1) (BlockDevice audit);
///  - HDFS: replica holders distinct/live/in-range, counts within
///    [0, replication], quarantined replicas excluded, re-replication
///    stream cap (Hdfs audit);
///  - MapReduce: running-task counters vs attempt lists, per-node slot
///    conservation (MrEngine audit);
///  - JobDag: no orphaned intermediate blocks after a round is retired,
///    iteration counters monotone across audits (JobDag audit);
///  - metrics: per-IoTag physical-byte attribution is complete — the
///    tagged pagecache counters sum to the untagged totals.
///
/// Every check is read-only: an attached checker performs no allocation in
/// the simulation's control flow, schedules no events, and draws no random
/// numbers, so checked runs remain byte-identical to unchecked runs. This
/// is the contract `Simulator::SetPostEventHook` documents; it is what
/// makes the CI chaos smoke's checked-vs-unchecked `cmp` sound.
///
/// The hook fires after the event's node has already been recycled (the
/// kernel frees pooled EventNodes before invoking callbacks — see
/// src/sim/event_pool.h and docs/PERFORMANCE.md), so audits must only read
/// subsystem state through the Watch* pointers, never simulator queue
/// internals.
class InvariantChecker {
 public:
  /// Attaches to `sim`'s post-event hook. The checker must outlive neither
  /// the simulator nor any watched subsystem; destroy it (or the sim)
  /// before the subsystems it watches.
  explicit InvariantChecker(sim::Simulator* sim, CheckerConfig config = {});
  ~InvariantChecker();

  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  // Watch*: register subsystems to audit. All optional; unwatched
  // subsystems are skipped.
  void WatchCluster(cluster::Cluster* cluster) { cluster_ = cluster; }
  void WatchHdfs(hdfs::Hdfs* hdfs) { hdfs_ = hdfs; }
  void WatchEngine(mapreduce::MrEngine* engine) { engine_ = engine; }
  /// Registered by dag-driving runners after MaybeAttachFromEnv (a dag is
  /// constructed later than the core subsystems). Every dag registered is
  /// audited, in registration order.
  void WatchDag(const dag::JobDag* jobdag) { dags_.push_back(jobdag); }
  void WatchMetrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Runs the full audit immediately (aborts or records per config.fatal).
  void CheckNow();

  uint64_t events_checked() const { return events_checked_; }
  uint64_t audits_run() const { return audits_run_; }
  /// First violation seen (non-fatal mode); empty if none.
  const std::string& last_violation() const { return last_violation_; }

  /// True when BDIO_CHECK_INVARIANTS=1 is set in the environment.
  static bool EnabledFromEnv();

 private:
  void OnEvent();
  /// Runs every registered audit; returns the first violation or "".
  std::string RunAudit() const;
  void Report(const std::string& violation);

  sim::Simulator* sim_;
  CheckerConfig config_;
  cluster::Cluster* cluster_ = nullptr;
  hdfs::Hdfs* hdfs_ = nullptr;
  mapreduce::MrEngine* engine_ = nullptr;
  std::vector<const dag::JobDag*> dags_;
  obs::MetricsRegistry* metrics_ = nullptr;
  SimTime last_now_;
  uint64_t events_checked_ = 0;
  uint64_t audits_run_ = 0;
  std::string last_violation_;
};

/// Convenience wiring used by core::RunExperiment and the benches: returns
/// an attached checker watching everything when BDIO_CHECK_INVARIANTS=1,
/// nullptr otherwise. Any watched pointer may be null.
std::unique_ptr<InvariantChecker> MaybeAttachFromEnv(
    sim::Simulator* sim, cluster::Cluster* cluster, hdfs::Hdfs* hdfs,
    mapreduce::MrEngine* engine, obs::MetricsRegistry* metrics);

}  // namespace bdio::invariants

#endif  // BDIO_CHECK_INVARIANTS_H_
