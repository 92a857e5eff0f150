#ifndef BDIO_MAPREDUCE_ENGINE_H_
#define BDIO_MAPREDUCE_ENGINE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/inline_fn.h"
#include "common/random.h"
#include "common/status.h"
#include "hdfs/hdfs.h"
#include "mapreduce/job.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/scheduler.h"

namespace bdio::mapreduce {

/// Result callback of a simulated job.
using JobCallback = std::function<void(Status, const JobCounters&)>;

/// Engine-wide observer of every job completion (success or failure).
/// Fired after the job's own JobCallback, in the same scheduled event, so a
/// hook sees the world after any chained submission the callback performed.
using JobCompletionHook =
    std::function<void(uint32_t job_id, const Status&, const JobCounters&)>;

/// Engine-wide fault-tolerance policy (the JobTracker side of Hadoop's
/// mapred.max.tracker.failures / blacklist machinery). Per-job knobs —
/// attempt budgets, backoff, max_failures_percent — live on SimJobSpec.
struct FaultToleranceConfig {
  /// Task failures on a node before it is blacklisted (excluded from map,
  /// speculative, and reduce placement; running tasks are not killed).
  uint32_t blacklist_strikes = 3;
  /// A blacklisted node rejoins the placement pool after this window and
  /// its strike count resets (Hadoop's day-scale decay, compressed).
  SimDuration blacklist_decay = Seconds(60);
};

/// The Hadoop-1 execution engine simulator: a JobTracker with per-node
/// map/reduce slots, locality-aware split scheduling, map-side sort/spill/
/// merge on the intermediate-data disks, slow-start shuffle with bounded
/// parallel copies, reduce-side merge runs, and HDFS output writes.
///
/// All volumes are modelled (no real keys move); the *I/O structure* — which
/// files, which disks, which sizes, which order — follows Hadoop 1.0.4.
///
/// The engine is multi-tenant: any number of jobs may be in flight at once,
/// contending for the shared TaskTracker slot pool (and, below it, the same
/// page caches, elevator queues, disks, and links). Every freed slot is
/// offered to the attached sched::Scheduler policy, which picks the job to
/// serve; the default policy is FIFO (Hadoop's JobQueueTaskScheduler), under
/// which a single job schedules exactly as the pre-multi-tenant engine did.
class MrEngine {
 public:
  MrEngine(cluster::Cluster* cluster, hdfs::Hdfs* hdfs,
           const SlotConfig& slots, Rng rng);
  ~MrEngine();

  MrEngine(const MrEngine&) = delete;
  MrEngine& operator=(const MrEngine&) = delete;

  /// Replaces the slot-scheduling policy (not owned; must outlive the
  /// engine). Call before submitting jobs.
  void SetScheduler(sched::Scheduler* scheduler);
  sched::Scheduler* scheduler() const { return sched_; }

  /// Submits a job; `done` fires when it completes. Jobs submitted while
  /// others run contend for slots under the attached policy. `pool` and
  /// `weight` feed fair-share policies. Returns the engine-assigned job id
  /// (monotone in submission order).
  uint32_t SubmitJob(const SimJobSpec& spec, JobCallback done,
                     const std::string& pool = "default",
                     double weight = 1.0);

  /// Single-job compatibility name; jobs may be chained from the callback
  /// (iterative workloads).
  void RunJob(const SimJobSpec& spec, JobCallback done) {
    SubmitJob(spec, std::move(done));
  }

  /// Registers an engine-wide completion observer: `hook` fires once per
  /// submitted job, after that job's own callback, with the engine-assigned
  /// job id — including the early failure paths (missing/empty input).
  /// Hooks run in registration order and must not be unregistered; drivers
  /// layered on the engine (src/dag) and tests use them for cross-job
  /// bookkeeping without wrapping every JobCallback.
  void AddJobCompletionHook(JobCompletionHook hook);

  /// Simulates a TaskTracker failure at the current instant (Hadoop-1 fault
  /// handling): the node receives no further tasks, its in-flight tasks'
  /// results are discarded on completion and rescheduled elsewhere, its
  /// completed map outputs become unavailable and their maps re-execute,
  /// and its running reducers restart on other nodes. Approximations: I/O
  /// already queued on the dead node still drains (wasted work), and
  /// reducers that already copied segments of a lost output re-fetch the
  /// re-executed one. Affects every job in flight.
  void InjectNodeFailure(uint32_t node);
  bool node_failed(uint32_t node) const { return node_dead_[node]; }

  /// Crashes every running map attempt on `node` at the current instant
  /// (the crash-task fault verb): each attempt aborts at its next chunk
  /// boundary as a FAILED attempt — it charges the task's attempt budget,
  /// strikes the node toward blacklisting, and re-queues the split after a
  /// deterministic exponential backoff. The node itself stays alive.
  void InjectTaskCrash(uint32_t node);

  /// Replaces the blacklist policy. Call before submitting jobs.
  void SetFaultTolerance(const FaultToleranceConfig& config) {
    ft_config_ = config;
  }
  const FaultToleranceConfig& fault_tolerance() const { return ft_config_; }
  bool node_blacklisted(uint32_t node) const {
    return node_blacklisted_[node];
  }

  // Engine-wide fault-tolerance totals (per-job figures live in
  // JobCounters); mirrored into mr.retry.* / mr.reexec.* when a registry
  // is attached.
  uint64_t task_failures() const { return task_failures_; }
  uint64_t retries_scheduled() const { return retries_scheduled_; }
  uint64_t maps_reexecuted() const { return maps_reexecuted_; }
  uint64_t reexec_read_bytes() const { return reexec_read_bytes_; }
  uint64_t reexec_write_bytes() const { return reexec_write_bytes_; }
  uint64_t wasted_work_bytes() const { return wasted_work_bytes_; }
  uint64_t nodes_blacklisted() const { return nodes_blacklisted_; }
  uint64_t splits_abandoned() const { return splits_abandoned_; }

  // Engine-wide speculative-execution totals (per-job figures live in
  // JobCounters). Plain fields so benches and tests read them without a
  // metrics registry; mirrored into mr.speculative.* when one is attached.
  uint64_t speculative_launched() const { return speculative_launched_; }
  uint64_t speculative_killed() const { return speculative_killed_; }
  /// Backup attempts currently running across all jobs.
  uint32_t speculative_running() const;
  uint64_t speculative_wasted_bytes() const {
    return speculative_wasted_bytes_;
  }

  /// Cluster-wide tasks currently executing (for timeline sampling).
  uint32_t running_maps() const { return running_maps_; }
  uint32_t running_reduces() const { return running_reduces_; }

  /// Unoccupied map slots across live nodes (test/bench introspection).
  uint32_t free_map_slot_count() const;

  /// Map attempts stranded on failed nodes whose queued I/O has not yet
  /// drained (their completions will be discarded). Test/bench
  /// introspection.
  uint32_t stale_map_attempts() const;

  /// Jobs submitted but not yet finished.
  uint32_t active_jobs() const { return static_cast<uint32_t>(jobs_.size()); }

  const SlotConfig& slots() const { return slots_; }

  /// Cross-checks the JobTracker's bookkeeping (bdio::invariants): global
  /// running-task counters vs per-job recounts, per-job counters vs the
  /// live attempt lists, per-node slot conservation (free + occupied ==
  /// configured) on live nodes, and split-queue accounting. Returns ""
  /// when every invariant holds.
  std::string AuditInvariants() const;

  /// Attaches observability sinks (either may be null): tasks and MR phases
  /// (spill, merge pass, shuffle fetch) become spans, each task/fetch opens
  /// a trace flow carried down into the filesystem and network layers, and
  /// the registry gains spill counts, merge-pass widths, and shuffle bytes.
  /// Per-job attribution: every job gets "mr.job.*" counters labelled
  /// {job="<name>#<id>"} and its spans carry a "job" arg, so one trace
  /// holds one async-span tree per job.
  void AttachObs(obs::TraceSession* trace, obs::MetricsRegistry* metrics);

 private:
  struct Split {
    std::string path;  ///< HDFS file this split belongs to.
    uint64_t offset = 0;
    uint64_t bytes = 0;
    std::vector<uint32_t> hosts;
  };
  struct MapOutput {
    uint32_t node = 0;
    os::FileSystem* fs = nullptr;
    os::File* file = nullptr;
    uint64_t bytes = 0;
    size_t split_idx = 0;  ///< Split this output came from (re-execution).
  };
  struct RunFile {
    os::FileSystem* fs = nullptr;
    os::File* file = nullptr;
    uint64_t bytes = 0;
  };
  struct ReduceTask;
  struct MapTask;
  struct Job;
  struct RunCursor;
  struct MapMerge;
  struct ReduceMerge;

  /// How a map attempt leaves the engine. A live attempt checks its marks
  /// at each chunk boundary, preempted before cancelled before crashed; an
  /// attempt whose host is dead runs on and is lost when it reports in.
  enum class MapExit {
    kCommitted,
    kPreempted,
    kCancelled,
    kCrashed,
    kHostLost,
  };

  /// Offers free map slots (node-major, repeated passes) to the policy
  /// until no slot or no runnable map remains; leftover slots are then
  /// offered to stragglers as speculative backups.
  void DispatchMaps();
  /// Launches backup attempts for straggling maps of speculative jobs on
  /// the remaining free slots (Hadoop's speculative execution).
  void DispatchSpeculative();
  /// Offers free reduce slots to the policy, one queued reducer at a time.
  void DispatchReduces();
  /// Snapshot of every active job for the policy.
  std::vector<sched::JobSchedState> SchedStates() const;
  /// Fair-share preemption at admission: while `job` is starved of map
  /// slots, asks the policy for victims and reclaims their most recent
  /// map tasks (they abandon at the next chunk boundary).
  void MaybePreemptFor(const std::shared_ptr<Job>& job);

  void StartMapTask(std::shared_ptr<Job> job, uint32_t node,
                    size_t split_idx, bool speculative = false);
  /// Marks the split committed and cancels any rival attempt (it abandons
  /// at its next chunk boundary and its spills are deleted).
  void CommitMapAttempt(const std::shared_ptr<Job>& job,
                        const std::shared_ptr<MapTask>& mt);
  /// The one way a map attempt leaves the engine: releases its running
  /// counters, marks, list entry, span and flow, then does what `exit`
  /// alone does (docs/FAULTS.md, "How a map attempt exits").
  void RetireMapAttempt(std::shared_ptr<Job> job, std::shared_ptr<MapTask> mt,
                        MapExit exit);
  /// Chunk boundary: retires a live attempt marked preempted, cancelled or
  /// crashed (in that order) and returns true; false when it runs on.
  bool AbortAtBoundary(const std::shared_ptr<Job>& job,
                       const std::shared_ptr<MapTask>& mt);
  /// True when some live attempt of `split_idx` is still running.
  bool HasLiveAttempt(const Job& job, size_t split_idx,
                      const std::shared_ptr<MapTask>& except) const;
  /// True when `split_idx` needs no new attempt: it is committed, or a live
  /// attempt other than `except` still runs it.
  bool SplitSettled(const Job& job, size_t split_idx,
                    const std::shared_ptr<MapTask>& except) const;
  /// Puts `split_idx` back on the job's global queue.
  void RequeueSplit(Job& job, size_t split_idx);
  /// Charges `bytes` of lost work to the wasted-work counters.
  void ChargeWasted(Job& job, uint64_t bytes);
  /// Charges `bytes` an attempt that lost a commit race did for nothing:
  /// speculative waste, or wasted work when the job is failing.
  void ChargeDuplicate(Job& job, uint64_t bytes);
  /// Charges an input read of `bytes` (and its re-execution share).
  void ChargeInputRead(Job& job, const MapTask& mt, uint64_t bytes);
  void MapReadLoop(std::shared_ptr<Job> job, std::shared_ptr<MapTask> mt);
  void MapProcessChunk(std::shared_ptr<Job> job, std::shared_ptr<MapTask> mt,
                       uint64_t chunk_bytes);
  void MapSpill(std::shared_ptr<Job> job, std::shared_ptr<MapTask> mt,
                InlineFn then);
  void MapFinish(std::shared_ptr<Job> job, std::shared_ptr<MapTask> mt);
  /// Parks `split_idx` for a capped exponential backoff, then re-queues it.
  void ParkSplit(std::shared_ptr<Job> job, size_t split_idx);
  /// Gives up on `split_idx` (budget exhausted, within the job's
  /// max_failures_percent allowance): the split counts as done with no
  /// output, so the job commits with partial input.
  void AbandonSplit(const std::shared_ptr<Job>& job, size_t split_idx);
  /// Budget exhausted beyond the allowance: the job transitions to failing
  /// — every other unfinished split is written off, running attempts are
  /// cancelled, and MaybeFinishJob reports ResourceExhausted once the
  /// drain completes.
  void FailJob(const std::shared_ptr<Job>& job, size_t split_idx);
  /// Charges a task failure against `node`; blacklists it at the strike
  /// threshold and arms the decay timer.
  void StrikeNode(uint32_t node);

  void MaybeStartReducers(std::shared_ptr<Job> job);
  void PumpShuffle(std::shared_ptr<Job> job, std::shared_ptr<ReduceTask> rt);
  void ReduceSpill(std::shared_ptr<Job> job, std::shared_ptr<ReduceTask> rt,
                   InlineFn then);
  void MaybeFinishShuffle(std::shared_ptr<Job> job,
                          std::shared_ptr<ReduceTask> rt);
  void ReduceMergeAndRun(std::shared_ptr<Job> job,
                         std::shared_ptr<ReduceTask> rt);
  void OnReduceDone(std::shared_ptr<Job> job,
                    std::shared_ptr<ReduceTask> rt);
  void MaybeFinishJob(std::shared_ptr<Job> job);
  /// Runs every registered completion hook for a finished job.
  void FireCompletionHooks(uint32_t job_id, const Status& status,
                           const JobCounters& counters);

  cluster::Cluster* cluster_;
  hdfs::Hdfs* hdfs_;
  SlotConfig slots_;
  Rng rng_;
  std::vector<uint32_t> free_map_slots_;
  std::vector<uint32_t> free_reduce_slots_;
  /// Set once per node by InjectNodeFailure and never cleared; an attempt
  /// whose node is dead is lost.
  std::vector<bool> node_dead_;
  FaultToleranceConfig ft_config_;
  std::vector<uint32_t> node_strikes_;    ///< Failures since last decay.
  std::vector<bool> node_blacklisted_;
  std::vector<std::shared_ptr<Job>> jobs_;  ///< Active, admission order.
  uint32_t next_job_id_ = 0;
  uint32_t running_maps_ = 0;
  uint32_t running_reduces_ = 0;
  uint64_t file_seq_ = 0;  ///< Unique local-file naming across jobs.
  uint64_t speculative_launched_ = 0;
  uint64_t speculative_killed_ = 0;
  uint64_t speculative_wasted_bytes_ = 0;
  uint64_t task_failures_ = 0;
  uint64_t retries_scheduled_ = 0;
  uint64_t maps_reexecuted_ = 0;
  uint64_t reexec_read_bytes_ = 0;
  uint64_t reexec_write_bytes_ = 0;
  uint64_t wasted_work_bytes_ = 0;
  uint64_t nodes_blacklisted_ = 0;
  uint64_t splits_abandoned_ = 0;
  /// Backoff jitter stream, forked from the engine seed at construction so
  /// draws happen in deterministic sim-event order (never the wall clock).
  Rng retry_rng_;

  std::unique_ptr<sched::Scheduler> default_sched_;  ///< FIFO.
  sched::Scheduler* sched_;  ///< Never null; defaults to default_sched_.
  std::vector<JobCompletionHook> completion_hooks_;

  // Observability sinks; null (the default) keeps task paths at one pointer
  // test per site.
  obs::TraceSession* trace_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* m_map_spills_ = nullptr;
  obs::Counter* m_reduce_spills_ = nullptr;
  obs::Counter* m_shuffle_bytes_ = nullptr;
  obs::Counter* m_preempted_maps_ = nullptr;
  obs::Counter* m_spec_launched_ = nullptr;
  obs::Counter* m_spec_killed_ = nullptr;
  obs::Counter* m_spec_wasted_ = nullptr;
  obs::Counter* m_retry_failures_ = nullptr;
  obs::Counter* m_retry_scheduled_ = nullptr;
  obs::Counter* m_retry_blacklisted_ = nullptr;
  obs::Counter* m_retry_abandoned_ = nullptr;
  obs::Counter* m_retry_wasted_ = nullptr;
  obs::Counter* m_reexec_maps_ = nullptr;
  obs::Counter* m_reexec_read_ = nullptr;
  obs::Counter* m_reexec_write_ = nullptr;
  obs::Histogram* m_merge_width_ = nullptr;
};

/// Streams `total` bytes into `file` in `chunk`-sized appends; `cb` fires
/// when the last append is accepted. When `trace`/`flow` are given, every
/// step runs under that trace flow so downstream layers stay linked.
void AppendStream(sim::Simulator* sim, os::FileSystem* fs, os::File* file,
                  uint64_t total, uint64_t chunk, InlineFn cb,
                  obs::TraceSession* trace = nullptr, uint64_t flow = 0);

/// Streams a read of [offset, offset+total) in `chunk`-sized requests.
void ReadStream(sim::Simulator* sim, os::FileSystem* fs, os::File* file,
                uint64_t offset, uint64_t total, uint64_t chunk, InlineFn cb,
                obs::TraceSession* trace = nullptr, uint64_t flow = 0);

}  // namespace bdio::mapreduce

#endif  // BDIO_MAPREDUCE_ENGINE_H_
