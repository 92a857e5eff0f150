#include "mapreduce/engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/io_tag.h"
#include "common/logging.h"
#include "sim/latch.h"

namespace bdio::mapreduce {

namespace {

/// Streaming granularity of task-side I/O (the DFS client / spill writer
/// works in buffers of this order).
constexpr uint64_t kTaskChunk = MiB(1);
/// Shuffle segment fetches use small buffers (the mapred-era fetcher reads
/// 64 KiB at a time) — one source of the MR disks' small-request pattern.
constexpr uint64_t kShuffleChunk = KiB(64);

/// A chunked stream of reads (or appends) over one file.
struct StreamState {
  os::FileSystem* fs = nullptr;
  os::File* file = nullptr;
  bool read = false;
  uint64_t offset = 0;
  uint64_t total = 0;
  uint64_t chunk = 0;
  uint64_t pos = 0;
  InlineFn cb;
  obs::TraceSession* trace = nullptr;
  uint64_t flow = 0;
};

void StreamStep(std::shared_ptr<StreamState> st) {
  if (st->pos >= st->total) {
    st->cb();
    return;
  }
  const uint64_t n = std::min(st->chunk, st->total - st->pos);
  obs::FlowScope flow_scope(st->trace, st->flow);
  auto next = [st, n] {
    st->pos += n;
    StreamStep(st);
  };
  if (st->read) {
    st->fs->Read(st->file, st->offset + st->pos, n, std::move(next));
  } else {
    st->fs->Append(st->file, n, std::move(next));
  }
}

void Stream(sim::Simulator* sim, StreamState state) {
  if (state.total == 0) {
    sim->ScheduleAfter(SimDuration{}, std::move(state.cb));
    return;
  }
  StreamStep(std::make_shared<StreamState>(std::move(state)));
}

}  // namespace

void AppendStream(sim::Simulator* sim, os::FileSystem* fs, os::File* file,
                  uint64_t total, uint64_t chunk, InlineFn cb,
                  obs::TraceSession* trace, uint64_t flow) {
  Stream(sim, {fs, file, /*read=*/false, 0, total, chunk, 0, std::move(cb),
               trace, flow});
}

void ReadStream(sim::Simulator* sim, os::FileSystem* fs, os::File* file,
                uint64_t offset, uint64_t total, uint64_t chunk, InlineFn cb,
                obs::TraceSession* trace, uint64_t flow) {
  Stream(sim, {fs, file, /*read=*/true, offset, total, chunk, 0,
               std::move(cb), trace, flow});
}

// ---------------------------------------------------------------------------
// Engine internals
// ---------------------------------------------------------------------------

struct MrEngine::MapTask {
  size_t split_idx = 0;
  uint32_t node = 0;
  bool local = false;
  bool preempted = false;  ///< Marked for reclaim; abandons at a boundary.
  bool speculative = false;  ///< A backup attempt for a straggling original.
  bool cancelled = false;  ///< Lost the commit race; abandons at a boundary.
  bool crashed = false;  ///< crash-task fault; fails at the next boundary.
  bool reexec = false;   ///< Re-executing a lost committed map (charging).
  SimTime start_time;  ///< Launch instant (straggler detection).
  std::string input_path;
  uint64_t split_bytes = 0;
  uint64_t split_offset = 0;
  uint64_t pos = 0;           ///< Input bytes consumed.
  uint64_t buffer_bytes = 0;  ///< Pre-codec intermediate in the sort buffer.
  std::vector<RunFile> spills;
  uint64_t span = 0;  ///< map-task trace span (0 when tracing is off).
  uint64_t flow = 0;  ///< Trace flow carried into every I/O of this task.
};

struct MrEngine::ReduceTask {
  uint32_t idx = 0;
  uint32_t node = 0;
  bool done = false;
  size_t next_output = 0;   ///< Next map output to fetch.
  uint32_t inflight = 0;    ///< Concurrent fetches.
  uint64_t mem_bytes = 0;   ///< Shuffled bytes held in memory.
  uint64_t fetched_bytes = 0;
  std::vector<RunFile> runs;
  bool merging = false;
  bool spilling = false;
  uint64_t span = 0;        ///< reduce-task trace span.
  uint64_t merge_span = 0;  ///< reduce-merge trace span.
  uint64_t flow = 0;        ///< Trace flow carried into every task I/O.
};

struct MrEngine::Job {
  uint32_t job_id = 0;
  uint64_t seq = 0;         ///< Admission order (the FIFO key).
  std::string pool = "default";
  double weight = 1.0;
  std::string obs_label;    ///< "<name>#<id>" on metrics labels / span args.
  SimJobSpec spec;
  JobCallback done;
  JobCounters counters;

  std::vector<Split> splits;
  std::vector<std::deque<size_t>> node_local;  ///< May hold started entries.
  std::deque<size_t> pending;                  ///< Global FIFO.
  std::vector<bool> started;
  /// Per split: a finished attempt has registered (or, for map-only jobs,
  /// claimed) the output. Later-finishing rival attempts are discarded.
  std::vector<bool> committed;
  /// Per split: waiting out a retry backoff (started stays true so the
  /// scheduler never sees a parked split as runnable).
  std::vector<bool> parked;
  /// Per split: FAILED (crashed) attempts charged against the budget.
  std::vector<uint32_t> split_failures;
  /// Per split: committed output was lost with its node; the re-execution
  /// attempt's input reads and spill writes charge mr.reexec.*.
  std::vector<bool> reexec;
  uint32_t unstarted_maps = 0;  ///< == count of splits with started == false.
  uint32_t parked_splits = 0;   ///< == count of splits with parked == true.
  /// Attempt budget exhausted beyond max_failures_percent: the job drains
  /// (remaining splits written off, attempts cancelled) and reports
  /// `failure` instead of OK.
  bool failing = false;
  Status failure = Status::OK();

  uint32_t maps_done = 0;
  uint32_t running_maps = 0;
  uint32_t preempt_marked = 0;  ///< Running maps marked for reclaim.
  uint32_t speculative_running = 0;  ///< Running backup attempts.
  uint32_t spec_preempt_marked = 0;  ///< Backups among preempt_marked.
  SimDuration map_duration;     ///< Sum over committed maps (mean baseline).
  std::vector<std::shared_ptr<MapTask>> running_map_tasks;
  std::vector<MapOutput> map_outputs;

  uint32_t num_reducers = 0;
  bool reducers_created = false;
  std::deque<std::shared_ptr<ReduceTask>> reduce_queue;  ///< Awaiting slots.
  std::vector<std::shared_ptr<ReduceTask>> reducers;     ///< Running/done.
  uint32_t reduces_done = 0;
  uint32_t running_reduces = 0;
  uint32_t map_outputs_written = 0;  ///< Map-only HDFS outputs completed.
  uint32_t next_reduce_node = 0;
  bool finished = false;
  uint64_t span = 0;  ///< Whole-job trace span (cluster row).

  // Per-job metric attribution, labelled {job="<name>#<id>"}; null when no
  // registry is attached.
  obs::Counter* m_spills = nullptr;
  obs::Counter* m_shuffle_bytes = nullptr;
  obs::Counter* m_hdfs_read = nullptr;
  obs::Counter* m_hdfs_write = nullptr;

  bool map_only() const { return spec.num_reduce_tasks == 0; }
};

/// Round-robin cursor over on-disk runs: each Next() takes the next
/// kTaskChunk slice of the first run, from the cursor on, that still holds
/// data.
struct MrEngine::RunCursor {
  explicit RunCursor(std::vector<RunFile> inputs)
      : runs(std::move(inputs)), pos(runs.size(), 0) {}

  /// The run the slice [*offset, *offset + *n) comes from; null (and the
  /// outputs untouched) once every run is drained.
  const RunFile* Next(uint64_t* offset, uint64_t* n) {
    for (size_t k = 0; k < runs.size(); ++k) {
      const size_t i = (next + k) % runs.size();
      if (pos[i] < runs[i].bytes) {
        next = i + 1;
        *offset = pos[i];
        *n = std::min(kTaskChunk, runs[i].bytes - pos[i]);
        pos[i] += *n;
        return &runs[i];
      }
    }
    return nullptr;
  }

  std::vector<RunFile> runs;
  std::vector<uint64_t> pos;
  size_t next = 0;
};

/// Map-side merge of an attempt's spills into one map-output file: each
/// chunk read from the spills is appended to the output before the next.
struct MrEngine::MapMerge : std::enable_shared_from_this<MapMerge> {
  MapMerge(MrEngine* e, std::shared_ptr<Job> j, std::shared_ptr<MapTask> m,
           os::FileSystem* fs, os::File* f, uint64_t bytes, uint64_t s)
      : engine(e), job(std::move(j)), mt(std::move(m)), out_fs(fs), out(f),
        total(bytes), span(s), cursor(mt->spills) {}

  void Step();
  /// Commits the merged output, or discards it when the host died or a
  /// rival committed while this attempt merged.
  void Finish();

  MrEngine* engine = nullptr;
  std::shared_ptr<Job> job;
  std::shared_ptr<MapTask> mt;
  os::FileSystem* out_fs = nullptr;
  os::File* out = nullptr;
  uint64_t total = 0;
  uint64_t span = 0;  ///< merge-pass trace span.
  RunCursor cursor;
};

/// Reduce-side merge: burns the memory-resident bytes on the CPU, then
/// streams the on-disk runs with each chunk's CPU overlapping the next
/// chunk's read, and finally writes the reduce output.
struct MrEngine::ReduceMerge : std::enable_shared_from_this<ReduceMerge> {
  ReduceMerge(MrEngine* e, std::shared_ptr<Job> j,
              std::shared_ptr<ReduceTask> r, double cpu)
      : engine(e), job(std::move(j)), rt(std::move(r)), cpu_per_byte(cpu),
        cursor(rt->runs), mem_left(rt->mem_bytes) {}

  /// Abandons the merge once the host is dead.
  void Step();
  /// Starts the next on-disk chunk's read; false when all runs are drained.
  bool ReadNext(InlineFn on_ready);
  /// Writes the reduce output slice to HDFS.
  void Finish();

  MrEngine* engine = nullptr;
  std::shared_ptr<Job> job;
  std::shared_ptr<ReduceTask> rt;
  double cpu_per_byte = 0;
  RunCursor cursor;
  uint64_t mem_left = 0;
  uint64_t pending_n = 0;  ///< Bytes of the chunk currently in hand.
  bool drained = false;    ///< All run data has been read.
};

MrEngine::MrEngine(cluster::Cluster* cluster, hdfs::Hdfs* hdfs,
                   const SlotConfig& slots, Rng rng)
    : cluster_(cluster), hdfs_(hdfs), slots_(slots), rng_(rng) {
  BDIO_CHECK(cluster != nullptr);
  BDIO_CHECK(hdfs != nullptr);
  free_map_slots_.assign(cluster->num_workers(), slots.map_slots);
  free_reduce_slots_.assign(cluster->num_workers(), slots.reduce_slots);
  node_dead_.assign(cluster->num_workers(), false);
  node_strikes_.assign(cluster->num_workers(), 0);
  node_blacklisted_.assign(cluster->num_workers(), false);
  retry_rng_ = rng_.Fork();
  default_sched_ = std::make_unique<sched::FifoScheduler>();
  sched_ = default_sched_.get();
}

MrEngine::~MrEngine() = default;

void MrEngine::SetScheduler(sched::Scheduler* scheduler) {
  sched_ = scheduler != nullptr ? scheduler : default_sched_.get();
}

void MrEngine::AttachObs(obs::TraceSession* trace,
                         obs::MetricsRegistry* metrics) {
  trace_ = trace;
  metrics_ = metrics;
  if (metrics == nullptr) return;
  m_map_spills_ = metrics->GetCounter("mr.map_spills");
  m_reduce_spills_ = metrics->GetCounter("mr.reduce_spills");
  m_shuffle_bytes_ = metrics->GetCounter("mr.shuffle_bytes");
  m_preempted_maps_ = metrics->GetCounter("mr.preempted_maps");
  m_spec_launched_ = metrics->GetCounter("mr.speculative.launched");
  m_spec_killed_ = metrics->GetCounter("mr.speculative.killed");
  m_spec_wasted_ = metrics->GetCounter("mr.speculative.wasted_bytes");
  m_retry_failures_ = metrics->GetCounter("mr.retry.task_failures");
  m_retry_scheduled_ = metrics->GetCounter("mr.retry.scheduled");
  m_retry_blacklisted_ = metrics->GetCounter("mr.retry.nodes_blacklisted");
  m_retry_abandoned_ = metrics->GetCounter("mr.retry.splits_abandoned");
  m_retry_wasted_ = metrics->GetCounter("mr.retry.wasted_work_bytes");
  m_reexec_maps_ = metrics->GetCounter("mr.reexec.maps");
  m_reexec_read_ = metrics->GetCounter("mr.reexec.read_bytes");
  m_reexec_write_ = metrics->GetCounter("mr.reexec.write_bytes");
  m_merge_width_ =
      metrics->GetHistogram("mr.merge_width", {}, {2, 4, 8, 16, 32, 64, 128});
}

void MrEngine::InjectNodeFailure(uint32_t node) {
  BDIO_CHECK(node < cluster_->num_workers());
  if (node_dead_[node]) return;
  node_dead_[node] = true;
  free_map_slots_[node] = 0;
  free_reduce_slots_[node] = 0;
  // A dead node's blacklist entry is moot (and must not resurrect it).
  node_blacklisted_[node] = false;
  node_strikes_[node] = 0;

  const std::vector<std::shared_ptr<Job>> active = jobs_;
  for (const auto& job : active) {
    if (job->finished) continue;
    // Completed map outputs on the dead node are gone: re-execute their
    // maps. The lost bytes are wasted work; the re-execution attempt's
    // duplicate input reads and spill writes charge mr.reexec.*.
    for (MapOutput& mo : job->map_outputs) {
      if (mo.node == node && mo.file != nullptr) {
        ++job->counters.maps_reexecuted;
        ++maps_reexecuted_;
        if (m_reexec_maps_) m_reexec_maps_->Inc();
        ChargeWasted(*job, mo.bytes);
        job->reexec[mo.split_idx] = true;
        mo.file = nullptr;
        mo.fs = nullptr;
        mo.bytes = 0;
        BDIO_CHECK(job->maps_done > 0);
        --job->maps_done;
        job->committed[mo.split_idx] = false;  // the re-execution recommits
        RequeueSplit(*job, mo.split_idx);
      }
    }
    // Running reducers on the node restart elsewhere; the segments the dead
    // attempt already copied are re-fetched by its replacement.
    for (auto& rt : job->reducers) {
      if (rt->node == node && !rt->done) {
        ChargeWasted(*job, rt->fetched_bytes);
        if (trace_) {
          // The attempt's spans end here; the replacement opens fresh ones.
          trace_->EndSpan(rt->merge_span);
          trace_->EndSpan(rt->span);
          trace_->FlowEnd(rt->flow, node + 1);
        }
        BDIO_CHECK(running_reduces_ > 0);
        --running_reduces_;
        BDIO_CHECK(job->running_reduces > 0);
        --job->running_reduces;
        auto replacement = std::make_shared<ReduceTask>();
        replacement->idx = rt->idx;
        job->reduce_queue.push_back(std::move(replacement));
      }
    }
  }
  // (Running maps on the node are lost when they report in: their host is
  // dead.)
  DispatchMaps();
  for (const auto& job : active) {
    if (!job->finished) MaybeStartReducers(job);
  }
  DispatchReduces();
}

void MrEngine::InjectTaskCrash(uint32_t node) {
  BDIO_CHECK(node < cluster_->num_workers());
  if (node_dead_[node]) return;
  for (const auto& job : jobs_) {
    if (job->finished) continue;
    for (const auto& mt : job->running_map_tasks) {
      if (mt->node != node) continue;
      if (mt->preempted || mt->cancelled || mt->crashed) continue;
      // The attempt fails at its next chunk boundary (in-flight I/O
      // drains first, as in the node-failure model).
      mt->crashed = true;
    }
  }
}

void MrEngine::StrikeNode(uint32_t node) {
  if (node_dead_[node] || node_blacklisted_[node]) return;
  ++node_strikes_[node];
  if (node_strikes_[node] < ft_config_.blacklist_strikes) return;
  node_blacklisted_[node] = true;
  ++nodes_blacklisted_;
  if (m_retry_blacklisted_) m_retry_blacklisted_->Inc();
  if (trace_) {
    trace_->Instant(node + 1, "mr", "node-blacklisted",
                    "{\"strikes\":" + std::to_string(node_strikes_[node]) +
                        "}");
  }
  // The node rejoins placement (with a clean slate) after the decay
  // window — unless it died outright in the meantime.
  cluster_->sim()->ScheduleAfter(ft_config_.blacklist_decay, [this, node] {
    if (node_dead_[node] || !node_blacklisted_[node]) return;
    node_blacklisted_[node] = false;
    node_strikes_[node] = 0;
    DispatchMaps();
    DispatchReduces();
  });
}

uint32_t MrEngine::SubmitJob(const SimJobSpec& spec, JobCallback done,
                             const std::string& pool, double weight) {
  auto job = std::make_shared<Job>();
  job->job_id = next_job_id_++;
  job->seq = job->job_id;
  job->pool = pool.empty() ? "default" : pool;
  job->weight = weight;
  job->spec = spec;
  job->done = std::move(done);
  job->counters.start_time = cluster_->sim()->Now();

  // `input_path` is a prefix: all HDFS files under it contribute splits
  // (FileInputFormat over a directory). One split per block.
  const std::vector<const hdfs::FileEntry*> files =
      hdfs_->name_node()->List(spec.input_path);
  if (files.empty()) {
    cluster_->sim()->ScheduleAfter(SimDuration{}, [this, job] {
      const Status status =
          Status::NotFound("no input files under " + job->spec.input_path);
      job->done(status, job->counters);
      FireCompletionHooks(job->job_id, status, job->counters);
    });
    return job->job_id;
  }
  job->node_local.resize(cluster_->num_workers());
  for (const hdfs::FileEntry* file : files) {
    uint64_t offset = 0;
    for (const hdfs::BlockLocation& b : file->blocks) {
      Split split;
      split.path = file->path;
      split.offset = offset;
      split.bytes = b.bytes;
      split.hosts = b.nodes;
      offset += b.bytes;
      const size_t idx = job->splits.size();
      job->splits.push_back(std::move(split));
      job->pending.push_back(idx);
      for (uint32_t h : job->splits[idx].hosts) {
        job->node_local[h].push_back(idx);
      }
    }
  }
  job->started.assign(job->splits.size(), false);
  job->committed.assign(job->splits.size(), false);
  job->parked.assign(job->splits.size(), false);
  job->split_failures.assign(job->splits.size(), 0);
  job->reexec.assign(job->splits.size(), false);
  job->unstarted_maps = static_cast<uint32_t>(job->splits.size());

  if (spec.num_reduce_tasks == SimJobSpec::kOneWave) {
    job->num_reducers = slots_.reduce_slots * cluster_->num_workers();
  } else {
    job->num_reducers = spec.num_reduce_tasks;
  }

  if (job->splits.empty()) {
    cluster_->sim()->ScheduleAfter(SimDuration{}, [this, job] {
      job->counters.end_time = SimTime{};
      const Status status = Status::InvalidArgument("empty input");
      job->done(status, job->counters);
      FireCompletionHooks(job->job_id, status, job->counters);
    });
    return job->job_id;
  }
  job->obs_label = (spec.name.empty() ? std::string("job") : spec.name) +
                   "#" + std::to_string(job->job_id);
  if (metrics_ != nullptr) {
    const obs::Labels labels{{"job", job->obs_label}};
    job->m_spills = metrics_->GetCounter("mr.job.spills", labels);
    job->m_shuffle_bytes = metrics_->GetCounter("mr.job.shuffle_bytes",
                                                labels);
    job->m_hdfs_read = metrics_->GetCounter("mr.job.hdfs_read_bytes", labels);
    job->m_hdfs_write = metrics_->GetCounter("mr.job.hdfs_write_bytes",
                                             labels);
  }
  jobs_.push_back(job);
  if (trace_) {
    job->span = trace_->BeginSpan(
        0, "mr", "job",
        "{\"job\":\"" + job->obs_label +
            "\",\"splits\":" + std::to_string(job->splits.size()) +
            ",\"reducers\":" + std::to_string(job->num_reducers) + "}");
  }
  DispatchMaps();
  MaybePreemptFor(job);
  return job->job_id;
}

uint32_t MrEngine::free_map_slot_count() const {
  uint32_t free = 0;
  for (uint32_t n = 0; n < cluster_->num_workers(); ++n) {
    if (!node_dead_[n]) free += free_map_slots_[n];
  }
  return free;
}

uint32_t MrEngine::stale_map_attempts() const {
  uint32_t stale = 0;
  for (const auto& job : jobs_) {
    for (const auto& mt : job->running_map_tasks) {
      if (node_dead_[mt->node]) ++stale;
    }
  }
  return stale;
}

uint32_t MrEngine::speculative_running() const {
  uint32_t running = 0;
  for (const auto& job : jobs_) running += job->speculative_running;
  return running;
}

std::vector<sched::JobSchedState> MrEngine::SchedStates() const {
  std::vector<sched::JobSchedState> states;
  states.reserve(jobs_.size());
  for (const auto& job : jobs_) {
    sched::JobSchedState s;
    s.job_id = job->job_id;
    s.seq = job->seq;
    s.pool = job->pool;
    s.weight = job->weight;
    s.runnable_maps = job->unstarted_maps;
    // Slots already marked for reclaim are as good as free: not counting
    // them keeps a victim from being penalized twice.
    s.running_maps = job->running_maps - job->preempt_marked;
    s.runnable_reduces = static_cast<uint32_t>(job->reduce_queue.size());
    s.running_reduces = job->running_reduces;
    // Likewise: a backup already marked for reclaim is no longer a free
    // slot the speculative-first pass could harvest.
    s.speculative_running = job->speculative_running -
                            job->spec_preempt_marked;
    states.push_back(std::move(s));
  }
  return states;
}

void MrEngine::DispatchMaps() {
  if (jobs_.empty()) return;
  bool progress = true;
  while (progress) {
    progress = false;
    for (uint32_t node = 0; node < cluster_->num_workers(); ++node) {
      if (node_dead_[node] || node_blacklisted_[node] ||
          free_map_slots_[node] == 0) {
        continue;
      }
      const size_t pick = sched_->PickJob(sched::SlotKind::kMap,
                                          SchedStates());
      if (pick == sched::Scheduler::kNoJob) {
        // No regular map wants a slot; spare capacity goes to backups.
        DispatchSpeculative();
        return;
      }
      BDIO_CHECK(pick < jobs_.size());
      const std::shared_ptr<Job> job = jobs_[pick];
      // Node-local split first.
      size_t idx = SIZE_MAX;
      bool local = false;
      auto& local_q = job->node_local[node];
      while (!local_q.empty()) {
        const size_t cand = local_q.front();
        local_q.pop_front();
        if (!job->started[cand]) {
          idx = cand;
          local = true;
          break;
        }
      }
      if (idx == SIZE_MAX) {
        while (!job->pending.empty()) {
          const size_t cand = job->pending.front();
          job->pending.pop_front();
          if (!job->started[cand]) {
            idx = cand;
            break;
          }
        }
      }
      // The policy only picks jobs with runnable maps, and `pending` holds
      // every unstarted split.
      BDIO_CHECK(idx != SIZE_MAX);
      job->started[idx] = true;
      BDIO_CHECK(job->unstarted_maps > 0);
      --job->unstarted_maps;
      --free_map_slots_[node];
      ++job->counters.maps_launched;
      if (local) ++job->counters.maps_local;
      StartMapTask(job, node, idx);
      progress = true;
    }
  }
}

void MrEngine::DispatchSpeculative() {
  if (jobs_.empty()) return;
  const SimTime now = cluster_->sim()->Now();
  for (uint32_t node = 0; node < cluster_->num_workers(); ++node) {
    while (!node_dead_[node] && !node_blacklisted_[node] &&
           free_map_slots_[node] > 0) {
      // First straggler in (admission order, launch order) that can accept
      // a backup on this node — a pure function of engine state, so the
      // pick is deterministic.
      std::shared_ptr<Job> owner;
      std::shared_ptr<MapTask> straggler;
      for (const auto& job : jobs_) {
        if (job->finished || !job->spec.speculative_execution) continue;
        if (job->maps_done == 0) continue;  // no duration baseline yet
        const double threshold =
            static_cast<double>(job->map_duration.ns()) /
            static_cast<double>(job->maps_done) *
            job->spec.speculative_slowdown;
        for (const auto& mt : job->running_map_tasks) {
          if (mt->speculative || mt->preempted || mt->cancelled ||
              mt->crashed) {
            continue;
          }
          if (node_dead_[mt->node]) continue;
          if (mt->node == node) continue;  // back up on a different node
          if (job->committed[mt->split_idx]) continue;
          if (static_cast<double>((now - mt->start_time).ns()) <= threshold) {
            continue;
          }
          if (HasLiveAttempt(*job, mt->split_idx, mt)) continue;  // one backup
          owner = job;
          straggler = mt;
          break;
        }
        if (straggler) break;
      }
      if (!straggler) break;  // nothing for this node; try the next
      --free_map_slots_[node];
      ++owner->counters.maps_launched;
      ++owner->counters.speculative_launched;
      ++owner->speculative_running;
      ++speculative_launched_;
      if (m_spec_launched_) m_spec_launched_->Inc();
      StartMapTask(owner, node, straggler->split_idx, /*speculative=*/true);
    }
  }
}

bool MrEngine::HasLiveAttempt(const Job& job, size_t split_idx,
                              const std::shared_ptr<MapTask>& except) const {
  for (const auto& other : job.running_map_tasks) {
    if (other == except) continue;
    if (other->split_idx != split_idx) continue;
    if (node_dead_[other->node]) continue;
    return true;
  }
  return false;
}

bool MrEngine::SplitSettled(const Job& job, size_t split_idx,
                            const std::shared_ptr<MapTask>& except) const {
  return job.committed[split_idx] || HasLiveAttempt(job, split_idx, except);
}

void MrEngine::RequeueSplit(Job& job, size_t split_idx) {
  job.started[split_idx] = false;
  job.pending.push_back(split_idx);
  ++job.unstarted_maps;
}

void MrEngine::ChargeWasted(Job& job, uint64_t bytes) {
  job.counters.wasted_work_bytes += bytes;
  wasted_work_bytes_ += bytes;
  if (m_retry_wasted_) m_retry_wasted_->Add(bytes);
}

void MrEngine::ChargeDuplicate(Job& job, uint64_t bytes) {
  if (job.failing) {
    // Aborted by the job's failure drain, not a speculative race.
    ChargeWasted(job, bytes);
    return;
  }
  job.counters.speculative_wasted_bytes += bytes;
  speculative_wasted_bytes_ += bytes;
  if (m_spec_wasted_) m_spec_wasted_->Add(bytes);
}

void MrEngine::ChargeInputRead(Job& job, const MapTask& mt, uint64_t bytes) {
  job.counters.hdfs_read_bytes += bytes;
  if (job.m_hdfs_read) job.m_hdfs_read->Add(bytes);
  if (mt.reexec) {
    job.counters.reexec_read_bytes += bytes;
    reexec_read_bytes_ += bytes;
    if (m_reexec_read_) m_reexec_read_->Add(bytes);
  }
}

void MrEngine::MaybePreemptFor(const std::shared_ptr<Job>& job) {
  if (job->finished || job->running_maps > 0 || job->unstarted_maps == 0) {
    return;
  }
  // The job is starved: it wants map slots and holds none (DispatchMaps
  // just ran, so none are free either). Ask the policy for victims until
  // the job's weighted share of live map slots is marked for reclaim.
  uint32_t live_slots = 0;
  for (uint32_t n = 0; n < cluster_->num_workers(); ++n) {
    if (!node_dead_[n]) live_slots += slots_.map_slots;
  }
  double total_weight = 0;
  for (const auto& j : jobs_) {
    total_weight += j->weight <= 0 ? 1.0 : j->weight;
  }
  if (total_weight <= 0) return;
  const double w = job->weight <= 0 ? 1.0 : job->weight;
  const uint32_t share = std::max<uint32_t>(
      1, static_cast<uint32_t>(static_cast<double>(live_slots) * w /
                               total_weight));
  const uint32_t want = std::min<uint32_t>(share, job->unstarted_maps);
  uint32_t reclaimed = 0;
  while (reclaimed < want) {
    const size_t victim = sched_->PreemptionVictim(SchedStates());
    if (victim == sched::Scheduler::kNoJob) return;
    BDIO_CHECK(victim < jobs_.size());
    const std::shared_ptr<Job>& vjob = jobs_[victim];
    // Reclaim a live speculative backup when the victim holds one — it
    // loses no unique work (the original still runs). Otherwise the most
    // recently launched live attempt: it has the least work to lose.
    std::shared_ptr<MapTask> target;
    for (auto it = vjob->running_map_tasks.rbegin();
         it != vjob->running_map_tasks.rend(); ++it) {
      if ((*it)->preempted || (*it)->crashed || node_dead_[(*it)->node]) {
        continue;
      }
      if ((*it)->speculative) {
        target = *it;
        break;
      }
      if (!target) target = *it;
    }
    if (!target) return;
    target->preempted = true;
    ++vjob->preempt_marked;
    if (target->speculative) ++vjob->spec_preempt_marked;
    ++reclaimed;
  }
}

void MrEngine::RetireMapAttempt(std::shared_ptr<Job> job,
                                std::shared_ptr<MapTask> mt, MapExit exit) {
  BDIO_CHECK(node_dead_[mt->node] == (exit == MapExit::kHostLost));
  BDIO_CHECK(running_maps_ > 0);
  --running_maps_;
  BDIO_CHECK(job->running_maps > 0);
  --job->running_maps;
  if (mt->preempted) {
    // The reclaim mark is consumed here, or lapses if another exit won.
    BDIO_CHECK(job->preempt_marked > 0);
    --job->preempt_marked;
    if (mt->speculative) {
      BDIO_CHECK(job->spec_preempt_marked > 0);
      --job->spec_preempt_marked;
    }
  }
  if (mt->speculative) {
    BDIO_CHECK(job->speculative_running > 0);
    --job->speculative_running;
  }
  auto& rmt = job->running_map_tasks;
  rmt.erase(std::remove(rmt.begin(), rmt.end(), mt), rmt.end());
  if (trace_) {
    trace_->EndSpan(mt->span);
    trace_->FlowEnd(mt->flow, mt->node + 1);
  }
  // An aborted attempt's input reads and spills drained for nothing. The
  // TaskTracker purges a killed or failed attempt's work directory; a dead
  // node keeps its spills and its slot.
  uint64_t wasted = mt->pos;
  for (const RunFile& r : mt->spills) wasted += r.bytes;
  if (exit != MapExit::kHostLost) {
    if (exit != MapExit::kCommitted) {
      for (const RunFile& r : mt->spills) {
        BDIO_CHECK_OK(r.fs->Delete(r.file->name()));
      }
      mt->spills.clear();
    }
    ++free_map_slots_[mt->node];
  }
  const size_t idx = mt->split_idx;
  switch (exit) {
    case MapExit::kCommitted:
      ++job->maps_done;
      job->map_duration += cluster_->sim()->Now() - mt->start_time;
      MaybeStartReducers(job);
      DispatchReduces();
      for (auto& rt : job->reducers) {
        PumpShuffle(job, rt);
        MaybeFinishShuffle(job, rt);
      }
      break;
    case MapExit::kPreempted:
      ++job->counters.maps_preempted;
      if (m_preempted_maps_) m_preempted_maps_->Inc();
      // A backup whose original is gone must re-queue; an original whose
      // backup survives must not.
      if (!SplitSettled(*job, idx, mt)) RequeueSplit(*job, idx);
      break;
    case MapExit::kHostLost:
      ChargeWasted(*job, wasted);
      if (!SplitSettled(*job, idx, mt)) RequeueSplit(*job, idx);
      break;
    case MapExit::kCancelled:
      ChargeDuplicate(*job, wasted);
      if (job->failing) break;
      ++job->counters.speculative_killed;
      ++speculative_killed_;
      if (m_spec_killed_) m_spec_killed_->Inc();
      if (trace_) {
        trace_->Instant(mt->node + 1, "mr", "speculative-killed",
                        "{\"split\":" + std::to_string(idx) +
                            ",\"wasted\":" + std::to_string(wasted) +
                            ",\"job\":\"" + job->obs_label + "\"}");
      }
      break;
    case MapExit::kCrashed:
      ++job->counters.task_failures;
      ++task_failures_;
      if (m_retry_failures_) m_retry_failures_->Inc();
      ChargeWasted(*job, wasted);
      if (trace_) {
        trace_->Instant(mt->node + 1, "mr", "task-crashed",
                        "{\"split\":" + std::to_string(idx) +
                            ",\"wasted\":" + std::to_string(wasted) +
                            ",\"job\":\"" + job->obs_label + "\"}");
      }
      StrikeNode(mt->node);
      ++job->split_failures[idx];
      if (job->failing || SplitSettled(*job, idx, mt)) {
        // A FAILED attempt of a settled split charges the budget but
        // re-queues nothing.
      } else if (job->split_failures[idx] < job->spec.max_task_attempts) {
        ParkSplit(job, idx);
      } else if (static_cast<double>(job->counters.splits_abandoned + 1) *
                     100.0 <=
                 job->spec.max_failures_percent *
                     static_cast<double>(job->splits.size())) {
        AbandonSplit(job, idx);
      } else {
        FailJob(job, idx);
      }
      break;
  }
  DispatchMaps();
  MaybeFinishJob(job);  // a failing job may have been waiting on this drain
}

bool MrEngine::AbortAtBoundary(const std::shared_ptr<Job>& job,
                               const std::shared_ptr<MapTask>& mt) {
  // On a dead host the attempt runs on; MapFinish retires it as lost.
  if (node_dead_[mt->node]) return false;
  if (!mt->preempted && !mt->cancelled && !mt->crashed) return false;
  RetireMapAttempt(job, mt,
                   mt->preempted   ? MapExit::kPreempted
                   : mt->cancelled ? MapExit::kCancelled
                                   : MapExit::kCrashed);
  return true;
}

void MrEngine::ParkSplit(std::shared_ptr<Job> job, size_t split_idx) {
  BDIO_CHECK(job->started[split_idx]);
  BDIO_CHECK(!job->parked[split_idx]);
  job->parked[split_idx] = true;
  ++job->parked_splits;
  ++job->counters.retries_scheduled;
  ++retries_scheduled_;
  if (m_retry_scheduled_) m_retry_scheduled_->Inc();
  // Capped exponential backoff: base << (failures-1), clamped, plus a
  // small jitter from the engine's forked Rng (drawn in sim-event order,
  // so the schedule is identical at every --jobs level).
  const uint32_t failures = job->split_failures[split_idx];
  SimDuration delay = job->spec.retry_backoff_base;
  for (uint32_t k = 1; k < failures && delay < job->spec.retry_backoff_cap;
       ++k) {
    delay *= 2;
  }
  delay = std::min(delay, job->spec.retry_backoff_cap);
  delay += SimDuration(retry_rng_.Uniform(
      std::max<uint64_t>(1, (job->spec.retry_backoff_base / 8).ns())));
  cluster_->sim()->ScheduleAfter(delay, [this, job, split_idx] {
    if (job->finished || job->failing) return;
    if (!job->parked[split_idx]) return;  // abandoned or written off
    job->parked[split_idx] = false;
    --job->parked_splits;
    if (job->committed[split_idx]) return;
    RequeueSplit(*job, split_idx);
    DispatchMaps();
  });
}

void MrEngine::AbandonSplit(const std::shared_ptr<Job>& job,
                            size_t split_idx) {
  BDIO_CHECK(!job->committed[split_idx]);
  if (!job->started[split_idx]) {
    job->started[split_idx] = true;
    BDIO_CHECK(job->unstarted_maps > 0);
    --job->unstarted_maps;
  }
  if (job->parked[split_idx]) {
    job->parked[split_idx] = false;
    --job->parked_splits;
  }
  // The split counts as done with no output: the job commits with partial
  // input (Hadoop's mapred.max.map.failures.percent).
  job->committed[split_idx] = true;
  ++job->maps_done;
  ++job->counters.splits_abandoned;
  ++splits_abandoned_;
  if (m_retry_abandoned_) m_retry_abandoned_->Inc();
  if (trace_) {
    trace_->Instant(0, "mr", "split-abandoned",
                    "{\"split\":" + std::to_string(split_idx) +
                        ",\"job\":\"" + job->obs_label + "\"}");
  }
  for (const auto& other : job->running_map_tasks) {
    if (other->split_idx == split_idx) other->cancelled = true;
  }
  MaybeStartReducers(job);
  DispatchReduces();
  for (auto& rt : job->reducers) {
    PumpShuffle(job, rt);
    MaybeFinishShuffle(job, rt);
  }
}

void MrEngine::FailJob(const std::shared_ptr<Job>& job, size_t split_idx) {
  BDIO_CHECK(!job->failing);
  job->failing = true;
  job->failure = Status::ResourceExhausted(
      "map task " + std::to_string(split_idx) + " of job '" +
      job->obs_label + "' exhausted " +
      std::to_string(job->spec.max_task_attempts) + " attempts");
  if (trace_) {
    trace_->Instant(0, "mr", "job-failed",
                    "{\"split\":" + std::to_string(split_idx) +
                        ",\"job\":\"" + job->obs_label + "\"}");
  }
  // Write off every unfinished split so the shuffle barrier opens and the
  // job drains: reducers (and in-flight committed writes) complete with
  // the partial data they have, then MaybeFinishJob reports the failure.
  for (size_t i = 0; i < job->splits.size(); ++i) {
    if (job->committed[i]) continue;
    if (!job->started[i]) {
      job->started[i] = true;
      BDIO_CHECK(job->unstarted_maps > 0);
      --job->unstarted_maps;
    }
    if (job->parked[i]) {
      job->parked[i] = false;
      --job->parked_splits;
    }
    job->committed[i] = true;
    ++job->maps_done;
  }
  // Running attempts abandon at their next boundary; their I/O becomes
  // wasted work (not speculative waste) when they retire.
  for (const auto& mt : job->running_map_tasks) {
    if (!mt->preempted && !mt->crashed) mt->cancelled = true;
  }
  MaybeStartReducers(job);
  DispatchReduces();
  for (auto& rt : job->reducers) {
    PumpShuffle(job, rt);
    MaybeFinishShuffle(job, rt);
  }
}

void MrEngine::CommitMapAttempt(const std::shared_ptr<Job>& job,
                                const std::shared_ptr<MapTask>& mt) {
  job->committed[mt->split_idx] = true;
  job->reexec[mt->split_idx] = false;  // the lost output has been remade
  for (const auto& other : job->running_map_tasks) {
    if (other == mt || other->split_idx != mt->split_idx) continue;
    other->cancelled = true;  // abandons at its next chunk boundary
  }
}

void MrEngine::DispatchReduces() {
  while (true) {
    const size_t pick = sched_->PickJob(sched::SlotKind::kReduce,
                                        SchedStates());
    if (pick == sched::Scheduler::kNoJob) return;  // no queued reducer left
    BDIO_CHECK(pick < jobs_.size());
    const std::shared_ptr<Job> job = jobs_[pick];
    // Round-robin slot hunt from the job's cursor (dead nodes hold zero
    // free slots).
    uint32_t node = UINT32_MAX;
    for (uint32_t k = 0; k < cluster_->num_workers(); ++k) {
      const uint32_t cand =
          (job->next_reduce_node + k) % cluster_->num_workers();
      if (!node_blacklisted_[cand] && free_reduce_slots_[cand] > 0) {
        node = cand;
        break;
      }
    }
    if (node == UINT32_MAX) return;  // all slots busy
    job->next_reduce_node = node + 1;
    --free_reduce_slots_[node];
    auto rt = std::move(job->reduce_queue.front());
    job->reduce_queue.pop_front();
    rt->node = node;
    ++job->counters.reduces_launched;
    ++running_reduces_;
    ++job->running_reduces;
    if (trace_) {
      rt->flow = trace_->NewFlow();
      rt->span = trace_->BeginSpan(
          node + 1, "mr", "reduce-task",
          "{\"idx\":" + std::to_string(rt->idx) + ",\"job\":\"" +
              job->obs_label + "\"}");
      trace_->FlowStart(rt->flow, node + 1);
    }
    job->reducers.push_back(rt);
    cluster_->sim()->ScheduleAfter(
        job->spec.task_start_latency, [this, job, rt] {
          PumpShuffle(job, rt);
          MaybeFinishShuffle(job, rt);
        });
  }
}

void MrEngine::StartMapTask(std::shared_ptr<Job> job, uint32_t node,
                            size_t split_idx, bool speculative) {
  auto mt = std::make_shared<MapTask>();
  mt->split_idx = split_idx;
  mt->node = node;
  mt->speculative = speculative;
  mt->reexec = job->reexec[split_idx];
  mt->start_time = cluster_->sim()->Now();
  ++running_maps_;
  ++job->running_maps;
  job->running_map_tasks.push_back(mt);
  mt->input_path = job->splits[split_idx].path;
  mt->split_bytes = job->splits[split_idx].bytes;
  mt->split_offset = job->splits[split_idx].offset;
  if (trace_) {
    mt->flow = trace_->NewFlow();
    mt->span = trace_->BeginSpan(
        node + 1, "mr", "map-task",
        "{\"split\":" + std::to_string(split_idx) + ",\"bytes\":" +
            std::to_string(mt->split_bytes) + ",\"job\":\"" +
            job->obs_label + "\"}");
    trace_->FlowStart(mt->flow, node + 1);
  }
  cluster_->sim()->ScheduleAfter(job->spec.task_start_latency,
                                 [this, job, mt] { MapReadLoop(job, mt); });
}

void MrEngine::MapReadLoop(std::shared_ptr<Job> job,
                           std::shared_ptr<MapTask> mt) {
  // Pipeline prologue: fetch the first chunk, then enter the steady state
  // where chunk k's CPU work overlaps chunk k+1's read (the record reader
  // runs ahead of the map function, as in real Hadoop).
  if (AbortAtBoundary(job, mt)) return;
  if (mt->pos >= mt->split_bytes) {
    MapSpill(job, mt, [this, job, mt] { MapFinish(job, mt); });
    return;
  }
  const uint64_t n = std::min(kTaskChunk, mt->split_bytes - mt->pos);
  obs::FlowScope flow_scope(trace_, mt->flow);
  hdfs_->Read(mt->input_path, mt->split_offset + mt->pos, n, mt->node,
              [this, job, mt, n](Status s) {
                BDIO_CHECK_OK(s);
                ChargeInputRead(*job, *mt, n);
                MapProcessChunk(job, mt, n);
              });
}

void MrEngine::MapProcessChunk(std::shared_ptr<Job> job,
                               std::shared_ptr<MapTask> mt,
                               uint64_t chunk_bytes) {
  // Invariant: the chunk at mt->pos (of chunk_bytes) has been read.
  const uint64_t next_pos = mt->pos + chunk_bytes;
  const uint64_t next_n =
      next_pos < mt->split_bytes
          ? std::min(kTaskChunk, mt->split_bytes - next_pos)
          : 0;

  auto cont = sim::Latch::Create(2, [this, job, mt, chunk_bytes, next_n] {
    mt->pos += chunk_bytes;
    // Chunk boundary: a marked attempt abandons here (its in-flight I/O
    // has drained, as in the failure model).
    if (AbortAtBoundary(job, mt)) return;
    const double out_pre =
        static_cast<double>(chunk_bytes) * job->spec.map_output_ratio;
    auto proceed = [this, job, mt, next_n] {
      if (next_n == 0) {
        MapSpill(job, mt, [this, job, mt] { MapFinish(job, mt); });
      } else {
        MapProcessChunk(job, mt, next_n);
      }
    };
    if (!job->map_only()) {
      mt->buffer_bytes += static_cast<uint64_t>(out_pre);
      if (mt->buffer_bytes >= job->spec.sort_buffer_bytes) {
        MapSpill(job, mt, std::move(proceed));
        return;
      }
    }
    proceed();
  });

  // Arm 1: prefetch the next chunk while this one is processed.
  if (next_n > 0) {
    ChargeInputRead(*job, *mt, next_n);
    obs::FlowScope flow_scope(trace_, mt->flow);
    hdfs_->Read(mt->input_path, mt->split_offset + next_pos, next_n,
                mt->node, [cont](Status s) {
                  BDIO_CHECK_OK(s);
                  cont->Arrive();
                });
  } else {
    cont->Arrive();
  }

  // Arm 2: CPU for the current chunk.
  const double out_pre =
      static_cast<double>(chunk_bytes) * job->spec.map_output_ratio;
  double cpu_ns =
      static_cast<double>(chunk_bytes) * job->spec.map_cpu_ns_per_byte;
  if (job->spec.compress_intermediate && !job->map_only()) {
    cpu_ns += out_pre * job->spec.compress_cpu_ns_per_byte;
  }
  cluster_->node(mt->node)->cpu()->Run(static_cast<SimDuration>(cpu_ns),
                                       cont->Arm());
}

void MrEngine::MapSpill(std::shared_ptr<Job> job, std::shared_ptr<MapTask> mt,
                        InlineFn then) {
  const uint64_t pre = mt->buffer_bytes;
  mt->buffer_bytes = 0;
  if (pre == 0 || job->map_only()) {
    cluster_->sim()->ScheduleAfter(SimDuration{}, std::move(then));
    return;
  }
  double post_d = static_cast<double>(pre) * job->spec.combine_ratio;
  if (job->spec.compress_intermediate) post_d *= job->spec.compress_ratio;
  // Even a fully-combined spill writes at least a few KB of framing.
  const uint64_t post =
      std::max<uint64_t>(static_cast<uint64_t>(post_d), 4096);
  os::FileSystem* fs = cluster_->node(mt->node)->NextMrFs();
  auto file = fs->Create("spill_" + std::to_string(file_seq_++));
  BDIO_CHECK(file.ok()) << file.status().ToString();
  file.value()->set_io_tag(static_cast<uint32_t>(IoTag::kMapSpill));
  file.value()->set_owner_job(job->job_id + 1);
  ++job->counters.spills;
  job->counters.intermediate_write_bytes += post;
  if (mt->reexec) {
    job->counters.reexec_write_bytes += post;
    reexec_write_bytes_ += post;
    if (m_reexec_write_) m_reexec_write_->Add(post);
  }
  if (m_map_spills_) m_map_spills_->Inc();
  if (job->m_spills) job->m_spills->Inc();
  uint64_t span = 0;
  if (trace_) {
    span = trace_->BeginSpan(mt->node + 1, "mr", "spill",
                             "{\"bytes\":" + std::to_string(post) + "}");
  }
  AppendStream(
      cluster_->sim(), fs, file.value(), post, kTaskChunk,
      [this, mt, fs, f = file.value(), post, span,
       then = std::move(then)]() mutable {
        if (trace_) trace_->EndSpan(span);
        mt->spills.push_back(RunFile{fs, f, post});
        then();
      },
      trace_, mt->flow);
}

void MrEngine::MapFinish(std::shared_ptr<Job> job,
                         std::shared_ptr<MapTask> mt) {
  if (node_dead_[mt->node]) {
    RetireMapAttempt(job, mt, MapExit::kHostLost);  // host failed meanwhile
    return;
  }
  if (job->committed[mt->split_idx]) {
    // Beaten at the finish line by a rival attempt.
    RetireMapAttempt(job, mt, MapExit::kCancelled);
    return;
  }
  if (mt->crashed) {
    // The crash landed between the last chunk and the commit: the attempt
    // still fails (Hadoop reports the attempt lost, not its output).
    RetireMapAttempt(job, mt, MapExit::kCrashed);
    return;
  }
  if (job->map_only()) {
    // Map-only jobs write their output slice straight to HDFS. The split
    // is claimed *before* the write so a rival attempt never races the
    // same output path.
    CommitMapAttempt(job, mt);
    const uint64_t out = static_cast<uint64_t>(
        static_cast<double>(mt->split_bytes) * job->spec.output_ratio);
    if (out == 0) {
      RetireMapAttempt(job, mt, MapExit::kCommitted);
      return;
    }
    const std::string path = job->spec.output_path + "/part-m-" +
                             std::to_string(mt->split_idx);
    obs::FlowScope flow_scope(trace_, mt->flow);
    hdfs_->WriteReplicated(
        path, out, mt->node, job->spec.output_replication,
        [this, job, mt, out, path](Status s) {
          BDIO_CHECK_OK(s);
          if (node_dead_[mt->node]) {
            // Host failed during the write: withdraw the attempt's output
            // (and its claim) so the re-execution can commit its own.
            BDIO_CHECK_OK(hdfs_->Delete(path));
            job->committed[mt->split_idx] = false;
            RetireMapAttempt(job, mt, MapExit::kHostLost);
            return;
          }
          job->counters.hdfs_write_bytes += out;
          if (job->m_hdfs_write) job->m_hdfs_write->Add(out);
          ++job->map_outputs_written;
          RetireMapAttempt(job, mt, MapExit::kCommitted);
        });
    return;
  }

  if (mt->spills.size() <= 1) {
    CommitMapAttempt(job, mt);
    MapOutput mo;
    mo.node = mt->node;
    mo.split_idx = mt->split_idx;
    if (!mt->spills.empty()) {
      mo.fs = mt->spills[0].fs;
      mo.file = mt->spills[0].file;
      mo.bytes = mt->spills[0].bytes;
    }
    job->map_outputs.push_back(mo);
    RetireMapAttempt(job, mt, MapExit::kCommitted);
    return;
  }

  // Multi-spill merge: interleaved chunk reads across the spill files,
  // streaming into a single merged map-output file.
  uint64_t total = 0;
  for (const RunFile& r : mt->spills) total += r.bytes;
  os::FileSystem* out_fs = cluster_->node(mt->node)->NextMrFs();
  auto out_file = out_fs->Create("map_out_" + std::to_string(file_seq_++));
  BDIO_CHECK(out_file.ok()) << out_file.status().ToString();
  out_file.value()->set_io_tag(static_cast<uint32_t>(IoTag::kMapOutput));
  out_file.value()->set_owner_job(job->job_id + 1);
  if (m_merge_width_) {
    m_merge_width_->Observe(static_cast<double>(mt->spills.size()));
  }
  uint64_t merge_span = 0;
  if (trace_) {
    merge_span = trace_->BeginSpan(
        mt->node + 1, "mr", "merge-pass",
        "{\"width\":" + std::to_string(mt->spills.size()) + ",\"bytes\":" +
            std::to_string(total) + "}");
  }
  std::make_shared<MapMerge>(this, job, mt, out_fs, out_file.value(), total,
                             merge_span)
      ->Step();
}

void MrEngine::MapMerge::Step() {
  uint64_t offset = 0;
  uint64_t n = 0;
  const RunFile* in = cursor.Next(&offset, &n);
  if (in == nullptr) {
    engine->cluster_->sim()->ScheduleAfter(
        SimDuration{}, [self = shared_from_this()] { self->Finish(); });
    return;
  }
  job->counters.intermediate_read_bytes += n;
  obs::FlowScope flow_scope(engine->trace_, mt->flow);
  in->fs->Read(in->file, offset, n, [self = shared_from_this(), n] {
    self->job->counters.intermediate_write_bytes += n;
    obs::FlowScope flow_scope(self->engine->trace_, self->mt->flow);
    self->out_fs->Append(self->out, n, [self] { self->Step(); });
  });
}

void MrEngine::MapMerge::Finish() {
  if (engine->trace_) engine->trace_->EndSpan(span);
  if (engine->node_dead_[mt->node]) {
    engine->RetireMapAttempt(job, mt, MapExit::kHostLost);
    return;
  }
  if (job->committed[mt->split_idx]) {
    // A rival committed while this attempt merged: the merged output is
    // pure waste on top of the spills the retire purges.
    BDIO_CHECK_OK(out_fs->Delete(out->name()));
    engine->ChargeDuplicate(*job, total);
    engine->RetireMapAttempt(job, mt, MapExit::kCancelled);
    return;
  }
  engine->CommitMapAttempt(job, mt);
  for (const RunFile& r : mt->spills) {
    BDIO_CHECK_OK(r.fs->Delete(r.file->name()));
  }
  job->map_outputs.push_back(
      MapOutput{mt->node, out_fs, out, total, mt->split_idx});
  engine->RetireMapAttempt(job, mt, MapExit::kCommitted);
}

// ---------------------------------------------------------------------------
// Reduce side
// ---------------------------------------------------------------------------

void MrEngine::MaybeStartReducers(std::shared_ptr<Job> job) {
  // Creation only (slow-start gate); DispatchReduces hands out the slots.
  if (job->map_only() || job->num_reducers == 0) return;
  if (job->reducers_created) return;
  const uint32_t threshold = std::max<uint32_t>(
      1, static_cast<uint32_t>(std::ceil(job->spec.reduce_slowstart *
                                         job->splits.size())));
  if (job->maps_done < threshold) return;
  job->reducers_created = true;
  for (uint32_t r = 0; r < job->num_reducers; ++r) {
    auto rt = std::make_shared<ReduceTask>();
    rt->idx = r;
    job->reduce_queue.push_back(std::move(rt));
  }
}

void MrEngine::PumpShuffle(std::shared_ptr<Job> job,
                           std::shared_ptr<ReduceTask> rt) {
  if (node_dead_[rt->node] || rt->merging || rt->spilling) return;
  while (rt->inflight < job->spec.parallel_copies &&
         rt->next_output < job->map_outputs.size()) {
    const MapOutput& mo = job->map_outputs[rt->next_output++];
    const uint64_t seg = mo.bytes / job->num_reducers;
    if (seg == 0 || mo.file == nullptr) continue;
    ++rt->inflight;
    const uint64_t offset = seg * rt->idx;
    job->counters.intermediate_read_bytes += seg;
    if (m_shuffle_bytes_) m_shuffle_bytes_->Add(seg);
    if (job->m_shuffle_bytes) job->m_shuffle_bytes->Add(seg);
    // Each fetch is its own flow: source-disk read -> wire -> arrival.
    uint64_t fetch_flow = 0;
    uint64_t fetch_span = 0;
    if (trace_) {
      fetch_flow = trace_->NewFlow();
      fetch_span = trace_->BeginSpan(
          rt->node + 1, "mr", "shuffle-fetch",
          "{\"src\":" + std::to_string(mo.node) + ",\"bytes\":" +
              std::to_string(seg) + "}");
      trace_->FlowStart(fetch_flow, rt->node + 1);
    }
    ReadStream(
        cluster_->sim(), mo.fs, mo.file, offset, seg, kShuffleChunk,
        [this, job, rt, seg, src = mo.node, fetch_flow, fetch_span] {
          job->counters.shuffle_network_bytes += seg;
          obs::FlowScope flow_scope(trace_, fetch_flow);
          cluster_->network()->Transfer(
              src, rt->node, seg,
              [this, job, rt, seg, fetch_flow, fetch_span] {
                if (trace_) {
                  trace_->FlowEnd(fetch_flow, rt->node + 1);
                  trace_->EndSpan(fetch_span);
                }
                --rt->inflight;
                rt->mem_bytes += seg;
                rt->fetched_bytes += seg;
                if (rt->mem_bytes >= job->spec.shuffle_buffer_bytes) {
                  ReduceSpill(job, rt, [this, job, rt] {
                    PumpShuffle(job, rt);
                    MaybeFinishShuffle(job, rt);
                  });
                } else {
                  PumpShuffle(job, rt);
                  MaybeFinishShuffle(job, rt);
                }
              });
        },
        trace_, fetch_flow);
  }
}

void MrEngine::ReduceSpill(std::shared_ptr<Job> job,
                           std::shared_ptr<ReduceTask> rt,
                           InlineFn then) {
  const uint64_t bytes = rt->mem_bytes;
  rt->mem_bytes = 0;
  if (bytes == 0) {
    cluster_->sim()->ScheduleAfter(SimDuration{}, std::move(then));
    return;
  }
  rt->spilling = true;
  os::FileSystem* fs = cluster_->node(rt->node)->NextMrFs();
  auto file = fs->Create("shuffle_run_" + std::to_string(file_seq_++));
  BDIO_CHECK(file.ok()) << file.status().ToString();
  file.value()->set_io_tag(static_cast<uint32_t>(IoTag::kShuffleRun));
  file.value()->set_owner_job(job->job_id + 1);
  job->counters.intermediate_write_bytes += bytes;
  if (m_reduce_spills_) m_reduce_spills_->Inc();
  if (job->m_spills) job->m_spills->Inc();
  uint64_t span = 0;
  if (trace_) {
    span = trace_->BeginSpan(rt->node + 1, "mr", "reduce-spill",
                             "{\"bytes\":" + std::to_string(bytes) + "}");
  }
  AppendStream(
      cluster_->sim(), fs, file.value(), bytes, kTaskChunk,
      [this, rt, fs, f = file.value(), bytes, span,
       then = std::move(then)]() mutable {
        if (trace_) trace_->EndSpan(span);
        rt->runs.push_back(RunFile{fs, f, bytes});
        rt->spilling = false;
        then();
      },
      trace_, rt->flow);
}

void MrEngine::MaybeFinishShuffle(std::shared_ptr<Job> job,
                                  std::shared_ptr<ReduceTask> rt) {
  if (node_dead_[rt->node] || rt->merging || rt->spilling) return;
  if (job->maps_done < job->splits.size()) return;
  if (rt->next_output < job->map_outputs.size()) return;
  if (rt->inflight > 0) return;
  rt->merging = true;
  ReduceMergeAndRun(job, rt);
}

void MrEngine::ReduceMergeAndRun(std::shared_ptr<Job> job,
                                 std::shared_ptr<ReduceTask> rt) {
  // Interleaved reads across the on-disk runs feed the reducer; in-memory
  // segments need no I/O. CPU is charged per byte as data streams through.
  double cpu_per_byte = job->spec.reduce_cpu_ns_per_byte;
  if (job->spec.compress_intermediate) {
    cpu_per_byte += 0.5 * job->spec.compress_cpu_ns_per_byte;
  }

  if (m_merge_width_ && !rt->runs.empty()) {
    m_merge_width_->Observe(static_cast<double>(rt->runs.size()));
  }
  if (trace_) {
    rt->merge_span = trace_->BeginSpan(
        rt->node + 1, "mr", "reduce-merge",
        "{\"runs\":" + std::to_string(rt->runs.size()) + ",\"mem\":" +
            std::to_string(rt->mem_bytes) + "}");
  }
  std::make_shared<ReduceMerge>(this, job, rt, cpu_per_byte)->Step();
}

void MrEngine::ReduceMerge::Step() {
  if (engine->node_dead_[rt->node]) return;  // host failed: abandon
  if (drained && pending_n == 0 && mem_left == 0) {
    Finish();  // the last CPU slice completed
    return;
  }
  auto self = shared_from_this();
  cluster::CpuScheduler* cpu = engine->cluster_->node(rt->node)->cpu();
  // Memory-resident bytes cost only CPU; burn them first.
  if (mem_left > 0) {
    const uint64_t n = std::min(kTaskChunk, mem_left);
    mem_left -= n;
    cpu->Run(static_cast<SimDuration>(static_cast<double>(n) * cpu_per_byte),
             [self] { self->Step(); });
    return;
  }
  const uint64_t current_n = pending_n;
  if (current_n == 0) {
    // Pipeline prologue: fetch the first disk chunk (or finish).
    if (!ReadNext([self] { self->Step(); })) {
      engine->cluster_->sim()->ScheduleAfter(SimDuration{},
                                             [self] { self->Finish(); });
    }
    return;
  }
  // Steady state: CPU for the chunk in hand overlaps the next chunk's read.
  auto cont = sim::Latch::Create(2, [self] { self->Step(); });
  pending_n = 0;
  if (!ReadNext(cont->Arm())) {
    // Nothing left to read: finish once the last CPU slice completes.
    drained = true;
    cont->Arrive();
  }
  cpu->Run(static_cast<SimDuration>(static_cast<double>(current_n) *
                                    cpu_per_byte),
           cont->Arm());
}

bool MrEngine::ReduceMerge::ReadNext(InlineFn on_ready) {
  uint64_t offset = 0;
  uint64_t n = 0;
  const RunFile* in = cursor.Next(&offset, &n);
  if (in == nullptr) return false;
  pending_n = n;
  job->counters.intermediate_read_bytes += n;
  obs::FlowScope flow_scope(engine->trace_, rt->flow);
  in->fs->Read(in->file, offset, n, std::move(on_ready));
  return true;
}

void MrEngine::ReduceMerge::Finish() {
  if (engine->trace_) {
    engine->trace_->EndSpan(rt->merge_span);
    rt->merge_span = 0;
  }
  uint64_t job_input = 0;
  for (const Split& s : job->splits) job_input += s.bytes;
  const uint64_t out = static_cast<uint64_t>(
      static_cast<double>(job_input) * job->spec.output_ratio /
      static_cast<double>(job->num_reducers));
  if (out == 0) {
    engine->OnReduceDone(job, rt);
    return;
  }
  char name[32];
  std::snprintf(name, sizeof(name), "/part-r-%05u", rt->idx);
  const std::string path = job->spec.output_path + name;
  obs::FlowScope flow_scope(engine->trace_, rt->flow);
  engine->hdfs_->WriteReplicated(
      path, out, rt->node, job->spec.output_replication,
      [engine = engine, job = job, rt = rt, out, path](Status s) {
        BDIO_CHECK_OK(s);
        if (engine->node_dead_[rt->node]) {
          // Host failed during the write: withdraw it.
          BDIO_CHECK_OK(engine->hdfs_->Delete(path));
          return;
        }
        job->counters.hdfs_write_bytes += out;
        if (job->m_hdfs_write) job->m_hdfs_write->Add(out);
        engine->OnReduceDone(job, rt);
      });
}

void MrEngine::OnReduceDone(std::shared_ptr<Job> job,
                            std::shared_ptr<ReduceTask> rt) {
  if (node_dead_[rt->node]) return;  // a replacement owns this partition
  rt->done = true;
  if (trace_) {
    trace_->EndSpan(rt->span);
    trace_->FlowEnd(rt->flow, rt->node + 1);
  }
  BDIO_CHECK(running_reduces_ > 0);
  --running_reduces_;
  // Drop this reducer's shuffle runs.
  for (const RunFile& r : rt->runs) {
    BDIO_CHECK_OK(r.fs->Delete(r.file->name()));
  }
  rt->runs.clear();
  ++free_reduce_slots_[rt->node];
  ++job->reduces_done;
  BDIO_CHECK(job->running_reduces > 0);
  --job->running_reduces;
  DispatchReduces();  // queued reducers (any job's) may now get the slot
  MaybeFinishJob(job);
}

void MrEngine::MaybeFinishJob(std::shared_ptr<Job> job) {
  if (job->finished) return;
  if (job->maps_done < job->splits.size()) return;
  // A failing job must drain its cancelled attempts before reporting (the
  // healthy path keeps its original timing: a cancelled speculative
  // straggler never outlives the reduce phase).
  if (job->failing && job->running_maps > 0) return;
  if (job->map_only()) {
    // All maps done; each HDFS write completes before its attempt retires,
    // so maps_done implies outputs written.
  } else {
    if (!job->reducers_created) {
      // Degenerate: no reducers ever started (zero splits handled earlier).
      MaybeStartReducers(job);
      DispatchReduces();
    }
    if (job->reduces_done < job->num_reducers) return;
  }
  job->finished = true;
  if (trace_) trace_->EndSpan(job->span);
  // Job cleanup: delete map output files (the TaskTracker's job-end purge).
  for (const MapOutput& mo : job->map_outputs) {
    if (mo.file != nullptr) {
      BDIO_CHECK_OK(mo.fs->Delete(mo.file->name()));
    }
  }
  if (job->failing) {
    // A failed job's partial HDFS output is withdrawn (OutputCommitter
    // abort). Collect-then-delete: Delete mutates the namespace.
    std::vector<std::string> paths;
    for (const hdfs::FileEntry* f :
         hdfs_->name_node()->List(job->spec.output_path)) {
      paths.push_back(f->path);
    }
    for (const std::string& p : paths) BDIO_CHECK_OK(hdfs_->Delete(p));
  }
  const Status status = job->failing ? job->failure : Status::OK();
  job->counters.end_time = cluster_->sim()->Now();
  jobs_.erase(std::remove(jobs_.begin(), jobs_.end(), job), jobs_.end());
  cluster_->sim()->ScheduleAfter(SimDuration{}, [this, job, status] {
    job->done(status, job->counters);
    FireCompletionHooks(job->job_id, status, job->counters);
  });
}

void MrEngine::AddJobCompletionHook(JobCompletionHook hook) {
  BDIO_CHECK(hook != nullptr);
  completion_hooks_.push_back(std::move(hook));
}

void MrEngine::FireCompletionHooks(uint32_t job_id, const Status& status,
                                   const JobCounters& counters) {
  for (const JobCompletionHook& hook : completion_hooks_) {
    hook(job_id, status, counters);
  }
}

std::string MrEngine::AuditInvariants() const {
  uint32_t maps = 0;
  uint32_t reduces = 0;
  // Per-node occupied slots (attempts on live nodes only; attempts stranded
  // on a dead node hold no slot — the failure zeroed its pool).
  std::vector<uint32_t> map_busy(free_map_slots_.size(), 0);
  std::vector<uint32_t> reduce_busy(free_reduce_slots_.size(), 0);
  for (const auto& job : jobs_) {
    maps += job->running_maps;
    reduces += job->running_reduces;
    if (job->running_map_tasks.size() != job->running_maps) {
      return "mr: job " + std::to_string(job->job_id) + " running_maps=" +
             std::to_string(job->running_maps) + " but attempt list holds " +
             std::to_string(job->running_map_tasks.size());
    }
    uint32_t spec = 0;
    uint32_t marked = 0;
    uint32_t spec_marked = 0;
    for (const auto& mt : job->running_map_tasks) {
      if (mt->speculative) ++spec;
      if (mt->preempted) ++marked;
      if (mt->preempted && mt->speculative) ++spec_marked;
      if (!node_dead_[mt->node]) ++map_busy[mt->node];
    }
    if (spec != job->speculative_running || marked != job->preempt_marked ||
        spec_marked != job->spec_preempt_marked) {
      return "mr: job " + std::to_string(job->job_id) +
             " speculative/preempt counters disagree with attempt flags";
    }
    uint32_t unstarted = 0;
    for (const bool started : job->started) {
      if (!started) ++unstarted;
    }
    if (unstarted != job->unstarted_maps) {
      return "mr: job " + std::to_string(job->job_id) + " unstarted_maps=" +
             std::to_string(job->unstarted_maps) + " but " +
             std::to_string(unstarted) + " splits are unstarted";
    }
    uint32_t parked = 0;
    for (size_t i = 0; i < job->parked.size(); ++i) {
      if (!job->parked[i]) continue;
      ++parked;
      if (!job->started[i] || job->committed[i]) {
        return "mr: job " + std::to_string(job->job_id) + " split " +
               std::to_string(i) + " is parked but started=" +
               std::to_string(job->started[i]) + " committed=" +
               std::to_string(job->committed[i]);
      }
    }
    if (parked != job->parked_splits) {
      return "mr: job " + std::to_string(job->job_id) + " parked_splits=" +
             std::to_string(job->parked_splits) + " but " +
             std::to_string(parked) + " splits carry the flag";
    }
    if (job->failing && job->parked_splits != 0) {
      return "mr: failing job " + std::to_string(job->job_id) +
             " still holds parked splits";
    }
    uint32_t running_red = 0;
    for (const auto& rt : job->reducers) {
      if (!rt->done && !node_dead_[rt->node]) {
        ++running_red;
        ++reduce_busy[rt->node];
      }
    }
    if (running_red != job->running_reduces) {
      return "mr: job " + std::to_string(job->job_id) + " running_reduces=" +
             std::to_string(job->running_reduces) + " but " +
             std::to_string(running_red) + " reducers are live";
    }
  }
  if (maps != running_maps_) {
    return "mr: running_maps_=" + std::to_string(running_maps_) +
           " but per-job counts sum to " + std::to_string(maps);
  }
  if (reduces != running_reduces_) {
    return "mr: running_reduces_=" + std::to_string(running_reduces_) +
           " but per-job counts sum to " + std::to_string(reduces);
  }
  for (size_t n = 0; n < free_map_slots_.size(); ++n) {
    if (node_dead_[n]) continue;
    if (free_map_slots_[n] + map_busy[n] != slots_.map_slots) {
      return "mr: node " + std::to_string(n) + " map slots leak: free=" +
             std::to_string(free_map_slots_[n]) + " busy=" +
             std::to_string(map_busy[n]) + " configured=" +
             std::to_string(slots_.map_slots);
    }
    if (free_reduce_slots_[n] + reduce_busy[n] != slots_.reduce_slots) {
      return "mr: node " + std::to_string(n) + " reduce slots leak: free=" +
             std::to_string(free_reduce_slots_[n]) + " busy=" +
             std::to_string(reduce_busy[n]) + " configured=" +
             std::to_string(slots_.reduce_slots);
    }
    if (!node_blacklisted_[n] && ft_config_.blacklist_strikes > 0 &&
        node_strikes_[n] >= ft_config_.blacklist_strikes) {
      return "mr: node " + std::to_string(n) + " holds " +
             std::to_string(node_strikes_[n]) +
             " strikes but is not blacklisted (threshold " +
             std::to_string(ft_config_.blacklist_strikes) + ")";
    }
  }
  for (size_t n = 0; n < node_dead_.size(); ++n) {
    if (node_dead_[n] && node_blacklisted_[n]) {
      return "mr: node " + std::to_string(n) +
             " is both dead and blacklisted";
    }
  }
  return {};
}

}  // namespace bdio::mapreduce
