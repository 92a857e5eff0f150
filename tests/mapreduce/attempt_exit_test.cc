// Every way a map attempt can leave the engine, reached by fixed-seed
// scenarios: a commit; a speculative loser cancelled mid-task and one
// beaten after its merge; a fair-share preemption of a backup and of an
// original; a crash-task attempt that parks its split, one that abandons
// it and one that fails the job; a TaskTracker kill that strands running
// maps and restarts reducers; and a map-only job. Each test asserts its
// path was hit through the counter that path charges, and the last one
// pins a hash of every scenario's counters, durations and engine totals.

#include <cstdint>
#include <functional>
#include <ios>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "hdfs/hdfs.h"
#include "mapreduce/engine.h"
#include "obs/trace.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"

namespace bdio::mapreduce {
namespace {

/// 64-bit FNV-1a.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// A 5-node stack on fixed seeds, traced so the tests can read the
/// engine's per-attempt instants.
struct Stack {
  explicit Stack(uint64_t memory_bytes = GiB(4)) {
    cluster::ClusterParams cp;
    cp.num_workers = 5;
    cp.node.memory_bytes = memory_bytes;
    cp.node.daemon_bytes = MiB(256);
    cp.node.per_slot_heap_bytes = MiB(16);
    cluster = std::make_unique<cluster::Cluster>(&sim, cp, 8, Rng(1));
    dfs = std::make_unique<hdfs::Hdfs>(cluster.get(), hdfs::HdfsParams{},
                                       Rng(2));
    engine = std::make_unique<MrEngine>(cluster.get(), dfs.get(),
                                        SlotConfig{4, 4, "t"}, Rng(3));
    engine->AttachObs(&trace, nullptr);
  }

  /// Makes every disk of `node` `factor` times slower.
  void SlowDown(uint32_t node, double factor) {
    cluster::Node* n = cluster->node(node);
    for (uint32_t d = 0; d < n->num_hdfs_disks(); ++d) {
      n->hdfs_disk(d)->SetServiceFactor(factor);
    }
    for (uint32_t d = 0; d < n->num_mr_disks(); ++d) {
      n->mr_disk(d)->SetServiceFactor(factor);
    }
  }

  /// The `wasted` argument of every trace instant called `name`.
  std::vector<uint64_t> InstantWaste(const std::string& name) const {
    std::vector<uint64_t> out;
    const std::string json = trace.ToJson();
    const std::string key = "\"name\":\"" + name + "\"";
    for (size_t at = json.find(key); at != std::string::npos;
         at = json.find(key, at + 1)) {
      const size_t w = json.find("\"wasted\":", at);
      if (w == std::string::npos) break;
      out.push_back(std::stoull(json.substr(w + 9)));
    }
    return out;
  }

  /// Counters, hex-float duration and engine-wide totals of one run.
  std::string Fingerprint(const Status& status, const JobCounters& c) const {
    std::ostringstream out;
    out << std::hexfloat << status.ToString() << ' ' << c.DurationSeconds()
        << ' ' << c.hdfs_read_bytes << ' ' << c.hdfs_write_bytes << ' '
        << c.intermediate_write_bytes << ' ' << c.intermediate_read_bytes
        << ' ' << c.shuffle_network_bytes << ' ' << c.maps_launched << ' '
        << c.maps_local << ' ' << c.reduces_launched << ' '
        << c.maps_preempted << ' ' << c.speculative_launched << ' '
        << c.speculative_killed << ' ' << c.speculative_wasted_bytes << ' '
        << c.task_failures << ' ' << c.retries_scheduled << ' '
        << c.maps_reexecuted << ' ' << c.reexec_read_bytes << ' '
        << c.reexec_write_bytes << ' ' << c.splits_abandoned << ' '
        << c.wasted_work_bytes << ' ' << c.spills << ' '
        << c.start_time.ns() << ' ' << c.end_time.ns() << " | "
        << engine->task_failures() << ' ' << engine->retries_scheduled()
        << ' ' << engine->maps_reexecuted() << ' '
        << engine->reexec_read_bytes() << ' ' << engine->reexec_write_bytes()
        << ' ' << engine->wasted_work_bytes() << ' '
        << engine->nodes_blacklisted() << ' ' << engine->splits_abandoned()
        << ' ' << engine->speculative_launched() << ' '
        << engine->speculative_killed() << ' '
        << engine->speculative_wasted_bytes() << ' '
        << sim.events_processed() << ' ' << trace.num_events() << '\n';
    return out.str();
  }

  sim::Simulator sim;
  obs::TraceSession trace{&sim};
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<hdfs::Hdfs> dfs;
  std::unique_ptr<MrEngine> engine;
};

SimJobSpec Spec(const std::string& name, const std::string& in) {
  SimJobSpec spec;
  spec.name = name;
  spec.input_path = in;
  spec.output_path = "/out-" + name;
  return spec;
}

struct Outcome {
  Status status = Status::Internal("not run");
  JobCounters counters;
  std::string fingerprint;
};

/// Speculation against a straggler whose disks are 2x slow, with a 16 MiB
/// sort buffer so every 64 MiB split spills four times and merges. The
/// stack has 1 GiB nodes, so the merges miss the page cache and a loser can
/// still be merging when its rival commits.
Outcome RunSpeculation(Stack* s) {
  s->SlowDown(4, 2.0);
  EXPECT_TRUE(s->dfs->Preload("/in", GiB(2)).ok());
  SimJobSpec spec = Spec("spec", "/in");
  spec.speculative_execution = true;
  spec.sort_buffer_bytes = MiB(16);
  Outcome out;
  s->engine->RunJob(spec, [&](Status st, const JobCounters& c) {
    out.status = st;
    out.counters = c;
  });
  s->sim.Run();
  out.fingerprint = s->Fingerprint(out.status, out.counters);
  return out;
}

/// Fair-share preemption: job A (speculative, straggler on node 4) holds
/// live backups when filler C takes the free slots and B is admitted, so
/// B's reclaim marks backups first and then originals.
Outcome RunPreemption(Stack* s, uint32_t* backups_at_admission) {
  sched::FairSchedulerOptions options;
  options.preempt_speculative = true;
  sched::FairScheduler fair(options);
  s->engine->SetScheduler(&fair);
  s->SlowDown(4, 8.0);
  EXPECT_TRUE(s->dfs->Preload("/inA", GiB(2)).ok());
  EXPECT_TRUE(s->dfs->Preload("/inB", MiB(512)).ok());
  EXPECT_TRUE(s->dfs->Preload("/inC", MiB(256)).ok());
  SimJobSpec a = Spec("A", "/inA");
  a.speculative_execution = true;
  Outcome out;
  Status sb = Status::Internal("not run"), sc = sb;
  s->engine->SubmitJob(a,
                       [&](Status st, const JobCounters& c) {
                         out.status = st;
                         out.counters = c;
                       },
                       "poolA");
  bool submitted = false;
  std::function<void()> poll = [&] {
    if (submitted || !out.status.IsInternal()) return;
    if (s->engine->speculative_running() > 0) {
      submitted = true;
      s->engine->SubmitJob(Spec("C", "/inC"),
                           [&](Status st, const JobCounters&) { sc = st; },
                           "poolC");
      *backups_at_admission = s->engine->speculative_running();
      s->engine->SubmitJob(Spec("B", "/inB"),
                           [&](Status st, const JobCounters&) { sb = st; },
                           "poolB");
      return;
    }
    s->sim.ScheduleAfter(Millis(1), poll);
  };
  s->sim.ScheduleAfter(Millis(1), poll);
  s->sim.Run();
  EXPECT_TRUE(submitted) << "no backup ever ran";
  EXPECT_TRUE(sb.ok()) << sb.ToString();
  EXPECT_TRUE(sc.ok()) << sc.ToString();
  s->engine->SetScheduler(nullptr);
  out.fingerprint = s->Fingerprint(out.status, out.counters);
  return out;
}

/// A crash-task fault on node 2 at 600 ms under the given attempt budget
/// and max_failures_percent allowance.
Outcome RunCrash(Stack* s, uint32_t budget, double allowance) {
  EXPECT_TRUE(s->dfs->Preload("/in", MiB(512)).ok());
  SimJobSpec spec = Spec("crash", "/in");
  spec.max_task_attempts = budget;
  spec.max_failures_percent = allowance;
  Outcome out;
  s->engine->RunJob(spec, [&](Status st, const JobCounters& c) {
    out.status = st;
    out.counters = c;
  });
  s->sim.ScheduleAt(TimeAt(Millis(600)),
                    [s] { s->engine->InjectTaskCrash(2); });
  s->sim.Run();
  out.fingerprint = s->Fingerprint(out.status, out.counters);
  return out;
}

/// A TaskTracker kill on node 1 while its second-wave maps run and its
/// reducers shuffle (slow-start opens after the first map commits).
Outcome RunTrackerKill(Stack* s) {
  EXPECT_TRUE(s->dfs->Preload("/in", GiB(2)).ok());
  SimJobSpec spec = Spec("kill", "/in");
  spec.reduce_slowstart = 0.0;
  Outcome out;
  s->engine->RunJob(spec, [&](Status st, const JobCounters& c) {
    out.status = st;
    out.counters = c;
  });
  s->sim.ScheduleAt(TimeAt(Millis(1200)),
                    [s] { s->engine->InjectNodeFailure(1); });
  s->sim.Run();
  out.fingerprint = s->Fingerprint(out.status, out.counters);
  return out;
}

/// A map-only job that loses node 0 while its maps run and write.
Outcome RunMapOnly(Stack* s) {
  EXPECT_TRUE(s->dfs->Preload("/in", MiB(512)).ok());
  SimJobSpec spec = Spec("maponly", "/in");
  spec.num_reduce_tasks = 0;
  spec.output_ratio = 0.5;
  Outcome out;
  s->engine->RunJob(spec, [&](Status st, const JobCounters& c) {
    out.status = st;
    out.counters = c;
  });
  s->sim.ScheduleAt(TimeAt(Seconds(1)),
                    [s] { s->engine->InjectNodeFailure(0); });
  s->sim.Run();
  out.fingerprint = s->Fingerprint(out.status, out.counters);
  return out;
}

TEST(AttemptExitTest, SpeculativeLosersAreCancelledMidTaskAndAfterMerge) {
  Stack s(GiB(1));
  const Outcome r = RunSpeculation(&s);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  const JobCounters& c = r.counters;
  EXPECT_EQ(c.maps_launched, 32u + c.speculative_launched);  // 32 commits
  EXPECT_EQ(c.speculative_killed, c.speculative_launched);
  // The killed-attempt instants report the input read plus the spills
  // purged; a loser cancelled mid-task had read less than its split.
  const std::vector<uint64_t> killed = s.InstantWaste("speculative-killed");
  ASSERT_EQ(killed.size(), c.speculative_killed);
  uint64_t instants = 0;
  bool mid_task = false;
  for (const uint64_t w : killed) {
    instants += w;
    if (w < MiB(64)) mid_task = true;
  }
  EXPECT_TRUE(mid_task);
  // A loser beaten after its merge also wastes the merged output, which
  // the counter charges on top of the instants.
  EXPECT_GT(c.speculative_wasted_bytes, instants);
  EXPECT_EQ(s.dfs->name_node()->List("/out-spec/").size(), 20u);
}

TEST(AttemptExitTest, FairSharePreemptsABackupAndAnOriginal) {
  Stack s;
  uint32_t backups = 0;
  const Outcome r = RunPreemption(&s, &backups);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  // Reclaim takes live backups first, so more preemptions than backups at
  // admission means originals were reclaimed too.
  EXPECT_GT(backups, 0u);
  EXPECT_GT(r.counters.maps_preempted, backups);
}

TEST(AttemptExitTest, CrashedAttemptsParkAbandonOrFailTheJob) {
  Stack park;
  const Outcome parked = RunCrash(&park, 4, 0.0);
  ASSERT_TRUE(parked.status.ok()) << parked.status.ToString();
  EXPECT_GT(parked.counters.retries_scheduled, 0u);

  Stack abandon;
  const Outcome abandoned = RunCrash(&abandon, 1, 50.0);
  ASSERT_TRUE(abandoned.status.ok()) << abandoned.status.ToString();
  EXPECT_GT(abandoned.counters.splits_abandoned, 0u);

  Stack fail;
  const Outcome failed = RunCrash(&fail, 1, 0.0);
  EXPECT_TRUE(failed.status.IsResourceExhausted())
      << failed.status.ToString();
  EXPECT_GT(failed.counters.task_failures, 0u);
  EXPECT_GT(failed.counters.wasted_work_bytes, 0u);
}

TEST(AttemptExitTest, TrackerKillStrandsMapsAndRestartsReducers) {
  Stack s;
  const Outcome r = RunTrackerKill(&s);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  const JobCounters& c = r.counters;
  // Stranded maps re-ran elsewhere; the dead node's reducers restarted.
  EXPECT_GT(c.maps_launched, 32u + c.maps_reexecuted);
  EXPECT_GT(c.maps_reexecuted, 0u);
  EXPECT_GT(c.reduces_launched, 20u);
  EXPECT_GT(c.wasted_work_bytes, 0u);
  EXPECT_EQ(s.engine->stale_map_attempts(), 0u);
}

TEST(AttemptExitTest, MapOnlyJobCommitsOneOutputPerSplit) {
  Stack s;
  const Outcome r = RunMapOnly(&s);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_GT(r.counters.maps_launched, 8u);
  EXPECT_EQ(s.dfs->name_node()->List("/out-maponly/").size(), 8u);
}

// Pinned before the engine's attempt bookkeeping was folded into one
// retire path; a refactor of that path must leave it alone. A change meant
// to move simulated behaviour updates the value (the failure message
// prints what it hashed).
TEST(AttemptExitTest, EveryExitIsPinned) {
  std::string all;
  {
    Stack s(GiB(1));
    all += RunSpeculation(&s).fingerprint;
  }
  {
    Stack s;
    uint32_t backups = 0;
    all += RunPreemption(&s, &backups).fingerprint;
  }
  for (const auto& [budget, allowance] :
       {std::pair{4u, 0.0}, std::pair{1u, 50.0}, std::pair{1u, 0.0}}) {
    Stack s;
    all += RunCrash(&s, budget, allowance).fingerprint;
  }
  {
    Stack s;
    all += RunTrackerKill(&s).fingerprint;
  }
  {
    Stack s;
    all += RunMapOnly(&s).fingerprint;
  }
  EXPECT_EQ(Fnv1a(all), 0x123082819bbf742cull) << all;
}

}  // namespace
}  // namespace bdio::mapreduce
