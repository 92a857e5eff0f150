// Extension bench: multi-tenancy. The paper characterizes one workload at a
// time on a dedicated cluster; production Hadoop-1 clusters ran many jobs at
// once, multiplexed onto the same TaskTracker slots — and therefore the same
// page caches, elevator queues, disks, and 1 GbE links. This bench admits a
// deterministic arrival stream of heterogeneous jobs (TeraSort, Aggregation,
// K-means, PageRank profiles) through sched::JobQueue and compares cluster
// scheduling policies: FIFO (Hadoop's JobQueueTaskScheduler), weighted fair
// sharing, and fair sharing with preemption of speculative slots. Reported
// per (policy, concurrency): per-job slowdown vs running alone (mean / p95 /
// max), makespan, and HDFS- vs MR-disk utilization and await.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/figure_common.h"
#include "common/table.h"
#include "core/runner/thread_pool.h"
#include "iostat/iostat.h"
#include "mapreduce/engine.h"
#include "sched/job_queue.h"
#include "sched/scheduler.h"
#include "workloads/profile.h"

namespace {

using namespace bdio;

/// One entry of the arrival stream: a workload profile's first job.
struct JobProfile {
  workloads::WorkloadKind kind = workloads::WorkloadKind::kTeraSort;
  mapreduce::SimJobSpec spec;
};

struct CellResult {
  std::vector<double> durations_s;     ///< Per job, admission to completion.
  uint32_t maps_preempted = 0;         ///< Summed over jobs.
  double makespan_s = 0;
  double hdfs_util = 0, mr_util = 0;   ///< Mean %util over the run.
  double hdfs_await = 0, mr_await = 0; ///< Mean await (ms) while active.
};

/// Runs one simulated cluster with `stream` submitted through a JobQueue
/// (arrivals staggered 2 s apart) under the named policy. Deterministic:
/// everything derives from options.seed and the stream.
CellResult RunCell(const core::BenchOptions& options,
                   const std::string& policy,
                   const std::vector<JobProfile>& stream,
                   const std::vector<std::pair<std::string, uint64_t>>&
                       datasets,
                   core::ExperimentResult* obs_out = nullptr) {
  // Declared before the testbed: the engine holds it to the end.
  const std::unique_ptr<sched::Scheduler> policy_impl =
      sched::MakeScheduler(policy);
  BDIO_CHECK(policy_impl != nullptr) << "unknown policy " << policy;
  core::Testbed bed(bench::MakeTestbedSpec(options, obs_out != nullptr),
                    Rng(options.seed));
  if (obs_out) bed.ExportObs(obs_out);
  for (const auto& [path, bytes] : datasets) {
    bench::PreloadOrExit(&bed, path, bytes);
  }
  iostat::Monitor& monitor = bed.MonitorDisks(Seconds(1));
  mapreduce::MrEngine& engine = bed.engine();
  engine.SetScheduler(policy_impl.get());

  std::vector<mapreduce::JobCounters> counters(stream.size());
  std::unique_ptr<sched::JobQueue> queue;
  queue = std::make_unique<sched::JobQueue>(
      &bed.sim(), static_cast<uint32_t>(stream.size()), [&](size_t index) {
        // Each job charges its own pool, so weighted fair sharing splits
        // the slot pool per job.
        engine.SubmitJob(
            stream[index].spec,
            [&, index](Status s, const mapreduce::JobCounters& c) {
              BDIO_CHECK_OK(s);
              counters[index] = c;
              queue->OnJobDone(index);
            },
            "pool" + std::to_string(index));
      });
  queue->OnDrained([&] { monitor.Stop(); });
  for (size_t j = 0; j < stream.size(); ++j) {
    queue->Submit(TimeAt(Seconds(2.0 * static_cast<double>(j))));
  }
  bed.sim().Run();
  BDIO_CHECK(queue->completed() == stream.size());

  CellResult result;
  for (size_t j = 0; j < stream.size(); ++j) {
    result.durations_s.push_back(counters[j].DurationSeconds());
    result.maps_preempted += counters[j].maps_preempted;
    result.makespan_s =
        std::max(result.makespan_s, ToSeconds(counters[j].end_time));
  }
  result.hdfs_util = monitor.GroupMean("hdfs", iostat::Metric::kUtil).Mean();
  result.mr_util = monitor.GroupMean("mr", iostat::Metric::kUtil).Mean();
  result.hdfs_await =
      monitor.GroupActiveMean("hdfs", iostat::Metric::kAwait).ActiveMean();
  result.mr_await =
      monitor.GroupActiveMean("mr", iostat::Metric::kAwait).ActiveMean();
  return result;
}

/// Same cluster, one job, submitted directly via the single-job RunJob path
/// with the engine's built-in default scheduler. Must match RunCell of a
/// one-job stream exactly — the multi-tenant refactor's equivalence check.
double RunDirect(const core::BenchOptions& options, const JobProfile& job,
                 const std::vector<std::pair<std::string, uint64_t>>&
                     datasets) {
  core::Testbed bed(bench::MakeTestbedSpec(options), Rng(options.seed));
  for (const auto& [path, bytes] : datasets) {
    bench::PreloadOrExit(&bed, path, bytes);
  }
  double duration_s = -1;
  bed.engine().RunJob(job.spec,
                      [&](Status s, const mapreduce::JobCounters& c) {
                        BDIO_CHECK_OK(s);
                        duration_s = c.DurationSeconds();
                      });
  bed.sim().Run();
  BDIO_CHECK(duration_s >= 0);
  return duration_s;
}

double Quantile(std::vector<double> v, double q) {
  BDIO_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(idx > 0 ? idx - 1 : 0, v.size() - 1)];
}

uint32_t ParseConcurrencyOrDie(const char* s) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || v <= 0 || v > 64) {
    std::fprintf(stderr,
                 "--concurrency expects an integer in [1, 64], got '%s'\n",
                 s);
    std::exit(2);
  }
  return static_cast<uint32_t>(v);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bdio;
  std::string policy_arg = "all";
  uint32_t cmax = 6;
  const core::BenchOptions options = core::BenchOptions::Parse(
      argc, argv,
      [&](const std::string& arg) {
        if (arg.rfind("--policy=", 0) == 0) {
          policy_arg = arg.substr(9);
          return true;
        }
        if (arg.rfind("--concurrency=", 0) == 0) {
          cmax = ParseConcurrencyOrDie(arg.c_str() + 14);
          return true;
        }
        return false;
      },
      "  --policy=fifo|fair|fair-preempt|all  cluster scheduler(s) to run\n"
      "  --concurrency=N   sweep 1..N concurrent jobs (default 6)\n");
  core::PrintFigureHeader(
      "Extension",
      "Multi-tenant scheduling: job streams on shared slots/disks/links",
      options);

  std::vector<std::string> policies;
  if (policy_arg == "all") {
    policies = {"fifo", "fair", "fair-preempt"};
  } else {
    if (sched::MakeScheduler(policy_arg) == nullptr) {
      std::fprintf(stderr,
                   "--policy expects fifo|fair|fair-preempt|all, got '%s'\n",
                   policy_arg.c_str());
      return 2;
    }
    policies = {policy_arg};
  }

  // Heterogeneous profiles, longest first: a TeraSort head job followed by
  // progressively smaller workloads is the worst case for FIFO.
  const workloads::WorkloadKind mix[] = {
      workloads::WorkloadKind::kTeraSort,
      workloads::WorkloadKind::kAggregation,
      workloads::WorkloadKind::kKMeans,
      workloads::WorkloadKind::kPageRank,
  };
  std::vector<JobProfile> profiles;
  std::vector<std::pair<std::string, uint64_t>> datasets;
  for (workloads::WorkloadKind kind : mix) {
    const workloads::WorkloadPlan plan = bench::CompressedPlan(options, kind);
    BDIO_CHECK(!plan.jobs.empty());
    profiles.push_back(JobProfile{kind, plan.jobs[0].spec});
    datasets.emplace_back(plan.dataset_path, plan.dataset_bytes);
  }

  auto make_stream = [&](uint32_t c) {
    std::vector<JobProfile> stream;
    for (uint32_t j = 0; j < c; ++j) {
      JobProfile p = profiles[j % profiles.size()];
      // Unique output per stream slot: two jobs of the same profile must
      // not collide on their output path.
      p.spec.output_path += "-mt" + std::to_string(j);
      stream.push_back(std::move(p));
    }
    return stream;
  };

  // All cells run concurrently (each is its own Simulator); results are
  // consumed in fixed print order, so stdout is byte-identical across
  // --jobs levels and repeated runs with the same seed.
  core::runner::ThreadPool pool(options.ResolvedJobs());
  const bool want_obs = bench::WantsObs(options);
  core::ExperimentResult obs_holder;
  obs_holder.label =
      policies.front() + "_c" + std::to_string(cmax);

  std::vector<std::future<double>> solo_futures;
  for (size_t p = 0; p < profiles.size(); ++p) {
    solo_futures.push_back(pool.Async([&, p] {
      return RunCell(options, "fifo", {profiles[p]}, datasets)
          .durations_s[0];
    }));
  }
  std::future<double> direct_future =
      pool.Async([&] { return RunDirect(options, profiles[0], datasets); });
  std::map<std::string, std::vector<std::future<CellResult>>> cell_futures;
  for (const std::string& policy : policies) {
    for (uint32_t c = 1; c <= cmax; ++c) {
      const bool observed =
          want_obs && policy == policies.front() && c == cmax;
      cell_futures[policy].push_back(pool.Async([&, policy, c, observed] {
        return RunCell(options, policy, make_stream(c), datasets,
                       observed ? &obs_holder : nullptr);
      }));
    }
  }

  std::vector<double> solo_s;
  TextTable solo_table;
  solo_table.SetHeader({"profile (alone)", "duration_s"});
  for (size_t p = 0; p < profiles.size(); ++p) {
    solo_s.push_back(solo_futures[p].get());
    solo_table.AddRow({profiles[p].spec.name,
                       TextTable::Num(solo_s.back(), 1)});
  }
  std::fputs(solo_table.ToString().c_str(), stdout);
  const double direct_s = direct_future.get();

  struct CellStats {
    CellResult cell;
    double mean_sd = 0, p95_sd = 0, max_sd = 0;
  };
  std::map<std::string, std::vector<CellStats>> stats;
  TextTable table;
  table.SetHeader({"policy", "jobs", "makespan_s", "slowdown mean",
                   "slowdown p95", "slowdown max", "hdfs util%", "mr util%",
                   "hdfs await", "mr await", "preempted"});
  for (const std::string& policy : policies) {
    for (uint32_t c = 1; c <= cmax; ++c) {
      CellStats s;
      s.cell = cell_futures[policy][c - 1].get();
      std::vector<double> slowdowns;
      for (uint32_t j = 0; j < c; ++j) {
        slowdowns.push_back(s.cell.durations_s[j] /
                            solo_s[j % solo_s.size()]);
      }
      double sum = 0;
      for (double sd : slowdowns) sum += sd;
      s.mean_sd = sum / static_cast<double>(slowdowns.size());
      s.p95_sd = Quantile(slowdowns, 0.95);
      s.max_sd = *std::max_element(slowdowns.begin(), slowdowns.end());
      table.AddRow({policy, std::to_string(c),
                    TextTable::Num(s.cell.makespan_s, 1),
                    TextTable::Num(s.mean_sd, 2), TextTable::Num(s.p95_sd, 2),
                    TextTable::Num(s.max_sd, 2),
                    TextTable::Num(s.cell.hdfs_util, 1),
                    TextTable::Num(s.cell.mr_util, 1),
                    TextTable::Num(s.cell.hdfs_await, 2),
                    TextTable::Num(s.cell.mr_await, 2),
                    std::to_string(s.cell.maps_preempted)});
      stats[policy].push_back(std::move(s));
    }
  }
  std::fputs(table.ToString().c_str(), stdout);

  if (want_obs) {
    core::WriteObsArtifacts(options, {{obs_holder.label, &obs_holder}});
  }

  std::vector<core::ShapeCheck> checks;
  checks.push_back(core::ShapeCheck{
      "a single job through the scheduler matches the direct single-job "
      "path exactly",
      solo_s[0] == direct_s});
  const CellStats& head_solo = stats[policies.front()][0];
  checks.push_back(core::ShapeCheck{
      "a one-job stream is the solo baseline (slowdown == 1)",
      std::fabs(head_solo.max_sd - 1.0) < 1e-9});
  if (policies.size() > 1) {
    bool same = true;
    for (const std::string& policy : policies) {
      same = same && stats[policy][0].cell.makespan_s ==
                         head_solo.cell.makespan_s;
    }
    checks.push_back(core::ShapeCheck{
        "policies are indistinguishable with one job", same});
  }
  if (cmax >= 2) {
    for (const std::string& policy : policies) {
      const CellStats& last = stats[policy].back();
      checks.push_back(core::ShapeCheck{
          policy + ": contention slows jobs down (mean slowdown > 1)",
          last.mean_sd > 1.0});
    }
  }
  if (cmax >= 3 && stats.count("fifo") && stats.count("fair")) {
    // At low concurrency (<= ~1 heavy job in the mix) per-job slowdown is
    // dominated by shared-disk contention, which no slot scheduler can
    // remove; the classic fair-scheduling win appears once several jobs
    // queue behind heavy ones, so the check anchors at the deepest level.
    checks.push_back(core::ShapeCheck{
        "fair sharing lowers p95 per-job slowdown vs FIFO at " +
            std::to_string(cmax) + " concurrent jobs",
        stats["fair"].back().p95_sd < stats["fifo"].back().p95_sd});
  }
  if (cmax >= 2 && stats.count("fair-preempt")) {
    checks.push_back(core::ShapeCheck{
        "preemption fires under fair-preempt (speculative slots reclaimed)",
        stats["fair-preempt"].back().cell.maps_preempted > 0});
  }
  return core::PrintShapeChecks(checks);
}
