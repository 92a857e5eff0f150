#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/report.h"
#include "core/runner/sweep_runner.h"
#include "core/runner/thread_pool.h"

namespace bdio::core {
namespace {

using runner::SweepRunner;
using runner::ThreadPool;
using workloads::WorkloadKind;

// ---- ThreadPool --------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.Submit([&count]() { ++count; });
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.Async([i]() { return i * i; }));
  }
  for (int i = 0; i < 16; ++i) EXPECT_EQ(futures[i].get(), i * i);
  // Destructor drains the fire-and-forget queue.
  {
    ThreadPool drain(2);
    for (int i = 0; i < 100; ++i) drain.Submit([&count]() { ++count; });
  }
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, SurvivesTaskExceptions) {
  ThreadPool pool(2);
  // Async routes the exception into the future...
  auto bad = pool.Async([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // ...and a throwing bare Submit is swallowed without killing a worker.
  pool.Submit([]() { throw std::runtime_error("fire and forget"); });
  // The pool still runs more tasks than it has workers afterwards.
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.Async([&count]() { ++count; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPoolTest, PendingAccountingIsConsistentWhenQuiescent) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.pending_tasks(), 0u);
  EXPECT_EQ(pool.AuditPending(), "");
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) futures.push_back(pool.Async([]() {}));
  for (auto& f : futures) f.get();
  // Every future resolved => nothing queued, nothing mid-claim.
  EXPECT_EQ(pool.pending_tasks(), 0u);
  EXPECT_EQ(pool.AuditPending(), "");
}

TEST(ThreadPoolTest, SingleThreadWakeupStress) {
  // The tightest wakeup schedule: one worker that goes back to sleep after
  // every task, with each Submit racing the worker's predicate-check-then-
  // block window. A lost wakeup leaves the task queued forever; the
  // deadline turns that hang into a fast, attributable failure.
  ThreadPool pool(1);
  std::atomic<int> count{0};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  constexpr int kRounds = 3000;
  for (int round = 0; round < kRounds; ++round) {
    auto f = pool.Async([&count]() { ++count; });
    ASSERT_EQ(f.wait_until(deadline), std::future_status::ready)
        << "lost wakeup: worker slept through Submit at round " << round;
    f.get();
  }
  EXPECT_EQ(count.load(), kRounds);
}

TEST(ThreadPoolTest, DefaultParallelismHonorsEnv) {
  ::setenv("BDIO_JOBS", "3", 1);
  EXPECT_EQ(ThreadPool::DefaultParallelism(), 3u);
  ::setenv("BDIO_JOBS", "not-a-number", 1);
  EXPECT_GE(ThreadPool::DefaultParallelism(), 1u);
  ::unsetenv("BDIO_JOBS");
  EXPECT_GE(ThreadPool::DefaultParallelism(), 1u);
}

// ---- SweepRunner: the determinism invariant ----------------------------

// Distilled summary of one result, covering every table the benches print.
struct Summary {
  std::string label;
  double duration_s;
  double hdfs_read, hdfs_util, hdfs_await, hdfs_rqsz, hdfs_above90;
  double mr_write, mr_util, mr_await, mr_rqsz;
  double cpu;

  static Summary Of(const ExperimentResult& r) {
    return Summary{r.label,
                   r.duration_s,
                   r.hdfs.read_mbps.Mean(),
                   r.hdfs.util.Mean(),
                   r.hdfs.await_ms.ActiveMean(),
                   r.hdfs.avgrq_sz.ActiveMean(),
                   r.hdfs.util_above_90,
                   r.mr.write_mbps.Mean(),
                   r.mr.util.Mean(),
                   r.mr.await_ms.ActiveMean(),
                   r.mr.avgrq_sz.ActiveMean(),
                   r.cpu_util.Mean()};
  }
};

std::vector<ExperimentSpec> SmallGrid() {
  // 2 workloads x 2 compression levels, tiny scale for test speed.
  std::vector<ExperimentSpec> specs;
  for (WorkloadKind w : {WorkloadKind::kTeraSort, WorkloadKind::kKMeans}) {
    for (bool compress : {false, true}) {
      ExperimentSpec spec;
      spec.workload = w;
      spec.factors.compress_intermediate = compress;
      spec.scale = 1.0 / 512;
      spec.seed = 42 + (compress ? 1 : 0);  // per-spec seed ownership
      specs.push_back(spec);
    }
  }
  return specs;
}

TEST(SweepRunnerTest, ParallelSweepIsBitIdenticalToSerial) {
  const std::vector<ExperimentSpec> specs = SmallGrid();

  SweepRunner serial(1);
  const auto serial_results = serial.Run(specs);
  SweepRunner parallel(4);
  const auto parallel_results = parallel.Run(specs);

  ASSERT_EQ(serial_results.size(), specs.size());
  ASSERT_EQ(parallel_results.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(serial_results[i].ok());
    ASSERT_TRUE(parallel_results[i].ok());
    const Summary a = Summary::Of(*serial_results[i]);
    const Summary b = Summary::Of(*parallel_results[i]);
    EXPECT_EQ(a.label, b.label);
    // Exact equality, not tolerance: the simulations share no state, so
    // scheduling must not perturb a single bit of the output.
    EXPECT_EQ(a.duration_s, b.duration_s) << a.label;
    EXPECT_EQ(a.hdfs_read, b.hdfs_read) << a.label;
    EXPECT_EQ(a.hdfs_util, b.hdfs_util) << a.label;
    EXPECT_EQ(a.hdfs_await, b.hdfs_await) << a.label;
    EXPECT_EQ(a.hdfs_rqsz, b.hdfs_rqsz) << a.label;
    EXPECT_EQ(a.hdfs_above90, b.hdfs_above90) << a.label;
    EXPECT_EQ(a.mr_write, b.mr_write) << a.label;
    EXPECT_EQ(a.mr_util, b.mr_util) << a.label;
    EXPECT_EQ(a.mr_await, b.mr_await) << a.label;
    EXPECT_EQ(a.mr_rqsz, b.mr_rqsz) << a.label;
    EXPECT_EQ(a.cpu, b.cpu) << a.label;
  }
}

TEST(SweepRunnerTest, ResultsComeBackInSubmissionOrder) {
  const std::vector<ExperimentSpec> specs = SmallGrid();
  SweepRunner sweep(4);
  const auto results = sweep.Run(specs);
  ASSERT_EQ(results.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    EXPECT_EQ(results[i]->label, specs[i].factors.Label(specs[i].workload));
  }
}

// ---- GridRunner: memoization + in-flight dedup -------------------------

BenchOptions FastOptions(uint32_t jobs) {
  BenchOptions options;
  options.jobs = jobs;
  options.scale = 1.0 / 1024;
  return options;
}

// A stub executor that counts invocations and is slow enough that a second
// Get reliably lands while the first is still in flight.
GridRunner::RunFn CountingRun(std::atomic<int>* runs) {
  return [runs](const ExperimentSpec& spec) -> Result<ExperimentResult> {
    runs->fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ExperimentResult result;
    result.label = spec.factors.Label(spec.workload);
    result.duration_s = 1.0;
    return result;
  };
}

TEST(GridRunnerTest, ConcurrentGetOnSameKeySimulatesOnce) {
  std::atomic<int> runs{0};
  GridRunner grid(FastOptions(4), CountingRun(&runs));
  const Factors factors;

  std::vector<std::thread> callers;
  std::atomic<int> ok{0};
  for (int i = 0; i < 4; ++i) {
    callers.emplace_back([&grid, &factors, &ok]() {
      const ExperimentResult& res =
          grid.Get(WorkloadKind::kTeraSort, factors);
      if (res.duration_s == 1.0) ++ok;
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(ok.load(), 4);
  EXPECT_EQ(runs.load(), 1) << "in-flight dedup must collapse same-key Gets";
}

TEST(GridRunnerTest, PrefetchThenGetSimulatesOnceAndCaches) {
  std::atomic<int> runs{0};
  GridRunner grid(FastOptions(2), CountingRun(&runs));
  const Factors factors;

  grid.Prefetch(WorkloadKind::kPageRank, factors);
  grid.Prefetch(WorkloadKind::kPageRank, factors);  // no-op: in flight
  const ExperimentResult& first = grid.Get(WorkloadKind::kPageRank, factors);
  const ExperimentResult& again = grid.Get(WorkloadKind::kPageRank, factors);
  EXPECT_EQ(&first, &again) << "cached result must be reference-stable";
  EXPECT_EQ(runs.load(), 1);

  grid.PrefetchAll({factors});  // 4 workloads; PageRank already cached
  // Get joins only its own key, so join all four before counting runs.
  for (WorkloadKind kind : workloads::AllWorkloads()) grid.Get(kind, factors);
  EXPECT_EQ(runs.load(), 4);
}

TEST(GridRunnerTest, RealExperimentMatchesDirectRun) {
  BenchOptions options = FastOptions(2);
  GridRunner grid(options);
  const Factors factors;
  const ExperimentResult& via_grid =
      grid.Get(WorkloadKind::kTeraSort, factors);

  auto direct = RunExperiment(options.MakeSpec(WorkloadKind::kTeraSort,
                                               factors));
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(via_grid.label, direct->label);
  EXPECT_EQ(via_grid.duration_s, direct->duration_s);
  EXPECT_EQ(via_grid.hdfs.util.Mean(), direct->hdfs.util.Mean());
}

TEST(BenchOptionsTest, ParsesJobsFlagBothForms) {
  {
    const char* argv[] = {"bench", "--jobs=7"};
    BenchOptions o = BenchOptions::Parse(2, const_cast<char**>(argv));
    EXPECT_EQ(o.jobs, 7u);
    EXPECT_EQ(o.ResolvedJobs(), 7u);
  }
  {
    const char* argv[] = {"bench", "--jobs", "3"};
    BenchOptions o = BenchOptions::Parse(3, const_cast<char**>(argv));
    EXPECT_EQ(o.jobs, 3u);
  }
  {
    const char* argv[] = {"bench", "--seed", "9", "--scale", "64",
                          "--workers", "3", "--outdir", "d"};
    BenchOptions o = BenchOptions::Parse(9, const_cast<char**>(argv));
    EXPECT_EQ(o.seed, 9u);
    EXPECT_EQ(o.scale, 1.0 / 64);
    EXPECT_EQ(o.num_workers, 3u);
    EXPECT_EQ(o.outdir, "d");
  }
  {
    const char* argv[] = {"bench", "--seed=11", "--scale=0.25",
                          "--workers=5"};
    BenchOptions o = BenchOptions::Parse(4, const_cast<char**>(argv));
    EXPECT_EQ(o.seed, 11u);
    EXPECT_EQ(o.scale, 0.25);
    EXPECT_EQ(o.num_workers, 5u);
  }
  {
    // Garbage and missing values still exit 2, in either form.
    const char* seed_garbage[] = {"bench", "--seed", "12x"};
    EXPECT_EXIT(BenchOptions::Parse(3, const_cast<char**>(seed_garbage)),
                ::testing::ExitedWithCode(2), "--seed expects");
    const char* workers_garbage[] = {"bench", "--workers=-1"};
    EXPECT_EXIT(BenchOptions::Parse(2, const_cast<char**>(workers_garbage)),
                ::testing::ExitedWithCode(2), "--workers expects");
    const char* scale_missing[] = {"bench", "--scale"};
    EXPECT_EXIT(BenchOptions::Parse(2, const_cast<char**>(scale_missing)),
                ::testing::ExitedWithCode(2), "--scale expects");
  }
  {
    const char* argv[] = {"bench"};
    BenchOptions o = BenchOptions::Parse(1, const_cast<char**>(argv));
    EXPECT_EQ(o.jobs, 0u);  // auto
    ::setenv("BDIO_JOBS", "5", 1);
    EXPECT_EQ(o.ResolvedJobs(), 5u);
    ::unsetenv("BDIO_JOBS");
    EXPECT_GE(o.ResolvedJobs(), 1u);
  }
}

}  // namespace
}  // namespace bdio::core
