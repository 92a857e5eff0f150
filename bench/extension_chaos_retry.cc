// Extension bench: compute-side fault tolerance under chaos. Where
// extension_chaos kills whole DataNode hosts, this matrix attacks only the
// compute plane — a TaskTracker death (kill-tasktracker) plus a mass task
// crash (crash-task) — and sweeps the knobs that decide how the framework
// absorbs the hit: kill time (early map phase vs late), the per-task
// attempt budget (mapred.map.max.attempts), and tracker blacklisting on or
// off. Each TeraSort cell reports makespan stretch, I/O amplification,
// retries, re-executed maps, and wasted-work bytes against the healthy
// baseline. A second panel drives an iterative SSSP dag through the same
// TaskTracker death (the engine's re-execution keeps the dag alive), and a
// third exercises the dag-level RetryPolicy: a poisoned node retried then
// failing the dag, or written off with its subtree skipped (graceful
// degradation).
//
// Determinism contract: every cell is a pure function of --seed; stdout is
// byte-identical across --jobs levels, with or without faults armed, and
// under BDIO_CHECK_INVARIANTS=1.

#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/figure_common.h"
#include "check/invariants.h"
#include "cluster/cluster.h"
#include "common/table.h"
#include "core/runner/thread_pool.h"
#include "dag/job_dag.h"
#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "hdfs/hdfs.h"
#include "mapreduce/engine.h"
#include "sim/simulator.h"
#include "workloads/graph_profile.h"
#include "workloads/profile.h"

namespace {

using namespace bdio;

/// One TeraSort cell of the chaos-retry grid.
struct TsScenario {
  std::string label;
  bool faulted = false;     ///< Arm kill-tasktracker + crash-task.
  double kill_frac = 0.0;   ///< Fault time as a fraction of the healthy run.
  uint32_t budget = 4;      ///< mapred.map.max.attempts.
  bool blacklist = false;   ///< Strike-based tracker blacklisting on?
  bool use_injector = true; ///< false = the injector-free healthy baseline.
};

struct TsCell {
  bool ok = false;
  double duration_s = 0;
  mapreduce::JobCounters counters;
  uint64_t nodes_blacklisted = 0;
  uint64_t faults_injected = 0;

  /// Total bytes the cluster moved for the job (the I/O-amplification
  /// numerator): HDFS reads + logical writes + spills + shuffle.
  uint64_t TotalBytes() const {
    return counters.hdfs_read_bytes + counters.hdfs_write_bytes +
           counters.intermediate_write_bytes + counters.shuffle_network_bytes;
  }
};

TsCell RunTeraSort(const core::BenchOptions& options,
                   const TsScenario& scenario, double healthy_s) {
  Rng rng(options.seed);
  sim::Simulator sim;
  sim::ScopedLogClock log_clock(&sim);
  cluster::Cluster cluster(&sim, bench::MakeScaledClusterParams(options), 16,
                           rng.Fork());
  hdfs::Hdfs dfs(&cluster, hdfs::HdfsParams{}, rng.Fork());

  workloads::PlanOptions plan_options;
  plan_options.scale = options.scale;
  plan_options.compress_intermediate = true;
  const auto workload =
      workloads::BuildPlan(workloads::WorkloadKind::kTeraSort, plan_options);
  bench::PreloadOrExit(&dfs, workload.dataset_path, workload.dataset_bytes);

  mapreduce::MrEngine engine(&cluster, &dfs,
                             mapreduce::SlotConfig::Paper_1_8(), rng.Fork());
  mapreduce::FaultToleranceConfig ft;
  ft.blacklist_strikes = scenario.blacklist ? 3 : UINT32_MAX;
  engine.SetFaultTolerance(ft);

  std::unique_ptr<faults::FaultInjector> injector;
  if (scenario.use_injector) {
    injector =
        std::make_unique<faults::FaultInjector>(&cluster, &dfs, &engine);
  }
  const auto checker =
      invariants::MaybeAttachFromEnv(&sim, &cluster, &dfs, &engine, nullptr);

  mapreduce::SimJobSpec spec = workload.jobs[0].spec;
  spec.output_path += "-" + scenario.label;
  spec.max_task_attempts = scenario.budget;

  TsCell cell;
  bool done = false;
  engine.RunJob(spec, [&](Status s, const mapreduce::JobCounters& c) {
    cell.ok = s.ok();
    cell.counters = c;
    done = true;
  });
  if (injector && scenario.faulted) {
    const SimTime t = TimeAt(FromSeconds(healthy_s * scenario.kill_frac));
    faults::FaultPlan plan;
    plan.KillTaskTracker(3, t).CrashTask(5, t);
    BDIO_CHECK_OK(injector->Arm(plan));
  } else if (injector) {
    BDIO_CHECK_OK(injector->Arm(faults::FaultPlan{}));
  }
  sim.Run();
  BDIO_CHECK(done);
  cell.duration_s = cell.counters.DurationSeconds();
  cell.nodes_blacklisted = engine.nodes_blacklisted();
  if (injector) cell.faults_injected = injector->injected();
  return cell;
}

/// One SSSP-dag cell: the iterative graph workload with (optionally) a
/// TaskTracker death mid-run — the dag survives via engine re-execution.
struct DagCell {
  bool ok = false;
  double makespan_s = 0;
  uint64_t total_bytes = 0;  ///< Engine-wide, summed over node counters.
  uint64_t maps_reexecuted = 0;
  uint64_t task_failures = 0;
  uint64_t retries = 0;
  uint64_t wasted_bytes = 0;
  uint32_t nodes_completed = 0;
  std::string audit;
};

DagCell RunSssp(const core::BenchOptions& options, bool faulted,
                double kill_frac, double healthy_s) {
  workloads::GraphPlanOptions plan_options;
  plan_options.scale = options.scale;
  plan_options.model_nodes = 512;
  plan_options.max_rounds = 16;
  plan_options.seed = options.seed;
  workloads::GraphDagPlan plan =
      workloads::BuildGraphDag(workloads::GraphWorkload::kSssp, plan_options);

  Rng rng(options.seed);
  sim::Simulator sim;
  sim::ScopedLogClock log_clock(&sim);
  cluster::Cluster cluster(&sim, bench::MakeScaledClusterParams(options), 16,
                           rng.Fork());
  hdfs::Hdfs dfs(&cluster, hdfs::HdfsParams{}, rng.Fork());
  bench::PreloadOrExit(&dfs, plan.dataset_path, plan.dataset_bytes);
  mapreduce::MrEngine engine(&cluster, &dfs,
                             mapreduce::SlotConfig::Paper_1_8(), rng.Fork());
  faults::FaultInjector injector(&cluster, &dfs, &engine);

  dag::JobDag jobdag(&sim, &engine, &dfs, std::move(plan.dag));
  const auto checker =
      invariants::MaybeAttachFromEnv(&sim, &cluster, &dfs, &engine, nullptr);
  if (checker != nullptr) checker->WatchDag(&jobdag);

  DagCell cell;
  bool done = false;
  jobdag.Run([&](Status s) {
    cell.ok = s.ok();
    done = true;
  });
  faults::FaultPlan fault_plan;
  if (faulted) {
    fault_plan.KillTaskTracker(3, TimeAt(FromSeconds(healthy_s * kill_frac)));
  }
  BDIO_CHECK_OK(injector.Arm(fault_plan));
  sim.Run();
  BDIO_CHECK(done);
  for (const dag::NodeRecord& node : jobdag.node_records()) {
    cell.makespan_s =
        std::max(cell.makespan_s, ToSeconds(node.counters.end_time));
    cell.total_bytes += node.counters.hdfs_read_bytes +
                        node.counters.hdfs_write_bytes +
                        node.counters.intermediate_write_bytes +
                        node.counters.shuffle_network_bytes;
  }
  cell.maps_reexecuted = engine.maps_reexecuted();
  cell.task_failures = engine.task_failures();
  cell.retries = engine.retries_scheduled();
  cell.wasted_bytes = engine.wasted_work_bytes();
  cell.nodes_completed = jobdag.nodes_completed();
  cell.audit = jobdag.AuditInvariants();
  return cell;
}

/// One dag-level RetryPolicy cell: a four-node static dag whose node B
/// reads a path that does not exist and therefore fails every attempt.
///
///   A (terasort) ── D (reads A's output)
///   B (poisoned) ── C (reads B's output)
///
/// The policy decides the blast radius: fail the dag after B's budget, or
/// write B and C off and finish degraded with A and D's results.
struct PolicyCell {
  bool ok = false;
  bool degraded = false;
  Status status;
  uint32_t completed = 0;
  uint32_t retries = 0;
  uint32_t written_off = 0;
  uint32_t skipped = 0;
  uint32_t poisoned_attempts = 0;
  std::string churned;  ///< Failed/skipped node names from the ledger.
  std::string audit;
};

PolicyCell RunRetryPolicy(const core::BenchOptions& options,
                          const std::string& label, uint32_t max_node_retries,
                          dag::RetryPolicy::OnExhausted on_exhausted) {
  Rng rng(options.seed);
  sim::Simulator sim;
  sim::ScopedLogClock log_clock(&sim);
  cluster::Cluster cluster(&sim, bench::MakeScaledClusterParams(options), 16,
                           rng.Fork());
  hdfs::Hdfs dfs(&cluster, hdfs::HdfsParams{}, rng.Fork());

  workloads::PlanOptions plan_options;
  plan_options.scale = options.scale;
  plan_options.compress_intermediate = true;
  const auto workload =
      workloads::BuildPlan(workloads::WorkloadKind::kTeraSort, plan_options);
  bench::PreloadOrExit(&dfs, workload.dataset_path, workload.dataset_bytes);
  mapreduce::MrEngine engine(&cluster, &dfs,
                             mapreduce::SlotConfig::Paper_1_8(), rng.Fork());

  const std::string root = "/out/retry-policy-" + label;
  dag::DagSpec spec;
  spec.name = "retry-policy-" + label;
  spec.retry.max_node_retries = max_node_retries;
  spec.retry.on_exhausted = on_exhausted;
  dag::DagNode a;
  a.spec = workload.jobs[0].spec;
  a.spec.name = "A-terasort";
  a.spec.output_path = root + "/a";
  dag::DagNode b;
  b.spec = workload.jobs[0].spec;
  b.spec.name = "B-poisoned";
  b.spec.input_path = "/missing/retry-policy-input";
  b.spec.output_path = root + "/b";
  dag::DagNode c;
  c.spec = workload.jobs[0].spec;
  c.spec.name = "C-downstream";
  c.spec.input_path = root + "/b";
  c.spec.output_path = root + "/c";
  c.deps = {1};
  dag::DagNode d;
  d.spec = workload.jobs[0].spec;
  d.spec.name = "D-downstream";
  d.spec.input_path = root + "/a";
  d.spec.output_path = root + "/d";
  d.deps = {0};
  spec.nodes = {std::move(a), std::move(b), std::move(c), std::move(d)};

  dag::JobDag jobdag(&sim, &engine, &dfs, std::move(spec));
  const auto checker =
      invariants::MaybeAttachFromEnv(&sim, &cluster, &dfs, &engine, nullptr);
  if (checker != nullptr) checker->WatchDag(&jobdag);

  PolicyCell cell;
  bool done = false;
  jobdag.Run([&](Status s) {
    cell.status = s;
    cell.ok = s.ok();
    done = true;
  });
  sim.Run();
  BDIO_CHECK(done);
  cell.degraded = jobdag.degraded();
  cell.completed = jobdag.nodes_completed();
  cell.retries = jobdag.node_retries();
  cell.written_off = jobdag.nodes_written_off();
  cell.skipped = jobdag.nodes_skipped();
  for (const dag::NodeRecord& node : jobdag.node_records()) {
    if (node.name == "B-poisoned") cell.poisoned_attempts = node.attempts;
    if (node.failures == 0 && !node.skipped) continue;
    if (!cell.churned.empty()) cell.churned += " ";
    cell.churned += node.skipped ? node.name + "(skipped)"
                                 : node.name + "(x" +
                                       std::to_string(node.attempts) + ")";
  }
  if (cell.churned.empty()) cell.churned = "none";
  cell.audit = jobdag.AuditInvariants();
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bdio;
  const core::BenchOptions options = core::BenchOptions::Parse(argc, argv);
  // No cell of this matrix is observed, so an artifact flag is refused
  // rather than ignored.
  if (bench::WantsObs(options)) {
    std::fprintf(stderr,
                 "extension_chaos_retry: --trace-out, --metrics-out and "
                 "--blktrace-out are not supported\n");
    return 2;
  }
  core::PrintFigureHeader(
      "Extension",
      "Chaos-retry matrix: task retries, blacklisting, dag degradation",
      options);

  core::runner::ThreadPool pool(options.ResolvedJobs());

  // Phase 1: healthy baselines (fault times scale with the run length).
  std::future<TsCell> ts_healthy_future = pool.Async([&] {
    return RunTeraSort(options, TsScenario{"healthy"}, 0);
  });
  std::future<DagCell> sssp_healthy_future =
      pool.Async([&] { return RunSssp(options, false, 0, 0); });
  const TsCell ts_healthy = ts_healthy_future.get();
  const DagCell sssp_healthy = sssp_healthy_future.get();

  // Phase 2: the grid — kill time x attempt budget x blacklist — plus the
  // armed-but-empty identity cell, all concurrent, printed in fixed order.
  std::vector<TsScenario> scenarios;
  scenarios.push_back(TsScenario{"empty-plan"});
  for (const double kill_frac : {0.25, 0.6}) {
    for (const uint32_t budget : {2u, 4u}) {
      for (const bool blacklist : {false, true}) {
        TsScenario s;
        char label[64];
        std::snprintf(label, sizeof(label), "k%02d-b%u-bl%s",
                      static_cast<int>(kill_frac * 100), budget,
                      blacklist ? "on" : "off");
        s.label = label;
        s.faulted = true;
        s.kill_frac = kill_frac;
        s.budget = budget;
        s.blacklist = blacklist;
        scenarios.push_back(s);
      }
    }
  }
  std::vector<std::future<TsCell>> ts_futures;
  for (const TsScenario& s : scenarios) {
    ts_futures.push_back(pool.Async(
        [&, &s = s] { return RunTeraSort(options, s, ts_healthy.duration_s); }));
  }
  std::future<DagCell> sssp_kill_future = pool.Async(
      [&] { return RunSssp(options, true, 0.3, sssp_healthy.makespan_s); });
  std::future<PolicyCell> rp_failfast_future = pool.Async([&] {
    return RunRetryPolicy(options, "failfast", 0,
                          dag::RetryPolicy::OnExhausted::kFailDag);
  });
  std::future<PolicyCell> rp_retry_future = pool.Async([&] {
    return RunRetryPolicy(options, "retry", 2,
                          dag::RetryPolicy::OnExhausted::kFailDag);
  });
  std::future<PolicyCell> rp_skip_future = pool.Async([&] {
    return RunRetryPolicy(options, "skip", 2,
                          dag::RetryPolicy::OnExhausted::kSkipSubtree);
  });

  TextTable ts_table;
  ts_table.SetHeader({"terasort cell", "ok", "duration_s", "stretch",
                      "io_amp", "maps", "fails", "retries", "reexec",
                      "reexec_MB", "wasted_MB", "blacklisted"});
  auto ts_row = [&](const std::string& label, const TsCell& cell) {
    ts_table.AddRow(
        {label, cell.ok ? "yes" : "NO", TextTable::Num(cell.duration_s, 1),
         TextTable::Num(cell.duration_s / ts_healthy.duration_s, 2),
         TextTable::Num(static_cast<double>(cell.TotalBytes()) /
                            static_cast<double>(ts_healthy.TotalBytes()),
                        3),
         std::to_string(cell.counters.maps_launched),
         std::to_string(cell.counters.task_failures),
         std::to_string(cell.counters.retries_scheduled),
         std::to_string(cell.counters.maps_reexecuted),
         TextTable::Num(static_cast<double>(cell.counters.reexec_read_bytes +
                                            cell.counters.reexec_write_bytes) /
                            1e6,
                        1),
         TextTable::Num(
             static_cast<double>(cell.counters.wasted_work_bytes) / 1e6, 1),
         std::to_string(cell.nodes_blacklisted)});
  };
  ts_row("healthy", ts_healthy);
  std::vector<TsCell> ts_cells;
  for (size_t i = 0; i < scenarios.size(); ++i) {
    ts_cells.push_back(ts_futures[i].get());
    ts_row(scenarios[i].label, ts_cells.back());
  }
  std::fputs(ts_table.ToString().c_str(), stdout);

  const DagCell sssp_kill = sssp_kill_future.get();
  TextTable dag_table;
  dag_table.SetHeader({"sssp dag cell", "ok", "makespan_s", "stretch",
                       "io_amp", "nodes", "fails", "reexec", "wasted_MB"});
  auto dag_row = [&](const std::string& label, const DagCell& cell) {
    dag_table.AddRow(
        {label, cell.ok ? "yes" : "NO", TextTable::Num(cell.makespan_s, 1),
         TextTable::Num(cell.makespan_s / sssp_healthy.makespan_s, 2),
         TextTable::Num(static_cast<double>(cell.total_bytes) /
                            static_cast<double>(sssp_healthy.total_bytes),
                        3),
         std::to_string(cell.nodes_completed),
         std::to_string(cell.task_failures),
         std::to_string(cell.maps_reexecuted),
         TextTable::Num(static_cast<double>(cell.wasted_bytes) / 1e6, 1)});
  };
  dag_row("healthy", sssp_healthy);
  dag_row("kill-tt3@30%", sssp_kill);
  std::fputs(dag_table.ToString().c_str(), stdout);

  const PolicyCell rp_failfast = rp_failfast_future.get();
  const PolicyCell rp_retry = rp_retry_future.get();
  const PolicyCell rp_skip = rp_skip_future.get();
  TextTable rp_table;
  rp_table.SetHeader({"retry policy", "ok", "degraded", "completed",
                      "retries", "written_off", "skipped", "B attempts",
                      "failed/skipped nodes"});
  auto rp_row = [&](const std::string& label, const PolicyCell& cell) {
    rp_table.AddRow({label, cell.ok ? "yes" : "NO",
                     cell.degraded ? "yes" : "no",
                     std::to_string(cell.completed),
                     std::to_string(cell.retries),
                     std::to_string(cell.written_off),
                     std::to_string(cell.skipped),
                     std::to_string(cell.poisoned_attempts), cell.churned});
  };
  rp_row("fail-fast", rp_failfast);
  rp_row("retry2-faildag", rp_retry);
  rp_row("retry2-skip", rp_skip);
  std::fputs(rp_table.ToString().c_str(), stdout);

  std::vector<core::ShapeCheck> checks;
  const TsCell& ts_empty = ts_cells[0];
  checks.push_back(core::ShapeCheck{
      "terasort: an armed-but-empty plan is byte-identical to no injector",
      ts_empty.ok && ts_empty.duration_s == ts_healthy.duration_s &&
          ts_empty.TotalBytes() == ts_healthy.TotalBytes() &&
          ts_empty.faults_injected == 0});
  checks.push_back(core::ShapeCheck{
      "terasort: the healthy run touches none of the retry machinery",
      ts_healthy.counters.task_failures == 0 &&
          ts_healthy.counters.retries_scheduled == 0 &&
          ts_healthy.counters.maps_reexecuted == 0 &&
          ts_healthy.counters.wasted_work_bytes == 0 &&
          ts_healthy.nodes_blacklisted == 0});
  bool faulted_ok = true;
  bool faulted_slower = true;
  bool faulted_wasteful = true;
  bool crash_retried = true;
  bool blacklist_fires = true;
  bool reexec_fires = true;
  for (size_t i = 1; i < scenarios.size(); ++i) {
    const TsScenario& s = scenarios[i];
    const TsCell& cell = ts_cells[i];
    faulted_ok = faulted_ok && cell.ok && cell.faults_injected == 2;
    faulted_slower = faulted_slower && cell.duration_s > ts_healthy.duration_s;
    faulted_wasteful =
        faulted_wasteful && cell.counters.wasted_work_bytes > 0 &&
        cell.TotalBytes() >= ts_healthy.TotalBytes();
    if (s.kill_frac == 0.25) {
      crash_retried = crash_retried && cell.counters.task_failures > 0 &&
                      cell.counters.retries_scheduled > 0;
      reexec_fires = reexec_fires && cell.counters.maps_reexecuted > 0 &&
                     cell.counters.reexec_read_bytes > 0;
    }
    blacklist_fires =
        blacklist_fires &&
        (s.blacklist ? (s.kill_frac != 0.25 || cell.nodes_blacklisted >= 1)
                     : cell.nodes_blacklisted == 0);
  }
  checks.push_back(core::ShapeCheck{
      "terasort: every faulted cell completes via retries, not failure",
      faulted_ok});
  checks.push_back(core::ShapeCheck{
      "terasort: compute faults cost time (makespan stretch > 1)",
      faulted_slower});
  checks.push_back(core::ShapeCheck{
      "terasort: faults waste I/O (wasted-work bytes > 0, amplification >= 1)",
      faulted_wasteful});
  checks.push_back(core::ShapeCheck{
      "terasort: early crash-task charges budgets and schedules backoffs",
      crash_retried});
  checks.push_back(core::ShapeCheck{
      "terasort: an early TaskTracker death re-executes lost map outputs "
      "with fresh HDFS reads",
      reexec_fires});
  checks.push_back(core::ShapeCheck{
      "terasort: strikes blacklist the crashing node exactly when the "
      "policy is on",
      blacklist_fires});

  checks.push_back(core::ShapeCheck{
      "sssp: healthy dag is untouched by the retry machinery",
      sssp_healthy.ok && sssp_healthy.task_failures == 0 &&
          sssp_healthy.maps_reexecuted == 0 && sssp_healthy.audit.empty()});
  checks.push_back(core::ShapeCheck{
      "sssp: the dag survives a TaskTracker death mid-iteration",
      sssp_kill.ok && sssp_kill.nodes_completed >= sssp_healthy.nodes_completed &&
          sssp_kill.audit.empty()});
  checks.push_back(core::ShapeCheck{
      "sssp: the death costs time and bytes",
      sssp_kill.makespan_s > sssp_healthy.makespan_s &&
          sssp_kill.total_bytes >= sssp_healthy.total_bytes});

  checks.push_back(core::ShapeCheck{
      "policy fail-fast: one attempt, dag fails, nothing skipped",
      !rp_failfast.ok && rp_failfast.poisoned_attempts == 1 &&
          rp_failfast.retries == 0 && rp_failfast.skipped == 0 &&
          rp_failfast.audit.empty()});
  checks.push_back(core::ShapeCheck{
      "policy retry+faildag: budget spent (3 attempts), dag still fails",
      !rp_retry.ok && rp_retry.poisoned_attempts == 3 &&
          rp_retry.retries == 2 && rp_retry.written_off == 1 &&
          rp_retry.skipped == 0 && rp_retry.audit.empty()});
  checks.push_back(core::ShapeCheck{
      "policy retry+skip: dag degrades gracefully — B written off, C "
      "skipped, A and D deliver",
      rp_skip.ok && rp_skip.degraded && rp_skip.poisoned_attempts == 3 &&
          rp_skip.written_off == 1 && rp_skip.skipped == 1 &&
          rp_skip.completed == 3 &&
          rp_skip.churned == "B-poisoned(x3) C-downstream(skipped)" &&
          rp_skip.audit.empty()});
  return core::PrintShapeChecks(checks);
}
