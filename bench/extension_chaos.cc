// Extension bench: chaos matrix. Runs representative BigDataBench workloads
// (TeraSort = shuffle-heavy, Aggregation = combine-heavy) under a grid of
// deterministic fault scenarios driven by faults::FaultPlan — a DataNode/
// TaskTracker death, silent replica corruption in the input, a fail-slow
// disk, and the same fail-slow disk with speculative execution enabled —
// and reports what each fault costs in runtime and extra I/O: re-executed
// maps, re-replicated bytes, checksum repairs, and speculative waste.
//
// Determinism contract on display: the "empty plan" scenario arms an
// injector with no events and must match the injector-free healthy run
// exactly; every cell is a pure function of --seed, so stdout is
// byte-identical across --jobs levels and repeated runs.

#include <cstdio>
#include <future>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/figure_common.h"
#include "common/table.h"
#include "core/runner/thread_pool.h"
#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "hdfs/hdfs.h"
#include "mapreduce/engine.h"
#include "workloads/profile.h"

namespace {

using namespace bdio;

struct Scenario {
  std::string label;
  faults::FaultPlan plan;
  bool use_injector = true;   ///< false = the injector-free baseline.
  bool speculation = false;   ///< mapred.map.tasks.speculative.execution.
};

struct CellResult {
  double duration_s = 0;
  mapreduce::JobCounters counters;
  // HDFS recovery activity.
  uint64_t rereplicated_blocks = 0;
  uint64_t rereplicated_bytes = 0;
  uint64_t checksum_failures = 0;
  uint64_t read_failovers = 0;
  uint64_t pipeline_recoveries = 0;
  uint64_t unrecoverable_blocks = 0;
  // Engine-wide speculative activity (job counters miss losers that drain
  // after the job callback fires).
  uint64_t speculative_launched = 0;
  uint64_t speculative_killed = 0;
  uint64_t speculative_wasted_bytes = 0;
  uint64_t faults_injected = 0;
};

CellResult RunCell(const core::BenchOptions& options,
                   workloads::WorkloadKind kind, const Scenario& scenario,
                   core::ExperimentResult* obs_out = nullptr) {
  core::TestbedSpec bed_spec =
      bench::MakeTestbedSpec(options, obs_out != nullptr);
  bed_spec.faults = scenario.use_injector;
  // BDIO_CHECK_INVARIANTS=1 audits every layer as the chaos runs; checks
  // are read-only so the figure stays byte-identical either way.
  core::Testbed bed(bed_spec, Rng(options.seed));
  if (obs_out) bed.ExportObs(obs_out);
  faults::FaultInjector* injector = bed.injector();

  const auto workload = bench::CompressedPlan(options, kind);
  bench::PreloadOrExit(&bed, workload.dataset_path, workload.dataset_bytes);

  mapreduce::SimJobSpec spec = workload.jobs[0].spec;
  spec.output_path += "-" + scenario.label;
  spec.speculative_execution = scenario.speculation;

  CellResult result;
  bool done = false;
  bed.engine().RunJob(spec, [&](Status s, const mapreduce::JobCounters& c) {
    BDIO_CHECK_OK(s);
    result.counters = c;
    done = true;
  });
  if (injector) BDIO_CHECK_OK(injector->Arm(scenario.plan));
  bed.sim().Run();
  BDIO_CHECK(done);
  result.duration_s = result.counters.DurationSeconds();
  result.rereplicated_blocks = bed.hdfs().rereplicated_blocks();
  result.rereplicated_bytes = bed.hdfs().rereplicated_bytes();
  result.checksum_failures = bed.hdfs().checksum_failures();
  result.read_failovers = bed.hdfs().read_failovers();
  result.pipeline_recoveries = bed.hdfs().pipeline_recoveries();
  result.unrecoverable_blocks = bed.hdfs().unrecoverable_blocks();
  result.speculative_launched = bed.engine().speculative_launched();
  result.speculative_killed = bed.engine().speculative_killed();
  result.speculative_wasted_bytes = bed.engine().speculative_wasted_bytes();
  if (injector) result.faults_injected = injector->injected();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bdio;
  const core::BenchOptions options = core::BenchOptions::Parse(argc, argv);
  core::PrintFigureHeader(
      "Extension",
      "Chaos matrix: workloads x deterministic fault scenarios", options);

  const std::vector<workloads::WorkloadKind> kinds = {
      workloads::WorkloadKind::kTeraSort,
      workloads::WorkloadKind::kAggregation,
  };

  core::runner::ThreadPool pool(options.ResolvedJobs());

  // Phase 1: the injector-free healthy baseline per workload. Fault times
  // are placed relative to its duration so scenarios scale with --scale.
  std::vector<std::future<CellResult>> healthy_futures;
  for (workloads::WorkloadKind kind : kinds) {
    healthy_futures.push_back(pool.Async([&, kind] {
      return RunCell(options, kind,
                     Scenario{"healthy", faults::FaultPlan{}, false, false});
    }));
  }
  std::vector<CellResult> healthy;
  for (auto& f : healthy_futures) healthy.push_back(f.get());

  // Phase 2: the fault scenarios, all cells concurrent, printed in fixed
  // workload-major order.
  auto scenarios_for = [&](workloads::WorkloadKind kind,
                           const CellResult& base) {
    const auto plan = bench::CompressedPlan(options, kind);
    const uint64_t block_bytes = hdfs::HdfsParams{}.block_bytes.bytes();
    const uint32_t num_blocks = static_cast<uint32_t>(
        (plan.dataset_bytes + block_bytes - 1) / block_bytes);
    std::vector<Scenario> scenarios;
    scenarios.push_back(
        Scenario{"empty-plan", faults::FaultPlan{}, true, false});
    scenarios.push_back(Scenario{
        "kill-dn3",
        faults::FaultPlan{}.KillDataNode(
            3, TimeAt(FromSeconds(base.duration_s * 0.25))),
        true, false});
    // Bitrot: the first replica of every input block rots before the job
    // reads it; local-replica preference means a large share of the reads
    // hit a bad copy, fail the checksum, fail over, and queue repairs.
    faults::FaultPlan bitrot;
    for (uint32_t b = 0; b < num_blocks; ++b) {
      bitrot.CorruptReplica(plan.dataset_path, b, 0, TimeAt(FromSeconds(0.25)));
    }
    scenarios.push_back(Scenario{"bitrot-input", std::move(bitrot), true,
                                 false});
    // Fail-slow: every disk of node 2 serves at 1/6 speed for the whole
    // run — the straggler machine of Observation 7 lineage — once without
    // and once with speculative backups.
    faults::FaultPlan slow;
    for (uint32_t d = 0; d < 3; ++d) {
      slow.DegradeDisk(2, /*mr_disk=*/false, d, 6.0, SimTime{}, SimTime{});
      slow.DegradeDisk(2, /*mr_disk=*/true, d, 6.0, SimTime{}, SimTime{});
    }
    scenarios.push_back(Scenario{"slow-node2", slow, true, false});
    scenarios.push_back(Scenario{"slow-node2+spec", slow, true, true});
    return scenarios;
  };

  const bool want_obs = bench::WantsObs(options);
  core::ExperimentResult obs_holder;
  obs_holder.label = "TS_kill_dn3";

  // Build every scenario first: the futures hold references into this
  // structure, so it must not grow once any cell is in flight.
  std::vector<std::vector<Scenario>> scenarios;
  for (size_t k = 0; k < kinds.size(); ++k) {
    scenarios.push_back(scenarios_for(kinds[k], healthy[k]));
  }
  std::vector<std::vector<std::future<CellResult>>> cell_futures(
      kinds.size());
  for (size_t k = 0; k < kinds.size(); ++k) {
    for (const Scenario& s : scenarios[k]) {
      const bool observed = want_obs && k == 0 && s.label == "kill-dn3";
      cell_futures[k].push_back(pool.Async([&, k, observed, &s = s] {
        return RunCell(options, kinds[k], s,
                       observed ? &obs_holder : nullptr);
      }));
    }
  }

  TextTable table;
  table.SetHeader({"workload", "scenario", "duration_s", "maps", "spec",
                   "re-repl MB", "cksum fails", "failovers",
                   "spec wasted MB"});
  std::map<std::string, CellResult> cells;  // "<workload>/<scenario>"
  for (size_t k = 0; k < kinds.size(); ++k) {
    const auto plan = bench::CompressedPlan(options, kinds[k]);
    auto row = [&](const std::string& label, const CellResult& r) {
      cells[plan.jobs[0].spec.name + "/" + label] = r;
      table.AddRow(
          {plan.jobs[0].spec.name, label, TextTable::Num(r.duration_s, 1),
           std::to_string(r.counters.maps_launched),
           std::to_string(r.speculative_launched),
           TextTable::Num(static_cast<double>(r.rereplicated_bytes) / 1e6,
                          0),
           std::to_string(r.checksum_failures),
           std::to_string(r.read_failovers),
           TextTable::Num(
               static_cast<double>(r.speculative_wasted_bytes) / 1e6, 1)});
    };
    row("healthy", healthy[k]);
    for (size_t s = 0; s < scenarios[k].size(); ++s) {
      row(scenarios[k][s].label, cell_futures[k][s].get());
    }
  }
  std::fputs(table.ToString().c_str(), stdout);

  if (want_obs) {
    core::WriteObsArtifacts(options, {{obs_holder.label, &obs_holder}});
  }

  std::vector<core::ShapeCheck> checks;
  for (size_t k = 0; k < kinds.size(); ++k) {
    const std::string w =
        bench::CompressedPlan(options, kinds[k]).jobs[0].spec.name;
    const CellResult& base = cells[w + "/healthy"];
    const CellResult& empty = cells[w + "/empty-plan"];
    const CellResult& kill = cells[w + "/kill-dn3"];
    const CellResult& rot = cells[w + "/bitrot-input"];
    const CellResult& slow = cells[w + "/slow-node2"];
    const CellResult& spec = cells[w + "/slow-node2+spec"];
    checks.push_back(core::ShapeCheck{
        w + ": an armed-but-empty plan is byte-identical to no injector",
        empty.duration_s == base.duration_s &&
            empty.counters.hdfs_read_bytes ==
                base.counters.hdfs_read_bytes &&
            empty.faults_injected == 0});
    checks.push_back(core::ShapeCheck{
        w + ": healthy runs trigger no recovery machinery",
        base.rereplicated_blocks == 0 && base.checksum_failures == 0 &&
            base.read_failovers == 0 && base.pipeline_recoveries == 0 &&
            base.speculative_launched == 0});
    checks.push_back(core::ShapeCheck{
        w + ": a node death slows the job and re-executes maps",
        kill.duration_s > base.duration_s &&
            kill.counters.maps_launched > base.counters.maps_launched});
    checks.push_back(core::ShapeCheck{
        w + ": the dead DataNode's blocks re-replicate",
        kill.rereplicated_blocks > 0});
    checks.push_back(core::ShapeCheck{
        w + ": corrupt replicas are detected and repaired",
        rot.checksum_failures > 0 &&
            rot.rereplicated_blocks >= rot.checksum_failures});
    checks.push_back(core::ShapeCheck{
        w + ": bitrot detection and repair cost time, not correctness",
        rot.duration_s > base.duration_s &&
            rot.counters.hdfs_read_bytes >= base.counters.hdfs_read_bytes});
    checks.push_back(core::ShapeCheck{
        w + ": a fail-slow node drags the whole job",
        slow.duration_s > base.duration_s});
    checks.push_back(core::ShapeCheck{
        w + ": speculation launches backups against the straggler",
        spec.speculative_launched > 0 && spec.speculative_killed > 0});
    checks.push_back(core::ShapeCheck{
        w + ": losing attempts' I/O is charged as speculative waste",
        spec.speculative_wasted_bytes > 0});
    checks.push_back(core::ShapeCheck{
        w + ": every backed-up split commits exactly once "
            "(one kill per race)",
        spec.speculative_killed == spec.speculative_launched &&
            spec.counters.maps_launched ==
                base.counters.maps_launched +
                    static_cast<uint32_t>(spec.speculative_launched)});
  }
  return core::PrintShapeChecks(checks);
}
