// Substrate bench: the simulator speed scoreboard. Runs a fixed,
// representative workload subset — the TeraSort slot-factor grid (the
// paper's central workload), TestDFSIO (storage-layer streaming), and a
// chaos scenario (faults + recovery machinery) — and emits BENCH_perf.json
// with events/sec, wall-clock, and peak RSS per workload.
//
// Two contracts make the numbers comparable over time:
//  - the *event counts* are deterministic (pure functions of --scale and
//    --seed), so any drift in "events" between two builds means simulated
//    behaviour changed, not just speed;
//  - the *rates* (events/sec, wall_s) are host-dependent; regressions are
//    judged against a baseline recorded on comparable hardware via
//    --baseline (CI keeps one under bench/baselines/).
//
// Runs are serial by design (--jobs is ignored): wall-clock per workload
// must not be perturbed by sibling simulations on other cores.
//
// Usage:
//   perf_events [--quick] [--out=BENCH_perf.json]
//               [--baseline=<file> [--tolerance=0.2]]
//               [--scale=N] [--seed=N] [--workers=N]
//               [--trace-out=F] [--metrics-out=F] [--blktrace-out=F]
//
// The observability flags attach the corresponding collectors to the
// TeraSort grid and write the artifacts after the scoreboard; they perturb
// wall-clock, so don't combine them with --baseline gating.
// Exit code: 0 on success, 1 if --baseline was given and any workload's
// events/sec regressed by more than --tolerance (default 20%).

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/figure_common.h"
#include "common/logging.h"
#include "core/experiment.h"
#include "core/report.h"
#include "dag/job_dag.h"
#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "mapreduce/engine.h"
#include "sim/simulator.h"
#include "workloads/dfsio.h"
#include "workloads/graph_profile.h"
#include "workloads/profile.h"

namespace {

using namespace bdio;

double PeakRssMib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  // ru_maxrss is KiB on Linux. Monotone over the process lifetime, so
  // per-workload values are "peak so far", not per-workload footprint.
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Wall-clock seconds. The simulation itself must never read host time
/// (lint rule R2); the harness measuring the simulation is the exception.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    const auto d = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double>(d).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

struct WorkloadScore {
  std::string name;
  int runs = 0;
  uint64_t events = 0;     ///< Deterministic: drift means behaviour change.
  double sim_seconds = 0;  ///< Simulated time covered (also deterministic).
  double wall_s = 0;
  double events_per_sec = 0;
  double peak_rss_mib = 0;  ///< Process peak when the workload finished.

  void Finish(const WallTimer& timer) {
    wall_s = timer.Seconds();
    events_per_sec = wall_s > 0 ? static_cast<double>(events) / wall_s : 0;
    peak_rss_mib = PeakRssMib();
  }
};

// --- Workloads -----------------------------------------------------------

/// `retained`, when non-null, receives every cell's full result so main can
/// write the observability artifacts (--trace-out/--metrics-out/
/// --blktrace-out). Retention is opt-in: keeping results alive inflates
/// peak_rss_mib, so perf-measurement runs pass nullptr.
WorkloadScore RunTeraSortGrid(const core::BenchOptions& options,
                              std::vector<core::ExperimentResult>* retained) {
  WorkloadScore score;
  score.name = "terasort_grid";
  const std::vector<core::Factors> levels = core::SlotsLevels();
  WallTimer timer;
  for (const core::Factors& f : levels) {
    const core::ExperimentSpec spec =
        options.MakeSpec(workloads::WorkloadKind::kTeraSort, f);
    Result<core::ExperimentResult> r = core::RunExperiment(spec);
    BDIO_CHECK(r.ok()) << "terasort grid cell failed: "
                       << r.status().ToString();
    ++score.runs;
    score.events += r.value().events_processed;
    score.sim_seconds += r.value().duration_s;
    if (retained != nullptr) retained->push_back(std::move(r.value()));
  }
  score.Finish(timer);
  return score;
}

WorkloadScore RunDfsio(const core::BenchOptions& options) {
  WorkloadScore score;
  score.name = "dfsio";
  struct Config {
    uint32_t files;
    uint64_t bytes;
    uint32_t replication;
  };
  const Config configs[] = {{10, MiB(128), 3}, {30, MiB(64), 1}};
  // File sizes are the extension_dfsio defaults at the default 1/128 scale
  // and shrink proportionally below it (cluster disks are unscaled, so
  // only wall-clock changes, not feasibility).
  const double size_factor = options.scale * 128.0;
  WallTimer timer;
  for (const Config& c : configs) {
    core::Testbed bed(bench::MakeTestbedSpec(options), Rng(options.seed));
    sim::Simulator& sim = bed.sim();

    workloads::DfsioSpec spec;
    spec.num_files = c.files;
    spec.file_bytes = std::max<uint64_t>(
        MiB(4),
        static_cast<uint64_t>(static_cast<double>(c.bytes) * size_factor));
    spec.replication = c.replication;
    Result<workloads::DfsioResult> result = Status::Internal("not run");
    workloads::RunDfsio(&bed.cluster(), &bed.hdfs(), spec,
                        [&](Result<workloads::DfsioResult> r) {
                          result = std::move(r);
                        });
    sim.Run();
    BDIO_CHECK(result.ok()) << result.status().ToString();
    ++score.runs;
    score.events += sim.events_processed();
    score.sim_seconds += ToSeconds(sim.Now());
  }
  score.Finish(timer);
  return score;
}

WorkloadScore RunChaos(const core::BenchOptions& options) {
  WorkloadScore score;
  score.name = "chaos";
  WallTimer timer;

  core::TestbedSpec bed_spec = bench::MakeTestbedSpec(options);
  bed_spec.faults = true;
  core::Testbed bed(bed_spec, Rng(options.seed));
  sim::Simulator& sim = bed.sim();
  mapreduce::MrEngine& engine = bed.engine();

  const auto workload =
      bench::CompressedPlan(options, workloads::WorkloadKind::kTeraSort);
  bench::PreloadOrExit(&bed, workload.dataset_path, workload.dataset_bytes);

  // Early faults so the scenario bites at every --scale: a DataNode death
  // (re-replication + task re-execution) plus a fail-slow MR disk with
  // speculation picking up the stragglers.
  faults::FaultPlan plan;
  plan.KillDataNode(3, TimeAt(Seconds(2)));
  plan.DegradeDisk(5, /*mr_disk=*/true, 0, /*factor=*/4.0, TimeAt(Seconds(1)),
                   TimeAt(Seconds(60)));

  mapreduce::SimJobSpec spec = workload.jobs[0].spec;
  spec.speculative_execution = true;

  bool done = false;
  engine.RunJob(spec, [&](Status s, const mapreduce::JobCounters&) {
    BDIO_CHECK_OK(s);
    done = true;
  });
  BDIO_CHECK_OK(bed.injector()->Arm(plan));
  sim.Run();
  BDIO_CHECK(done);

  score.runs = 1;
  score.events = sim.events_processed();
  score.sim_seconds = ToSeconds(sim.Now());
  score.Finish(timer);
  return score;
}

WorkloadScore RunChaosRetry(const core::BenchOptions& options) {
  WorkloadScore score;
  score.name = "chaos_retry";
  WallTimer timer;

  core::TestbedSpec bed_spec = bench::MakeTestbedSpec(options);
  bed_spec.faults = true;
  core::Testbed bed(bed_spec, Rng(options.seed));
  sim::Simulator& sim = bed.sim();
  mapreduce::MrEngine& engine = bed.engine();

  const auto workload =
      bench::CompressedPlan(options, workloads::WorkloadKind::kTeraSort);
  bench::PreloadOrExit(&bed, workload.dataset_path, workload.dataset_bytes);
  mapreduce::FaultToleranceConfig ft;
  ft.blacklist_strikes = 3;
  ft.blacklist_decay = Seconds(30);
  engine.SetFaultTolerance(ft);

  // The compute-side failure domain: a TaskTracker death (lost-map
  // re-execution) plus a crash-task volley (attempt budgets, backoff,
  // blacklist strikes). Early, so the scenario bites at every --scale.
  faults::FaultPlan plan;
  plan.KillTaskTracker(3, TimeAt(Seconds(2)));
  plan.CrashTask(5, TimeAt(Seconds(1)));

  bool done = false;
  engine.RunJob(workload.jobs[0].spec,
                [&](Status s, const mapreduce::JobCounters&) {
                  BDIO_CHECK_OK(s);
                  done = true;
                });
  BDIO_CHECK_OK(bed.injector()->Arm(plan));
  sim.Run();
  BDIO_CHECK(done);
  // The scenario must actually exercise the retry machinery.
  BDIO_CHECK(engine.maps_reexecuted() > 0 || engine.task_failures() > 0);

  score.runs = 1;
  score.events = sim.events_processed();
  score.sim_seconds = ToSeconds(sim.Now());
  score.Finish(timer);
  return score;
}

WorkloadScore RunGraphSssp(const core::BenchOptions& options) {
  WorkloadScore score;
  score.name = "graph_sssp";
  WallTimer timer;

  // The iterative shape the one-pass workloads above lack: a JobDag whose
  // rounds publish and then expire their state files. The functional model
  // graph is fixed-size (its cost is planning, not simulation) while the
  // simulated dataset follows --scale like every other workload.
  workloads::GraphPlanOptions plan_options;
  plan_options.scale = options.scale;
  plan_options.model_nodes = 512;
  plan_options.seed = options.seed;
  workloads::GraphDagPlan plan =
      workloads::BuildGraphDag(workloads::GraphWorkload::kSssp, plan_options);

  core::Testbed bed(bench::MakeTestbedSpec(options), Rng(options.seed));
  sim::Simulator& sim = bed.sim();
  bench::PreloadOrExit(&bed, plan.dataset_path, plan.dataset_bytes);
  dag::JobDag& jobdag = bed.AddDag(std::move(plan.dag));
  bool done = false;
  jobdag.Run([&](Status s) {
    BDIO_CHECK_OK(s);
    done = true;
  });
  sim.Run();
  BDIO_CHECK(done);

  score.runs = 1;
  score.events = sim.events_processed();
  score.sim_seconds = ToSeconds(sim.Now());
  score.Finish(timer);
  return score;
}

// --- Scoreboard I/O ------------------------------------------------------

void WriteJson(const std::string& path, const std::string& mode,
               const core::BenchOptions& options,
               const std::vector<WorkloadScore>& scores) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perf_events: cannot write %s\n", path.c_str());
    std::exit(2);
  }
  uint64_t total_events = 0;
  double total_wall = 0;
  for (const WorkloadScore& s : scores) {
    total_events += s.events;
    total_wall += s.wall_s;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": 1,\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", mode.c_str());
  std::fprintf(f, "  \"scale_denominator\": %.0f,\n", 1.0 / options.scale);
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(options.seed));
  std::fprintf(f, "  \"workloads\": [\n");
  for (size_t i = 0; i < scores.size(); ++i) {
    const WorkloadScore& s = scores[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"runs\": %d, \"events\": %llu, "
                 "\"sim_seconds\": %.3f, \"wall_s\": %.3f, "
                 "\"events_per_sec\": %.0f, \"peak_rss_mib\": %.1f}%s\n",
                 s.name.c_str(), s.runs,
                 static_cast<unsigned long long>(s.events), s.sim_seconds,
                 s.wall_s, s.events_per_sec, s.peak_rss_mib,
                 i + 1 < scores.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"total\": {\"events\": %llu, \"wall_s\": %.3f, "
               "\"events_per_sec\": %.0f, \"peak_rss_mib\": %.1f}\n",
               static_cast<unsigned long long>(total_events), total_wall,
               total_wall > 0
                   ? static_cast<double>(total_events) / total_wall
                   : 0.0,
               PeakRssMib());
  std::fprintf(f, "}\n");
  std::fclose(f);
}

/// Minimal scan of a prior BENCH_perf.json: finds the workload object by
/// name and pulls one numeric field out of it. Returns false when absent.
bool BaselineField(const std::string& json, const std::string& workload,
                   const std::string& field, double* out) {
  const size_t at = json.find("\"name\": \"" + workload + "\"");
  if (at == std::string::npos) return false;
  const size_t end = json.find('}', at);
  const size_t fat = json.find("\"" + field + "\":", at);
  if (fat == std::string::npos || fat > end) return false;
  *out = std::strtod(json.c_str() + fat + field.size() + 3, nullptr);
  return true;
}

int CheckBaseline(const std::string& path, double tolerance,
                  const std::vector<WorkloadScore>& scores) {
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    std::fprintf(stderr, "perf_events: baseline %s not readable\n",
                 path.c_str());
    return 1;
  }
  std::string json;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) json.append(buf, n);
  std::fclose(f);

  int failures = 0;
  for (const WorkloadScore& s : scores) {
    double base_rate = 0;
    if (!BaselineField(json, s.name, "events_per_sec", &base_rate)) {
      std::printf("BASELINE  %-14s no entry in %s (skipped)\n",
                  s.name.c_str(), path.c_str());
      continue;
    }
    double base_events = 0;
    if (BaselineField(json, s.name, "events", &base_events) &&
        base_events != static_cast<double>(s.events)) {
      // Event-count drift is not a speed regression: it means the simulated
      // behaviour changed (new model code). The rate gate still applies;
      // refresh the baseline alongside the behaviour change.
      std::printf("BASELINE  %-14s event count drifted: %.0f -> %llu\n",
                  s.name.c_str(), base_events,
                  static_cast<unsigned long long>(s.events));
    }
    const double floor = base_rate * (1.0 - tolerance);
    const bool ok = s.events_per_sec >= floor;
    std::printf("BASELINE  %-14s %10.0f ev/s vs %10.0f baseline "
                "(floor %.0f): %s\n",
                s.name.c_str(), s.events_per_sec, base_rate, floor,
                ok ? "ok" : "REGRESSION");
    if (!ok) ++failures;
  }
  return failures > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out = "BENCH_perf.json";
  std::string baseline;
  double tolerance = 0.2;
  core::BenchOptions options = core::BenchOptions::Parse(
      argc, argv,
      [&](const std::string& arg) {
        if (arg == "--quick") {
          quick = true;
          return true;
        }
        if (arg.rfind("--out=", 0) == 0) {
          out = arg.substr(6);
          return true;
        }
        if (arg.rfind("--baseline=", 0) == 0) {
          baseline = arg.substr(11);
          return true;
        }
        if (arg.rfind("--tolerance=", 0) == 0) {
          tolerance = std::strtod(arg.c_str() + 12, nullptr);
          return true;
        }
        return false;
      },
      "  --quick            1/512 scale (CI smoke)\n"
      "  --out=<file>       scoreboard path (default BENCH_perf.json)\n"
      "  --baseline=<file>  fail on events/sec regression vs this file\n"
      "  --tolerance=<f>    allowed fractional regression (default 0.2)\n");
  if (quick) options.scale = 1.0 / 512;

  std::printf("perf_events: scale=1/%.0f seed=%llu workers=%u mode=%s\n",
              1.0 / options.scale,
              static_cast<unsigned long long>(options.seed),
              options.num_workers, quick ? "quick" : "full");

  // Observability artifacts ride on the TeraSort grid: traces go to the
  // first grid cell (trace_label), metrics dump covers every cell. Results
  // are only retained when an artifact was requested — see RunTeraSortGrid.
  const bool want_obs = !options.trace_out.empty() ||
                        !options.metrics_out.empty() ||
                        !options.blktrace_out.empty();
  if ((!options.trace_out.empty() || !options.blktrace_out.empty()) &&
      options.trace_label.empty()) {
    options.trace_label = core::SlotsLevels().front().Label(
        workloads::WorkloadKind::kTeraSort);
  }
  std::vector<core::ExperimentResult> retained;
  std::vector<WorkloadScore> scores;
  scores.push_back(RunTeraSortGrid(options, want_obs ? &retained : nullptr));
  scores.push_back(RunDfsio(options));
  scores.push_back(RunChaos(options));
  scores.push_back(RunChaosRetry(options));
  scores.push_back(RunGraphSssp(options));
  if (want_obs) {
    std::vector<std::pair<std::string, const core::ExperimentResult*>> obs;
    for (const core::ExperimentResult& r : retained) {
      obs.emplace_back(r.label, &r);
    }
    core::WriteObsArtifacts(options, obs);
  }
  for (const WorkloadScore& s : scores) {
    std::printf("%-14s runs=%d events=%llu sim_s=%.1f wall_s=%.3f "
                "ev/s=%.0f rss=%.1fMiB\n",
                s.name.c_str(), s.runs,
                static_cast<unsigned long long>(s.events), s.sim_seconds,
                s.wall_s, s.events_per_sec, s.peak_rss_mib);
  }

  WriteJson(out, quick ? "quick" : "full", options, scores);
  std::printf("wrote %s\n", out.c_str());

  if (!baseline.empty()) return CheckBaseline(baseline, tolerance, scores);
  return 0;
}
