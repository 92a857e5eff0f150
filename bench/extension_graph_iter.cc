// Extension bench: iterative graph analytics through the JobDag driver. The
// paper's four workloads are one-pass (PageRank aside); production clusters
// ran multi-round traversals whose I/O signature is different in kind — per
// round, the frontier shrinks, the state files written by round k are read
// once by round k+1 and then deleted, and the disks see a sawtooth of
// read-mostly and write-mostly phases. This bench plans BFS-style SSSP,
// label-propagation connected components, and triangle counting from real
// functional runs (workloads/graph.h), replays them as simulated dags
// (workloads/graph_profile.h), and reports per-round read/write volume,
// frontier decay, intermediate-data churn, and iostat-style device behavior
// — solo per workload and with all three sharing one cluster under fair
// scheduling.

#include <algorithm>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench/figure_common.h"
#include "common/table.h"
#include "core/runner/thread_pool.h"
#include "dag/job_dag.h"
#include "hdfs/hdfs.h"
#include "iostat/iostat.h"
#include "sched/scheduler.h"
#include "workloads/datagen.h"
#include "workloads/graph.h"
#include "workloads/graph_profile.h"

namespace {

using namespace bdio;

/// One simulated dag round plus the device behavior inside its window.
struct RoundRow {
  dag::RoundRecord record;
  double hdfs_util = 0;  ///< Mean %util of the HDFS disks over the window.
  double mr_util = 0;
};

/// Everything one solo cell produces (model ground truth + simulated run).
struct GraphCell {
  std::string short_name;
  uint64_t dataset_bytes = 0;
  std::vector<workloads::GraphRoundModel> model_rounds;
  uint64_t model_reached = 0;
  uint64_t model_components = 0;
  uint64_t model_triangles = 0;

  std::vector<RoundRow> rounds;
  uint32_t nodes_completed = 0;
  uint32_t node_retries = 0;
  uint32_t nodes_skipped = 0;
  /// Names and attempt counts of nodes that failed, retried, or were
  /// skipped ("none" on a healthy run), from the per-node ledger.
  std::string churned_nodes;
  double makespan_s = 0;
  uint64_t published_bytes = 0;
  uint64_t expired_bytes = 0;
  uint64_t expired_files = 0;
  /// Node-counter totals, for the attribution cross-check against rounds.
  uint64_t node_hdfs_read = 0, node_hdfs_write = 0;
  uint64_t node_inter_write = 0, node_shuffle = 0;
  uint64_t final_bytes = 0;        ///< Namespace bytes under the final output.
  bool intermediates_gone = true;  ///< Expired paths empty in the namespace.
  double hdfs_util_mean = 0;
  std::string audit;  ///< JobDag::AuditInvariants at end of run; "" = clean.
};

struct CombinedCell {
  double makespan_s = 0;
  std::vector<double> dag_makespan_s;  ///< Per dag, presentation order.
  std::vector<std::string> audits;
};

double WindowMean(const TimeSeries& series, double start_s, double end_s) {
  const double dt = ToSeconds(series.interval());
  double sum = 0;
  size_t n = 0;
  for (size_t i = 0; i < series.size(); ++i) {
    const double t1 = series.TimeAt(i);
    if (t1 <= start_s || t1 - dt >= end_s) continue;
    sum += series.at(i);
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0;
}

/// Namespace bytes under `root` (exact match or "<root>/..." — the same
/// boundary rule the dag's expiry sweep uses).
uint64_t BytesUnder(hdfs::Hdfs* dfs, const std::string& root) {
  uint64_t bytes = 0;
  for (const hdfs::FileEntry* file : dfs->name_node()->List(root)) {
    if (file->path != root &&
        file->path.compare(0, root.size() + 1, root + "/") != 0) {
      continue;
    }
    bytes += file->bytes;
  }
  return bytes;
}

workloads::GraphPlanOptions MakePlanOptions(const core::BenchOptions& options,
                                            uint32_t model_nodes,
                                            uint32_t max_rounds) {
  workloads::GraphPlanOptions plan_options;
  plan_options.scale = options.scale;
  plan_options.model_nodes = model_nodes;
  plan_options.max_rounds = max_rounds;
  plan_options.seed = options.seed;
  return plan_options;
}

/// Runs one workload's dag alone on its own simulated cluster.
/// Deterministic: everything derives from options and the flags.
GraphCell RunSolo(const core::BenchOptions& options,
                  workloads::GraphWorkload workload, uint32_t model_nodes,
                  uint32_t max_rounds,
                  core::ExperimentResult* obs_out = nullptr) {
  workloads::GraphDagPlan plan = workloads::BuildGraphDag(
      workload, MakePlanOptions(options, model_nodes, max_rounds));

  core::Testbed bed(bench::MakeTestbedSpec(options, obs_out != nullptr),
                    Rng(options.seed));
  if (obs_out != nullptr) bed.ExportObs(obs_out);
  bench::PreloadOrExit(&bed, plan.dataset_path, plan.dataset_bytes);
  iostat::Monitor& monitor = bed.MonitorDisks(Seconds(1));
  dag::JobDag& jobdag = bed.AddDag(std::move(plan.dag));

  bool done = false;
  jobdag.Run([&](Status s) {
    BDIO_CHECK(s.ok()) << "graph dag " << jobdag.name() << ": "
                       << s.message();
    monitor.Stop();
    done = true;
  });
  bed.sim().Run();
  BDIO_CHECK(done);

  GraphCell cell;
  cell.short_name = plan.short_name;
  cell.dataset_bytes = plan.dataset_bytes;
  cell.model_rounds = plan.model_rounds;
  cell.model_reached = plan.model_reached;
  cell.model_components = plan.model_components;
  cell.model_triangles = plan.model_triangles;

  const TimeSeries hdfs_util = monitor.GroupMean("hdfs", iostat::Metric::kUtil);
  const TimeSeries mr_util = monitor.GroupMean("mr", iostat::Metric::kUtil);
  cell.hdfs_util_mean = hdfs_util.Mean();
  for (const dag::RoundRecord& record : jobdag.round_records()) {
    RoundRow row;
    row.record = record;
    row.hdfs_util = WindowMean(hdfs_util, ToSeconds(record.start_time),
                               ToSeconds(record.end_time));
    row.mr_util = WindowMean(mr_util, ToSeconds(record.start_time),
                             ToSeconds(record.end_time));
    cell.rounds.push_back(row);
  }
  for (const dag::NodeRecord& node : jobdag.node_records()) {
    cell.node_hdfs_read += node.counters.hdfs_read_bytes;
    cell.node_hdfs_write += node.counters.hdfs_write_bytes;
    cell.node_inter_write += node.counters.intermediate_write_bytes;
    cell.node_shuffle += node.counters.shuffle_network_bytes;
    cell.makespan_s =
        std::max(cell.makespan_s, ToSeconds(node.counters.end_time));
  }
  cell.nodes_completed = jobdag.nodes_completed();
  cell.node_retries = jobdag.node_retries();
  cell.nodes_skipped = jobdag.nodes_skipped();
  for (const dag::NodeRecord& node : jobdag.node_records()) {
    if (node.attempts <= 1 && node.failures == 0 && !node.skipped) continue;
    if (!cell.churned_nodes.empty()) cell.churned_nodes += " ";
    cell.churned_nodes +=
        node.skipped ? node.name + "(skipped)"
                     : node.name + "(x" + std::to_string(node.attempts) +
                           "," + std::to_string(node.failures) + "f)";
  }
  if (cell.churned_nodes.empty()) cell.churned_nodes = "none";
  cell.published_bytes = jobdag.intermediate_published_bytes();
  cell.expired_bytes = jobdag.intermediate_expired_bytes();
  cell.expired_files = jobdag.intermediate_expired_files();
  cell.audit = jobdag.AuditInvariants();

  // Intermediate lifecycle, as the NameNode sees it: every expired path is
  // empty, the unconsumed final output is retained.
  const std::string out_root = "/out/" + cell.short_name;
  const uint32_t rounds = jobdag.rounds_completed();
  const std::string final_path =
      (workload == workloads::GraphWorkload::kTriangleCount)
          ? out_root + "/triangles"
          : out_root + "/round" + std::to_string(rounds);
  cell.final_bytes = BytesUnder(&bed.hdfs(), final_path);
  cell.intermediates_gone =
      BytesUnder(&bed.hdfs(), out_root + "/prepared") == 0;
  for (uint32_t r = 1; r < rounds; ++r) {
    cell.intermediates_gone =
        cell.intermediates_gone &&
        BytesUnder(&bed.hdfs(), out_root + "/round" + std::to_string(r)) == 0;
  }

  return cell;
}

/// All three dags on one shared cluster: per-dag scheduler pools under
/// weighted fair sharing — the multi-tenant shape of iterative analytics.
CombinedCell RunCombined(const core::BenchOptions& options,
                         uint32_t model_nodes, uint32_t max_rounds) {
  std::vector<workloads::GraphDagPlan> plans;
  for (workloads::GraphWorkload workload : workloads::AllGraphWorkloads()) {
    workloads::GraphPlanOptions plan_options =
        MakePlanOptions(options, model_nodes, max_rounds);
    plan_options.pool = workloads::GraphWorkloadShortName(workload);
    plans.push_back(workloads::BuildGraphDag(workload, plan_options));
  }

  // Declared before the testbed: the engine holds it to the end.
  const std::unique_ptr<sched::Scheduler> fair = sched::MakeScheduler("fair");
  BDIO_CHECK(fair != nullptr);
  core::Testbed bed(bench::MakeTestbedSpec(options), Rng(options.seed));
  for (const workloads::GraphDagPlan& plan : plans) {
    bench::PreloadOrExit(&bed, plan.dataset_path, plan.dataset_bytes);
  }
  bed.engine().SetScheduler(fair.get());

  std::vector<dag::JobDag*> dags;
  for (workloads::GraphDagPlan& plan : plans) {
    dags.push_back(&bed.AddDag(std::move(plan.dag)));
  }

  uint32_t remaining = static_cast<uint32_t>(dags.size());
  for (dag::JobDag* jobdag : dags) {
    jobdag->Run([&, name = jobdag->name()](Status s) {
      BDIO_CHECK(s.ok()) << "combined dag " << name << ": " << s.message();
      --remaining;
    });
  }
  bed.sim().Run();
  BDIO_CHECK(remaining == 0);

  CombinedCell cell;
  for (const dag::JobDag* jobdag : dags) {
    double makespan_s = 0;
    for (const dag::NodeRecord& node : jobdag->node_records()) {
      makespan_s = std::max(makespan_s, ToSeconds(node.counters.end_time));
    }
    cell.dag_makespan_s.push_back(makespan_s);
    cell.makespan_s = std::max(cell.makespan_s, makespan_s);
    cell.audits.push_back(jobdag->AuditInvariants());
  }
  return cell;
}

/// Exact triangle count of the symmetrized model graph, straight from the
/// generator — the ground truth the MR pipeline's count must reproduce.
uint64_t BruteForceTriangles(uint64_t seed, uint32_t model_nodes) {
  Rng rng(seed);
  const std::vector<mrfunc::KeyValue> graph =
      workloads::GenWebGraph(&rng, model_nodes);
  std::map<std::string, std::set<std::string>> adj;
  for (const mrfunc::KeyValue& edge : graph) {
    size_t pos = 0;
    while (pos < edge.value.size()) {
      size_t end = edge.value.find(' ', pos);
      if (end == std::string::npos) end = edge.value.size();
      const std::string neighbor = edge.value.substr(pos, end - pos);
      if (!neighbor.empty() && neighbor != edge.key) {
        adj[edge.key].insert(neighbor);
        adj[neighbor].insert(edge.key);
      }
      pos = end + 1;
    }
  }
  uint64_t triangles = 0;
  for (const auto& [u, neighbors] : adj) {
    for (const std::string& v : neighbors) {
      if (!workloads::NumericLess(u, v)) continue;
      for (const std::string& w : neighbors) {
        if (!workloads::NumericLess(v, w)) continue;
        if (adj[v].count(w) > 0) ++triangles;
      }
    }
  }
  return triangles;
}

uint32_t ParseUint32OrDie(const char* flag, const std::string& s, long lo,
                          long hi) {
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || v < lo || v > hi) {
    std::fprintf(stderr, "%s expects an integer in [%ld, %ld], got '%s'\n",
                 flag, lo, hi, s.c_str());
    std::exit(2);
  }
  return static_cast<uint32_t>(v);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bdio;
  uint32_t model_nodes = 1024;
  uint32_t max_rounds = 32;
  const core::BenchOptions options = core::BenchOptions::Parse(
      argc, argv,
      [&](const std::string& arg) {
        if (arg.rfind("--model-nodes=", 0) == 0) {
          model_nodes = ParseUint32OrDie("--model-nodes", arg.substr(14), 2,
                                         1 << 20);
          return true;
        }
        if (arg.rfind("--max-rounds=", 0) == 0) {
          max_rounds = ParseUint32OrDie("--max-rounds", arg.substr(13), 1,
                                        256);
          return true;
        }
        return false;
      },
      "  --model-nodes=N   functional model-graph size (default 1024)\n"
      "  --max-rounds=N    iteration cap for SSSP/CC (default 32)\n");
  core::PrintFigureHeader(
      "Extension",
      "Iterative graph analytics: per-round I/O, frontier decay, churn",
      options);

  const std::vector<workloads::GraphWorkload> family =
      workloads::AllGraphWorkloads();

  // Cells run concurrently (each its own Simulator); results are consumed in
  // fixed print order, so stdout is byte-identical across --jobs levels.
  core::runner::ThreadPool pool(options.ResolvedJobs());
  const bool want_obs = bench::WantsObs(options);
  core::ExperimentResult obs_holder;
  obs_holder.label = "SSSP_solo";

  std::vector<std::future<GraphCell>> solo_futures;
  for (size_t w = 0; w < family.size(); ++w) {
    solo_futures.push_back(pool.Async([&, w] {
      return RunSolo(options, family[w], model_nodes, max_rounds,
                     want_obs && w == 0 ? &obs_holder : nullptr);
    }));
  }
  std::future<CombinedCell> combined_future = pool.Async(
      [&] { return RunCombined(options, model_nodes, max_rounds); });
  std::future<uint64_t> brute_future = pool.Async(
      [&] { return BruteForceTriangles(options.seed, model_nodes); });

  std::vector<GraphCell> cells;
  for (size_t w = 0; w < family.size(); ++w) {
    cells.push_back(solo_futures[w].get());
    const GraphCell& cell = cells.back();
    std::printf("[%s] dataset %.1f MB, %u jobs, %zu simulated rounds\n",
                cell.short_name.c_str(),
                static_cast<double>(cell.dataset_bytes) / 1e6,
                cell.nodes_completed, cell.rounds.size());
    TextTable table;
    table.SetHeader({"round", "jobs", "frontier", "updated", "read_MB",
                     "write_MB", "inter_MB", "shuffle_MB", "expired_MB",
                     "round_s", "hdfs util%", "mr util%"});
    for (size_t r = 0; r < cell.rounds.size(); ++r) {
      const RoundRow& row = cell.rounds[r];
      // Dag round r runs compute round r+1 (round 0 also runs prepare);
      // model_rounds[r] holds the frontier *after* that compute round.
      std::string frontier = "-";
      std::string updated = "-";
      if (r < cell.model_rounds.size()) {
        frontier = std::to_string(cell.model_rounds[r].frontier);
        updated = std::to_string(cell.model_rounds[r].updated);
      }
      table.AddRow(
          {std::to_string(row.record.round),
           std::to_string(row.record.nodes.size()), frontier, updated,
           TextTable::Num(static_cast<double>(row.record.hdfs_read_bytes) /
                          1e6, 1),
           TextTable::Num(static_cast<double>(row.record.hdfs_write_bytes) /
                          1e6, 1),
           TextTable::Num(
               static_cast<double>(row.record.intermediate_write_bytes) / 1e6,
               1),
           TextTable::Num(
               static_cast<double>(row.record.shuffle_network_bytes) / 1e6,
               1),
           TextTable::Num(static_cast<double>(row.record.expired_bytes) / 1e6,
                          1),
           TextTable::Num(ToSeconds(row.record.end_time) -
                          ToSeconds(row.record.start_time), 1),
           TextTable::Num(row.hdfs_util, 1), TextTable::Num(row.mr_util, 1)});
    }
    std::fputs(table.ToString().c_str(), stdout);
  }

  TextTable summary;
  summary.SetHeader({"workload", "rounds", "makespan_s", "published_MB",
                     "expired_MB", "expired_files", "final_MB", "hdfs util%",
                     "retries", "failed/retried nodes"});
  for (const GraphCell& cell : cells) {
    summary.AddRow(
        {cell.short_name, std::to_string(cell.rounds.size()),
         TextTable::Num(cell.makespan_s, 1),
         TextTable::Num(static_cast<double>(cell.published_bytes) / 1e6, 1),
         TextTable::Num(static_cast<double>(cell.expired_bytes) / 1e6, 1),
         std::to_string(cell.expired_files),
         TextTable::Num(static_cast<double>(cell.final_bytes) / 1e6, 1),
         TextTable::Num(cell.hdfs_util_mean, 1),
         std::to_string(cell.node_retries), cell.churned_nodes});
  }
  std::fputs(summary.ToString().c_str(), stdout);

  const CombinedCell combined = combined_future.get();
  const uint64_t brute_triangles = brute_future.get();
  TextTable combined_table;
  combined_table.SetHeader({"combined (fair pools)", "makespan_s"});
  for (size_t w = 0; w < family.size(); ++w) {
    combined_table.AddRow(
        {workloads::GraphWorkloadShortName(family[w]),
         TextTable::Num(combined.dag_makespan_s[w], 1)});
  }
  combined_table.AddRow({"all", TextTable::Num(combined.makespan_s, 1)});
  std::fputs(combined_table.ToString().c_str(), stdout);

  if (want_obs) {
    core::WriteObsArtifacts(options, {{obs_holder.label, &obs_holder}});
  }

  const GraphCell& sssp = cells[0];
  const GraphCell& cc = cells[1];
  const GraphCell& tri = cells[2];
  std::vector<core::ShapeCheck> checks;

  checks.push_back(core::ShapeCheck{
      "SSSP converges: the model frontier drains to zero within the cap",
      !sssp.model_rounds.empty() && sssp.model_rounds.back().frontier == 0 &&
          sssp.model_rounds.size() <= max_rounds});
  size_t peak = 0;
  bool decays = true;
  for (size_t r = 1; r < sssp.model_rounds.size(); ++r) {
    if (sssp.model_rounds[r].frontier > sssp.model_rounds[peak].frontier) {
      peak = r;
    }
  }
  for (size_t r = peak + 1; r < sssp.model_rounds.size(); ++r) {
    decays = decays && sssp.model_rounds[r].frontier <=
                           sssp.model_rounds[r - 1].frontier;
  }
  checks.push_back(core::ShapeCheck{
      "SSSP frontier decays monotonically after its peak", decays});
  checks.push_back(core::ShapeCheck{
      "SSSP reaches every node of the symmetrized web graph",
      sssp.model_reached == model_nodes});
  checks.push_back(core::ShapeCheck{
      "CC converges to one component (preferential attachment is connected)",
      cc.model_components == 1 && !cc.model_rounds.empty() &&
          cc.model_rounds.back().frontier == 0});
  checks.push_back(core::ShapeCheck{
      "triangle count matches a brute-force recount of the generator graph",
      tri.model_triangles == brute_triangles && brute_triangles > 0});

  bool attributed = true;
  bool rounds_active = true;
  bool replayed = true;
  for (const GraphCell& cell : cells) {
    uint64_t read = 0, write = 0, inter = 0, shuffle = 0;
    for (const RoundRow& row : cell.rounds) {
      read += row.record.hdfs_read_bytes;
      write += row.record.hdfs_write_bytes;
      inter += row.record.intermediate_write_bytes;
      shuffle += row.record.shuffle_network_bytes;
      rounds_active = rounds_active && row.record.hdfs_read_bytes +
                                               row.record.hdfs_write_bytes >
                                           0;
    }
    attributed = attributed && read == cell.node_hdfs_read &&
                 write == cell.node_hdfs_write &&
                 inter == cell.node_inter_write &&
                 shuffle == cell.node_shuffle;
    const size_t expected_rounds =
        cell.model_rounds.empty() ? 1 : cell.model_rounds.size();
    replayed = replayed && cell.rounds.size() == expected_rounds &&
               cell.nodes_completed == expected_rounds + 1;
  }
  checks.push_back(core::ShapeCheck{
      "per-round byte attribution is exact: round records sum to the job "
      "counters with zero unattributed bytes",
      attributed});
  checks.push_back(core::ShapeCheck{
      "every simulated round reads and writes HDFS data", rounds_active});
  checks.push_back(core::ShapeCheck{
      "the dags replay the model's full round schedule (one job per round "
      "plus prepare)",
      replayed});

  bool churn = true;
  bool lifecycle = true;
  double util_in_rounds = 0;
  for (const GraphCell& cell : cells) {
    churn = churn && cell.expired_bytes > 0 &&
            cell.expired_bytes <= cell.published_bytes;
    lifecycle = lifecycle && cell.final_bytes > 0 && cell.intermediates_gone;
    for (const RoundRow& row : cell.rounds) util_in_rounds += row.hdfs_util;
  }
  checks.push_back(core::ShapeCheck{
      "intermediate churn: every consumed round output expired, never more "
      "than was published",
      churn});
  checks.push_back(core::ShapeCheck{
      "HDFS lifecycle: final outputs retained, expired paths gone from the "
      "namespace",
      lifecycle});
  checks.push_back(core::ShapeCheck{
      "device activity is observed inside the round windows (iostat)",
      util_in_rounds > 0});

  double solo_max = 0, solo_sum = 0;
  for (const GraphCell& cell : cells) {
    solo_max = std::max(solo_max, cell.makespan_s);
    solo_sum += cell.makespan_s;
  }
  checks.push_back(core::ShapeCheck{
      "sharing one cluster costs: combined makespan >= slowest solo run, "
      "but fair pools overlap: < sum of solo runs",
      combined.makespan_s >= solo_max && combined.makespan_s < solo_sum});

  bool no_churn = true;
  for (const GraphCell& cell : cells) {
    no_churn = no_churn && cell.node_retries == 0 &&
               cell.nodes_skipped == 0 && cell.churned_nodes == "none";
  }
  checks.push_back(core::ShapeCheck{
      "healthy dags finish with zero node retries, failures, or skips",
      no_churn});

  bool audits_clean = true;
  for (const GraphCell& cell : cells) {
    audits_clean = audits_clean && cell.audit.empty();
  }
  for (const std::string& audit : combined.audits) {
    audits_clean = audits_clean && audit.empty();
  }
  checks.push_back(core::ShapeCheck{
      "JobDag invariant audits are clean in every cell", audits_clean});
  return core::PrintShapeChecks(checks);
}
