#include "cells.h"

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/invariants.h"
#include "cluster/cluster.h"
#include "common/io_tag.h"
#include "common/time_series.h"
#include "core/experiment.h"
#include "dag/job_dag.h"
#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "hdfs/hdfs.h"
#include "iostat/iostat.h"
#include "mapreduce/engine.h"
#include "obs/metrics.h"
#include "sim/latch.h"
#include "sim/simulator.h"
#include "workloads/graph_profile.h"
#include "workloads/profile.h"

namespace perfbench {

using namespace bdio;

namespace {

// --- Workload definitions -------------------------------------------------

/// One cell: a RunExperiment spec, or the SSSP dag under a fault plan.
struct CellDef {
  std::string label;
  bool dag_faults = false;
  /// A RunExperiment spec; dag_faults cells use its seed, scale, memory
  /// and compression.
  core::ExperimentSpec spec;
};

core::Factors MakeFactors(bool wide_slots, uint64_t memory_gib,
                          bool compress) {
  core::Factors f;
  f.slots = wide_slots ? mapreduce::SlotConfig::Paper_2_16()
                       : mapreduce::SlotConfig::Paper_1_8();
  f.memory_bytes = GiB(memory_gib);
  f.compress_intermediate = compress;
  return f;
}

CellDef ExperimentCell(workloads::WorkloadKind kind, const core::Factors& f,
                       double scale, uint32_t workers) {
  CellDef c;
  c.spec.workload = kind;
  c.spec.factors = f;
  c.spec.scale = scale;
  c.spec.num_workers = workers;
  c.label = f.Label(kind);
  if (workers != 10) c.label += "_w" + std::to_string(workers);
  return c;
}

/// TeraSort over all three factors: slots x memory x compression.
std::vector<CellDef> SortGrid(double scale, uint32_t workers) {
  std::vector<CellDef> cells;
  for (bool wide : {false, true}) {
    for (uint64_t mem : {16, 32}) {
      for (bool compress : {false, true}) {
        cells.push_back(ExperimentCell(workloads::WorkloadKind::kTeraSort,
                                       MakeFactors(wide, mem, compress),
                                       scale, workers));
      }
    }
  }
  return cells;
}

std::vector<CellDef> Cells(const std::string& workload, uint64_t seed) {
  using workloads::WorkloadKind;
  std::vector<CellDef> cells;
  if (workload == "sort_paper") {
    // The paper's central workload at the figure scale.
    cells = SortGrid(1.0 / 128, 10);
  } else if (workload == "scan_paper") {
    // The read side of the page cache: readahead and LRU hits.
    for (WorkloadKind kind :
         {WorkloadKind::kAggregation, WorkloadKind::kKMeans}) {
      for (uint64_t mem : {16, 32}) {
        for (bool wide : {false, true}) {
          cells.push_back(ExperimentCell(
              kind, MakeFactors(wide, mem, false), 1.0 / 32, 10));
        }
      }
    }
  } else if (workload == "shuffle_wide") {
    // sort_paper's widest-shuffle cells on a 40-worker cluster, at a scale
    // where the network's water-filling dominates host time.
    for (bool compress : {false, true}) {
      cells.push_back(ExperimentCell(WorkloadKind::kTeraSort,
                                     MakeFactors(true, 32, compress),
                                     1.0 / 512, 40));
    }
  } else if (workload == "dag_faults") {
    // SSSP under the fault plan, memory x compression.
    for (uint64_t mem : {16, 32}) {
      for (bool compress : {false, true}) {
        CellDef c;
        c.dag_faults = true;
        c.spec.factors = MakeFactors(false, mem, compress);
        c.spec.scale = 1.0 / 256;
        c.label = "SSSP_" + c.spec.factors.MemoryLabel() + "_" +
                  c.spec.factors.CompressionLabel() + "_faults";
        cells.push_back(c);
      }
    }
  }
  // Each cell draws its own seed, so a batch averages over independent
  // inputs instead of repeating one input's luck in every cell.
  Rng rng(seed);
  for (CellDef& c : cells) c.spec.seed = rng.Next();
  return cells;
}

// --- Shared bring-up pieces ----------------------------------------------

/// The scaled testbed of core::RunExperiment (Tables 1 and 2).
cluster::ClusterParams TestbedParams(const core::ExperimentSpec& spec) {
  cluster::ClusterParams cp;
  cp.num_workers = spec.num_workers;
  const double scale = spec.scale;
  cp.node.memory_bytes = static_cast<uint64_t>(
      static_cast<double>(spec.factors.memory_bytes) * scale);
  cp.node.daemon_bytes =
      static_cast<uint64_t>(static_cast<double>(GiB(2)) * scale);
  cp.node.per_slot_heap_bytes =
      static_cast<uint64_t>(static_cast<double>(MiB(200)) * scale);
  cp.node.min_cache_bytes = MiB(16);
  cp.node.io_scheduler = spec.io_scheduler;
  cp.node.num_hdfs_disks = spec.num_hdfs_disks;
  cp.node.num_mr_disks = spec.num_mr_disks;
  cp.node.cache.readahead_max_bytes = spec.readahead_max_bytes;
  cp.node.cache.writeback_period = spec.writeback_period;
  cp.node.disk.ncq_depth = spec.ncq_depth;
  return cp;
}

/// Every object of one simulated testbed. Members are declared in
/// construction order, so they are destroyed in the reverse order
/// core::RunExperiment's locals are.
struct Testbed {
  sim::Simulator sim;
  std::unique_ptr<sim::ScopedLogClock> log_clock;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<hdfs::Hdfs> dfs;
  std::unique_ptr<iostat::Monitor> monitor;
  std::unique_ptr<mapreduce::MrEngine> engine;
  std::shared_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<faults::FaultInjector> injector;
  std::unique_ptr<dag::JobDag> jobdag;
  std::unique_ptr<invariants::InvariantChecker> checker;
};

void BringUpNodes(Testbed* bed, const cluster::ClusterParams& cp,
                  uint32_t total_slots, Rng* rng) {
  bed->log_clock = std::make_unique<sim::ScopedLogClock>(&bed->sim);
  bed->cluster = std::make_unique<cluster::Cluster>(&bed->sim, cp,
                                                    total_slots, rng->Fork());
  bed->dfs = std::make_unique<hdfs::Hdfs>(bed->cluster.get(),
                                          hdfs::HdfsParams{}, rng->Fork());
}

void BringUpMonitor(Testbed* bed, SimDuration interval) {
  bed->monitor = std::make_unique<iostat::Monitor>(&bed->sim, interval);
  cluster::Cluster& cluster = *bed->cluster;
  for (uint32_t n = 0; n < cluster.num_workers(); ++n) {
    for (uint32_t d = 0; d < cluster.node(n)->num_hdfs_disks(); ++d) {
      bed->monitor->AddDevice(cluster.node(n)->hdfs_disk(d), "hdfs");
    }
    for (uint32_t d = 0; d < cluster.node(n)->num_mr_disks(); ++d) {
      bed->monitor->AddDevice(cluster.node(n)->mr_disk(d), "mr");
    }
  }
  bed->monitor->Start();
}

void AttachMetrics(Testbed* bed) {
  bed->metrics = std::make_shared<obs::MetricsRegistry>();
  bed->cluster->AttachObs(nullptr, bed->metrics.get());
  bed->dfs->AttachObs(nullptr, bed->metrics.get());
  bed->engine->AttachObs(nullptr, bed->metrics.get());
}

void AttachChecker(Testbed* bed) {
  bed->checker = invariants::MaybeAttachFromEnv(
      &bed->sim, bed->cluster.get(), bed->dfs.get(), bed->engine.get(),
      bed->metrics.get());
  if (bed->checker != nullptr) bed->checker->WatchDag(bed->jobdag.get());
}

/// Submits the dag; once it succeeds, flushes trailing writeback and then
/// stops the monitor (core::RunExperiment's completion protocol).
void SubmitDag(Testbed* b, Status* job_status, bool* all_done) {
  b->jobdag->Run([b, job_status, all_done](Status s) {
    if (!s.ok()) {
      *job_status = s;
      b->monitor->Stop();
      *all_done = true;
      return;
    }
    auto flushed = sim::Latch::Create(b->cluster->num_workers(),
                                      [b, all_done] {
                                        b->monitor->Stop();
                                        *all_done = true;
                                      });
    for (uint32_t n = 0; n < b->cluster->num_workers(); ++n) {
      b->cluster->node(n)->cache()->SyncAll(flushed->Arm());
    }
  });
}

core::GroupObservation ObserveGroup(const iostat::Monitor& monitor,
                                    const std::string& group) {
  core::GroupObservation obs;
  obs.read_mbps = monitor.GroupMean(group, iostat::Metric::kReadMBps);
  obs.write_mbps = monitor.GroupMean(group, iostat::Metric::kWriteMBps);
  obs.util = monitor.GroupMean(group, iostat::Metric::kUtil);
  obs.await_ms = monitor.GroupActiveMean(group, iostat::Metric::kAwait);
  obs.svctm_ms = monitor.GroupActiveMean(group, iostat::Metric::kSvctm);
  obs.wait_ms = monitor.GroupActiveMean(group, iostat::Metric::kWait);
  obs.avgrq_sz = monitor.GroupActiveMean(group, iostat::Metric::kAvgRqSz);
  obs.util_above_90 = monitor.GroupUtilFractionAbove(group, 90.0);
  obs.util_above_95 = monitor.GroupUtilFractionAbove(group, 95.0);
  obs.util_above_99 = monitor.GroupUtilFractionAbove(group, 99.0);
  obs.peak_read_mbps = obs.read_mbps.Peak();
  return obs;
}

/// The result fields core::RunExperiment fills after the loop.
void Extract(const Testbed& bed, core::ExperimentResult* result) {
  for (const dag::NodeRecord& record : bed.jobdag->node_records()) {
    result->jobs.push_back(record.counters);
  }
  result->duration_s = ToSeconds(bed.sim.Now());
  result->events_processed = bed.sim.events_processed();
  result->hdfs = ObserveGroup(*bed.monitor, "hdfs");
  result->mr = ObserveGroup(*bed.monitor, "mr");
  for (uint32_t t = 0; t < kNumIoTags; ++t) {
    const char* name = IoTagName(static_cast<IoTag>(t));
    const obs::Labels labels{{"source", name}};
    const uint64_t r =
        bed.metrics->CounterValue("pagecache.tag_disk_read_bytes", labels);
    const uint64_t w =
        bed.metrics->CounterValue("pagecache.tag_disk_write_bytes", labels);
    if (r + w == 0) continue;
    core::IoSourceVolumes& dst = result->io_sources[name];
    dst.disk_read_bytes = r;
    dst.disk_write_bytes = w;
  }
  result->metrics = bed.metrics;
}

// --- Simulated outputs as named fields ------------------------------------

void AddSeries(Fields* f, const std::string& key, const TimeSeries& s) {
  f->emplace_back(key + ".n", static_cast<double>(s.size()));
  for (size_t i = 0; i < s.size(); ++i) {
    f->emplace_back(key + "[" + std::to_string(i) + "]", s.at(i));
  }
}

void AddGroup(Fields* f, const std::string& g,
              const core::GroupObservation& o) {
  AddSeries(f, g + ".read_mbps", o.read_mbps);
  AddSeries(f, g + ".write_mbps", o.write_mbps);
  AddSeries(f, g + ".util", o.util);
  AddSeries(f, g + ".await_ms", o.await_ms);
  AddSeries(f, g + ".svctm_ms", o.svctm_ms);
  AddSeries(f, g + ".wait_ms", o.wait_ms);
  AddSeries(f, g + ".avgrq_sz", o.avgrq_sz);
  f->emplace_back(g + ".util_above_90", o.util_above_90);
  f->emplace_back(g + ".util_above_95", o.util_above_95);
  f->emplace_back(g + ".util_above_99", o.util_above_99);
  f->emplace_back(g + ".peak_read_mbps", o.peak_read_mbps);
}

void AddCounters(Fields* f, const std::string& p,
                 const mapreduce::JobCounters& c) {
  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  f->emplace_back(p + "hdfs_read_bytes", d(c.hdfs_read_bytes));
  f->emplace_back(p + "hdfs_write_bytes", d(c.hdfs_write_bytes));
  f->emplace_back(p + "intermediate_write_bytes",
                  d(c.intermediate_write_bytes));
  f->emplace_back(p + "intermediate_read_bytes", d(c.intermediate_read_bytes));
  f->emplace_back(p + "shuffle_network_bytes", d(c.shuffle_network_bytes));
  f->emplace_back(p + "maps_launched", c.maps_launched);
  f->emplace_back(p + "maps_local", c.maps_local);
  f->emplace_back(p + "reduces_launched", c.reduces_launched);
  f->emplace_back(p + "maps_preempted", c.maps_preempted);
  f->emplace_back(p + "speculative_launched", c.speculative_launched);
  f->emplace_back(p + "speculative_killed", c.speculative_killed);
  f->emplace_back(p + "speculative_wasted_bytes",
                  d(c.speculative_wasted_bytes));
  f->emplace_back(p + "task_failures", c.task_failures);
  f->emplace_back(p + "retries_scheduled", c.retries_scheduled);
  f->emplace_back(p + "maps_reexecuted", c.maps_reexecuted);
  f->emplace_back(p + "reexec_read_bytes", d(c.reexec_read_bytes));
  f->emplace_back(p + "reexec_write_bytes", d(c.reexec_write_bytes));
  f->emplace_back(p + "splits_abandoned", c.splits_abandoned);
  f->emplace_back(p + "wasted_work_bytes", d(c.wasted_work_bytes));
  f->emplace_back(p + "spills", d(c.spills));
  f->emplace_back(p + "start_ns", d(c.start_time.ns()));
  f->emplace_back(p + "end_ns", d(c.end_time.ns()));
}

/// Every simulated output of a result except the event count, which a
/// legitimate removal of no-op events changes.
Fields FlattenResult(const core::ExperimentResult& r) {
  Fields f;
  f.emplace_back("duration_s", r.duration_s);
  AddGroup(&f, "hdfs", r.hdfs);
  AddGroup(&f, "mr", r.mr);
  f.emplace_back("jobs.n", static_cast<double>(r.jobs.size()));
  for (size_t i = 0; i < r.jobs.size(); ++i) {
    AddCounters(&f, "job" + std::to_string(i) + ".", r.jobs[i]);
  }
  for (const auto& [name, v] : r.io_sources) {
    f.emplace_back("io." + name + ".read",
                   static_cast<double>(v.disk_read_bytes));
    f.emplace_back("io." + name + ".write",
                   static_cast<double>(v.disk_write_bytes));
  }
  AddSeries(&f, "cpu_util", r.cpu_util);
  AddSeries(&f, "maps_running", r.maps_running);
  AddSeries(&f, "reduces_running", r.reduces_running);
  return f;
}

/// Dag round records and the fault / retry / recovery counters.
Fields FlattenRecovery(const Testbed& bed) {
  Fields f;
  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  for (const dag::NodeRecord& n : bed.jobdag->node_records()) {
    const std::string p = "node" + std::to_string(n.id) + ".";
    f.emplace_back(p + "round", n.round);
    f.emplace_back(p + "attempts", n.attempts);
    f.emplace_back(p + "failures", n.failures);
    f.emplace_back(p + "skipped", n.skipped ? 1 : 0);
  }
  for (const dag::RoundRecord& r : bed.jobdag->round_records()) {
    const std::string p = "round" + std::to_string(r.round) + ".";
    f.emplace_back(p + "start_ns", d(r.start_time.ns()));
    f.emplace_back(p + "end_ns", d(r.end_time.ns()));
    f.emplace_back(p + "nodes", d(r.nodes.size()));
    f.emplace_back(p + "hdfs_read_bytes", d(r.hdfs_read_bytes));
    f.emplace_back(p + "hdfs_write_bytes", d(r.hdfs_write_bytes));
    f.emplace_back(p + "intermediate_write_bytes",
                   d(r.intermediate_write_bytes));
    f.emplace_back(p + "shuffle_network_bytes", d(r.shuffle_network_bytes));
    f.emplace_back(p + "expired_bytes", d(r.expired_bytes));
    f.emplace_back(p + "expired_files", d(r.expired_files));
    f.emplace_back(p + "retries", r.retries);
    f.emplace_back(p + "failures", r.failures);
    f.emplace_back(p + "skipped", r.skipped);
  }
  const dag::JobDag& g = *bed.jobdag;
  f.emplace_back("dag.nodes_submitted", g.nodes_submitted());
  f.emplace_back("dag.nodes_completed", g.nodes_completed());
  f.emplace_back("dag.node_retries", g.node_retries());
  f.emplace_back("dag.node_failures", g.node_failures());
  f.emplace_back("dag.published_bytes", d(g.intermediate_published_bytes()));
  f.emplace_back("dag.expired_bytes", d(g.intermediate_expired_bytes()));
  const mapreduce::MrEngine& e = *bed.engine;
  f.emplace_back("mr.task_failures", d(e.task_failures()));
  f.emplace_back("mr.retries_scheduled", d(e.retries_scheduled()));
  f.emplace_back("mr.maps_reexecuted", d(e.maps_reexecuted()));
  f.emplace_back("mr.wasted_work_bytes", d(e.wasted_work_bytes()));
  f.emplace_back("mr.nodes_blacklisted", d(e.nodes_blacklisted()));
  f.emplace_back("mr.splits_abandoned", d(e.splits_abandoned()));
  f.emplace_back("mr.speculative_launched", d(e.speculative_launched()));
  f.emplace_back("mr.speculative_killed", d(e.speculative_killed()));
  const hdfs::Hdfs& h = *bed.dfs;
  f.emplace_back("hdfs.rereplicated_blocks", d(h.rereplicated_blocks()));
  f.emplace_back("hdfs.rereplicated_bytes", d(h.rereplicated_bytes()));
  f.emplace_back("hdfs.lost_replicas", d(h.lost_replicas()));
  f.emplace_back("hdfs.unrecoverable_blocks", d(h.unrecoverable_blocks()));
  f.emplace_back("hdfs.pipeline_recoveries", d(h.pipeline_recoveries()));
  f.emplace_back("hdfs.read_failovers", d(h.read_failovers()));
  f.emplace_back("faults.injected", d(bed.injector->injected()));
  return f;
}

/// FNV-1a over the label and "key=value" lines, values at 9 significant
/// digits: the digest pins every output while tolerating a last-bit change
/// in how a summary is summed.
std::string DigestOf(const std::string& label, const Fields& fields) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const char* s) {
    for (; *s != '\0'; ++s) {
      h ^= static_cast<unsigned char>(*s);
      h *= 0x100000001b3ULL;
    }
  };
  mix(label.c_str());
  char value[64];
  for (const auto& [key, v] : fields) {
    std::snprintf(value, sizeof value, "=%.9g\n", v);
    mix(key.c_str());
    mix(value);
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

// --- Per-layer counts -----------------------------------------------------

/// Raw per-layer totals, summed over the cells of a run.
struct LayerTotals {
  uint64_t events = 0;
  double sim_s = 0;
  uint64_t read_hits = 0, read_misses = 0, readahead_units = 0;
  uint64_t evicted_units = 0, writeback_bytes = 0, throttle_events = 0;
  uint64_t disk_requests = 0, merges = 0;
  std::vector<double> await_bounds;
  std::vector<uint64_t> await_buckets;
  double queue_depth_sum = 0;
  uint64_t queue_depth_count = 0;
  uint64_t net_bytes = 0;
  uint64_t blocks_read = 0, blocks_written = 0;
  uint64_t local_read_bytes = 0, remote_read_bytes = 0;
  uint64_t rereplicated_blocks = 0, read_failovers = 0;
  uint64_t spills = 0, shuffle_bytes = 0;
  double merge_width_sum = 0;
  uint64_t merge_width_count = 0;
  uint64_t task_failures = 0, retries = 0, maps_reexecuted = 0;
  uint64_t speculative_launched = 0, speculative_killed = 0;
  uint64_t wasted_bytes = 0;
  uint64_t dag_rounds = 0, dag_nodes_completed = 0, dag_node_retries = 0;
  uint64_t dag_expired_bytes = 0;
  uint64_t faults_injected = 0;
};

void CountLayers(Testbed* bed, LayerTotals* t) {
  obs::MetricsRegistry& m = *bed->metrics;
  t->events += bed->sim.events_processed();
  t->sim_s += ToSeconds(bed->sim.Now());
  t->read_hits += m.CounterValue("pagecache.read_hits");
  t->read_misses += m.CounterValue("pagecache.read_misses");
  t->readahead_units += m.CounterValue("pagecache.readahead_units");
  t->evicted_units += m.CounterValue("pagecache.evicted_units");
  t->writeback_bytes += m.CounterValue("pagecache.writeback_bytes");
  t->throttle_events += m.CounterValue("pagecache.throttle_events");
  for (const char* cls : {"hdfs", "mr"}) {
    const obs::Labels labels{{"class", cls}};
    t->disk_requests += m.CounterValue("disk.requests", labels);
    t->merges += m.CounterValue("sched.merges", labels);
    // Both histograms are registered by every attached device.
    const obs::Histogram* await = m.GetHistogram("disk.await_ms", labels, {});
    if (t->await_buckets.empty()) {
      t->await_bounds = await->bounds();
      t->await_buckets.assign(await->buckets().size(), 0);
    }
    for (size_t i = 0; i < await->buckets().size(); ++i) {
      t->await_buckets[i] += await->buckets()[i];
    }
    const obs::Histogram* depth =
        m.GetHistogram("sched.queue_depth", labels, {});
    t->queue_depth_sum += depth->sum();
    t->queue_depth_count += depth->count();
  }
  t->net_bytes += bed->cluster->network()->total_bytes();
  t->blocks_read += m.CounterValue("hdfs.blocks_read");
  t->blocks_written += m.CounterValue("hdfs.blocks_written");
  t->local_read_bytes += m.CounterValue("hdfs.read_local_bytes");
  t->remote_read_bytes += m.CounterValue("hdfs.read_remote_bytes");
  t->rereplicated_blocks += bed->dfs->rereplicated_blocks();
  t->read_failovers += bed->dfs->read_failovers();
  t->spills += m.CounterValue("mr.map_spills") +
               m.CounterValue("mr.reduce_spills");
  t->shuffle_bytes += m.CounterValue("mr.shuffle_bytes");
  const obs::Histogram* width = m.GetHistogram("mr.merge_width", {}, {});
  t->merge_width_sum += width->sum();
  t->merge_width_count += width->count();
  const mapreduce::MrEngine& e = *bed->engine;
  t->task_failures += e.task_failures();
  t->retries += e.retries_scheduled();
  t->maps_reexecuted += e.maps_reexecuted();
  t->speculative_launched += e.speculative_launched();
  t->speculative_killed += e.speculative_killed();
  t->wasted_bytes += e.wasted_work_bytes() + e.speculative_wasted_bytes();
  t->dag_rounds += bed->jobdag->rounds_completed();
  t->dag_nodes_completed += bed->jobdag->nodes_completed();
  t->dag_node_retries += bed->jobdag->node_retries();
  t->dag_expired_bytes += bed->jobdag->intermediate_expired_bytes();
  if (bed->injector != nullptr) t->faults_injected += bed->injector->injected();
}

/// Quantile `q` of a fixed-bucket histogram, interpolated linearly inside
/// the bucket that holds it (the overflow bucket reads as its lower edge).
double HistogramQuantile(const std::vector<double>& bounds,
                         const std::vector<uint64_t>& buckets, double q) {
  uint64_t total = 0;
  for (uint64_t b : buckets) total += b;
  if (total == 0) return 0;
  const double target = q * static_cast<double>(total);
  double seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const double next = seen + static_cast<double>(buckets[i]);
    if (next >= target && buckets[i] > 0) {
      if (i == bounds.size()) return bounds.back();
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double frac = (target - seen) / static_cast<double>(buckets[i]);
      return lo + frac * (bounds[i] - lo);
    }
    seen = next;
  }
  return bounds.empty() ? 0 : bounds.back();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

Fields LayerMetrics(const LayerTotals& t) {
  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  return {
      {"sim.events", d(t.events)},
      {"sim.sim_s", t.sim_s},
      {"os.read_hits", d(t.read_hits)},
      {"os.read_misses", d(t.read_misses)},
      {"os.hit_ratio", Ratio(d(t.read_hits), d(t.read_hits + t.read_misses))},
      {"os.readahead_units", d(t.readahead_units)},
      {"os.evicted_units", d(t.evicted_units)},
      {"os.writeback_bytes", d(t.writeback_bytes)},
      {"os.throttle_events", d(t.throttle_events)},
      {"storage.requests", d(t.disk_requests)},
      {"storage.merge_ratio", Ratio(d(t.merges), d(t.merges + t.disk_requests))},
      {"storage.await_ms_p50",
       HistogramQuantile(t.await_bounds, t.await_buckets, 0.50)},
      {"storage.await_ms_p99",
       HistogramQuantile(t.await_bounds, t.await_buckets, 0.99)},
      {"storage.queue_depth_mean",
       Ratio(t.queue_depth_sum, d(t.queue_depth_count))},
      {"net.bytes", d(t.net_bytes)},
      {"hdfs.blocks_read", d(t.blocks_read)},
      {"hdfs.blocks_written", d(t.blocks_written)},
      {"hdfs.remote_read_frac",
       Ratio(d(t.remote_read_bytes),
             d(t.local_read_bytes + t.remote_read_bytes))},
      {"hdfs.rereplicated_blocks", d(t.rereplicated_blocks)},
      {"hdfs.read_failovers", d(t.read_failovers)},
      {"mr.spills", d(t.spills)},
      {"mr.shuffle_bytes", d(t.shuffle_bytes)},
      {"mr.merge_width_mean",
       Ratio(t.merge_width_sum, d(t.merge_width_count))},
      {"mr.task_failures", d(t.task_failures)},
      {"mr.retries", d(t.retries)},
      {"mr.maps_reexecuted", d(t.maps_reexecuted)},
      {"mr.speculative_launched", d(t.speculative_launched)},
      {"mr.speculative_killed", d(t.speculative_killed)},
      {"mr.wasted_bytes", d(t.wasted_bytes)},
      {"dag.rounds", d(t.dag_rounds)},
      {"dag.nodes_completed", d(t.dag_nodes_completed)},
      {"dag.node_retries", d(t.dag_node_retries)},
      {"dag.expired_bytes", d(t.dag_expired_bytes)},
      {"faults.injected", d(t.faults_injected)},
  };
}

// --- Cell runners -----------------------------------------------------------

/// Output of one cell: the RunExperiment-shaped result plus the extra
/// recovery fields the dag cell digests.
struct CellOutput {
  core::ExperimentResult result;
  Fields recovery;
};

/// core::RunExperiment, step for step, with each step timed. `layers`
/// may be null. With `setup_only` the cell stops before the first event.
Status RunExperimentCell(const core::ExperimentSpec& spec, bool setup_only,
                         SpanLog* spans, PhaseTimes* t, CellOutput* out,
                         LayerTotals* layers) {
  workloads::WorkloadPlan plan;
  {
    Timed timed(spans, "plan", "workloads", &t->plan_s);
    workloads::PlanOptions options;
    options.compress_intermediate = spec.factors.compress_intermediate;
    options.scale = spec.scale;
    options.kmeans_iterations = spec.kmeans_iterations;
    options.pagerank_iterations = spec.pagerank_iterations;
    options.pagerank_epsilon = spec.pagerank_epsilon;
    options.seed = spec.seed;
    plan = workloads::BuildPlan(spec.workload, options);
  }

  auto bed = std::make_unique<Testbed>();
  Rng rng(spec.seed);
  const cluster::ClusterParams cp = TestbedParams(spec);
  {
    Timed timed(spans, "cluster+hdfs", "bringup", &t->bringup_s);
    BringUpNodes(bed.get(), cp, spec.factors.slots.total(), &rng);
  }
  {
    Timed timed(spans, "preload", "hdfs", &t->preload_s);
    BDIO_RETURN_IF_ERROR(bed->dfs->Preload(plan.dataset_path,
                                           plan.dataset_bytes));
  }

  // core::RunExperiment's CPU and task-concurrency sampler.
  bool all_done = false;
  TimeSeries cpu_series(spec.iostat_interval);
  TimeSeries maps_series(spec.iostat_interval);
  TimeSeries reduces_series(spec.iostat_interval);
  auto sample_cpu = std::make_shared<std::function<void()>>();
  {
    Timed timed(spans, "monitor+engine+dag", "bringup", &t->bringup_s);
    BringUpMonitor(bed.get(), spec.iostat_interval);
    bed->engine = std::make_unique<mapreduce::MrEngine>(
        bed->cluster.get(), bed->dfs.get(), spec.factors.slots, rng.Fork());
    AttachMetrics(bed.get());

    dag::DagSpec dag_spec;
    dag_spec.name = plan.short_name;
    dag_spec.expire_intermediates = plan.expire_intermediates;
    for (size_t i = 0; i < plan.jobs.size(); ++i) {
      dag::DagNode node;
      node.spec = plan.jobs[i].spec;
      if (i > 0) node.deps.push_back(static_cast<dag::NodeId>(i - 1));
      dag_spec.nodes.push_back(std::move(node));
    }
    // The spec carries no tuning overrides, so RunExperiment's patching
    // wrapper around the controller would change nothing.
    dag_spec.controller = plan.iteration;
    bed->jobdag = std::make_unique<dag::JobDag>(
        &bed->sim, bed->engine.get(), bed->dfs.get(), std::move(dag_spec));
    bed->jobdag->AttachObs(bed->metrics.get());
    AttachChecker(bed.get());

    sim::Simulator& sim = bed->sim;
    cluster::Cluster& cluster = *bed->cluster;
    mapreduce::MrEngine& engine = *bed->engine;
    auto last_used = std::make_shared<double>(0.0);
    const double total_cores =
        static_cast<double>(cp.node.cores) * cluster.num_workers();
    const double interval_s = ToSeconds(spec.iostat_interval);
    *sample_cpu = [&sim, &cluster, &engine, &cpu_series, &maps_series,
                   &reduces_series, &all_done, last_used, sample_cpu,
                   total_cores, interval_s] {
      if (all_done) return;
      double used = 0;
      for (uint32_t n = 0; n < cluster.num_workers(); ++n) {
        used += cluster.node(n)->cpu()->cpu_seconds_used();
      }
      cpu_series.Append((used - *last_used) / (total_cores * interval_s));
      *last_used = used;
      maps_series.Append(engine.running_maps());
      reduces_series.Append(engine.running_reduces());
      sim.ScheduleAfter(cpu_series.interval(), [sample_cpu] {
        if (*sample_cpu) (*sample_cpu)();
      });
    };
    sim.ScheduleAfter(spec.iostat_interval, [sample_cpu] {
      if (*sample_cpu) (*sample_cpu)();
    });
  }

  Status job_status = Status::OK();
  {
    Timed timed(spans, "submit", "dag", &t->arm_s);
    SubmitDag(bed.get(), &job_status, &all_done);
  }
  if (setup_only) {
    *sample_cpu = nullptr;
    return Status::OK();
  }
  {
    Timed timed(spans, "Simulator::Run", "sim", &t->loop_s);
    bed->sim.Run();
  }
  *sample_cpu = nullptr;  // break the sampler's self-reference
  BDIO_RETURN_IF_ERROR(job_status);
  if (!all_done) {
    return Status::Internal("simulation drained before the workload finished");
  }
  {
    Timed timed(spans, "extract", "iostat", &t->extract_s);
    out->result.label = spec.factors.Label(spec.workload);
    Extract(*bed, &out->result);
    out->result.cpu_util = std::move(cpu_series);
    out->result.maps_running = std::move(maps_series);
    out->result.reduces_running = std::move(reduces_series);
  }
  if (layers != nullptr) CountLayers(bed.get(), layers);
  {
    Timed timed(spans, "teardown", "bringup", &t->teardown_s);
    bed.reset();
  }
  return Status::OK();
}

/// Marks every job an iteration controller emits for speculation, the
/// same patch the static round-0 nodes get.
class SpeculativeController : public dag::IterationController {
 public:
  explicit SpeculativeController(
      std::shared_ptr<dag::IterationController> inner)
      : inner_(std::move(inner)) {}

  std::vector<dag::DagNode> NextRound(
      const dag::RoundResult& completed) override {
    std::vector<dag::DagNode> nodes = inner_->NextRound(completed);
    for (dag::DagNode& node : nodes) node.spec.speculative_execution = true;
    return nodes;
  }

 private:
  std::shared_ptr<dag::IterationController> inner_;
};

/// The SSSP JobDag on the paper testbed under a fault plan that reaches
/// every recovery path: a fail-slow MR disk (speculation), crash-task
/// volleys (attempt budgets, backoff, blacklisting), a DataNode death at
/// 2 s (re-replication, reducers restarted) and a TaskTracker death at
/// 14 s (lost map outputs re-executed).
///
/// The instants are chosen so both deaths fall in the prepare job, before
/// any reducer writes output. Two defects of the current model rule out
/// later ones: a reducer restarted while its dead attempt still writes
/// output aborts on the existing file, and a re-replication still
/// streaming a block when the dag expires the file reads freed memory.
Status RunDagFaultsCell(const CellDef& def, bool setup_only, SpanLog* spans,
                        PhaseTimes* t, CellOutput* out, LayerTotals* layers) {
  const core::ExperimentSpec& spec = def.spec;
  workloads::GraphDagPlan plan;
  {
    Timed timed(spans, "plan", "workloads", &t->plan_s);
    workloads::GraphPlanOptions options;
    options.scale = spec.scale;
    options.compress_intermediate = spec.factors.compress_intermediate;
    options.max_rounds = 16;
    options.seed = spec.seed;
    plan = workloads::BuildGraphDag(workloads::GraphWorkload::kSssp, options);
    for (dag::DagNode& node : plan.dag.nodes) {
      node.spec.speculative_execution = true;
    }
    plan.dag.controller =
        std::make_shared<SpeculativeController>(plan.dag.controller);
    plan.dag.retry.max_node_retries = 2;
  }

  auto bed = std::make_unique<Testbed>();
  Rng rng(spec.seed);
  const cluster::ClusterParams cp = TestbedParams(spec);
  const mapreduce::SlotConfig slots = mapreduce::SlotConfig::Paper_1_8();
  {
    Timed timed(spans, "cluster+hdfs", "bringup", &t->bringup_s);
    BringUpNodes(bed.get(), cp, slots.total(), &rng);
  }
  {
    Timed timed(spans, "preload", "hdfs", &t->preload_s);
    BDIO_RETURN_IF_ERROR(bed->dfs->Preload(plan.dataset_path,
                                           plan.dataset_bytes));
  }
  {
    Timed timed(spans, "monitor+engine+dag", "bringup", &t->bringup_s);
    BringUpMonitor(bed.get(), spec.iostat_interval);
    bed->engine = std::make_unique<mapreduce::MrEngine>(
        bed->cluster.get(), bed->dfs.get(), slots, rng.Fork());
    mapreduce::FaultToleranceConfig ft;
    ft.blacklist_strikes = 3;
    ft.blacklist_decay = Seconds(30);
    bed->engine->SetFaultTolerance(ft);
    AttachMetrics(bed.get());
    bed->injector = std::make_unique<faults::FaultInjector>(
        bed->cluster.get(), bed->dfs.get(), bed->engine.get());
    bed->injector->AttachObs(nullptr, bed->metrics.get());
    bed->jobdag = std::make_unique<dag::JobDag>(
        &bed->sim, bed->engine.get(), bed->dfs.get(), std::move(plan.dag));
    bed->jobdag->AttachObs(bed->metrics.get());
    AttachChecker(bed.get());
  }

  Status job_status = Status::OK();
  bool all_done = false;
  {
    Timed timed(spans, "submit+arm", "faults", &t->arm_s);
    SubmitDag(bed.get(), &job_status, &all_done);
    faults::FaultPlan faults;
    faults
        .DegradeDisk(7, /*mr_disk=*/true, 0, /*factor=*/4.0,
                     TimeAt(Seconds(1)), TimeAt(Seconds(60)))
        .KillDataNode(3, TimeAt(Seconds(2)))
        .KillTaskTracker(2, TimeAt(Seconds(14)));
    // Crash volleys every 3 s while the SSSP rounds run; strikes soon
    // blacklist node 5, so later volleys usually find it idle.
    faults.CrashTask(5, TimeAt(Seconds(5)));
    for (uint64_t s = 24; s <= 48; s += 3) {
      faults.CrashTask(5, TimeAt(Seconds(s)));
    }
    BDIO_RETURN_IF_ERROR(bed->injector->Arm(faults));
  }
  if (setup_only) return Status::OK();
  {
    Timed timed(spans, "Simulator::Run", "sim", &t->loop_s);
    bed->sim.Run();
  }
  BDIO_RETURN_IF_ERROR(job_status);
  if (!all_done) {
    return Status::Internal("simulation drained before the dag finished");
  }
  if (bed->jobdag->degraded()) {
    return Status::Internal("dag finished degraded");
  }
  {
    Timed timed(spans, "extract", "iostat", &t->extract_s);
    out->result.label = def.label;
    Extract(*bed, &out->result);
    out->recovery = FlattenRecovery(*bed);
  }
  if (layers != nullptr) CountLayers(bed.get(), layers);
  {
    Timed timed(spans, "teardown", "bringup", &t->teardown_s);
    bed.reset();
  }
  return Status::OK();
}

Status RunCell(const CellDef& def, bool setup_only, SpanLog* spans,
               PhaseTimes* t, CellOutput* out, LayerTotals* layers) {
  return def.dag_faults
             ? RunDagFaultsCell(def, setup_only, spans, t, out, layers)
             : RunExperimentCell(def.spec, setup_only, spans, t, out, layers);
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"sort_paper", "scan_paper", "shuffle_wide", "dag_faults"};
}

std::vector<std::string> CellLabels(const std::string& workload) {
  std::vector<std::string> labels;
  for (const CellDef& c : Cells(workload, 0)) labels.push_back(c.label);
  return labels;
}

WorkloadRun RunWorkload(const std::string& workload, uint64_t seed,
                        double setup_budget_s, SpanLog* spans) {
  WorkloadRun run;
  LayerTotals layers;
  const std::vector<CellDef> cells = Cells(workload, seed);
  for (const CellDef& def : cells) {
    CellResult cell;
    cell.label = def.label;
    CellOutput out;
    Status s = Status::OK();
    {
      Timed timed(spans, def.label.c_str(), "perfbench");
      s = RunCell(def, /*setup_only=*/false, spans, &cell.times, &out,
                  &layers);
    }
    cell.ok = s.ok();
    if (cell.ok) {
      Fields fields = FlattenResult(out.result);
      fields.insert(fields.end(), out.recovery.begin(), out.recovery.end());
      cell.digest = DigestOf(cell.label, fields);
      cell.events = out.result.events_processed;
      cell.sim_s = out.result.duration_s;
    } else {
      cell.error = s.ToString();
    }
    cell.setup_samples.push_back(cell.times.setup_s());
    run.cells.push_back(std::move(cell));
  }
  // Set-up-only passes, untraced, after every cell ran: at least one when
  // there is a budget, at most 20.
  SpanLog off(false);
  const double start = HostSeconds();
  for (int pass = 0; pass < 20 && setup_budget_s > 0 &&
                     (pass == 0 || HostSeconds() - start < setup_budget_s);
       ++pass) {
    for (size_t i = 0; i < cells.size(); ++i) {
      PhaseTimes t;
      CellOutput out;
      const Status s =
          RunCell(cells[i], /*setup_only=*/true, &off, &t, &out, nullptr);
      CellResult& cell = run.cells[i];
      if (!s.ok() && cell.ok) {
        cell.ok = false;
        cell.error = "set-up pass: " + s.ToString();
      }
      cell.setup_samples.push_back(t.setup_s());
    }
  }
  run.layers = LayerMetrics(layers);
  return run;
}

std::vector<std::string> ParityMismatches(const std::string& workload,
                                          uint64_t seed) {
  const std::vector<CellDef> cells = Cells(workload, seed);
  if (cells.empty() || cells.front().dag_faults) {
    return {"no RunExperiment cell in workload " + workload};
  }
  const core::ExperimentSpec& spec = cells.front().spec;
  SpanLog off(false);
  PhaseTimes t;
  CellOutput mine;
  const Status s =
      RunExperimentCell(spec, /*setup_only=*/false, &off, &t, &mine, nullptr);
  Result<core::ExperimentResult> ref = core::RunExperiment(spec);
  if (!s.ok() || !ref.ok()) {
    return {"cell failed: benchmark " + s.ToString() + ", RunExperiment " +
            ref.status().ToString()};
  }
  const core::ExperimentResult& a = mine.result;
  const core::ExperimentResult& b = ref.value();
  std::vector<std::string> diffs;
  if (a.label != b.label) diffs.push_back("label");
  if (a.events_processed != b.events_processed) {
    diffs.push_back("events_processed");
  }
  const Fields fa = FlattenResult(a);
  const Fields fb = FlattenResult(b);
  if (fa.size() != fb.size()) {
    diffs.push_back("field count " + std::to_string(fa.size()) + " vs " +
                    std::to_string(fb.size()));
  } else {
    for (size_t i = 0; i < fa.size(); ++i) {
      if (fa[i] != fb[i]) diffs.push_back(fa[i].first);
    }
  }
  if (a.metrics->ToJson() != b.metrics->ToJson()) {
    diffs.push_back("metrics registry");
  }
  return diffs;
}

}  // namespace perfbench
