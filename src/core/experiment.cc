#include "core/experiment.h"

#include <memory>
#include <utility>

#include "common/io_tag.h"
#include "common/logging.h"
#include "core/testbed.h"
#include "sim/latch.h"

namespace bdio::core {

std::string Factors::MemoryLabel() const {
  return std::to_string(memory_bytes / kGiB) + "G";
}

std::string Factors::Label(workloads::WorkloadKind workload) const {
  return std::string(workloads::WorkloadShortName(workload)) + "_" +
         slots.label + "_" + MemoryLabel() + "_" + CompressionLabel();
}

namespace {

/// Applies the spec's Hadoop tuning overrides to one job spec (the same
/// patch BuildPlan's static jobs get below).
void ApplyJobOverrides(const ExperimentSpec& spec,
                       mapreduce::SimJobSpec* job) {
  if (spec.sort_buffer_bytes > 0) {
    job->sort_buffer_bytes = spec.sort_buffer_bytes;
  }
  if (spec.parallel_copies > 0) {
    job->parallel_copies = spec.parallel_copies;
  }
  if (spec.reduce_slowstart >= 0) {
    job->reduce_slowstart = spec.reduce_slowstart;
  }
}

/// Wraps a workload's iteration controller so controller-emitted rounds
/// carry the same tuning overrides as the statically planned jobs.
class SpecPatchController : public dag::IterationController {
 public:
  SpecPatchController(std::shared_ptr<dag::IterationController> inner,
                      const ExperimentSpec* spec)
      : inner_(std::move(inner)), spec_(spec) {}

  std::vector<dag::DagNode> NextRound(
      const dag::RoundResult& completed) override {
    std::vector<dag::DagNode> nodes = inner_->NextRound(completed);
    for (dag::DagNode& node : nodes) ApplyJobOverrides(*spec_, &node.spec);
    return nodes;
  }

 private:
  std::shared_ptr<dag::IterationController> inner_;
  const ExperimentSpec* spec_;
};

GroupObservation ObserveGroup(const iostat::Monitor& monitor,
                              const std::string& group) {
  GroupObservation obs;
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

}  // namespace

Result<ExperimentResult> RunExperiment(const ExperimentSpec& spec) {
  if (spec.scale <= 0 || spec.scale > 1.0) {
    return Status::InvalidArgument("scale must be in (0, 1]");
  }

  // ---- Testbed (Tables 1 and 2), scaled. -------------------------------
  TestbedSpec bed_spec;
  bed_spec.cluster = ScaledClusterParams(spec.factors.memory_bytes,
                                         spec.scale, spec.num_workers);
  cluster::ClusterParams& cp = bed_spec.cluster;
  cp.node.io_scheduler = spec.io_scheduler;
  cp.node.num_hdfs_disks = spec.num_hdfs_disks;
  cp.node.num_mr_disks = spec.num_mr_disks;
  cp.node.cache.readahead_max_bytes = spec.readahead_max_bytes;
  cp.node.cache.writeback_period = spec.writeback_period;
  cp.node.disk.ncq_depth = spec.ncq_depth;
  if (spec.ssd_intermediate) {
    cp.node.mr_disk = storage::DiskParameters::SataSsd2013();
  }
  bed_spec.slots = spec.factors.slots;
  bed_spec.trace = spec.collect_trace;
  bed_spec.blktrace = spec.collect_blktrace;
  Testbed bed(bed_spec, Rng(spec.seed));
  sim::Simulator& sim = bed.sim();
  cluster::Cluster& cluster = bed.cluster();
  mapreduce::MrEngine& engine = bed.engine();

  // ---- Workload plan and dataset. ---------------------------------------
  workloads::PlanOptions options;
  options.compress_intermediate = spec.factors.compress_intermediate;
  options.scale = spec.scale;
  options.kmeans_iterations = spec.kmeans_iterations;
  options.pagerank_iterations = spec.pagerank_iterations;
  options.pagerank_epsilon = spec.pagerank_epsilon;
  options.seed = spec.seed;
  workloads::Calibration calibration;
  if (spec.calibrate) {
    calibration = workloads::CalibrateWorkload(spec.workload, spec.seed);
    options.calibration = &calibration;
  }
  workloads::WorkloadPlan plan = workloads::BuildPlan(spec.workload, options);
  for (workloads::PlannedJob& job : plan.jobs) {
    ApplyJobOverrides(spec, &job.spec);
  }
  BDIO_RETURN_IF_ERROR(bed.Preload(plan.dataset_path, plan.dataset_bytes));

  // ---- Monitoring: iostat -x 1 on every data disk of every worker. ------
  iostat::Monitor& monitor = bed.MonitorDisks(spec.iostat_interval);

  // The workload dag: static plan jobs as a linear dependency chain (the
  // pre-dag chained semantics); iterative workloads grow the dag round by
  // round through their controller.
  dag::DagSpec dag_spec;
  dag_spec.name = plan.short_name;
  dag_spec.expire_intermediates = plan.expire_intermediates;
  for (size_t i = 0; i < plan.jobs.size(); ++i) {
    dag::DagNode node;
    node.spec = plan.jobs[i].spec;
    if (i > 0) node.deps.push_back(static_cast<dag::NodeId>(i - 1));
    dag_spec.nodes.push_back(std::move(node));
  }
  if (plan.iteration != nullptr) {
    dag_spec.controller =
        std::make_shared<SpecPatchController>(plan.iteration, &spec);
  }
  dag::JobDag& jobdag = bed.AddDag(std::move(dag_spec));

  // CPU + task-concurrency sampler: per interval, the fraction of all cores
  // in use and the executing task counts. Stops rescheduling once the
  // workload (and trailing writeback) finish; the self-referencing closure
  // is cleared after sim.Run() below.
  bool all_done = false;
  TimeSeries cpu_series(spec.iostat_interval);
  TimeSeries maps_series(spec.iostat_interval);
  TimeSeries reduces_series(spec.iostat_interval);
  auto sample_cpu = std::make_shared<std::function<void()>>();
  {
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

  // ---- Execute the workload through the JobDag driver. ------------------
  ExperimentResult result;
  result.label = spec.factors.Label(spec.workload);

  Status job_status = Status::OK();
  jobdag.Run([&](Status s) {
    if (!s.ok()) {
      job_status = s;
      monitor.Stop();
      all_done = true;
      return;
    }
    // Flush trailing writeback so the tail of the workload's writes is
    // charged to the measurement window, then stop sampling.
    auto flushed = sim::Latch::Create(cluster.num_workers(), [&] {
      monitor.Stop();
      all_done = true;
    });
    for (uint32_t n = 0; n < cluster.num_workers(); ++n) {
      cluster.node(n)->cache()->SyncAll(flushed->Arm());
    }
  });
  sim.Run();
  *sample_cpu = nullptr;  // break the sampler's self-reference

  if (!job_status.ok()) return job_status;
  BDIO_CHECK(all_done) << "simulation drained before the workload finished";
  for (const dag::NodeRecord& record : jobdag.node_records()) {
    result.jobs.push_back(record.counters);
  }

  result.duration_s = ToSeconds(sim.Now());
  result.events_processed = sim.events_processed();
  result.hdfs = ObserveGroup(monitor, "hdfs");
  result.mr = ObserveGroup(monitor, "mr");
  result.cpu_util = std::move(cpu_series);
  result.maps_running = std::move(maps_series);
  result.reduces_running = std::move(reduces_series);
  // Attribute physical bytes to their high-level sources. The per-tag
  // counters in the registry are the single source of truth; tags that
  // moved no bytes are omitted.
  for (uint32_t t = 0; t < kNumIoTags; ++t) {
    const char* name = IoTagName(static_cast<IoTag>(t));
    const obs::Labels labels{{"source", name}};
    const uint64_t r =
        bed.metrics().CounterValue("pagecache.tag_disk_read_bytes", labels);
    const uint64_t w =
        bed.metrics().CounterValue("pagecache.tag_disk_write_bytes", labels);
    if (r + w == 0) continue;
    IoSourceVolumes& dst = result.io_sources[name];
    dst.disk_read_bytes = r;
    dst.disk_write_bytes = w;
  }
  bed.ExportObs(&result);
  return result;
}

}  // namespace bdio::core
