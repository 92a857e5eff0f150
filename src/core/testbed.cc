#include "core/testbed.h"

#include <utility>

#include "common/logging.h"

namespace bdio::core {

cluster::ClusterParams ScaledClusterParams(uint64_t memory_bytes,
                                           double scale, uint32_t workers) {
  cluster::ClusterParams cp;
  cp.num_workers = workers;
  cp.node.memory_bytes =
      static_cast<uint64_t>(static_cast<double>(memory_bytes) * scale);
  cp.node.daemon_bytes =
      static_cast<uint64_t>(static_cast<double>(GiB(2)) * scale);
  cp.node.per_slot_heap_bytes =
      static_cast<uint64_t>(static_cast<double>(MiB(200)) * scale);
  cp.node.min_cache_bytes = MiB(16);
  return cp;
}

Testbed::Testbed(const TestbedSpec& spec, Rng rng)
    : log_clock_(&sim_),
      cluster_(&sim_, spec.cluster, spec.slots.total(), rng.Fork()),
      hdfs_(&cluster_, hdfs::HdfsParams{}, rng.Fork()),
      engine_(&cluster_, &hdfs_, spec.slots, rng.Fork()),
      metrics_(std::make_shared<obs::MetricsRegistry>()) {
  if (spec.trace) trace_ = std::make_shared<obs::TraceSession>(&sim_);
  cluster_.AttachObs(trace_.get(), metrics_.get());
  hdfs_.AttachObs(trace_.get(), metrics_.get());
  engine_.AttachObs(trace_.get(), metrics_.get());
  if (spec.blktrace) {
    blktrace_ = std::make_shared<obs::BlktraceSession>(&sim_);
    blktrace_->AttachMetrics(metrics_.get());
    cluster_.AttachBlktrace(blktrace_.get());
  }
  if (spec.faults) {
    injector_ =
        std::make_unique<faults::FaultInjector>(&cluster_, &hdfs_, &engine_);
    injector_->AttachObs(trace_.get(), metrics_.get());
  }
  // Debug-mode invariant auditing (BDIO_CHECK_INVARIANTS=1): read-only, so
  // a checked run stays byte-identical to an unchecked one.
  checker_ = invariants::MaybeAttachFromEnv(&sim_, &cluster_, &hdfs_,
                                            &engine_, metrics_.get());
}

Testbed::~Testbed() = default;

Status Testbed::Preload(const std::string& path, uint64_t bytes) {
  return hdfs_.Preload(path, bytes);
}

iostat::Monitor& Testbed::MonitorDisks(SimDuration interval) {
  // A second monitor would orphan the first one's scheduled samples.
  BDIO_CHECK(monitor_ == nullptr) << "MonitorDisks called twice";
  monitor_ = std::make_unique<iostat::Monitor>(&sim_, interval);
  for (uint32_t n = 0; n < cluster_.num_workers(); ++n) {
    cluster::Node* node = cluster_.node(n);
    for (uint32_t d = 0; d < node->num_hdfs_disks(); ++d) {
      monitor_->AddDevice(node->hdfs_disk(d), "hdfs");
    }
    for (uint32_t d = 0; d < node->num_mr_disks(); ++d) {
      monitor_->AddDevice(node->mr_disk(d), "mr");
    }
  }
  monitor_->Start();
  return *monitor_;
}

dag::JobDag& Testbed::AddDag(dag::DagSpec spec) {
  dags_.push_back(
      std::make_unique<dag::JobDag>(&sim_, &engine_, &hdfs_, std::move(spec)));
  dag::JobDag& jobdag = *dags_.back();
  jobdag.AttachObs(metrics_.get());
  if (checker_ != nullptr) checker_->WatchDag(&jobdag);
  return jobdag;
}

void Testbed::ExportObs(ExperimentResult* out) const {
  out->metrics = metrics_;
  out->trace = trace_;
  out->blktrace = blktrace_;
}

}  // namespace bdio::core
