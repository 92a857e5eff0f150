#include "bench/figure_common.h"

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "obs/blktrace.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bdio::bench {

void PreloadOrExit(hdfs::Hdfs* dfs, const std::string& path,
                   uint64_t bytes) {
  const Status s = dfs->Preload(path, bytes);
  if (!s.ok()) {
    std::fprintf(stderr, "failed to preload dataset '%s' (%llu bytes): %s\n",
                 path.c_str(), static_cast<unsigned long long>(bytes),
                 s.ToString().c_str());
    std::exit(2);
  }
}

cluster::ClusterParams MakeScaledClusterParams(
    const core::BenchOptions& options) {
  cluster::ClusterParams cp;
  cp.num_workers = options.num_workers;
  cp.node.memory_bytes =
      static_cast<uint64_t>(static_cast<double>(GiB(16)) * options.scale);
  cp.node.daemon_bytes =
      static_cast<uint64_t>(static_cast<double>(GiB(2)) * options.scale);
  cp.node.per_slot_heap_bytes =
      static_cast<uint64_t>(static_cast<double>(MiB(200)) * options.scale);
  cp.node.min_cache_bytes = MiB(16);
  return cp;
}

bool WantsObs(const core::BenchOptions& options) {
  return !options.trace_out.empty() || !options.metrics_out.empty() ||
         !options.blktrace_out.empty();
}

void AttachObsSinks(const core::BenchOptions& options, sim::Simulator* sim,
                    cluster::Cluster* cluster, core::ExperimentResult* out) {
  out->metrics = std::make_shared<obs::MetricsRegistry>();
  if (!options.trace_out.empty()) {
    out->trace = std::make_shared<obs::TraceSession>(sim);
  }
  cluster->AttachObs(out->trace.get(), out->metrics.get());
  if (!options.blktrace_out.empty()) {
    out->blktrace = std::make_shared<obs::BlktraceSession>(sim);
    out->blktrace->AttachMetrics(out->metrics.get());
    cluster->AttachBlktrace(out->blktrace.get());
  }
}

}  // namespace bdio::bench
