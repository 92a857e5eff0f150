#ifndef BDIO_BENCH_FIGURE_COMMON_H_
#define BDIO_BENCH_FIGURE_COMMON_H_

#include <string>

#include "cluster/cluster.h"
#include "core/report.h"
#include "hdfs/hdfs.h"

namespace bdio::bench {

/// Materializes a bench input dataset, or prints the failure to stderr and
/// exits with the flag-error code 2 — a bad --scale/--workers combination
/// (dataset larger than the shrunken disks) is an operator error, not a
/// simulator invariant violation worth a CHECK abort.
void PreloadOrExit(hdfs::Hdfs* dfs, const std::string& path, uint64_t bytes);

/// The testbed ClusterParams every standalone extension bench builds: the
/// paper's worker node (16 GiB RAM, 2 GiB daemons, 200 MiB task heaps),
/// with the memory-side quantities scaled by --scale and the worker count
/// taken from --workers. Mirrors core::RunExperiment's setup.
cluster::ClusterParams MakeScaledClusterParams(
    const core::BenchOptions& options);

/// True when an artifact flag (--trace-out, --metrics-out, --blktrace-out)
/// is set: the bench then observes one run and ends with
/// core::WriteObsArtifacts, which writes what each flag asks for.
bool WantsObs(const core::BenchOptions& options);

/// Gives the observed run the sinks core::RunExperiment gives an observed
/// cell: a metrics registry, a span trace when --trace-out is set and a
/// block trace of every disk when --blktrace-out is set. All three land in
/// `out` and are attached to `cluster`; the caller attaches out->trace and
/// out->metrics to its other components.
void AttachObsSinks(const core::BenchOptions& options, sim::Simulator* sim,
                    cluster::Cluster* cluster, core::ExperimentResult* out);

}  // namespace bdio::bench

#endif  // BDIO_BENCH_FIGURE_COMMON_H_
