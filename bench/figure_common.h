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

}  // namespace bdio::bench

#endif  // BDIO_BENCH_FIGURE_COMMON_H_
