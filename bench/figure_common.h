#ifndef BDIO_BENCH_FIGURE_COMMON_H_
#define BDIO_BENCH_FIGURE_COMMON_H_

#include <string>

#include "core/report.h"
#include "core/testbed.h"
#include "workloads/profile.h"

namespace bdio::bench {

/// Materializes a bench input dataset, or prints the failure to stderr and
/// exits with the flag-error code 2 — a bad --scale/--workers combination
/// (dataset larger than the shrunken disks) is an operator error, not a
/// simulator invariant violation worth a CHECK abort.
void PreloadOrExit(core::Testbed* bed, const std::string& path,
                   uint64_t bytes);

/// True when an artifact flag (--trace-out, --metrics-out, --blktrace-out)
/// is set: the bench then observes one run and ends with
/// core::WriteObsArtifacts, which writes what each flag asks for.
bool WantsObs(const core::BenchOptions& options);

/// The testbed every standalone bench builds: the paper's 16 GiB worker
/// node scaled by --scale, --workers workers, 1_8 slots. An `observed` run
/// also records the span trace and block trace the artifact flags ask for
/// (hand them over with Testbed::ExportObs).
core::TestbedSpec MakeTestbedSpec(const core::BenchOptions& options,
                                  bool observed = false);

/// The plan of `kind` at --scale with intermediate data compressed, the
/// workload setting of the fault and multi-tenant benches.
workloads::WorkloadPlan CompressedPlan(const core::BenchOptions& options,
                                       workloads::WorkloadKind kind);

}  // namespace bdio::bench

#endif  // BDIO_BENCH_FIGURE_COMMON_H_
