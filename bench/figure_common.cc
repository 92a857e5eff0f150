#include "bench/figure_common.h"

#include <cstdio>
#include <cstdlib>

namespace bdio::bench {

void PreloadOrExit(core::Testbed* bed, const std::string& path,
                   uint64_t bytes) {
  const Status s = bed->Preload(path, bytes);
  if (!s.ok()) {
    std::fprintf(stderr, "failed to preload dataset '%s' (%llu bytes): %s\n",
                 path.c_str(), static_cast<unsigned long long>(bytes),
                 s.ToString().c_str());
    std::exit(2);
  }
}

bool WantsObs(const core::BenchOptions& options) {
  return !options.trace_out.empty() || !options.metrics_out.empty() ||
         !options.blktrace_out.empty();
}

core::TestbedSpec MakeTestbedSpec(const core::BenchOptions& options,
                                  bool observed) {
  core::TestbedSpec spec;
  spec.cluster = core::ScaledClusterParams(GiB(16), options.scale,
                                           options.num_workers);
  spec.trace = observed && !options.trace_out.empty();
  spec.blktrace = observed && !options.blktrace_out.empty();
  return spec;
}

workloads::WorkloadPlan CompressedPlan(const core::BenchOptions& options,
                                       workloads::WorkloadKind kind) {
  workloads::PlanOptions plan_options;
  plan_options.scale = options.scale;
  plan_options.compress_intermediate = true;
  return workloads::BuildPlan(kind, plan_options);
}

}  // namespace bdio::bench
