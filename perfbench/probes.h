#ifndef BDIO_PERFBENCH_PROBES_H_
#define BDIO_PERFBENCH_PROBES_H_

// Layer probes: one layer at a time, driven through its public calls and
// timed from outside (in the style of KVell's benchcomponents.c). Each
// probe also checks its simulated result, so a probe that does no work
// fails instead of reporting a fast time.

#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

struct ProbeResult {
  std::string metric;  ///< Per-layer metric name, e.g. "os.probe_hit_ns".
  double ns_per_op = 0;  ///< Median host ns per operation over the repeats.
  bool ok = false;
  std::string error;  ///< First failed result check ("" when ok).
};

/// Runs every probe `repeats` times on inputs made from `seed`.
std::vector<ProbeResult> RunProbes(uint64_t seed, int repeats,
                                   SpanLog* spans);

}  // namespace perfbench

#endif  // BDIO_PERFBENCH_PROBES_H_
