#include "core/report.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "common/logging.h"

namespace bdio::core {

namespace {

// Flag values are validated, not best-effort converted: strtoul would
// silently wrap a negative --jobs to ~4 billion threads, atof would turn
// "--scale=abc" into 0, and strtoull accepts "--seed=12x" by stopping at
// the 'x'. Each helper rejects garbage with a clear message and exit 2.
[[noreturn]] void DieBadFlag(const char* flag, const char* expects,
                             const char* got) {
  std::fprintf(stderr, "%s expects %s, got '%s' (try --help)\n", flag,
               expects, got);
  std::exit(2);
}

uint32_t ParseJobsOrDie(const char* s) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || v <= 0) {
    DieBadFlag("--jobs", "a positive integer", s);
  }
  return static_cast<uint32_t>(v);
}

uint32_t ParseWorkersOrDie(const char* s) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || v <= 0 || v > 100000) {
    DieBadFlag("--workers", "a positive worker count", s);
  }
  return static_cast<uint32_t>(v);
}

uint64_t ParseSeedOrDie(const char* s) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE || *s == '-') {
    DieBadFlag("--seed", "an unsigned integer", s);
  }
  return static_cast<uint64_t>(v);
}

double ParseScaleOrDie(const char* s) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v) || v <= 0) {
    DieBadFlag("--scale", "a positive fraction or denominator", s);
  }
  // Accept either a fraction (0.01) or a denominator (128).
  return v > 1.0 ? 1.0 / v : v;
}

}  // namespace

BenchOptions BenchOptions::Parse(int argc, char** argv) {
  return Parse(argc, argv, nullptr, "");
}

BenchOptions BenchOptions::Parse(
    int argc, char** argv,
    const std::function<bool(const std::string&)>& extra,
    const std::string& extra_usage) {
  // Every flag that takes a value, each accepted as --flag=V and --flag V.
  static const struct {
    const char* flag;
    void (*set)(BenchOptions*, const char*);
  } kValueFlags[] = {
      {"--scale",
       [](BenchOptions* o, const char* v) { o->scale = ParseScaleOrDie(v); }},
      {"--seed",
       [](BenchOptions* o, const char* v) { o->seed = ParseSeedOrDie(v); }},
      {"--workers",
       [](BenchOptions* o, const char* v) {
         o->num_workers = ParseWorkersOrDie(v);
       }},
      {"--jobs",
       [](BenchOptions* o, const char* v) { o->jobs = ParseJobsOrDie(v); }},
      {"--outdir", [](BenchOptions* o, const char* v) { o->outdir = v; }},
      {"--trace-out", [](BenchOptions* o, const char* v) { o->trace_out = v; }},
      {"--metrics-out",
       [](BenchOptions* o, const char* v) { o->metrics_out = v; }},
      {"--blktrace-out",
       [](BenchOptions* o, const char* v) { o->blktrace_out = v; }},
  };

  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool took_value = false;
    for (const auto& [flag, set] : kValueFlags) {
      const size_t len = std::strlen(flag);
      if (arg.compare(0, len, flag) != 0) continue;
      if (arg.size() == len) {
        if (i + 1 == argc) DieBadFlag(flag, "a value", "");
        set(&options, argv[++i]);
      } else if (arg[len] == '=') {
        set(&options, arg.c_str() + len + 1);
      } else {
        continue;
      }
      took_value = true;
      break;
    }
    if (took_value) continue;
    if (arg == "--csv") {
      options.csv = true;
    } else if (arg == "--calibrate") {
      options.calibrate = true;
    } else if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr,
                   "usage: %s [--scale=<denominator|fraction>] [--seed=N]\n"
                   "          [--workers=N] [--jobs=N] [--csv] [--calibrate]\n"
                   "          [--outdir=<dir>] [--trace-out=<file>]\n"
                   "          [--metrics-out=<file>] [--blktrace-out=<file>]\n"
                   "  every --flag=V above may also be given as --flag V\n"
                   "  --jobs=N  run up to N simulations in parallel\n"
                   "            (default: BDIO_JOBS env var, else all cores)\n"
                   "  --trace-out=<file>    write a Chrome/Perfetto trace of\n"
                   "                        one experiment (env BDIO_TRACE_OUT)\n"
                   "  --metrics-out=<file>  dump every experiment's metrics\n"
                   "                        (.csv => CSV, else JSON;\n"
                   "                        env BDIO_METRICS_OUT)\n"
                   "  --blktrace-out=<file> write the block-layer Q/M/D/C\n"
                   "                        lifecycle trace of one experiment\n"
                   "                        for tools/bdio-blkparse\n"
                   "                        (env BDIO_BLKTRACE_OUT)\n"
                   "%s",
                   argv[0], extra_usage.c_str());
      std::exit(0);
    } else if (extra && extra(arg)) {
      // Claimed by the bench's own flag handler.
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg.c_str());
      std::exit(2);
    }
  }
  if (options.trace_out.empty()) {
    if (const char* env = std::getenv("BDIO_TRACE_OUT")) {
      options.trace_out = env;
    }
  }
  if (options.metrics_out.empty()) {
    if (const char* env = std::getenv("BDIO_METRICS_OUT")) {
      options.metrics_out = env;
    }
  }
  if (options.blktrace_out.empty()) {
    if (const char* env = std::getenv("BDIO_BLKTRACE_OUT")) {
      options.blktrace_out = env;
    }
  }
  return options;
}

uint32_t BenchOptions::ResolvedJobs() const {
  return jobs > 0 ? jobs : runner::ThreadPool::DefaultParallelism();
}

ExperimentSpec BenchOptions::MakeSpec(workloads::WorkloadKind workload,
                                      const Factors& factors) const {
  ExperimentSpec spec;
  spec.workload = workload;
  spec.factors = factors;
  spec.scale = scale;
  spec.seed = seed;
  spec.num_workers = num_workers;
  spec.calibrate = calibrate;
  // Trace exactly one experiment per run: the one whose label matches
  // trace_label (every experiment when no label was chosen).
  const bool label_match =
      trace_label.empty() || trace_label == factors.Label(workload);
  spec.collect_trace = !trace_out.empty() && label_match;
  spec.collect_blktrace = !blktrace_out.empty() && label_match;
  return spec;
}

std::vector<Factors> SlotsLevels() {
  Factors base;
  base.memory_bytes = GiB(16);
  base.compress_intermediate = true;
  Factors small = base;
  small.slots = mapreduce::SlotConfig::Paper_1_8();
  Factors large = base;
  large.slots = mapreduce::SlotConfig::Paper_2_16();
  return {small, large};
}

std::vector<Factors> MemoryLevels() {
  Factors base;
  base.slots = mapreduce::SlotConfig::Paper_1_8();
  base.compress_intermediate = false;
  Factors mem16 = base;
  mem16.memory_bytes = GiB(16);
  Factors mem32 = base;
  mem32.memory_bytes = GiB(32);
  return {mem16, mem32};
}

std::vector<Factors> CompressionLevels() {
  Factors base;
  base.slots = mapreduce::SlotConfig::Paper_1_8();
  base.memory_bytes = GiB(32);
  Factors off = base;
  off.compress_intermediate = false;
  Factors on = base;
  on.compress_intermediate = true;
  return {off, on};
}

double Summarize(const GroupObservation& obs, iostat::Metric metric) {
  switch (metric) {
    case iostat::Metric::kAwait:
    case iostat::Metric::kSvctm:
    case iostat::Metric::kWait:
    case iostat::Metric::kAvgRqSz:
      return SeriesOf(obs, metric).ActiveMean();
    default:
      return SeriesOf(obs, metric).Mean();
  }
}

const TimeSeries& SeriesOf(const GroupObservation& obs,
                           iostat::Metric metric) {
  switch (metric) {
    case iostat::Metric::kReadMBps:
      return obs.read_mbps;
    case iostat::Metric::kWriteMBps:
      return obs.write_mbps;
    case iostat::Metric::kUtil:
      return obs.util;
    case iostat::Metric::kAwait:
      return obs.await_ms;
    case iostat::Metric::kSvctm:
      return obs.svctm_ms;
    case iostat::Metric::kWait:
      return obs.wait_ms;
    case iostat::Metric::kAvgRqSz:
      return obs.avgrq_sz;
    default:
      BDIO_LOG(Fatal) << "metric has no stored series";
      return obs.util;  // unreachable
  }
}

GridRunner::GridRunner(const BenchOptions& options, RunFn run)
    : options_(options),
      run_(run ? std::move(run) : RunFn(&RunExperiment)),
      pool_(options.ResolvedJobs()) {}

GridRunner::Entry GridRunner::EntryFor(workloads::WorkloadKind workload,
                                       const Factors& factors) {
  const std::string label = factors.Label(workload);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(label);
  if (it != cache_.end()) return it->second;

  // First request for this key: submit exactly one simulation and publish
  // its future before releasing the lock, so concurrent callers join it.
  // Failures ride the future back to Get(); workers never abort.
  const ExperimentSpec spec = options_.MakeSpec(workload, factors);
  auto task = [run = run_, spec]() { return run(spec); };
  Entry entry = pool_.Async(std::move(task)).share();
  auto [ins, inserted] = cache_.emplace(label, std::move(entry));
  BDIO_CHECK(inserted);
  return ins->second;
}

void GridRunner::Prefetch(workloads::WorkloadKind workload,
                          const Factors& factors) {
  EntryFor(workload, factors);
}

void GridRunner::PrefetchAll(const std::vector<Factors>& levels) {
  for (workloads::WorkloadKind w : workloads::AllWorkloads()) {
    for (const Factors& f : levels) Prefetch(w, f);
  }
}

const ExperimentResult& GridRunner::Get(workloads::WorkloadKind workload,
                                        const Factors& factors) {
  const Result<ExperimentResult>& result = EntryFor(workload, factors).get();
  BDIO_CHECK(result.ok()) << factors.Label(workload) << ": "
                          << result.status().ToString();
  return *result;
}

int PrintShapeChecks(const std::vector<ShapeCheck>& checks) {
  int failed = 0;
  std::printf("\nShape checks (paper-expected behaviour):\n");
  for (const ShapeCheck& c : checks) {
    std::printf("  [%s] %s\n", c.pass ? "ok" : "MISS", c.description.c_str());
    if (!c.pass) ++failed;
  }
  std::printf("SHAPE: %zu/%zu checks hold\n", checks.size() - failed,
              checks.size());
  return failed;
}

bool RoughlyEqual(double a, double b, double rel_tol, double floor) {
  const double scale = std::max({std::abs(a), std::abs(b), floor});
  return std::abs(a - b) <= rel_tol * scale;
}

void PrintFigureHeader(const std::string& id, const std::string& caption,
                       const BenchOptions& options) {
  std::printf("==== %s — %s ====\n", id.c_str(), caption.c_str());
  std::printf(
      "testbed: %u workers, scale 1/%.0f of the paper's dataset sizes "
      "(seed %llu)\n\n",
      options.num_workers, 1.0 / options.scale,
      static_cast<unsigned long long>(options.seed));
}

void PrintSeriesCsv(const std::string& label, const TimeSeries& series) {
  std::printf("# %s\n", label.c_str());
  std::fputs(series.ToCsv("value").c_str(), stdout);
}

std::string WriteSeriesCsv(const std::string& outdir, const std::string& name,
                           const TimeSeries& series) {
  std::error_code ec;
  std::filesystem::create_directories(outdir, ec);
  std::string file = name;
  for (char& c : file) {
    if (c == '/' || c == ' ' || c == '%') c = '_';
  }
  const std::string path = outdir + "/" + file + ".csv";
  std::ofstream out(path);
  BDIO_CHECK(out.good()) << "cannot write " << path;
  out << series.ToCsv("value");
  return path;
}

void WriteObsArtifacts(
    const BenchOptions& options,
    const std::vector<std::pair<std::string, const ExperimentResult*>>&
        results) {
  if (!options.trace_out.empty()) {
    bool wrote = false;
    for (const auto& [label, res] : results) {
      if (res == nullptr || res->trace == nullptr) continue;
      const Status s = res->trace->WriteJsonFile(options.trace_out);
      BDIO_CHECK(s.ok()) << s.ToString();
      std::printf("wrote %s (trace of %s, %zu events)\n",
                  options.trace_out.c_str(), label.c_str(),
                  res->trace->num_events());
      wrote = true;
      break;  // one trace per run; later results carry none anyway
    }
    if (!wrote) {
      std::fprintf(stderr,
                   "warning: --trace-out was set but no experiment carried a "
                   "trace\n");
    }
  }
  if (!options.blktrace_out.empty()) {
    bool wrote = false;
    for (const auto& [label, res] : results) {
      if (res == nullptr || res->blktrace == nullptr) continue;
      const Status s = res->blktrace->WriteFile(options.blktrace_out);
      BDIO_CHECK(s.ok()) << s.ToString();
      std::printf(
          "wrote %s (blktrace of %s, %llu records, %llu dropped)\n",
          options.blktrace_out.c_str(), label.c_str(),
          static_cast<unsigned long long>(res->blktrace->num_records()),
          static_cast<unsigned long long>(res->blktrace->dropped_records()));
      wrote = true;
      break;  // one blktrace per run, matching the span-trace policy
    }
    if (!wrote) {
      std::fprintf(stderr,
                   "warning: --blktrace-out was set but no experiment "
                   "carried a blktrace\n");
    }
  }
  if (!options.metrics_out.empty()) {
    const bool as_csv =
        options.metrics_out.size() >= 4 &&
        options.metrics_out.compare(options.metrics_out.size() - 4, 4,
                                    ".csv") == 0;
    std::string out;
    if (as_csv) {
      out = "label,metric,labels,field,value\n";
      for (const auto& [label, res] : results) {
        if (res && res->metrics) out += res->metrics->ToCsv(label);
      }
    } else {
      out = "{\"experiments\":[\n";
      bool first = true;
      for (const auto& [label, res] : results) {
        if (res == nullptr || res->metrics == nullptr) continue;
        if (!first) out += ",\n";
        first = false;
        out += "{\"label\":\"" + label +
               "\",\"metrics\":" + res->metrics->ToJson() + "}";
      }
      out += "\n]}\n";
    }
    std::ofstream f(options.metrics_out, std::ios::binary);
    BDIO_CHECK(f.good()) << "cannot write " << options.metrics_out;
    f << out;
    std::printf("wrote %s\n", options.metrics_out.c_str());
  }
}

}  // namespace bdio::core
