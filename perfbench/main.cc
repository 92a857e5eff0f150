// bdio_perfbench: the benchmark's measuring binary. run.py drives it; each
// invocation does one thing and prints one JSON object on stdout.
//
//   bdio_perfbench cells  <workload>
//   bdio_perfbench run    <workload> <seed> <setup_ms> [--trace <file>]
//   bdio_perfbench probes <seed> <repeats> [--trace <file>]
//   bdio_perfbench parity <workload> <seed>
//
// `run` executes every cell of the workload once, single-threaded, and
// reports host time per phase, an output digest per cell and the per-layer
// counts; then, for about <setup_ms> milliseconds, it sets every cell up
// again, stopping before the first event, to sample set-up time. With --trace it also records host-time spans around each call
// into a layer and writes them to <file> (Chrome trace JSON) at exit.
// Exit code 0 when the command ran (failed cells are reported in the
// JSON), 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cells.h"
#include "probes.h"
#include "spans.h"

namespace {

using namespace perfbench;

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string SelfTimes(const SpanLog& spans) {
  std::string out = "{";
  for (const auto& [layer, s] : spans.SelfSecondsByLayer()) {
    if (out.size() > 1) out += ", ";
    out += Quote(layer) + ": " + Num(s);
  }
  return out + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: bdio_perfbench cells <workload>\n"
               "       bdio_perfbench run <workload> <seed> <setup_ms> "
               "[--trace <file>]\n"
               "       bdio_perfbench probes <seed> <repeats> "
               "[--trace <file>]\n"
               "       bdio_perfbench parity <workload> <seed>\n");
  return 2;
}

bool ParseU64(const char* s, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

bool KnownWorkload(const std::string& w) {
  for (const std::string& name : WorkloadNames()) {
    if (name == w) return true;
  }
  return false;
}

/// Writes the span log when tracing; false if the file cannot be written.
bool FinishTrace(const SpanLog& spans, const std::string& path) {
  if (path.empty()) return true;
  if (spans.WriteChromeTrace(path)) return true;
  std::fprintf(stderr, "bdio_perfbench: cannot write %s\n", path.c_str());
  return false;
}

int Cells(const std::string& workload) {
  std::string out = "{\"cells\": [";
  const std::vector<std::string> labels = CellLabels(workload);
  for (size_t i = 0; i < labels.size(); ++i) {
    out += (i ? ", " : "") + Quote(labels[i]);
  }
  std::printf("%s]}\n", out.c_str());
  return 0;
}

int Run(const std::string& workload, uint64_t seed, double setup_budget_s,
        const std::string& trace) {
  SpanLog spans(!trace.empty());
  const WorkloadRun run = RunWorkload(workload, seed, setup_budget_s, &spans);
  std::string out = "{\"workload\": " + Quote(workload) +
                    ", \"seed\": " + std::to_string(seed) + ", \"cells\": [";
  for (size_t i = 0; i < run.cells.size(); ++i) {
    const CellResult& c = run.cells[i];
    const PhaseTimes& t = c.times;
    out += std::string(i ? ", " : "") + "{\"label\": " + Quote(c.label) +
           ", \"ok\": " + (c.ok ? "true" : "false") +
           ", \"error\": " + Quote(c.error) + ", \"digest\": " +
           Quote(c.digest) + ", \"events\": " + std::to_string(c.events) +
           ", \"sim_s\": " + Num(c.sim_s) + ", \"plan_s\": " +
           Num(t.plan_s) + ", \"bringup_s\": " + Num(t.bringup_s) +
           ", \"preload_s\": " + Num(t.preload_s) + ", \"arm_s\": " +
           Num(t.arm_s) + ", \"loop_s\": " + Num(t.loop_s) +
           ", \"extract_s\": " + Num(t.extract_s) + ", \"teardown_s\": " +
           Num(t.teardown_s) + ", \"setup_samples\": [";
    for (size_t k = 0; k < c.setup_samples.size(); ++k) {
      out += (k ? ", " : "") + Num(c.setup_samples[k]);
    }
    out += "]}";
  }
  out += "], \"layers\": {";
  for (size_t i = 0; i < run.layers.size(); ++i) {
    out += std::string(i ? ", " : "") + Quote(run.layers[i].first) + ": " +
           Num(run.layers[i].second);
  }
  out += "}, \"span_self_s\": " + SelfTimes(spans) + "}";
  std::printf("%s\n", out.c_str());
  return FinishTrace(spans, trace) ? 0 : 1;
}

int Probes(uint64_t seed, int repeats, const std::string& trace) {
  SpanLog spans(!trace.empty());
  const std::vector<ProbeResult> results = RunProbes(seed, repeats, &spans);
  std::string out = "{\"probes\": [";
  for (size_t i = 0; i < results.size(); ++i) {
    const ProbeResult& r = results[i];
    out += std::string(i ? ", " : "") + "{\"metric\": " + Quote(r.metric) +
           ", \"ns_per_op\": " + Num(r.ns_per_op) +
           ", \"ok\": " + (r.ok ? "true" : "false") +
           ", \"error\": " + Quote(r.error) + "}";
  }
  out += "], \"span_self_s\": " + SelfTimes(spans) + "}";
  std::printf("%s\n", out.c_str());
  return FinishTrace(spans, trace) ? 0 : 1;
}

int Parity(const std::string& workload, uint64_t seed) {
  const std::vector<std::string> diffs = ParityMismatches(workload, seed);
  std::string out = "{\"identical\": ";
  out += diffs.empty() ? "true" : "false";
  out += ", \"mismatches\": [";
  for (size_t i = 0; i < diffs.size() && i < 20; ++i) {
    out += (i ? ", " : "") + Quote(diffs[i]);
  }
  std::printf("%s]}\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  std::string trace;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--trace") {
      if (i + 1 >= args.size()) return Usage();
      trace = args[i + 1];
      args.erase(args.begin() + static_cast<long>(i),
                 args.begin() + static_cast<long>(i) + 2);
      break;
    }
  }
  if (args.empty()) return Usage();
  const std::string& cmd = args[0];
  uint64_t seed = 0;
  uint64_t n = 0;  // <setup_ms> or <repeats>
  if (cmd == "cells" && args.size() == 2 && KnownWorkload(args[1])) {
    return Cells(args[1]);
  }
  if (cmd == "run" && args.size() == 4 && KnownWorkload(args[1]) &&
      ParseU64(args[2].c_str(), &seed) &&
      ParseU64(args[3].c_str(), &n) && n <= 60000) {
    return Run(args[1], seed, static_cast<double>(n) / 1000, trace);
  }
  if (cmd == "probes" && args.size() == 3 && ParseU64(args[1].c_str(), &seed) &&
      ParseU64(args[2].c_str(), &n) && n > 0 && n < 100) {
    return Probes(seed, static_cast<int>(n), trace);
  }
  if (cmd == "parity" && args.size() == 3 && KnownWorkload(args[1]) &&
      ParseU64(args[2].c_str(), &seed)) {
    return Parity(args[1], seed);
  }
  return Usage();
}
