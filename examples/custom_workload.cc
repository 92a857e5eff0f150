// Custom workload: how to characterize YOUR application with this library.
//
//  1. Implement the job with the functional engine (real keys and values)
//     and run it on a sample of your data to measure its volume ratios.
//  2. Build a SimJobSpec from those measurements.
//  3. Run it on the simulated testbed and read the iostat characterization.
//
// The example workload is an inverted-index builder (word -> document ids),
// a common text-processing job the paper's introduction motivates.
//
//   $ ./custom_workload

#include <cstdio>
#include <set>

#include "core/testbed.h"
#include "iostat/iostat.h"
#include "mrfunc/local_runner.h"
#include "workloads/datagen.h"

namespace {

using namespace bdio;

/// Map: (doc_id, text) -> (word, doc_id) pairs.
class InvertedIndexMapper : public mrfunc::Mapper {
 public:
  void Map(const mrfunc::KeyValue& record, mrfunc::Emitter* out) override {
    size_t start = 0;
    const std::string& text = record.value;
    while (start < text.size()) {
      size_t end = text.find(' ', start);
      if (end == std::string::npos) end = text.size();
      if (end > start) {
        out->Emit(text.substr(start, end - start), record.key);
      }
      start = end + 1;
    }
  }
};

/// Reduce: (word, [doc ids]) -> (word, sorted unique posting list).
class PostingListReducer : public mrfunc::Reducer {
 public:
  void Reduce(const std::string& key,
              const std::vector<std::string>& values,
              mrfunc::Emitter* out) override {
    std::set<std::string> docs(values.begin(), values.end());
    std::string postings;
    for (const auto& d : docs) {
      if (!postings.empty()) postings += ' ';
      postings += d;
    }
    out->Emit(key, postings);
  }
};

}  // namespace

int main() {
  // ---- Step 1: measure the job on sample data (functional engine). ------
  Rng rng(7);
  const auto sample = workloads::GenTeraSortRecords(&rng, 20000);
  InvertedIndexMapper mapper;
  PostingListReducer reducer;
  mrfunc::LocalJobRunner runner;
  mrfunc::JobConfig config;
  config.compress_map_output = true;  // measure the codec on real output
  std::vector<mrfunc::KeyValue> output;
  auto stats = runner.Run(sample, &mapper, &reducer, config, &output);
  if (!stats.ok()) {
    std::fprintf(stderr, "functional run failed: %s\n",
                 stats.status().ToString().c_str());
    return 1;
  }
  const double map_ratio = static_cast<double>(stats->map_output_bytes) /
                           static_cast<double>(stats->map_input_bytes);
  const double out_ratio = static_cast<double>(stats->reduce_output_bytes) /
                           static_cast<double>(stats->map_input_bytes);
  std::printf("measured on %zu sample records:\n", sample.size());
  std::printf("  map output ratio   %.3f\n", map_ratio);
  std::printf("  job output ratio   %.3f\n", out_ratio);
  std::printf("  codec ratio        %.3f\n\n",
              stats->intermediate_compression_ratio);

  // ---- Step 2+3: replay at datacenter scale on the simulated testbed. ---
  // The paper's 10-worker testbed with 16 GB nodes, memory scaled to 1/256;
  // one seed drives every random choice of the run.
  const double scale = 1.0 / 256;
  core::TestbedSpec testbed;
  testbed.cluster = core::ScaledClusterParams(GiB(16), scale, 10);
  core::Testbed bed(testbed, Rng(42));
  BDIO_CHECK_OK(
      bed.Preload("/input/docs", static_cast<uint64_t>(GiB(256) * scale)));
  iostat::Monitor& monitor = bed.MonitorDisks(Seconds(1));

  mapreduce::SimJobSpec spec;
  spec.name = "inverted-index";
  spec.input_path = "/input/docs";
  spec.output_path = "/out/index";
  spec.map_output_ratio = map_ratio;
  spec.output_ratio = out_ratio;
  spec.compress_intermediate = true;
  spec.compress_ratio = stats->intermediate_compression_ratio;
  spec.map_cpu_ns_per_byte = 40;  // text tokenization is CPU-heavy
  spec.reduce_cpu_ns_per_byte = 15;

  bool ok = false;
  mapreduce::JobCounters counters;
  bed.engine().RunJob(spec, [&](Status s, const mapreduce::JobCounters& c) {
    ok = s.ok();
    counters = c;
    monitor.Stop();
  });
  bed.sim().Run();
  if (!ok) {
    std::fprintf(stderr, "simulated job failed\n");
    return 1;
  }

  std::printf("simulated on the 10-worker testbed (scale 1/256):\n");
  std::printf("  job duration       %.1f s\n", counters.DurationSeconds());
  std::printf("  HDFS  util mean    %.1f %%\n",
              monitor.GroupMean("hdfs", iostat::Metric::kUtil).Mean());
  std::printf("  MR    util mean    %.1f %%\n",
              monitor.GroupMean("mr", iostat::Metric::kUtil).Mean());
  std::printf("  HDFS  avgrq-sz     %.0f sectors\n",
              monitor.GroupActiveMean("hdfs", iostat::Metric::kAvgRqSz)
                  .ActiveMean());
  std::printf("  MR    avgrq-sz     %.0f sectors\n",
              monitor.GroupActiveMean("mr", iostat::Metric::kAvgRqSz)
                  .ActiveMean());
  std::printf("\nlast iostat -x interval:\n%s",
              monitor.LatestReport().c_str());
  return 0;
}
