// bdio_repro's section registry: the whole paper simulates each distinct
// cell once and prints every section once, in paper order.

#include "bench/repro.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

namespace bdio::bench {
namespace {

TEST(PaperReproTest, RunsTwentyCellsAndPrintsEverySectionInOrder) {
  const std::vector<std::string> ids = {
      "Table 3",  "Figure 1", "Figure 2",  "Figure 3",  "Figure 4",
      "Figure 5", "Figure 6", "Figure 7",  "Figure 8",  "Figure 9",
      "Figure 10", "Figure 11", "Figure 12", "Table 5", "Table 6",
      "Table 7"};
  const std::vector<Section>& sections = PaperSections();
  ASSERT_EQ(sections.size(), ids.size());
  EXPECT_EQ(PaperLevels().size(), 5u);

  std::atomic<int> runs{0};
  core::BenchOptions options;
  options.jobs = 2;
  testing::internal::CaptureStdout();
  RunPaper(options,
           [&runs](const core::ExperimentSpec& spec)
               -> Result<core::ExperimentResult> {
             runs.fetch_add(1);
             core::ExperimentResult result;
             result.label = spec.factors.Label(spec.workload);
             result.duration_s = 1.0;
             return result;
           });
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(runs.load(), 20);

  size_t prev = 0;
  for (size_t i = 0; i < sections.size(); ++i) {
    EXPECT_EQ(sections[i].id, ids[i]);
    const std::string header =
        "==== " + sections[i].id + " — " + sections[i].caption + " ====\n";
    const size_t at = out.find(header);
    ASSERT_NE(at, std::string::npos) << header;
    EXPECT_EQ(out.find(header, at + 1), std::string::npos)
        << "printed twice: " << header;
    if (i > 0) {
      EXPECT_GT(at, prev) << "out of order: " << header;
    }
    prev = at;
  }
}

}  // namespace
}  // namespace bdio::bench
