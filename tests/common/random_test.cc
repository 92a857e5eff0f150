#include "common/random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

namespace bdio {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = rng.UniformRange(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Gaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(RngTest, ZipfSkewsTowardHead) {
  Rng rng(17);
  std::map<uint64_t, int> counts;
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[rng.Zipf(1000, 0.99)];
  // Rank 0 must dominate any mid-tail rank by a wide margin.
  EXPECT_GT(counts[0], 20 * (counts[500] + 1));
  for (auto& [k, v] : counts) EXPECT_LT(k, 1000u);
}

TEST(RngTest, ZipfDrawsMatchRecordedHash) {
  // Five (n, theta) pairs round-robin, one more than the per-thread memo of
  // normalizers holds, so every draw also exercises slot eviction. The hash
  // was recorded from the implementation that recomputed the normalizer on
  // every draw; the memo must not change a single value.
  Rng rng(2024);
  const struct {
    uint64_t n;
    double theta;
  } kDists[] = {{1000, 0.99}, {1000000, 0.8}, {50, 0.7}, {20000, 0.9},
                {1000, 0.5}};
  uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a
  for (int i = 0; i < 2000; ++i) {
    const auto& d = kDists[i % 5];
    hash = (hash ^ rng.Zipf(d.n, d.theta)) * 0x100000001b3ULL;
  }
  EXPECT_EQ(hash, 0xeded34ed6f8b8553ULL);
}

TEST(RngTest, ZipfRejectsThetaOne) {
  // theta == 1 makes the inversion exponent 1 / (1 - theta) infinite.
  Rng rng(1);
  EXPECT_DEATH(rng.Zipf(100000, 1.0), "");
}

TEST(RngTest, PoissonMean) {
  Rng rng(19);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Poisson(3.5));
  EXPECT_NEAR(sum / n, 3.5, 0.1);
  // Large-mean path (normal approximation).
  sum = 0;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Poisson(200));
  EXPECT_NEAR(sum / n, 200, 2.0);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(23);
  Rng b = a.Fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, ForkStreamsDependOnlyOnForkOrder) {
  // A child's stream is fixed at the moment of the fork: it must not depend
  // on when the parent or sibling streams are drawn from afterwards. This
  // is what lets one seed fan out over cluster/hdfs/engine (and per-job
  // streams) while keeping multi-job interleavings deterministic.
  Rng a(101);
  Rng a1 = a.Fork();
  Rng a2 = a.Fork();
  std::vector<uint64_t> a1_vals, a2_vals, parent_vals;
  for (int i = 0; i < 50; ++i) a1_vals.push_back(a1.Next());
  for (int i = 0; i < 50; ++i) a2_vals.push_back(a2.Next());
  for (int i = 0; i < 50; ++i) parent_vals.push_back(a.Next());

  // Same fork order, maximally interleaved draw order.
  Rng b(101);
  Rng b1 = b.Fork();
  Rng b2 = b.Fork();
  std::vector<uint64_t> b1_vals, b2_vals, bparent_vals;
  for (int i = 0; i < 50; ++i) {
    bparent_vals.push_back(b.Next());
    b2_vals.push_back(b2.Next());
    b1_vals.push_back(b1.Next());
  }
  EXPECT_EQ(a1_vals, b1_vals);
  EXPECT_EQ(a2_vals, b2_vals);
  EXPECT_EQ(parent_vals, bparent_vals);

  // Forking after draws DOES shift the child stream: fork order is part of
  // the seed path.
  Rng c(101);
  c.Next();
  Rng c1 = c.Fork();
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (c1.Next() == a1_vals[static_cast<size_t>(i)]) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, ShuffleKeepsAllElements) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  Shuffle(&v, &rng);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

}  // namespace
}  // namespace bdio
