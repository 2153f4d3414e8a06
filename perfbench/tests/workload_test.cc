// Tests of the benchmark's input generator: inputs are a pure function of
// the seed, and the NURand key chooser is skewed within bounds.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "workload.h"

namespace perfbench {
namespace {

TEST(WorkloadTest, SameSeedGivesSameBytes) {
  const WorkloadSpec& spec = *FindWorkload("serve_2k");
  const Generator a(spec, 7);
  const Generator b(spec, 7);
  EXPECT_EQ(a.UniverseCsv(), b.UniverseCsv());
  EXPECT_EQ(a.TruthCsv(), b.TruthCsv());
  for (uint64_t chunk : {0u, 1u, 25u}) EXPECT_EQ(a.ChunkCsv(chunk), b.ChunkCsv(chunk));
  QueryMix qa(7, a.num_objects());
  QueryMix qb(7, b.num_objects());
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(qa.Next(), qb.Next());
}

TEST(WorkloadTest, OtherSeedGivesOtherBytes) {
  const WorkloadSpec& spec = *FindWorkload("serve_2k");
  const Generator a(spec, 7);
  const Generator b(spec, 8);
  EXPECT_NE(a.TruthCsv(), b.TruthCsv());
  EXPECT_NE(a.ChunkCsv(0), b.ChunkCsv(0));
  // A repeated object gets fresh claims each cycle.
  EXPECT_EQ(a.ChunkObjects(0), a.ChunkObjects(a.chunks_per_cycle()));
  EXPECT_NE(a.ChunkCsv(0), a.ChunkCsv(a.chunks_per_cycle()));
}

TEST(WorkloadTest, ChunksDealObjectsRoundRobin) {
  const Generator gen(*FindWorkload("batch_crh"), 1);
  std::vector<int> seen(gen.num_objects(), 0);
  for (uint64_t c = 0; c < gen.chunks_per_cycle(); ++c) {
    const std::vector<size_t> objects = gen.ChunkObjects(c);
    EXPECT_EQ(objects.size(), kObjectsPerChunk);
    for (const size_t i : objects) ++seen[i];
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](int s) { return s == 1; }));
}

TEST(WorkloadTest, ChunkClaimsMatchTheStatedShape) {
  const Generator gen(*FindWorkload("serve_2k"), 3);
  size_t claims = 0;
  const uint64_t chunks = 40;
  for (uint64_t c = 0; c < chunks; ++c) claims += gen.ChunkClaims(c).num_observations();
  const double per_chunk = static_cast<double>(claims) / static_cast<double>(chunks);
  EXPECT_GT(per_chunk, 0.95 * kClaimsPerObject * kObjectsPerChunk);
  EXPECT_LT(per_chunk, 1.05 * kClaimsPerObject * kObjectsPerChunk);
  // Coverage is skewed 1/(k+1): the head covers everything, the tail little.
  EXPECT_DOUBLE_EQ(gen.coverage().front(), 1.0);
  EXPECT_LT(gen.coverage().back(), 0.2);
}

TEST(NuRandTest, StaysInRangeAndIsSkewed) {
  const int64_t n = 2000;
  const int64_t a = NuRandConstantFor(n);
  EXPECT_EQ(a, 511);
  EXPECT_EQ(NuRandConstantFor(3000), 1023);  // TPC-C's A for 3,000 customers
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    NuRand nurand(seed, a);
    EXPECT_GE(nurand.c(), 0);
    EXPECT_LE(nurand.c(), a);
    std::vector<int> counts(n, 0);
    const int draws = 200000;
    for (int i = 0; i < draws; ++i) {
      const int64_t key = nurand.Next(0, n - 1);
      ASSERT_GE(key, 0);
      ASSERT_LT(key, n);
      ++counts[static_cast<size_t>(key)];
    }
    std::sort(counts.begin(), counts.end(), std::greater<int>());
    int hottest = 0;
    for (int64_t i = 0; i < n / 10; ++i) hottest += counts[static_cast<size_t>(i)];
    // Uniform keys would put about 11% of draws on the hottest tenth.
    const double share = static_cast<double>(hottest) / draws;
    EXPECT_GT(share, 0.4);
    EXPECT_LT(share, 0.8);
  }
}

}  // namespace
}  // namespace perfbench
