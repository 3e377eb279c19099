// Tests of the benchmark's own arithmetic and of seed replay.

#include <gtest/gtest.h>

#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

TEST(Stats, GeomeanOfMedians) {
  // Medians 2 (odd count), 8 (even count: mean of 6 and 10); the empty
  // class is skipped.
  const std::vector<std::vector<double>> classes = {
      {1, 2, 100}, {10, 6, 1, 1000}, {}};
  EXPECT_DOUBLE_EQ(GeomeanOfMedians(classes), 4.0);
  EXPECT_DOUBLE_EQ(GeomeanOfMedians({{}, {}}), 0.0);
}

TEST(Stats, TailKeepsTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // unsorted input
  Tail t = TailPercentile(v);
  ASSERT_TRUE(t.supported);
  EXPECT_DOUBLE_EQ(t.pct, 99.0);
  EXPECT_DOUBLE_EQ(t.value, 990.0);  // 10 samples (991..1000) beyond it

  v.resize(400);  // 1000..601
  t = TailPercentile(v);
  EXPECT_DOUBLE_EQ(t.pct, 97.5);
  EXPECT_DOUBLE_EQ(t.value, 990.0);

  EXPECT_FALSE(TailPercentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}).supported);
  t = TailPercentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  ASSERT_TRUE(t.supported);
  EXPECT_DOUBLE_EQ(t.value, 1.0);
}

TEST(Stats, OpenLoopLatencyCountsFromDueTime) {
  // Due at 100 ms, sent 30 ms late, served in 12 ms: the client saw 42.
  const OpenLoopSample s{100, 130, 142};
  EXPECT_DOUBLE_EQ(s.latency_ms(), 42.0);
  EXPECT_DOUBLE_EQ(s.lag_ms(), 30.0);
}

TEST(Stats, SelfTimeSubtractsChildCoverage) {
  // Overlapping children count once; the part of a child outside the
  // parent does not count.
  EXPECT_EQ(SelfNs({0, 100}, {{10, 30}, {20, 40}, {90, 120}}), 60u);
  EXPECT_EQ(SelfNs({0, 100}, {}), 100u);
  EXPECT_EQ(SelfNs({50, 100}, {{0, 40}}), 50u);
  EXPECT_EQ(SelfNs({0, 100}, {{0, 100}, {10, 20}}), 0u);
}

TEST(SeedReplay, SameSeedSameSequence) {
  for (Workload w : {Workload::kPower, Workload::kAdhocSql, Workload::kServing,
                     Workload::kPressure}) {
    EXPECT_EQ(SequenceHash(MakeSpec(w, 1)), SequenceHash(MakeSpec(w, 1)))
        << WorkloadName(w);
    EXPECT_NE(SequenceHash(MakeSpec(w, 1)), SequenceHash(MakeSpec(w, 2)))
        << WorkloadName(w);
  }
}

TEST(SeedReplay, PermutedFromKeepsEveryTable) {
  vcq::datagen::Rng rng(7);
  const std::string text = PermuteFrom(vcq::Query::kQ9, rng);
  for (const char* t :
       {"part", "supplier", "lineitem", "partsupp", "orders", "nation"})
    EXPECT_NE(text.find(t), std::string::npos) << t;
  EXPECT_NE(text.find("\nFROM "), std::string::npos);
  EXPECT_NE(text.find("\nWHERE "), std::string::npos);
}

}  // namespace
}  // namespace perfbench
