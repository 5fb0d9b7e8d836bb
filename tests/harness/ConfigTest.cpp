//===- tests/harness/ConfigTest.cpp --------------------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "harness/Config.h"

#include <gtest/gtest.h>

using namespace hcsgc;

TEST(ConfigTest, Table2Verbatim) {
  // Spot-check the exact Table 2 matrix.
  struct Row {
    int Id, H, CP, RA, LZ;
    double CC;
  };
  const Row Rows[] = {
      {0, 0, 0, 0, 0, 0.0},  {1, 0, 0, 0, 0, 0.0},
      {2, 0, 0, 0, 1, 0.0},  {3, 0, 0, 1, 0, 0.0},
      {4, 0, 0, 1, 1, 0.0},  {5, 1, 0, 0, 0, 0.0},
      {6, 1, 0, 0, 0, 0.5},  {7, 1, 0, 0, 0, 1.0},
      {8, 1, 0, 0, 1, 0.0},  {9, 1, 0, 0, 1, 0.5},
      {10, 1, 0, 0, 1, 1.0}, {11, 1, 1, 0, 0, 0.0},
      {12, 1, 1, 0, 0, 0.5}, {13, 1, 1, 0, 0, 1.0},
      {14, 1, 1, 0, 1, 0.0}, {15, 1, 1, 0, 1, 0.5},
      {16, 1, 1, 0, 1, 1.0}, {17, 1, 1, 1, 0, 0.0},
      {18, 1, 1, 1, 1, 0.0},
  };
  for (const Row &R : Rows) {
    KnobConfig K = table2Config(R.Id);
    EXPECT_EQ(K.Id, R.Id);
    EXPECT_EQ(K.Hotness, R.H == 1) << R.Id;
    EXPECT_EQ(K.ColdPage, R.CP == 1) << R.Id;
    EXPECT_EQ(K.RelocateAllSmallPages, R.RA == 1) << R.Id;
    EXPECT_EQ(K.LazyRelocate, R.LZ == 1) << R.Id;
    EXPECT_DOUBLE_EQ(K.ColdConfidence, R.CC) << R.Id;
  }
}

TEST(ConfigTest, AllConfigsAreValidKnobCombos) {
  for (const KnobConfig &K : allTable2Configs()) {
    GcConfig Cfg = applyKnobs(GcConfig(), K);
    EXPECT_TRUE(Cfg.knobsValid()) << K.Id;
  }
}

TEST(ConfigTest, Config0And1Identical) {
  // "We expect no significant difference between Configurations 0 and 1"
  // — they must be behaviourally identical here.
  GcConfig A = applyKnobs(GcConfig(), table2Config(0));
  GcConfig B = applyKnobs(GcConfig(), table2Config(1));
  EXPECT_EQ(A.Hotness, B.Hotness);
  EXPECT_EQ(A.ColdPage, B.ColdPage);
  EXPECT_EQ(A.RelocateAllSmallPages, B.RelocateAllSmallPages);
  EXPECT_EQ(A.LazyRelocate, B.LazyRelocate);
  EXPECT_DOUBLE_EQ(A.ColdConfidence, B.ColdConfidence);
}

TEST(ConfigTest, Config5TracksHotnessWithoutUsingIt) {
  // "Config 5 turns on hotness tracking but does not use it."
  KnobConfig K = table2Config(5);
  EXPECT_TRUE(K.Hotness);
  EXPECT_FALSE(K.ColdPage);
  EXPECT_DOUBLE_EQ(K.ColdConfidence, 0.0);
  EXPECT_FALSE(K.RelocateAllSmallPages);
  EXPECT_FALSE(K.LazyRelocate);
}

TEST(ConfigTest, DescribeConfig) {
  EXPECT_EQ(describeConfig(table2Config(0)), "ZGC");
  EXPECT_EQ(describeConfig(table2Config(16)), "H1 CP1 CC1.0 RA0 LZ1");
  EXPECT_EQ(describeConfig(table2Config(3)), "H0 CP0 CC0.0 RA1 LZ0");
}

TEST(ConfigTest, AllConfigsCount) {
  EXPECT_EQ(allTable2Configs().size(), 19u);
}

TEST(ConfigTest, TemperatureExtensionConfigs) {
  // Id 19 extends the table beyond the paper: config 16 plus the 2-bit
  // temperature plane. It is NOT part of allTable2Configs() — the paper
  // sweep stays the verbatim 19-row matrix.
  KnobConfig K = table2Config(19);
  EXPECT_EQ(K.Id, 19);
  EXPECT_TRUE(K.Hotness);
  EXPECT_TRUE(K.ColdPage);
  EXPECT_DOUBLE_EQ(K.ColdConfidence, 1.0);
  EXPECT_TRUE(K.LazyRelocate);
  EXPECT_TRUE(K.Temperature);
  EXPECT_FALSE(K.SiteProfile);
  EXPECT_TRUE(applyKnobs(GcConfig(), K).knobsValid());
  EXPECT_EQ(describeConfig(table2Config(19)), "H1 CP1 CC1.0 RA0 LZ1 T1");
  // The paper configs keep their exact Table 2 labels — no suffix leaks.
  EXPECT_EQ(describeConfig(table2Config(16)), "H1 CP1 CC1.0 RA0 LZ1");
  // Ids 20 and 22 (the removed cold-page madvise pass) are retired.
  for (int Id : {-1, 20, 22, 23})
    EXPECT_FALSE(isConfigId(Id)) << Id;
  for (int Id : {0, 18, 19, 21})
    EXPECT_TRUE(isConfigId(Id)) << Id;
}

TEST(ConfigTest, SiteProfilingExtensionConfigs) {
  // Id 21 is 19 plus allocation-site profiling and pretenuring.
  KnobConfig K = table2Config(21);
  EXPECT_EQ(K.Id, 21);
  EXPECT_TRUE(K.Hotness);
  EXPECT_TRUE(K.Temperature);
  EXPECT_TRUE(K.SiteProfile);
  GcConfig Cfg = applyKnobs(GcConfig(), K);
  EXPECT_TRUE(Cfg.knobsValid());
  EXPECT_TRUE(Cfg.SiteProfiling);
  EXPECT_EQ(describeConfig(table2Config(21)),
            "H1 CP1 CC1.0 RA0 LZ1 T1 SP1");
  // The temperature-only id stays untouched by the new suffix.
  EXPECT_EQ(describeConfig(table2Config(19)), "H1 CP1 CC1.0 RA0 LZ1 T1");
  // Site profiling requires hotness: the gate mirrors ColdPage's.
  GcConfig Bad;
  Bad.Hotness = false;
  Bad.SiteProfiling = true;
  EXPECT_FALSE(Bad.knobsValid());
}
