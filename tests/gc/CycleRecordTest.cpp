//===- tests/gc/CycleRecordTest.cpp -------------------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The per-cycle record is the one description of a cycle. Under eager
// relocation and under LAZYRELOCATE (whose records close one cycle late,
// when the deferred set drains):
//
//  - each record's phase times (CyclePhases) sum to its wall time,
//    within 5% or 0.2 ms, whichever is larger: every step of a cycle
//    lands in exactly one phase;
//  - every gc.phase.<name>_us histogram holds one sample per record;
//  - the snapshot JSONL line of each cycle carries a record equal, field
//    for field, to the GcStats record of the same cycle.
//
//===----------------------------------------------------------------------===//

#include "observe/SnapshotLog.h"
#include "runtime/Runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace hcsgc;

namespace {

class CycleRecordTest : public ::testing::TestWithParam<bool> {
protected:
  bool lazy() const { return GetParam(); }

  GcConfig config() const {
    GcConfig Cfg;
    Cfg.Geometry.SmallPageSize = 64 * 1024;
    Cfg.Geometry.MediumPageSize = 1024 * 1024;
    Cfg.MaxHeapBytes = 32u << 20;
    Cfg.Hotness = true;
    Cfg.ColdConfidence = 0.5;
    Cfg.LazyRelocate = lazy();
    Cfg.SnapshotLogEnabled = true;
    Cfg.SnapshotLogPath = logPath();
    return Cfg;
  }

  /// One file per test and mode ("Name/Eager"): ctest runs the cases in
  /// parallel.
  std::string logPath() const {
    std::string Name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(Name.begin(), Name.end(), '/', '_');
    return ::testing::TempDir() + "cycle_record_" + Name + ".jsonl";
  }

  /// Array of leaf objects; four GC rounds, touching every other element
  /// in between, with half the array dropped before the second round so
  /// EC has pages to select and relocation has work to split.
  static void runWorkload(Runtime &RT) {
    ClassId Cls = RT.registerClass("cr.Obj", 0, 24);
    auto M = RT.attachMutator();
    {
      Root Arr(*M), Tmp(*M);
      const uint32_t N = 6000;
      M->allocateRefArray(Arr, N);
      for (uint32_t I = 0; I < N; ++I) {
        M->allocate(Tmp, Cls);
        M->storeElem(Arr, I, Tmp);
      }
      for (int Round = 0; Round < 4; ++Round) {
        M->requestGcAndWait();
        if (Round == 0)
          for (uint32_t I = 1; I < N; I += 2)
            M->storeElemNull(Arr, I);
        for (uint32_t I = 0; I < N; I += 4)
          M->loadElem(Arr, I, Tmp);
      }
    }
    M.reset();
  }
};

} // namespace

TEST_P(CycleRecordTest, PhasesPartitionWallAndFeedTheHistograms) {
  Runtime RT(config());
  runWorkload(RT);
  // Shutdown drains a deferred set, closing the last lazy record.
  RT.driver().shutdown();

  std::vector<CycleRecord> Records = RT.gcStats().snapshot();
  ASSERT_GE(Records.size(), 4u);
  uint64_t RelocatedBytes = 0;
  for (const CycleRecord &R : Records) {
    SCOPED_TRACE("cycle " + std::to_string(R.Cycle));
    double Sum = 0;
    for (const CyclePhase &Ph : CyclePhases) {
      EXPECT_GE(R.*Ph.Ms, 0.0) << Ph.Name;
      Sum += R.*Ph.Ms;
    }
    EXPECT_GT(R.WallMs, 0.0);
    EXPECT_NEAR(Sum, R.WallMs, std::max(0.05 * R.WallMs, 0.2))
        << "phase times do not partition the cycle's wall time";
    // STW2 ends marking and is timed inside it.
    EXPECT_LE(R.Stw2Ms, R.MarkMs);
    RelocatedBytes += R.BytesRelocated;
  }
  EXPECT_GT(RelocatedBytes, 0u) << "no relocation; reloc phase untested";

  for (const CyclePhase &Ph : CyclePhases) {
    const Histogram *H = RT.metrics().findHistogram(
        std::string("gc.phase.") + Ph.Name + "_us");
    ASSERT_NE(H, nullptr) << Ph.Name;
    EXPECT_EQ(H->count(), RT.gcStats().cycleCount()) << Ph.Name;
  }
}

TEST_P(CycleRecordTest, JsonlRecordEqualsGcStatsRecord) {
  std::vector<CycleRecord> Records;
  {
    Runtime RT(config());
    runWorkload(RT);
    RT.driver().shutdown();
    Records = RT.gcStats().snapshot();
    // The ring grows with GcStats, one capture per record.
    EXPECT_EQ(RT.collectSnapshots().size(), Records.size());
  }
  ASSERT_GE(Records.size(), 4u);

  // The runtime is gone, so the stream is closed and complete.
  std::ifstream In(logPath());
  ASSERT_TRUE(In) << logPath();
  std::ostringstream SS;
  SS << In.rdbuf();
  std::vector<CycleSnapshot> Log;
  std::string Error;
  ASSERT_TRUE(readSnapshotLog(SS.str(), Log, Error)) << Error;

  ASSERT_EQ(Log.size(), Records.size());
  for (size_t I = 0; I < Log.size(); ++I) {
    SCOPED_TRACE("line " + std::to_string(I + 1));
    EXPECT_EQ(Log[I].Cycle, Records[I].Cycle);
    EXPECT_TRUE(Log[I].Record == Records[I])
        << "the line's record differs from GcStats' record of cycle "
        << Records[I].Cycle;
  }
}

INSTANTIATE_TEST_SUITE_P(EagerAndLazy, CycleRecordTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &I) {
                           return I.param ? "Lazy" : "Eager";
                         });
