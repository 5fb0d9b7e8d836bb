//===- tests/gc/MarkPrefetchTest.cpp --------------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
// The mark path's software prefetches are a pure speed hint: they touch
// no architectural state, so marking must keep exactly the reachable
// graph alive while the mark.prefetch_* counters show the hints were
// issued. Runs under TSan in CI via the gc_tests target, so the prefetch
// bookkeeping (per-context pending counts drained through
// GcHeap::publishMarkPrefetches) is also raced against parallel mark
// workers here.
//
//===----------------------------------------------------------------------===//

#include "runtime/Runtime.h"
#include "support/Random.h"

#include "TestSeeds.h"

#include <gtest/gtest.h>

#include <vector>

using namespace hcsgc;

namespace {

GcConfig testConfig() {
  GcConfig Cfg;
  Cfg.Geometry.SmallPageSize = 64 * 1024;
  Cfg.Geometry.MediumPageSize = 1024 * 1024;
  Cfg.MaxHeapBytes = 32u << 20;
  Cfg.GcWorkers = 2;
  return Cfg;
}

/// Everything marking decides, gathered after a fixed cycle schedule.
struct MarkOutcome {
  uint64_t ChecksumBefore = 0;
  uint64_t ChecksumAfter = 0;
  uint64_t MarkedLiveBytes = 0;
  uint64_t PrefetchIssued = 0;
  uint64_t PrefetchDrains = 0;
  uint64_t Cycles = 0;
};

/// Checksums the graph reachable from \p Spine (order-deterministic).
uint64_t checksumSpine(Mutator &M, Root &Spine, Root &Tmp, Root &Other,
                       uint32_t N) {
  uint64_t Sum = 0;
  for (uint32_t I = 0; I < N; ++I) {
    M.loadElem(Spine, I, Tmp);
    Sum ^= static_cast<uint64_t>(M.loadWord(Tmp, 0)) * (2 * uint64_t(I) + 1);
    for (unsigned R = 0; R < 2; ++R) {
      M.loadRef(Tmp, R, Other);
      if (!Other.isNull())
        Sum += static_cast<uint64_t>(M.loadWord(Other, 1)) << R;
    }
  }
  return Sum;
}

/// Builds a seeded random graph (array spine + cross links + payload),
/// checksums it, churns garbage, runs three full cycles, and checksums
/// the survivors again by traversal. Single mutator, so the reachable
/// set per cycle is a pure function of the seed.
MarkOutcome runWorkload() {
  Runtime RT(testConfig());
  ClassId Node = RT.registerClass("pf.Node", 2, 16);
  auto M = RT.attachMutator();
  SplitMix64 Rng(test::testSeed(0xFE7C));
  MarkOutcome Out;
  {
    const uint32_t N = 2000;
    Root Spine(*M), Tmp(*M), Other(*M);
    M->allocateRefArray(Spine, N);
    for (uint32_t I = 0; I < N; ++I) {
      M->allocate(Tmp, Node);
      M->storeWord(Tmp, 0, static_cast<int64_t>(Rng.next()));
      M->storeWord(Tmp, 1, I);
      M->storeElem(Spine, I, Tmp);
    }
    // Cross links, so the mark frontier fans out instead of staying a
    // flat array scan.
    for (uint32_t I = 0; I < 4 * N; ++I) {
      M->loadElem(Spine, static_cast<uint32_t>(Rng.next() % N), Tmp);
      M->loadElem(Spine, static_cast<uint32_t>(Rng.next() % N), Other);
      M->storeRef(Tmp, Rng.next() & 1, Other);
    }
    Out.ChecksumBefore = checksumSpine(*M, Spine, Tmp, Other, N);
    for (int Round = 0; Round < 3; ++Round) {
      // Garbage churn keeps the cycles relocating, not just marking.
      for (int I = 0; I < 2000; ++I)
        M->allocate(Tmp, Node);
      M->requestGcAndWait();
    }
    Out.ChecksumAfter = checksumSpine(*M, Spine, Tmp, Other, N);
  }
  M.reset();
  Out.MarkedLiveBytes = RT.metrics().counterValue("gc.marked.live_bytes");
  Out.PrefetchIssued = RT.metrics().counterValue("mark.prefetch_issued");
  Out.PrefetchDrains = RT.metrics().counterValue("mark.prefetch_drains");
  Out.Cycles = RT.metrics().counterValue("gc.cycles");
  return Out;
}

} // namespace

TEST(MarkPrefetchTest, SurvivorChecksumAndPrefetchCounters) {
  MarkOutcome A = runWorkload();
  MarkOutcome B = runWorkload();

  ASSERT_EQ(A.Cycles, B.Cycles);
  ASSERT_GE(A.Cycles, 3u);

  // Architectural results: marking keeps the whole reachable graph, and
  // a rerun marks exactly the same bytes.
  EXPECT_EQ(A.ChecksumBefore, A.ChecksumAfter);
  EXPECT_EQ(A.ChecksumAfter, B.ChecksumAfter);
  EXPECT_EQ(A.MarkedLiveBytes, B.MarkedLiveBytes);

  // Bookkeeping: the hints are actually issued and published.
  EXPECT_GT(A.PrefetchIssued, 0u);
  EXPECT_GT(A.PrefetchDrains, 0u);
}

TEST(MarkPrefetchTest, SurvivorsIntactUnderFarPrefetch) {
  // A linked list keeps the mark stack shallower than the prefetch
  // distance: the look-behind guard (N > Dist) must keep every index in
  // bounds and every node alive.
  Runtime RT(testConfig());
  ClassId Node = RT.registerClass("pf.L", 1, 8);
  auto M = RT.attachMutator();
  {
    Root Head(*M), Cur(*M), Tmp(*M);
    const int N = 5000;
    M->allocate(Head, Node);
    M->storeWord(Head, 0, 0);
    M->copyRoot(Head, Cur);
    for (int I = 1; I < N; ++I) {
      M->allocate(Tmp, Node);
      M->storeWord(Tmp, 0, I);
      M->storeRef(Cur, 0, Tmp);
      M->copyRoot(Tmp, Cur);
    }
    for (int Round = 0; Round < 3; ++Round) {
      M->requestGcAndWait();
      M->copyRoot(Head, Cur);
      for (int I = 0; I < N; ++I) {
        ASSERT_EQ(M->loadWord(Cur, 0), I) << "round " << Round;
        if (I + 1 < N) {
          M->loadRef(Cur, 0, Tmp);
          M->copyRoot(Tmp, Cur);
        }
      }
    }
  }
  M.reset();
  EXPECT_GT(RT.metrics().counterValue("mark.prefetch_issued"), 0u);
}
