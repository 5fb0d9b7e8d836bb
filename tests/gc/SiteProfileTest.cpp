//===- tests/gc/SiteProfileTest.cpp --------------------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
// The allocation-site profiling extension (INTERNALS §13): the registry
// and HCSGC_ALLOC_SITE intern stable ids; the bare SiteProfileTable ages
// its hot-byte EWMA into warm/cold routes and decays mispredictions
// back; a full runtime routes a persistently cold site through the
// pretenure TLAB, and a retired pretenure page stays pinned until the
// next STW1; equal seeds produce identical profiles.
//
//===----------------------------------------------------------------------===//

#include "gc/SiteProfile.h"
#include "runtime/Runtime.h"
#include "support/Random.h"

#include "TestSeeds.h"
#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace hcsgc;
using hcsgc::test::testSeed;

namespace {

SiteId macroSite() { return HCSGC_ALLOC_SITE("sp.test.macro"); }

} // namespace

TEST(SiteProfileTest, RegistryInternsStableIds) {
  SiteRegistry &R = SiteRegistry::instance();
  SiteId A = R.intern("sp.test.a");
  SiteId B = R.intern("sp.test.b");
  EXPECT_NE(A, UnknownSiteId);
  EXPECT_NE(B, UnknownSiteId);
  EXPECT_NE(A, B);
  EXPECT_EQ(R.intern("sp.test.a"), A);
  EXPECT_EQ(R.nameOf(A), "sp.test.a");
  EXPECT_EQ(R.nameOf(B), "sp.test.b");
  EXPECT_EQ(R.nameOf(UnknownSiteId), "unknown");
  // Out-of-range ids resolve to the unknown name, never crash.
  EXPECT_EQ(R.nameOf(static_cast<SiteId>(0xFFFF)), "unknown");
  EXPECT_GE(R.count(), 3u);
}

TEST(SiteProfileTest, AllocSiteMacroCachesOneId) {
  SiteId First = macroSite();
  EXPECT_NE(First, UnknownSiteId);
  EXPECT_EQ(macroSite(), First);
  EXPECT_EQ(SiteRegistry::instance().nameOf(First), "sp.test.macro");
  // A second textual occurrence of the same name shares the id.
  EXPECT_EQ(HCSGC_ALLOC_SITE("sp.test.macro"), First);
}

TEST(SiteProfileTest, EwmaAgesColdSiteThroughWarmToCold) {
  // ProfileCycles=2 -> alpha=2/3; a site surviving with zero hot bytes
  // decays 1.0 -> 1/3 -> 1/9 -> 1/27, but routes only move once the
  // site has ProfileCycles of evidence.
  SiteProfileTable T(2);
  const SiteId S = 7;
  T.noteAllocation(S, 1000, /*Pretenured=*/false);
  EXPECT_EQ(T.routeOf(S), SiteRoute::Hot);

  T.noteSurvival(S, 1000, /*Hot=*/false);
  T.endCycle();
  EXPECT_EQ(T.routeOf(S), SiteRoute::Hot) << "one cycle is not evidence";

  T.noteSurvival(S, 1000, false);
  T.endCycle();
  EXPECT_EQ(T.routeOf(S), SiteRoute::Warm) << "ewma 1/9 is warm";

  T.noteSurvival(S, 1000, false);
  T.endCycle();
  EXPECT_EQ(T.routeOf(S), SiteRoute::Cold) << "ewma 1/27 < ColdEwmaMax";

  std::vector<SiteStats> Snap = T.snapshot();
  ASSERT_EQ(Snap.size(), 1u);
  EXPECT_EQ(Snap[0].Id, S);
  EXPECT_EQ(Snap[0].AllocatedBytes, 1000u);
  EXPECT_EQ(Snap[0].SurvivedBytes, 3000u);
  EXPECT_EQ(Snap[0].ObservedCycles, 3u);
  EXPECT_LT(Snap[0].HotEwma, SiteProfileTable::ColdEwmaMax);
}

TEST(SiteProfileTest, HotSiteKeepsHotRoute) {
  SiteProfileTable T(2);
  const SiteId S = 3;
  for (int C = 0; C < 6; ++C) {
    T.noteAllocation(S, 512, false);
    T.noteSurvival(S, 512, /*Hot=*/true);
    T.endCycle();
    EXPECT_EQ(T.routeOf(S), SiteRoute::Hot) << "cycle " << C;
  }
}

TEST(SiteProfileTest, FullyDyingSiteCountsAsColdEvidence) {
  // A site whose objects all die before the walk never shows up in the
  // livemap; the allocation window alone must still drive it cold —
  // short-lived garbage has no business on hot pages either.
  SiteProfileTable T(2);
  const SiteId S = 9;
  for (int C = 0; C < 3; ++C) {
    T.noteAllocation(S, 4096, false);
    T.endCycle();
  }
  EXPECT_EQ(T.routeOf(S), SiteRoute::Cold);
}

TEST(SiteProfileTest, MispredictionDecaysBackToHot) {
  SiteProfileTable T(2);
  const SiteId S = 5;
  for (int C = 0; C < 4; ++C) {
    T.noteAllocation(S, 1000, false);
    T.noteSurvival(S, 1000, false);
    T.endCycle();
  }
  ASSERT_EQ(T.routeOf(S), SiteRoute::Cold);
  // The phase changes: survivors start getting touched. One fully hot
  // cycle lifts the EWMA by 2/3 — straight back above WarmEwmaMax.
  T.noteSurvival(S, 1000, /*Hot=*/true);
  T.endCycle();
  EXPECT_EQ(T.routeOf(S), SiteRoute::Hot)
      << "re-heated site must leave the pretenure route";
}

TEST(SiteProfileTest, IdleCyclesLeaveProfilesUntouched) {
  // Cycles where a site neither allocates nor survives are not evidence:
  // the EWMA and route must be exactly where the last active cycle left
  // them (a paused workload must not drift toward any verdict).
  SiteProfileTable T(4);
  const SiteId S = 11;
  T.noteAllocation(S, 100, false);
  T.noteSurvival(S, 100, true);
  T.endCycle();
  std::vector<SiteStats> Before = T.snapshot();
  for (int C = 0; C < 5; ++C)
    T.endCycle();
  std::vector<SiteStats> After = T.snapshot();
  ASSERT_EQ(Before.size(), 1u);
  ASSERT_EQ(After.size(), 1u);
  EXPECT_DOUBLE_EQ(After[0].HotEwma, Before[0].HotEwma);
  EXPECT_EQ(After[0].ObservedCycles, Before[0].ObservedCycles);
  EXPECT_EQ(After[0].Route, Before[0].Route);
}

TEST(SiteProfileTest, OutOfRangeSitesShareTheUnknownSlot) {
  SiteProfileTable T(2);
  const SiteId Overflow =
      static_cast<SiteId>(SiteProfileTable::MaxSites + 17);
  T.noteAllocation(Overflow, 256, false);
  T.noteAllocation(UnknownSiteId, 256, false);
  std::vector<SiteStats> Snap = T.snapshot();
  ASSERT_EQ(Snap.size(), 1u);
  EXPECT_EQ(Snap[0].Id, UnknownSiteId);
  EXPECT_EQ(Snap[0].AllocatedBytes, 512u);
}

namespace {

/// Per-site (alloc, survived, route) triple for the determinism check.
struct SiteDigest {
  std::string Name;
  uint64_t AllocatedBytes;
  uint64_t SurvivedBytes;
  SiteRoute Route;
  bool operator==(const SiteDigest &O) const {
    return Name == O.Name && AllocatedBytes == O.AllocatedBytes &&
           SurvivedBytes == O.SurvivedBytes && Route == O.Route;
  }
};

/// Single-threaded seeded workload with explicit GC points: two "keep"
/// generations that survive (one touched, one not) plus immediate
/// garbage, all tagged. Everything that feeds the profile — allocation
/// order, cycle boundaries, hotness sampling — is deterministic.
std::vector<SiteDigest> runSeededSiteWorkload() {
  GcConfig Cfg;
  Cfg.Geometry.SmallPageSize = 64 * 1024;
  Cfg.Geometry.MediumPageSize = 512 * 1024;
  Cfg.MaxHeapBytes = 16u << 20;
  Cfg.Hotness = true;
  Cfg.SiteProfiling = true;
  Cfg.SiteProfileCycles = 2;
  Cfg.TriggerFraction = 1.0; // only the explicit requestGcAndWait cycles
  Runtime RT(Cfg);
  ClassId Obj = RT.registerClass("sp.det.Obj", 0, 128);
  auto M = RT.attachMutator();
  std::vector<SiteDigest> Out;
  {
    SplitMix64 Rng(testSeed(0x517E));
    Root Hot(*M), Cold(*M), Tmp(*M);
    M->allocateRefArray(Hot, 128, HCSGC_ALLOC_SITE("sp.det.table"));
    M->allocateRefArray(Cold, 128, HCSGC_ALLOC_SITE("sp.det.table"));
    for (int Round = 0; Round < 5; ++Round) {
      for (int I = 0; I < 400; ++I) {
        uint64_t Dice = Rng.nextBelow(3);
        if (Dice == 0) {
          M->allocate(Tmp, Obj, HCSGC_ALLOC_SITE("sp.det.touched"));
          M->storeElem(Hot, static_cast<uint32_t>(Rng.nextBelow(128)),
                       Tmp);
        } else if (Dice == 1) {
          M->allocate(Tmp, Obj, HCSGC_ALLOC_SITE("sp.det.archived"));
          M->storeElem(Cold, static_cast<uint32_t>(Rng.nextBelow(128)),
                       Tmp);
        } else {
          M->allocate(Tmp, Obj, HCSGC_ALLOC_SITE("sp.det.scratch"));
        }
      }
      // Touch the hot generation so its site keeps hot evidence; the
      // archived generation survives untouched.
      for (uint32_t I = 0; I < 128; ++I)
        M->loadElem(Hot, I, Tmp);
      M->requestGcAndWait();
    }
    SiteProfileTable *Prof = RT.heap().siteProfile();
    EXPECT_NE(Prof, nullptr);
    for (const SiteStats &St : Prof->snapshot())
      if (St.Name.rfind("sp.det.", 0) == 0)
        Out.push_back(
            {St.Name, St.AllocatedBytes, St.SurvivedBytes, St.Route});
  }
  M.reset();
  return Out;
}

} // namespace

TEST(SiteProfileTest, EqualSeedsProduceIdenticalProfiles) {
  std::vector<SiteDigest> A = runSeededSiteWorkload();
  std::vector<SiteDigest> B = runSeededSiteWorkload();
  ASSERT_GE(A.size(), 3u);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_TRUE(A[I] == B[I])
        << A[I].Name << ": alloc " << A[I].AllocatedBytes << "/"
        << B[I].AllocatedBytes << " survived " << A[I].SurvivedBytes
        << "/" << B[I].SurvivedBytes;
  }
}

namespace {

/// Site profiling with only the explicit requestGcAndWait cycles.
GcConfig pretenureConfig() {
  GcConfig Cfg;
  Cfg.Geometry.SmallPageSize = 64 * 1024;
  Cfg.Geometry.MediumPageSize = 512 * 1024;
  Cfg.MaxHeapBytes = 16u << 20;
  Cfg.Hotness = true;
  Cfg.SiteProfiling = true;
  Cfg.SiteProfileCycles = 2;
  Cfg.TriggerFraction = 1.0;
  return Cfg;
}

} // namespace

TEST(SiteProfileTest, ColdSiteRoutesThroughPretenureTlab) {
  // End to end: a tagged site whose objects survive untouched must earn
  // a non-hot route, after which its allocations flow through the
  // secondary TLAB and the site.* mirrors see pretenured bytes.
  Runtime RT(pretenureConfig());
  ClassId Obj = RT.registerClass("sp.cold.Obj", 0, 256);
  auto M = RT.attachMutator();
  SiteId Cold = HCSGC_ALLOC_SITE("sp.cold.archive");
  {
    Root Arr(*M), Tmp(*M);
    M->allocateRefArray(Arr, 512);
    // Eight rounds: every round's newborn cohort is genuinely hot for
    // its first cycle (the mutator touched it at birth, and relocation
    // attribution sees that), so the site's hot fraction converges on
    // newborns/pool and needs a few cycles to sink below the warm
    // threshold.
    uint32_t Next = 0;
    for (int Round = 0; Round < 8; ++Round) {
      for (int I = 0; I < 64; ++I) {
        M->allocate(Tmp, Obj, Cold);
        M->storeElem(Arr, Next++ % 512, Tmp);
      }
      M->requestGcAndWait();
    }
    SiteProfileTable *Prof = RT.heap().siteProfile();
    ASSERT_NE(Prof, nullptr);
    EXPECT_NE(Prof->routeOf(Cold), SiteRoute::Hot)
        << "untouched survivors never demoted the site";

    // Allocations after the verdict take the pretenure path.
    for (int I = 0; I < 64; ++I) {
      M->allocate(Tmp, Obj, Cold);
      M->storeElem(Arr, Next++ % 512, Tmp);
    }
    uint64_t Pretenured = 0;
    for (const SiteStats &St : Prof->snapshot())
      if (St.Id == Cold)
        Pretenured = St.PretenuredBytes;
    EXPECT_GT(Pretenured, 0u);
    EXPECT_GT(RT.metrics().counterValue("alloc.tlab.pretenure_refills"),
              0u);
    // One more cycle publishes the mirrored counter.
    M->requestGcAndWait();
    EXPECT_GT(RT.metrics().counterValue("site.pretenured_bytes"), 0u);
    EXPECT_GT(RT.metrics().counterValue("site.tagged_bytes"), 0u);
  }
  M.reset();
  VerifyResult V = RT.verifyHeap();
  EXPECT_TRUE(V.ok()) << (V.Errors.empty() ? "" : V.Errors.front());
}

TEST(SiteProfileTest, RetiredPretenurePageStaysPinnedUntilNextStw1) {
  // A full pretenure TLAB predates the current cycle, so objects bumped
  // into it after this cycle's STW1 are neither marked nor implicitly
  // live. Unpinning it at refill let EC select (or reclaim) it without
  // them; it must stay pinned until the next STW1 (INTERNALS §13).
  Runtime RT(pretenureConfig());
  ClassId Obj = RT.registerClass("sp.retire.Obj", 0, 256);
  auto M = RT.attachMutator();
  SiteId Cold = HCSGC_ALLOC_SITE("sp.retire.archive");
  {
    Root Arr(*M), Tmp(*M);
    M->allocateRefArray(Arr, 1024);
    uint32_t Next = 0;
    auto AllocKept = [&] {
      M->allocate(Tmp, Obj, Cold);
      M->storeElem(Arr, Next++ % 1024, Tmp);
    };
    for (int Round = 0; Round < 8; ++Round) {
      for (int I = 0; I < 64; ++I)
        AllocKept();
      M->requestGcAndWait();
    }
    ASSERT_NE(RT.heap().siteProfile()->routeOf(Cold), SiteRoute::Hot);

    // Fill the current pretenure TLAB until a refill retires it.
    auto Refills = [&] {
      return RT.metrics().counterValue("alloc.tlab.pretenure_refills");
    };
    AllocKept();
    Page *First = RT.heap().pageTable().lookup(oopAddr(Tmp.rawOop()));
    ASSERT_NE(First, nullptr);
    ASSERT_TRUE(First->isPinnedAsTarget()) << "not a pretenure TLAB";
    for (uint64_t Open = Refills(); Refills() == Open;)
      AllocKept();
    EXPECT_TRUE(First->isPinnedAsTarget())
        << "retired pretenure page unpinned before the next STW1";

    // Its objects are live (kept in Arr), so the next cycle can neither
    // reclaim nor release the page: reading it afterwards is safe.
    M->requestGcAndWait();
    EXPECT_FALSE(First->isPinnedAsTarget());
  }
  M.reset();
  VerifyResult V = RT.verifyHeap();
  EXPECT_TRUE(V.ok()) << (V.Errors.empty() ? "" : V.Errors.front());
}
