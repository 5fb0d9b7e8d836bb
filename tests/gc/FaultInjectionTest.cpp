//===- tests/gc/FaultInjectionTest.cpp - OOM-path hardening tests --------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests of the hardened OOM paths, driven by deterministic
/// fault plans derived from TestSeeds.h:
///
///  - genuine heap exhaustion surfaces as typed HeapExhaustedError /
///    AllocStatus::HeapExhausted (never an abort) and is recoverable;
///  - TLAB-refill faults drive the stall/backoff path and allocation
///    still succeeds once the faults stop;
///  - relocation-target faults push evacuation onto the reserved
///    relocation pool without corrupting the heap;
///  - exhaustion stays typed under LAZYRELOCATE, where stalls must wait
///    two cycles (deferred drain) and the final emergency cycle drains
///    the deferred set immediately;
///  - a tight address-space reservation with churn does not exhaust
///    prematurely now that EC demand accounts for quarantined-but-
///    unreleased pages.
///
//===----------------------------------------------------------------------===//

#include "inject/FaultInject.h"
#include "runtime/Runtime.h"

#include "TestSeeds.h"
#include <gtest/gtest.h>

using namespace hcsgc;

namespace {

GcConfig tinyConfig() {
  GcConfig Cfg;
  Cfg.Geometry.SmallPageSize = 64 * 1024;
  Cfg.Geometry.MediumPageSize = 512 * 1024;
  Cfg.MaxHeapBytes = 4u << 20;
  Cfg.TraceEnabled = true;
  return Cfg;
}

/// Fills \p Arr with live objects until the heap throws, then \returns
/// the caught error's stall count (the heap is left full).
unsigned fillUntilExhausted(Mutator &M, Root &Arr, uint32_t Slots,
                            ClassId Cls) {
  Root Tmp(M);
  uint32_t Next = 0;
  for (;;) {
    try {
      M.allocate(Tmp, Cls);
    } catch (const HeapExhaustedError &E) {
      EXPECT_GT(E.requestedBytes(), 0u);
      EXPECT_GE(E.stallAttempts(), 1u);
      EXPECT_GE(E.cyclesWaited(), E.stallAttempts());
      return E.stallAttempts();
    }
    if (Next >= Slots) {
      ADD_FAILURE() << "heap never exhausted; test geometry broken";
      return 0;
    }
    M.storeElem(Arr, Next++, Tmp);
  }
}

} // namespace

TEST(FaultInjectionTest, ExhaustionIsTypedAndRecoverable) {
  GcConfig Cfg = tinyConfig();
  // Collect only from the stall path, while this mutator is parked. A
  // background cycle overlapping the fill relocates half-filled TLAB
  // pages into half-filled targets, and that fragmentation lets a later
  // cycle free a page, so the probe below could find room by chance.
  Cfg.TriggerFraction = 1.0;
  Runtime RT(Cfg);
  ClassId Cls = RT.registerClass("fi.Blob", 0, 4096);
  auto M = RT.attachMutator();
  {
    const uint32_t Slots = 4096;
    Root Arr(*M);
    M->allocateRefArray(Arr, Slots);

    unsigned Attempts = fillUntilExhausted(*M, Arr, Slots, Cls);
    // The slow path burned every configured stall (the last one an
    // emergency cycle) before giving up.
    EXPECT_EQ(Attempts, Cfg.AllocStallRetries);

    // The try* API reports the same condition without throwing and
    // leaves the destination null.
    Root Probe(*M);
    EXPECT_EQ(M->tryAllocate(Probe, Cls), AllocStatus::HeapExhausted);
    EXPECT_TRUE(Probe.isNull());

    // Exhaustion is recoverable: drop half the references and the same
    // allocation succeeds again.
    for (uint32_t I = 0; I < Slots; I += 2)
      M->storeElemNull(Arr, I);
    EXPECT_EQ(M->tryAllocate(Probe, Cls), AllocStatus::Ok);
    EXPECT_FALSE(Probe.isNull());
  }
  // Detach before collecting the trace / verifying: both wait for the
  // driver to go idle, which deadlocks against a pending cycle if this
  // thread is still a registered (non-parked) mutator.
  M.reset();

  // The stalls and the final emergency cycle were traced.
  bool SawEmergency = false, SawStall = false;
  for (const TraceEvent &E : RT.collectTrace().Events) {
    SawEmergency |= E.Kind == TraceEventKind::EmergencyCycle;
    SawStall |= E.Kind == TraceEventKind::AllocStall;
  }
  EXPECT_TRUE(SawStall);
  EXPECT_TRUE(SawEmergency);

  VerifyResult V = RT.verifyHeap();
  EXPECT_TRUE(V.ok()) << (V.Errors.empty() ? "" : V.Errors.front());
}

TEST(FaultInjectionTest, TlabRefillFaultsStallThenRecover) {
  Runtime RT(tinyConfig());
  // ~2 KB objects: a 64 KB TLAB holds ~30, so the loop below crosses
  // many refills even though the live window stays small.
  ClassId Cls = RT.registerClass("fi.Small", 0, 2048);
  auto M = RT.attachMutator();
  {
    const uint32_t Window = 64, Total = 256;
    Root Arr(*M), Tmp(*M);
    M->allocateRefArray(Arr, Window);

    // Every TLAB refill fails until the fire cap; allocation must ride
    // the stall path and succeed once the faults stop — well within the
    // AllocStallRetries budget.
    FaultPlan Plan(test::testSeed(0xFB01));
    FaultSpec S;
    S.Probability = 1.0;
    S.MaxFires = 2;
    Plan.set(FailPoint::TlabRefill, S);
    ScopedFaultPlan Armed(Plan);

    for (uint32_t I = 0; I < Total; ++I) {
      M->allocate(Tmp, Cls);
      M->storeWord(Tmp, 0, I);
      M->storeElem(Arr, I % Window, Tmp);
    }
    FaultRegistry &FR = FaultRegistry::instance();
    EXPECT_EQ(FR.fires(FailPoint::TlabRefill), 2u);
    EXPECT_GE(FR.hits(FailPoint::TlabRefill), 3u);

    // Each slot's last writer was iteration Total - Window + J.
    for (uint32_t J = 0; J < Window; ++J) {
      M->loadElem(Arr, J, Tmp);
      ASSERT_FALSE(Tmp.isNull());
      EXPECT_EQ(M->loadWord(Tmp, 0), Total - Window + J);
    }
  }
  M.reset();
}

TEST(FaultInjectionTest, RelocTargetFaultsFallBackToReserve) {
  GcConfig Cfg = tinyConfig();
  Cfg.MaxHeapBytes = 16u << 20;
  Cfg.RelocateAllSmallPages = true; // every small page is an EC candidate
  Runtime RT(Cfg);
  ClassId Cls = RT.registerClass("fi.Node", 0, 120);
  auto M = RT.attachMutator();
  {
    Root Arr(*M), Tmp(*M), G(*M);
    const uint32_t N = 500;
    M->allocateRefArray(Arr, N);
    // Sparse survivors across many pages: relocation has real work.
    for (uint32_t I = 0; I < N * 40; ++I) {
      M->allocate(G, Cls);
      if (I % 40 == 0) {
        M->allocate(Tmp, Cls);
        M->storeWord(Tmp, 0, I);
        M->storeElem(Arr, I / 40, Tmp);
      }
    }
    M->clearRoot(G);
    M->clearRoot(Tmp);

    uint64_t ReserveBefore = RT.heap().allocator().relocReservePagesUsed();
    {
      // Deny every primary relocation-target allocation for a few fires:
      // the reserved pool must carry evacuation.
      FaultPlan Plan(test::testSeed(0xFB02));
      FaultSpec S;
      S.Probability = 1.0;
      S.MaxFires = 3;
      Plan.set(FailPoint::RelocTargetAlloc, S);
      ScopedFaultPlan Armed(Plan);
      M->requestGcAndWait();
      EXPECT_GE(FaultRegistry::instance().fires(FailPoint::RelocTargetAlloc),
                1u);
    }
    EXPECT_GT(RT.heap().allocator().relocReservePagesUsed(), ReserveBefore)
        << "faulted relocation never touched the reserve pool";

    // Survivors moved through reserve pages with intact payloads.
    for (uint32_t I = 0; I < N; ++I) {
      M->loadElem(Arr, I, Tmp);
      ASSERT_FALSE(Tmp.isNull());
      EXPECT_EQ(M->loadWord(Tmp, 0), int64_t(I) * 40);
    }
  }
  M.reset(); // detach before verifyHeap (it waits for driver idle)
  VerifyResult V = RT.verifyHeap();
  EXPECT_TRUE(V.ok()) << (V.Errors.empty() ? "" : V.Errors.front());
}

TEST(FaultInjectionTest, ExhaustionStaysTypedUnderLazyRelocate) {
  GcConfig Cfg = tinyConfig();
  Cfg.LazyRelocate = true;
  Cfg.RelocateAllSmallPages = true;
  Runtime RT(Cfg);
  ClassId Cls = RT.registerClass("fi.LazyBlob", 0, 4096);
  auto M = RT.attachMutator();
  {
    const uint32_t Slots = 4096;
    Root Arr(*M);
    M->allocateRefArray(Arr, Slots);
    unsigned Attempts = fillUntilExhausted(*M, Arr, Slots, Cls);
    EXPECT_EQ(Attempts, Cfg.AllocStallRetries);

    // Recovery: drop references, allocate again.
    for (uint32_t I = 0; I < Slots; ++I)
      M->storeElemNull(Arr, I);
    Root Probe(*M);
    EXPECT_EQ(M->tryAllocate(Probe, Cls), AllocStatus::Ok);
  }
  M.reset(); // detach before collectTrace/verifyHeap (driver-idle waits)

  // Satellite proof: ordinary stalls under LAZYRELOCATE wait TWO cycles
  // (cycle k only selects; k+1's drain releases memory); the final
  // emergency stall waits one synchronous cycle that drains the
  // deferred set itself.
  bool SawTwoCycleStall = false, SawEmergency = false;
  for (const TraceEvent &E : RT.collectTrace().Events) {
    if (E.Kind == TraceEventKind::AllocStall && E.C == 2)
      SawTwoCycleStall = true;
    SawEmergency |= E.Kind == TraceEventKind::EmergencyCycle;
  }
  EXPECT_TRUE(SawTwoCycleStall)
      << "LAZYRELOCATE stalls must wait out the deferred drain";
  EXPECT_TRUE(SawEmergency);

  VerifyResult V = RT.verifyHeap();
  EXPECT_TRUE(V.ok()) << (V.Errors.empty() ? "" : V.Errors.front());
}

TEST(FaultInjectionTest, TightReservationChurnDoesNotExhaust) {
  // Satellite regression: with a tight address-space reservation,
  // quarantined-but-unreleased pages used to be double-counted as
  // reclaimable, so EC selection under-evacuated and churn workloads hit
  // spurious exhaustion. Demand is now net of quarantined bytes.
  GcConfig Cfg = tinyConfig();
  Cfg.MaxHeapBytes = 8u << 20;
  Cfg.ReservedBytes = 2 * Cfg.MaxHeapBytes; // tight: default is 3x
  Cfg.RelocateAllSmallPages = true;
  Runtime RT(Cfg);
  ClassId Cls = RT.registerClass("fi.Churn", 0, 200);
  auto M = RT.attachMutator();
  {
    Root Arr(*M), Tmp(*M);
    const uint32_t Live = 256; // ~56 KB live, far below MaxHeap
    M->allocateRefArray(Arr, Live);
    for (uint32_t Round = 0; Round < 30; ++Round) {
      for (uint32_t I = 0; I < 2000; ++I) {
        // Overwrite a slot: the old object becomes garbage that must be
        // evacuated-and-released fast enough under the tight reservation.
        M->allocate(Tmp, Cls);
        M->storeWord(Tmp, 0, Round);
        M->storeElem(Arr, I % Live, Tmp);
      }
    }
  }
  M.reset(); // detach before verifyHeap (it waits for driver idle)
  VerifyResult V = RT.verifyHeap();
  EXPECT_TRUE(V.ok()) << (V.Errors.empty() ? "" : V.Errors.front());
}
