//===- tests/gc/AllocTierTest.cpp - fast/mid/slow allocation tiers -------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end contract of the tiered allocation stack (INTERNALS §10),
/// checked through the allocator metrics:
///
///  - a small TLAB refill takes ZERO shard locks on the common path (the
///    ISSUE's headline acceptance criterion): the cached-unit pop,
///    registry insert and page-table install are all lock-free, so
///    alloc.shard.lock_acquisitions == alloc.cache.page_misses (the rare
///    batch carve), far below alloc.tlab.refills, with zero fallback
///    scans;
///  - medium allocation bumps the per-thread medium TLAB without
///    touching any allocator lock between refills;
///  - STW1's resetAllocTargets drops the medium TLAB like the small
///    one, so the first post-cycle medium allocation refills;
///  - medium-object exhaustion still surfaces as the typed
///    AllocStatus::HeapExhausted, not an abort.
///
//===----------------------------------------------------------------------===//

#include "runtime/Runtime.h"

#include "TestSeeds.h"
#include <gtest/gtest.h>

using namespace hcsgc;

namespace {

// Roomy heap + TriggerFraction 1.0: no cycle ever starts on its own, so
// every page allocation below is attributable to the mutator's tiers and
// the metric equalities are exact.
GcConfig quietConfig() {
  GcConfig Cfg;
  Cfg.Geometry.SmallPageSize = 64 * 1024;
  Cfg.Geometry.MediumPageSize = 512 * 1024;
  Cfg.MaxHeapBytes = 16u << 20;
  Cfg.TriggerFraction = 1.0;
  Cfg.AllocatorShards = 4;
  return Cfg;
}

uint64_t metric(Runtime &RT, const char *Name) {
  return RT.metrics().counterValue(Name);
}

} // namespace

TEST(AllocTierTest, SmallRefillTakesZeroShardLocks) {
  Runtime RT(quietConfig());
  // The first carve (PageAllocator::CacheBatch = 8 units) covers every
  // refill below: after it, each refill pops the cache with no lock
  // anywhere on the path.
  // ~2 KiB objects: well under smallObjectMax (8 KiB), ~32 per 64 KiB
  // TLAB, so 200 allocations force several refills.
  ClassId Cls = RT.registerClass("tier.Small", 0, 2048 - 64);
  auto M = RT.attachMutator();
  {
    Root Tmp(*M);
    for (unsigned I = 0; I < 200; ++I)
      M->allocate(Tmp, Cls);
  }

  uint64_t Refills = metric(RT, "alloc.tlab.refills");
  EXPECT_GE(Refills, 6u);
  // The contention contract: refills are lock-free. The only shard-lock
  // acquisition in the whole run is the single cache-miss batch carve —
  // every subsequent refill is a lock-free cache pop.
  EXPECT_EQ(metric(RT, "alloc.cache.page_misses"), 1u);
  EXPECT_EQ(metric(RT, "alloc.shard.lock_acquisitions"),
            metric(RT, "alloc.cache.page_misses"));
  EXPECT_EQ(metric(RT, "alloc.cache.page_hits"), Refills - 1);
  EXPECT_EQ(metric(RT, "alloc.shard.fallback_scans"), 0u);
  EXPECT_EQ(metric(RT, "alloc.shard.cross_shard_takes"), 0u);
  M.reset();
}

TEST(AllocTierTest, MediumTlabBumpsWithoutLocks) {
  GcConfig Cfg = quietConfig();
  Runtime RT(Cfg);
  // 16 KiB payload: above smallObjectMax (8 KiB), below mediumObjectMax
  // (64 KiB) — a medium-class object. A 512 KiB medium TLAB holds many.
  ClassId Cls = RT.registerClass("tier.Medium", 0, 16 * 1024);
  auto M = RT.attachMutator();
  {
    Root Tmp(*M);
    M->allocate(Tmp, Cls);
    EXPECT_EQ(metric(RT, "alloc.tlab.medium_refills"), 1u);

    // Subsequent medium allocations bump the per-thread TLAB: no new
    // refill and — the point of the refactor — no allocator lock at all.
    uint64_t LocksAfterRefill = metric(RT, "alloc.shard.lock_acquisitions");
    for (unsigned I = 0; I < 8; ++I)
      M->allocate(Tmp, Cls);
    EXPECT_EQ(metric(RT, "alloc.tlab.medium_refills"), 1u);
    EXPECT_EQ(metric(RT, "alloc.shard.lock_acquisitions"), LocksAfterRefill);
  }
  M.reset();
}

TEST(AllocTierTest, MediumTlabIsDroppedAtStw1) {
  GcConfig Cfg = quietConfig();
  Runtime RT(Cfg);
  ClassId Cls = RT.registerClass("tier.Medium", 0, 16 * 1024);
  auto M = RT.attachMutator();
  {
    Root Keep(*M);
    M->allocate(Keep, Cls);
    ASSERT_EQ(metric(RT, "alloc.tlab.medium_refills"), 1u);

    // STW1 resets every allocation target, medium TLAB included (its pin
    // is released so the page becomes an ordinary EC candidate).
    M->requestGcAndWait();
    Root Tmp(*M);
    M->allocate(Tmp, Cls);
    EXPECT_EQ(metric(RT, "alloc.tlab.medium_refills"), 2u);

    VerifyResult V = RT.verifyHeap();
    EXPECT_TRUE(V.ok()) << (V.Errors.empty() ? "" : V.Errors.front());
  }
  M.reset();
}

TEST(AllocTierTest, MediumExhaustionStaysTyped) {
  GcConfig Cfg = quietConfig();
  Cfg.MaxHeapBytes = 2u << 20; // 4 medium pages
  Runtime RT(Cfg);
  ClassId Cls = RT.registerClass("tier.Medium", 0, 60 * 1024);
  auto M = RT.attachMutator();
  {
    const uint32_t Slots = 256;
    Root Arr(*M);
    M->allocateRefArray(Arr, Slots);
    Root Tmp(*M);
    uint32_t Next = 0;
    AllocStatus St = AllocStatus::Ok;
    while (Next < Slots) {
      St = M->tryAllocate(Tmp, Cls);
      if (St != AllocStatus::Ok)
        break;
      M->storeElem(Arr, Next++, Tmp);
    }
    ASSERT_EQ(St, AllocStatus::HeapExhausted);
    EXPECT_TRUE(Tmp.isNull());

    // Dropping the array frees the heap; medium allocation recovers.
    M->clearRoot(Tmp);
    M->clearRoot(Arr);
    M->requestGcAndWait();
    EXPECT_EQ(M->tryAllocate(Tmp, Cls), AllocStatus::Ok);
  }
  M.reset();
}
