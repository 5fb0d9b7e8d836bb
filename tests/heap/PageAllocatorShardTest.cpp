//===- tests/heap/PageAllocatorShardTest.cpp -----------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic single-thread tests of the sharded PageAllocator: shard
/// clamping, the zero-locks-on-cache-hit + batched-cache contract (via
/// allocStats: locks == misses on the small path), adaptive batch sizing,
/// the all-shards fallback, the lock-all cross-shard merge that keeps
/// exhaustion semantics identical to a single free-run map, and the
/// once-per-shard batched quarantine release. Concurrency coverage lives
/// in tests/gc/PageAllocatorStressTest and tests/gc/TreiberStackStressTest
/// (run under TSan in CI).
///
//===----------------------------------------------------------------------===//

#include "heap/PageAllocator.h"

#include <gtest/gtest.h>

#include <set>

using namespace hcsgc;

namespace {

// 64 KiB small / 1 MiB medium => a medium page spans 16 units.
HeapGeometry smallGeo() {
  HeapGeometry G;
  G.SmallPageSize = 64 * 1024;
  G.MediumPageSize = 1024 * 1024;
  return G;
}

} // namespace

TEST(PageAllocatorShardTest, ShardCountClampsToMediumGranularity) {
  // 16 general units = exactly one medium page: must collapse to a
  // single shard no matter how many are requested.
  PageAllocator Tiny(smallGeo(), 1 << 20, 1 << 20, 0, /*Shards=*/8);
  EXPECT_EQ(Tiny.shardCount(), 1u);

  // 768 general units comfortably fit 4 shards of >= 16 units each.
  PageAllocator Big(smallGeo(), 16 << 20, 0, 0, /*Shards=*/4);
  EXPECT_EQ(Big.shardCount(), 4u);
}

TEST(PageAllocatorShardTest, SmallRefillLocksOnlyOnCacheMiss) {
  PageAllocator A(smallGeo(), 16 << 20, 0, 0, /*Shards=*/4);
  ASSERT_EQ(A.shardCount(), 4u);
  static_assert(PageAllocator::CacheBatch == 8);

  // One batch worth of small pages from one thread: the first carves a
  // batch under the shard lock (the only lock of the whole sequence),
  // the remaining seven are served entirely lock-free from the cache.
  for (unsigned I = 0; I < 8; ++I)
    ASSERT_NE(A.allocatePage(PageSizeClass::Small, 64, 0), nullptr);

  PageAllocator::AllocStats S = A.allocStats();
  EXPECT_EQ(S.ShardLockAcquisitions, 1u);
  EXPECT_EQ(S.CacheMisses, 1u);
  EXPECT_EQ(S.CacheHits, 7u);
  EXPECT_EQ(S.FallbackScans, 0u);
  EXPECT_EQ(S.CrossShardTakes, 0u);
}

TEST(PageAllocatorShardTest, FreedSmallPageIsReusedWithoutLocking) {
  PageAllocator A(smallGeo(), 16 << 20, 0, 0, /*Shards=*/4);

  Page *P = A.allocatePage(PageSizeClass::Small, 64, 0);
  ASSERT_NE(P, nullptr);
  uintptr_t Begin = P->begin();
  uint64_t LocksAfterCarve = A.allocStats().ShardLockAcquisitions;

  // Free + realloc: the unit goes back onto the lock-free cache and is
  // popped again with zero additional lock acquisitions — and as the
  // most recently freed unit it is the very next one handed out
  // (address reuse keeps the memory cache-warm).
  A.releasePage(P);
  Page *Q = A.allocatePage(PageSizeClass::Small, 64, 0);
  ASSERT_NE(Q, nullptr);
  EXPECT_EQ(Q->begin(), Begin);
  EXPECT_EQ(A.allocStats().ShardLockAcquisitions, LocksAfterCarve);
}

TEST(PageAllocatorShardTest, CacheBatchAdaptsToChurnAndToPressure) {
  // Single shard of 256 units, initial batch 8, max 64: repeated misses
  // with plenty of free space must double the carve batch (churn), and
  // draining the shard below 1/8 free must halve it again.
  PageAllocator A(smallGeo(), 16 << 20, 16 << 20, 0, /*Shards=*/1);
  ASSERT_EQ(A.shardCount(), 1u);

  std::vector<Page *> Pages;
  // Drain most of the shard. Every 8-16-32-64 batch boundary is a miss,
  // and each miss with >1/8 free space grows the batch.
  for (unsigned I = 0; I < 120; ++I) {
    Page *P = A.allocatePage(PageSizeClass::Small, 64, 0);
    ASSERT_NE(P, nullptr);
    Pages.push_back(P);
  }
  PageAllocator::AllocStats Mid = A.allocStats();
  EXPECT_GE(Mid.CacheBatchGrows, 3u) << "8 -> 16 -> 32 -> 64 under churn";

  // Push the shard below 1/8 free (256/8 = 32 units): further carves
  // must shrink the batch instead.
  for (unsigned I = 0; I < 120; ++I) {
    Page *P = A.allocatePage(PageSizeClass::Small, 64, 0);
    ASSERT_NE(P, nullptr);
    Pages.push_back(P);
  }
  EXPECT_GE(A.allocStats().CacheBatchShrinks, 1u);

  for (Page *P : Pages)
    A.releasePage(P);
  EXPECT_EQ(A.usedBytes(), 0u);
}

TEST(PageAllocatorShardTest, QuarantineReleaseBatchesLocksPerShard) {
  PageAllocator A(smallGeo(), 16 << 20, 0, 0, /*Shards=*/4);
  ASSERT_EQ(A.shardCount(), 4u);

  // Allocate 32 pages (a single thread fills its home shard first) and
  // quarantine all of them at cycle 1.
  std::vector<Page *> Pages;
  for (unsigned I = 0; I < 32; ++I) {
    Page *P = A.allocatePage(PageSizeClass::Small, 64, 0);
    ASSERT_NE(P, nullptr);
    Pages.push_back(P);
  }
  for (Page *P : Pages) {
    P->setState(PageState::Quarantined);
    P->setQuarantineCycle(1);
    A.quarantinePage(P);
  }
  EXPECT_EQ(A.usedBytes(), 0u);
  EXPECT_EQ(A.quarantinedBytes(), 32u * 64 * 1024);

  // Cycle 1 is not yet expired at Cycle=1: nothing released, and idle
  // peeking must not hide the pages.
  EXPECT_EQ(A.releaseQuarantinedBefore(1), 0u);
  EXPECT_EQ(A.quarantinedBytes(), 32u * 64 * 1024);

  // At Cycle=2 all 32 pages retire in ONE pass taking each shard's lock
  // at most once: at most shardCount()+1 release-lock acquisitions for
  // 32 pages (vs 32 under per-page releasePage).
  uint64_t LocksBefore = A.allocStats().QuarantineReleaseLocks;
  EXPECT_EQ(A.releaseQuarantinedBefore(2), 32u);
  PageAllocator::AllocStats S = A.allocStats();
  EXPECT_LE(S.QuarantineReleaseLocks - LocksBefore, A.shardCount() + 1);
  EXPECT_EQ(S.QuarantinePagesReleased, 32u);
  EXPECT_EQ(A.quarantinedBytes(), 0u);

  // A pass over an all-idle allocator takes zero locks.
  uint64_t IdleBefore = A.allocStats().QuarantineReleaseLocks;
  EXPECT_EQ(A.releaseQuarantinedBefore(3), 0u);
  EXPECT_EQ(A.allocStats().QuarantineReleaseLocks, IdleBefore);

  // The address space is whole again: the units coalesced back and can
  // serve a cross-boundary large page.
  Page *L = A.allocatePage(PageSizeClass::Large, 20 * 64 * 1024, 0);
  ASSERT_NE(L, nullptr);
  A.releasePage(L);
}

TEST(PageAllocatorShardTest, FallbackFindsUnitsInOtherShards) {
  // 64 general units across 4 shards of 16; max heap admits all 64. One
  // thread must be able to consume every shard's units through the
  // fallback scan, and exhaustion is declared only when the pool is
  // genuinely full.
  PageAllocator A(smallGeo(), 4 << 20, 4 << 20, 0, /*Shards=*/4);
  ASSERT_EQ(A.shardCount(), 4u);

  std::set<uintptr_t> Begins;
  for (unsigned I = 0; I < 64; ++I) {
    Page *P = A.allocatePage(PageSizeClass::Small, 64, 0);
    ASSERT_NE(P, nullptr) << "allocation " << I
                          << " failed with free units remaining";
    Begins.insert(P->begin());
  }
  EXPECT_EQ(Begins.size(), 64u) << "duplicate page address handed out";
  EXPECT_EQ(A.allocatePage(PageSizeClass::Small, 64, 0), nullptr);
  EXPECT_GE(A.allocStats().FallbackScans, 1u);
}

TEST(PageAllocatorShardTest, CrossShardMergeServesRunLargerThanAnyShard) {
  // 4 shards of 16 units; a 20-unit large page fits no single shard, so
  // it must come from the lock-all merged view spanning a partition
  // boundary — the request would have succeeded under a single run map,
  // so it must succeed here.
  PageAllocator A(smallGeo(), 4 << 20, 4 << 20, 0, /*Shards=*/4);
  ASSERT_EQ(A.shardCount(), 4u);

  size_t LargeBytes = 20 * 64 * 1024;
  Page *L = A.allocatePage(PageSizeClass::Large, LargeBytes, 0);
  ASSERT_NE(L, nullptr);
  EXPECT_EQ(L->size(), LargeBytes);
  EXPECT_EQ(A.allocStats().CrossShardTakes, 1u);

  // Releasing the spanning page returns each portion to its shard; the
  // whole pool must be small-allocatable again.
  A.releasePage(L);
  EXPECT_EQ(A.usedBytes(), 0u);
  for (unsigned I = 0; I < 64; ++I)
    ASSERT_NE(A.allocatePage(PageSizeClass::Small, 64, 0), nullptr);
  EXPECT_EQ(A.allocatePage(PageSizeClass::Small, 64, 0), nullptr);
}

TEST(PageAllocatorShardTest, MediumAllocFlushesCacheAndCoalesces) {
  // Single shard of 16 units. A small allocation carves a cache batch
  // out of the run map; after the small page is freed, a medium request
  // (all 16 units) is only satisfiable if the cached units are flushed
  // back and coalesced with the remaining run.
  PageAllocator A(smallGeo(), 1 << 20, 1 << 20, 0, /*Shards=*/1);
  ASSERT_EQ(A.shardCount(), 1u);

  Page *S = A.allocatePage(PageSizeClass::Small, 64, 0);
  ASSERT_NE(S, nullptr);
  uintptr_t Begin = S->begin();
  A.releasePage(S);

  Page *M = A.allocatePage(PageSizeClass::Medium, 100 * 1024, 0);
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(M->begin(), Begin) << "medium page should reuse the full run";
  EXPECT_EQ(A.usedBytes(), size_t(1) << 20);
}

TEST(PageAllocatorShardTest, RegistryIterationMatchesSnapshots) {
  PageAllocator A(smallGeo(), 8 << 20, 0, 0, /*Shards=*/4);
  std::set<Page *> Expect;
  for (unsigned I = 0; I < 24; ++I)
    Expect.insert(A.allocatePage(PageSizeClass::Small, 64, /*Seq=*/I));
  ASSERT_EQ(Expect.count(nullptr), 0u);

  // forEachActivePage visits each active page exactly once, and the
  // vector snapshot is just a materialization of the same walk.
  std::set<Page *> Seen;
  size_t Visits = 0;
  A.forEachActivePage([&](Page &P) {
    Seen.insert(&P);
    ++Visits;
  });
  EXPECT_EQ(Visits, Expect.size());
  EXPECT_EQ(Seen, Expect);
  EXPECT_EQ(A.activePagesSnapshot().size(), Expect.size());

  // Quarantine and release drop pages from the walk immediately.
  Page *Gone = *Expect.begin();
  Gone->setState(PageState::Quarantined);
  A.quarantinePage(Gone);
  Expect.erase(Gone);
  Seen.clear();
  A.forEachActivePage([&](Page &P) { Seen.insert(&P); });
  EXPECT_EQ(Seen, Expect);
  A.releasePage(Gone);

  Page *Freed = *Expect.rbegin();
  A.releasePage(Freed);
  Expect.erase(Freed);
  Seen.clear();
  A.forEachActivePage([&](Page &P) { Seen.insert(&P); });
  EXPECT_EQ(Seen, Expect);
}
