//===- tests/simcache/CacheTest.cpp ------------------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "simcache/Cache.h"

#include <gtest/gtest.h>

using namespace hcsgc;

TEST(CacheTest, ColdMissThenHit) {
  SetAssocCache C(16, 2);
  EXPECT_FALSE(C.access(100));
  EXPECT_TRUE(C.access(100));
  EXPECT_TRUE(C.contains(100));
}

TEST(CacheTest, DistinctSetsDontConflict) {
  SetAssocCache C(16, 1);
  EXPECT_FALSE(C.access(0));
  EXPECT_FALSE(C.access(1)); // different set
  EXPECT_TRUE(C.access(0));
  EXPECT_TRUE(C.access(1));
}

TEST(CacheTest, DirectMappedConflictEvicts) {
  SetAssocCache C(16, 1);
  // Lines 0 and 16 map to the same set in a 16-set cache.
  EXPECT_FALSE(C.access(0));
  EXPECT_FALSE(C.access(16));
  EXPECT_FALSE(C.contains(0));
  EXPECT_FALSE(C.access(0)); // evicted, miss again
}

TEST(CacheTest, LruEvictsLeastRecentlyUsed) {
  SetAssocCache C(1, 2); // one set, two ways
  C.access(1);
  C.access(2);
  C.access(1);           // 2 is now LRU
  C.access(3);           // evicts 2
  EXPECT_TRUE(C.contains(1));
  EXPECT_FALSE(C.contains(2));
  EXPECT_TRUE(C.contains(3));
}

TEST(CacheTest, LruFourWays) {
  SetAssocCache C(1, 4);
  for (uint64_t L = 0; L < 4; ++L)
    C.access(L * 1); // fill: 0,1,2,3 (0 is LRU)
  C.access(0);       // 1 becomes LRU
  C.access(4);       // evicts 1
  EXPECT_TRUE(C.contains(0));
  EXPECT_FALSE(C.contains(1));
  EXPECT_TRUE(C.contains(2));
  EXPECT_TRUE(C.contains(3));
  EXPECT_TRUE(C.contains(4));
}

TEST(CacheTest, FillInsertsWithoutDemand) {
  SetAssocCache C(16, 2);
  C.fill(5);
  EXPECT_TRUE(C.access(5)); // prefetch made this a hit
}

TEST(CacheTest, WorkingSetWithinCapacityAllHits) {
  SetAssocCache C(64, 8); // 512 lines
  for (int Round = 0; Round < 3; ++Round) {
    size_t Misses = 0;
    for (uint64_t L = 0; L < 512; ++L)
      if (!C.access(L))
        ++Misses;
    if (Round == 0)
      EXPECT_EQ(Misses, 512u);
    else
      EXPECT_EQ(Misses, 0u);
  }
}

TEST(CacheTest, ClearDropsContents) {
  SetAssocCache C(4, 2);
  C.access(9);
  C.clear();
  EXPECT_FALSE(C.contains(9));
  EXPECT_FALSE(C.access(9));
}

TEST(CacheTest, LargeTagsDisambiguated) {
  SetAssocCache C(16, 2);
  uint64_t A = 16 * 1000 + 3, B = 16 * 2000 + 3; // same set, diff tags
  C.access(A);
  C.access(B);
  EXPECT_TRUE(C.contains(A));
  EXPECT_TRUE(C.contains(B));
}

TEST(CacheTest, MruHitLeavesSetUnchanged) {
  // 4-way set in order 4, 3, 2, 1 (1 is LRU). Repeated hits on the MRU
  // line keep that order, so new lines evict 1, 2, 3 and 4 in turn.
  SetAssocCache C(1, 4);
  for (uint64_t L = 1; L <= 4; ++L)
    EXPECT_FALSE(C.access(L));
  EXPECT_TRUE(C.access(4));
  EXPECT_TRUE(C.access(4));
  for (uint64_t L = 5; L <= 8; ++L) {
    EXPECT_FALSE(C.access(L));
    EXPECT_FALSE(C.contains(L - 4)) << "line " << L;
    for (uint64_t K = L - 3; K <= L; ++K)
      EXPECT_TRUE(C.contains(K)) << "line " << K << " after " << L;
  }

  // A partly filled set: MRU hits keep the empty ways at the tail, so
  // three more lines still fit without an eviction.
  SetAssocCache P(1, 4);
  EXPECT_FALSE(P.access(7));
  EXPECT_TRUE(P.access(7));
  for (uint64_t L = 8; L <= 10; ++L)
    EXPECT_FALSE(P.access(L));
  for (uint64_t L = 7; L <= 10; ++L)
    EXPECT_TRUE(P.contains(L));

  // Direct-mapped: the one way is always way 0.
  SetAssocCache D(16, 1);
  EXPECT_FALSE(D.access(3));
  EXPECT_TRUE(D.access(3));
  EXPECT_TRUE(D.access(3));
  EXPECT_FALSE(D.access(19)); // same set: evicts 3
  EXPECT_FALSE(D.contains(3));
  EXPECT_TRUE(D.access(19));
  EXPECT_FALSE(D.access(3));
}
