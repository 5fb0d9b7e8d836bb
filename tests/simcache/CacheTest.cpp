//===- tests/simcache/CacheTest.cpp ------------------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "simcache/Cache.h"

#include "support/Random.h"

#include "TestSeeds.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

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

TEST(CacheTest, SetsStartOnHostLines) {
  // Every 8-way set is one 64-byte host line and every 16-way set two,
  // which the vector kernels' aligned loads and stores rely on.
  for (uint32_t Ways : {8u, 16u}) {
    for (uint32_t Sets : {1u, 2u, 64u, 4096u}) {
      SetAssocCache C(Sets, Ways);
      for (uint64_t Line = 0; Line < Sets; ++Line)
        ASSERT_EQ(reinterpret_cast<uintptr_t>(C.setFor(Line)) %
                      SetAssocCache::SetAlign,
                  0u)
            << Ways << "-way, " << Sets << " sets, set " << Line;
    }
  }
}

TEST(CacheTest, KernelChosenByCpuAndWays) {
  const char *Vector = setkernel::vectorAvailable() ? "avx512" : "scalar";
  EXPECT_STREQ(SetAssocCache(64, 8).kernelName(), Vector);
  EXPECT_STREQ(SetAssocCache(64, 16).kernelName(), Vector);
  EXPECT_STREQ(SetAssocCache(64, 4).kernelName(), "scalar");
  EXPECT_STREQ(SetAssocCache(64, 1).kernelName(), "scalar");
}

namespace {

/// The AVX-512F kernels against the scalar ones: both get a copy of the
/// same seeded set and the same line, and must return the same result
/// and leave the same set. The parameter is the associativity, 8 or 16.
class SetKernelTest : public ::testing::TestWithParam<uint32_t> {
protected:
  void SetUp() override {
    if (!setkernel::vectorAvailable())
      GTEST_SKIP() << "this CPU lacks AVX-512F; only the scalar kernels run";
    Ways = GetParam();
    Access = Ways == 8 ? setkernel::access8 : setkernel::access16;
    Contains = Ways == 8 ? setkernel::contains8 : setkernel::contains16;
  }

  /// Fills both sets with \p Used distinct lines drawn from
  /// [0, 4 * Ways), then EmptyLine up to the last way.
  void seedSet(SplitMix64 &Rng, uint32_t Used) {
    uint32_t N = 0;
    while (N < Used) {
      uint64_t L = Rng.nextBelow(4 * Ways);
      if (std::find(Vec, Vec + N, L) == Vec + N)
        Vec[N++] = L;
    }
    std::fill(Vec + Used, Vec + Ways, SetAssocCache::EmptyLine);
    std::copy(Vec, Vec + Ways, Ref);
  }

  /// Applies one access of \p Line through both kernels and compares.
  void expectSameAccess(uint64_t Line, const std::string &What) {
    bool VecHit = Access(Vec, Ways, Line);
    bool RefHit = setkernel::accessScalar(Ref, Ways, Line);
    ASSERT_EQ(VecHit, RefHit) << What << ", line " << Line;
    for (uint32_t W = 0; W < Ways; ++W)
      ASSERT_EQ(Vec[W], Ref[W]) << What << ", line " << Line << ", way " << W;
  }

  uint32_t Ways = 0;
  setkernel::AccessFn Access = nullptr;
  setkernel::ContainsFn Contains = nullptr;
  alignas(SetAssocCache::SetAlign) uint64_t Vec[16];
  alignas(SetAssocCache::SetAlign) uint64_t Ref[16];
};

TEST_P(SetKernelTest, HitAtEveryWay) {
  SplitMix64 Rng(test::testSeed(100 + GetParam()));
  for (int Round = 0; Round < 50; ++Round) {
    for (uint32_t W = 0; W < Ways; ++W) {
      seedSet(Rng, Ways);
      uint64_t Line = Vec[W];
      expectSameAccess(Line, "hit at way " + std::to_string(W));
      if (HasFatalFailure())
        return;
      EXPECT_EQ(Vec[0], Line);
    }
  }
}

TEST_P(SetKernelTest, MissOnFullSetDropsLruWay) {
  SplitMix64 Rng(test::testSeed(110 + GetParam()));
  for (int Round = 0; Round < 200; ++Round) {
    seedSet(Rng, Ways);
    uint64_t Lru = Vec[Ways - 1];
    expectSameAccess(4 * Ways + Rng.nextBelow(100), "miss on a full set");
    if (HasFatalFailure())
      return;
    EXPECT_EQ(std::find(Vec, Vec + Ways, Lru), Vec + Ways);
  }
}

TEST_P(SetKernelTest, MissAndHitWithEmptyTail) {
  SplitMix64 Rng(test::testSeed(120 + GetParam()));
  for (uint32_t Used = 0; Used < Ways; ++Used) {
    for (int Round = 0; Round < 20; ++Round) {
      seedSet(Rng, Used);
      expectSameAccess(4 * Ways + Rng.nextBelow(100),
                       "miss with " + std::to_string(Used) + " ways used");
      if (HasFatalFailure())
        return;
      // Nothing was evicted: the empty tail gave up one way.
      EXPECT_EQ(std::count(Vec, Vec + Ways, SetAssocCache::EmptyLine),
                Ways - Used - 1);
      if (Used > 0) {
        seedSet(Rng, Used);
        expectSameAccess(Vec[Rng.nextBelow(Used)],
                         "hit with " + std::to_string(Used) + " ways used");
        if (HasFatalFailure())
          return;
      }
    }
  }
}

TEST_P(SetKernelTest, ContainsAgrees) {
  SplitMix64 Rng(test::testSeed(130 + GetParam()));
  for (uint32_t Used = 0; Used <= Ways; ++Used) {
    seedSet(Rng, Used);
    for (uint64_t L = 0; L < 5 * Ways; ++L)
      EXPECT_EQ(Contains(Vec, Ways, L), setkernel::containsScalar(Ref, Ways, L))
          << "line " << L << ", " << Used << " ways used";
    EXPECT_EQ(Contains(Vec, Ways, SetAssocCache::EmptyLine),
              setkernel::containsScalar(Ref, Ways, SetAssocCache::EmptyLine));
  }
}

TEST_P(SetKernelTest, RandomSequenceFromEmpty) {
  // From an empty set, a long run of lines drawn from twice the
  // associativity: hits land at every way and misses evict.
  SplitMix64 Rng(test::testSeed(140 + GetParam()));
  seedSet(Rng, 0);
  for (int I = 0; I < 20000; ++I) {
    expectSameAccess(Rng.nextBelow(2 * Ways), "step " + std::to_string(I));
    if (HasFatalFailure())
      return;
  }
}

INSTANTIATE_TEST_SUITE_P(Ways, SetKernelTest, ::testing::Values(8u, 16u),
                         [](const ::testing::TestParamInfo<uint32_t> &Info) {
                           return "Ways" + std::to_string(Info.param);
                         });

} // namespace
