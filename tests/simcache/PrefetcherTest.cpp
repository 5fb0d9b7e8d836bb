//===- tests/simcache/PrefetcherTest.cpp ---------------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "simcache/Prefetcher.h"

#include "support/Random.h"

#include "TestSeeds.h"

#include <gtest/gtest.h>

using namespace hcsgc;

TEST(PrefetcherTest, AscendingStreamLocksAndPrefetchesAhead) {
  StreamPrefetcher P(8);
  // The first access trains a stream, the second gives it a direction,
  // the third locks it: from then on every access prefetches ahead.
  EXPECT_EQ(P.observe(100), 0);
  EXPECT_EQ(P.observe(101), 0);
  for (uint64_t L = 102; L < 110; ++L)
    EXPECT_EQ(P.observe(L), 1);
}

TEST(PrefetcherTest, DescendingStreamSupported) {
  StreamPrefetcher P(8);
  int Stride = 0;
  for (uint64_t L = 500; L > 490; --L)
    Stride = P.observe(L);
  EXPECT_EQ(Stride, -1);
}

TEST(PrefetcherTest, RandomAccessesDontPrefetch) {
  StreamPrefetcher P(8);
  SplitMix64 Rng(test::testSeed(30));
  size_t Prefetching = 0;
  for (int I = 0; I < 1000; ++I)
    Prefetching += P.observe(Rng.nextBelow(1 << 30)) != 0;
  // A sparse random stream over 2^30 lines should almost never look like
  // a stride-1 stream.
  EXPECT_LT(Prefetching, 12u);
}

TEST(PrefetcherTest, ToleratesSmallJitter) {
  // Two 32-byte objects per 64-byte line: access order can repeat or
  // skip a line; the stream should survive +2 jumps.
  StreamPrefetcher P(8);
  uint64_t Lines[] = {10, 11, 13, 14, 16, 17};
  size_t Prefetching = 0;
  for (uint64_t L : Lines)
    Prefetching += P.observe(L) != 0;
  EXPECT_GT(Prefetching, 0u);
}

TEST(PrefetcherTest, TracksMultipleStreams) {
  StreamPrefetcher P(8);
  size_t Prefetching = 0;
  // Interleave two ascending streams far apart.
  for (int I = 0; I < 10; ++I) {
    Prefetching += P.observe(1000 + I) != 0;
    Prefetching += P.observe(90000 + I) != 0;
  }
  EXPECT_GT(Prefetching, 10u);
}

TEST(PrefetcherTest, ResetForgetsStreams) {
  StreamPrefetcher P(4);
  int Stride = 0;
  for (uint64_t L = 0; L < 6; ++L)
    Stride = P.observe(L);
  EXPECT_EQ(Stride, 1);
  P.reset();
  EXPECT_EQ(P.observe(6), 0); // needs retraining
}

TEST(PrefetcherTest, EvictsLeastRecentlyUsedStream) {
  // Two slots. Stream A (line 100) is touched after stream B (line 500),
  // so a third stream evicts B; A then keeps extending.
  StreamPrefetcher P(2);
  P.observe(500);
  P.observe(100);
  P.observe(9000); // evicts the stream at 500
  EXPECT_EQ(P.observe(101), 0);
  EXPECT_EQ(P.observe(102), 1); // A survived and locked
  P.observe(20000); // evicts 9000, the LRU now
  // Had 500's stream survived, 501 and 502 would lock it; a fresh stream
  // needs a third access.
  P.observe(501);
  EXPECT_EQ(P.observe(502), 0);
}

TEST(PrefetcherTest, RepeatedLineKeepsTrainedStreams) {
  // Two 32-byte objects per line make the line just touched the most
  // common access. A repeat of one stream's line must not evict another,
  // trained stream; had each repeat started a stream in the LRU slot, the
  // 16 repeats would have cycled through all four slots.
  StreamPrefetcher P(4);
  for (uint64_t L = 100; L < 104; ++L)
    P.observe(L);
  EXPECT_EQ(P.observe(5000), 0);
  for (int I = 0; I < 16; ++I)
    EXPECT_EQ(P.observe(5000), 0);
  EXPECT_EQ(P.observe(104), 1);
}

TEST(PrefetcherTest, RepeatLeavesTheLruVictim) {
  // Two slots: the stream at 500 is the LRU one. Repeating 500, even
  // after stream A (line 100) has locked, prefetches nothing and does not
  // make 500's stream recent, so a new stream still evicts it, not A.
  StreamPrefetcher P(2);
  P.observe(500);
  for (uint64_t L = 100; L < 103; ++L)
    P.observe(L);
  EXPECT_EQ(P.observe(102), 0); // a repeat of A's locked line
  EXPECT_EQ(P.observe(500), 0);
  P.observe(9000); // evicts the stream at 500
  EXPECT_EQ(P.observe(103), 1); // A survived, still locked
  // Had 500's stream survived, 501 and 502 would lock it; a fresh stream
  // needs a third access.
  P.observe(501);
  EXPECT_EQ(P.observe(502), 0);
}

TEST(PrefetcherTest, BucketAliasIsNotAStream) {
  // X + 2^20 + 1 shares X + 1's bucket under any power-of-two bucket
  // count up to 2^20, so the stream at X is a candidate for it; the
  // exact +/-2 test must reject it and train a new stream instead.
  StreamPrefetcher P(8);
  constexpr uint64_t X = 4096, Alias = X + (uint64_t(1) << 20) + 1;
  EXPECT_EQ(P.observe(X), 0);
  EXPECT_EQ(P.observe(Alias), 0);
  // Had the alias extended X's stream, X + 1 would train a fresh one
  // and X + 2 could not lock yet.
  EXPECT_EQ(P.observe(X + 1), 0);
  EXPECT_EQ(P.observe(X + 2), 1);
  // The alias started its own stream, which locks on its own.
  EXPECT_EQ(P.observe(Alias + 1), 0);
  EXPECT_EQ(P.observe(Alias + 2), 1);
}
