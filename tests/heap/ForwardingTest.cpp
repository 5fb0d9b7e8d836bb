//===- tests/heap/ForwardingTest.cpp -------------------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "heap/Forwarding.h"
#include "heap/PageAllocator.h"

#include <gtest/gtest.h>

#include <thread>

using namespace hcsgc;

namespace {

/// A 1 MiB source page whose targets are plain numbers: the heap mapping
/// starts at 0 and spans 4 GiB.
constexpr size_t TestPageBytes = 1 << 20;
constexpr size_t TestHeapBytes = size_t(1) << 32;

ForwardingTable makeTable(uint32_t ExpectedEntries) {
  return ForwardingTable(ExpectedEntries, TestPageBytes, /*HeapBase=*/0,
                         TestHeapBytes);
}

} // namespace

TEST(ForwardingTest, LookupMissReturnsZero) {
  ForwardingTable T = makeTable(16);
  EXPECT_EQ(T.lookup(0), 0u);
  EXPECT_EQ(T.lookup(1234), 0u);
}

TEST(ForwardingTest, InsertThenLookup) {
  ForwardingTable T = makeTable(16);
  bool Won = false;
  EXPECT_EQ(T.insertOrGet(64, 0xbeef0, Won), 0xbeef0u);
  EXPECT_TRUE(Won);
  EXPECT_EQ(T.lookup(64), 0xbeef0u);
  EXPECT_EQ(T.size(), 1u);
}

TEST(ForwardingTest, SecondInsertLoses) {
  // §2.2: "Whoever succeeds in the CAS will use its local value ...
  // while others will discard their local value."
  ForwardingTable T = makeTable(16);
  bool Won = false;
  T.insertOrGet(8, 1000, Won);
  EXPECT_TRUE(Won);
  uintptr_t R = T.insertOrGet(8, 2000, Won);
  EXPECT_FALSE(Won);
  EXPECT_EQ(R, 1000u);
  EXPECT_EQ(T.size(), 1u);
}

TEST(ForwardingTest, OffsetZeroIsAValidKey) {
  ForwardingTable T = makeTable(16);
  bool Won;
  EXPECT_EQ(T.insertOrGet(0, 4096, Won), 4096u);
  EXPECT_EQ(T.lookup(0), 4096u);
}

TEST(ForwardingTest, ManyEntries) {
  constexpr uint32_t N = 5000;
  ForwardingTable T = makeTable(N);
  bool Won;
  for (uint32_t I = 0; I < N; ++I)
    T.insertOrGet(I * 8, 0x100000 + I * 16, Won);
  EXPECT_EQ(T.size(), N);
  for (uint32_t I = 0; I < N; ++I)
    EXPECT_EQ(T.lookup(I * 8), 0x100000u + I * 16);
  EXPECT_EQ(T.lookup(N * 8 + 8), 0u);
}

TEST(ForwardingTest, CapacitySizedForPopulation) {
  ForwardingTable T = makeTable(100);
  EXPECT_GE(T.capacity(), 200u);
  ForwardingTable Tiny = makeTable(0);
  EXPECT_GE(Tiny.capacity(), 16u);
}

TEST(ForwardingTest, ConcurrentInsertExactlyOneWinnerPerOffset) {
  constexpr uint32_t N = 2000;
  ForwardingTable T = makeTable(N);
  std::atomic<uint32_t> Wins{0};
  std::vector<std::thread> Threads;
  for (int W = 0; W < 4; ++W)
    Threads.emplace_back([&, W] {
      for (uint32_t I = 0; I < N; ++I) {
        bool Won = false;
        uintptr_t V =
            T.insertOrGet(I * 8, 0x1000000 + I * 64 + W * 8, Won);
        if (Won)
          Wins.fetch_add(1);
        // The winning value must be one of the candidates.
        EXPECT_GE(V, 0x1000000u + I * 64);
        EXPECT_LT(V, 0x1000000u + I * 64 + 4 * 8);
      }
    });
  for (auto &Th : Threads)
    Th.join();
  EXPECT_EQ(Wins.load(), N);
  EXPECT_EQ(T.size(), N);
  // Every reader agrees on the winner afterwards.
  for (uint32_t I = 0; I < N; ++I) {
    uintptr_t V = T.lookup(I * 8);
    EXPECT_NE(V, 0u);
  }
}

// --- The packed entry's edges ---------------------------------------------

TEST(ForwardingTest, LastGranuleOfAMediumPage) {
  // The largest key the default geometry produces: the last granule of a
  // medium page (small pages are never larger).
  const size_t Medium = HeapGeometry().MediumPageSize;
  ForwardingTable T(16, Medium, /*HeapBase=*/0, TestHeapBytes);
  bool Won = false;
  const uint32_t Last = static_cast<uint32_t>(Medium - ObjectAlignment);
  EXPECT_EQ(T.insertOrGet(Last, 0x40, Won), 0x40u);
  EXPECT_TRUE(Won);
  EXPECT_EQ(T.lookup(Last), 0x40u);
  EXPECT_EQ(T.lookup(0), 0u) << "the first granule must not alias the last";

  // The widest page the key field holds, whose last key sets every key
  // bit: the target field above it must stay intact.
  const size_t Widest = ((size_t(1) << ForwardingTable::KeyBits) - 1) *
                        ObjectAlignment;
  ForwardingTable W(16, Widest, /*HeapBase=*/0, TestHeapBytes);
  const uint32_t WidestLast = static_cast<uint32_t>(Widest - ObjectAlignment);
  EXPECT_EQ(W.insertOrGet(WidestLast, 0xfff8, Won), 0xfff8u);
  EXPECT_EQ(W.lookup(WidestLast), 0xfff8u);
}

TEST(ForwardingTest, TargetInTheRelocationReserveAtTheTopOfTheMapping) {
  // A real mapping: the relocation reserve is the last shard, so its
  // last page ends where the mapping ends.
  HeapGeometry Geo;
  Geo.SmallPageSize = 64 * 1024;
  Geo.MediumPageSize = 512 * 1024;
  PageAllocator A(Geo, 4 << 20, /*ReservedBytes=*/0,
                  /*RelocReserveBytes=*/2 * Geo.SmallPageSize);
  const PageTable &PT = A.pageTable();
  Page *Src = A.allocatePage(PageSizeClass::Medium, 1024, 0);
  ASSERT_NE(Src, nullptr);
  Page *R1 = A.allocateReservePage(PageSizeClass::Small, 64, 0);
  Page *R2 = A.allocateReservePage(PageSizeClass::Small, 64, 0);
  ASSERT_TRUE(R1 && R2);
  Page *Top = R1->end() > R2->end() ? R1 : R2;
  ASSERT_EQ(Top->end(), PT.base() + PT.reservedBytes());

  ForwardingTable T(16, Src->size(), PT.base(), PT.reservedBytes());
  const uintptr_t Highest = Top->end() - ObjectAlignment;
  const uint32_t Off = static_cast<uint32_t>(Src->size() - ObjectAlignment);
  bool Won = false;
  EXPECT_EQ(T.insertOrGet(Off, Highest, Won), Highest);
  EXPECT_TRUE(Won);
  EXPECT_EQ(T.lookup(Off), Highest);
  // The lowest target (the heap base itself) round-trips too.
  EXPECT_EQ(T.insertOrGet(0, PT.base(), Won), PT.base());
  EXPECT_EQ(T.lookup(0), PT.base());

  // The widest mapping the target field holds: its last granule sets
  // every target bit.
  const size_t Widest = (size_t(1) << ForwardingTable::TargetBits) *
                        ObjectAlignment;
  const uintptr_t Base = 0x1000;
  ForwardingTable W(16, TestPageBytes, Base, Widest);
  EXPECT_EQ(W.insertOrGet(8, Base + Widest - ObjectAlignment, Won),
            Base + Widest - ObjectAlignment);
  EXPECT_EQ(W.lookup(8), Base + Widest - ObjectAlignment);
}

TEST(ForwardingTest, GeometryTooLargeForTheFieldsDies) {
  const size_t KeyLimit = (size_t(1) << ForwardingTable::KeyBits) *
                          ObjectAlignment;
  EXPECT_DEATH(ForwardingTable(16, KeyLimit, 0, TestHeapBytes),
               "page too large for the key field");
  const size_t TargetLimit = (size_t(1) << ForwardingTable::TargetBits) *
                             ObjectAlignment;
  EXPECT_DEATH(ForwardingTable(16, TestPageBytes, 0,
                               TargetLimit + ObjectAlignment),
               "heap mapping too large for the target field");
}

TEST(ForwardingTest, RacingInsertersAgreeOnOneWinnerPerKey) {
  // Every thread inserts every key with its own target, all released at
  // once: each key gets exactly one winner, and every thread (winner or
  // loser) comes back with that winner's target.
  constexpr unsigned Threads = 8;
  constexpr uint32_t Keys = 4096;
  ForwardingTable T = makeTable(Keys);
  std::vector<std::vector<uintptr_t>> Got(Threads,
                                          std::vector<uintptr_t>(Keys));
  std::vector<std::atomic<uint32_t>> Winners(Keys);
  std::atomic<unsigned> Ready{0};
  std::vector<std::thread> Pool;
  for (unsigned W = 0; W < Threads; ++W)
    Pool.emplace_back([&, W] {
      Ready.fetch_add(1);
      while (Ready.load() < Threads)
        std::this_thread::yield();
      for (uint32_t K = 0; K < Keys; ++K) {
        bool Won = false;
        uintptr_t Mine = (uintptr_t(K) << 8) + (W + 1) * ObjectAlignment;
        Got[W][K] = T.insertOrGet(K * ObjectAlignment, Mine, Won);
        if (Won) {
          Winners[K].fetch_add(1);
          EXPECT_EQ(Got[W][K], Mine);
        }
      }
    });
  for (std::thread &Th : Pool)
    Th.join();
  EXPECT_EQ(T.size(), Keys);
  for (uint32_t K = 0; K < Keys; ++K) {
    ASSERT_EQ(Winners[K].load(), 1u) << "key " << K;
    uintptr_t Final = T.lookup(K * ObjectAlignment);
    for (unsigned W = 0; W < Threads; ++W)
      ASSERT_EQ(Got[W][K], Final) << "key " << K << " thread " << W;
  }
}
