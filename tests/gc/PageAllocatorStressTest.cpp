//===- tests/gc/PageAllocatorStressTest.cpp ------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concurrency stress for the sharded PageAllocator (this suite runs
/// under TSan in CI): parallel allocate/quarantine/release across shards
/// asserting no address-range overlap, exact usedBytes/quarantinedBytes
/// accounting, and free-run coalescing that restores full medium-page
/// capacity after fragmented churn. Also proves the sharded slow path
/// still reaches the relocation reserve under injected exhaustion.
///
//===----------------------------------------------------------------------===//

#include "heap/PageAllocator.h"
#include "inject/FaultInject.h"

#include "TestSeeds.h"
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

using namespace hcsgc;

namespace {

// 64 KiB small / 512 KiB medium => a medium page spans 8 units.
HeapGeometry stressGeo() {
  HeapGeometry G;
  G.SmallPageSize = 64 * 1024;
  G.MediumPageSize = 512 * 1024;
  return G;
}

// Stamps a page's first and last word with a per-(thread, op) token so a
// later check detects any overlapping hand-out of address ranges.
void stamp(Page *P, uint64_t Token) {
  *reinterpret_cast<uint64_t *>(P->begin()) = Token;
  *reinterpret_cast<uint64_t *>(P->end() - sizeof(uint64_t)) = Token;
}

bool stampIntact(Page *P, uint64_t Token) {
  return *reinterpret_cast<uint64_t *>(P->begin()) == Token &&
         *reinterpret_cast<uint64_t *>(P->end() - sizeof(uint64_t)) == Token;
}

} // namespace

TEST(PageAllocatorStressTest, ParallelAllocQuarantineReleaseAccounting) {
  constexpr size_t MaxHeap = 32 << 20;
  PageAllocator A(stressGeo(), MaxHeap, /*ReservedBytes=*/3 * MaxHeap, 0,
                  /*Shards=*/4);
  ASSERT_EQ(A.shardCount(), 4u);

  constexpr unsigned NumThreads = 8;
  constexpr unsigned OpsPerThread = 400;
  std::atomic<unsigned> Corruptions{0};

  auto Worker = [&](unsigned Tid) {
    std::mt19937_64 Rng(test::testSeed(0x5A5A) + Tid);
    std::vector<std::pair<Page *, uint64_t>> Held;
    for (unsigned Op = 0; Op < OpsPerThread; ++Op) {
      bool WantAlloc = Held.size() < 4 || (Rng() & 1);
      if (WantAlloc) {
        bool Medium = (Rng() % 8) == 0;
        Page *P = Medium ? A.allocatePage(PageSizeClass::Medium, 1024, Op)
                         : A.allocatePage(PageSizeClass::Small, 64, Op);
        if (!P)
          continue; // transient heap-full under contention is fine
        // Fresh pages must arrive zeroed — a nonzero word means the
        // range was handed out while someone else still owned it.
        if (*reinterpret_cast<uint64_t *>(P->begin()) != 0)
          Corruptions.fetch_add(1);
        uint64_t Token = (uint64_t(Tid) << 32) | Op;
        stamp(P, Token);
        Held.push_back({P, Token});
      } else {
        size_t Idx = Rng() % Held.size();
        auto [P, Token] = Held[Idx];
        Held.erase(Held.begin() + Idx);
        if (!stampIntact(P, Token))
          Corruptions.fetch_add(1);
        if (Rng() & 1) {
          // Quarantine first (evacuated page awaiting remap), then
          // retire — exercising both accounting transitions.
          P->setState(PageState::Quarantined);
          A.quarantinePage(P);
          // Quarantine returned the range's memory, so it reads zeros;
          // a token here was written by an overlapping owner.
          if (!stampIntact(P, 0))
            Corruptions.fetch_add(1);
          A.releasePage(P);
        } else {
          A.releasePage(P);
        }
      }
    }
    for (auto [P, Token] : Held) {
      if (!stampIntact(P, Token))
        Corruptions.fetch_add(1);
      A.releasePage(P);
    }
  };

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back(Worker, T);
  for (auto &T : Threads)
    T.join();

  EXPECT_EQ(Corruptions.load(), 0u) << "overlapping page ranges handed out";
  EXPECT_EQ(A.usedBytes(), 0u);
  EXPECT_EQ(A.quarantinedBytes(), 0u);
  EXPECT_TRUE(A.activePagesSnapshot().empty());
  EXPECT_TRUE(A.quarantinedPagesSnapshot().empty());
}

TEST(PageAllocatorStressTest, CoalescingRestoresFullMediumCapacity) {
  constexpr size_t MaxHeap = 32 << 20;
  PageAllocator A(stressGeo(), MaxHeap, /*ReservedBytes=*/MaxHeap, 0,
                  /*Shards=*/4);

  // Fragment the pool with parallel small-page churn, then free
  // everything. Shard caches and run maps must coalesce back so that the
  // entire heap is allocatable as medium pages afterwards.
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < 4; ++T)
    Threads.emplace_back([&, T] {
      std::mt19937_64 Rng(test::testSeed(0xC0A1) + T);
      std::vector<Page *> Held;
      for (unsigned Op = 0; Op < 300; ++Op) {
        if (Held.empty() || (Rng() % 3)) {
          if (Page *P = A.allocatePage(PageSizeClass::Small, 64, Op))
            Held.push_back(P);
        } else {
          size_t Idx = Rng() % Held.size();
          A.releasePage(Held[Idx]);
          Held.erase(Held.begin() + Idx);
        }
      }
      for (Page *P : Held)
        A.releasePage(P);
    });
  for (auto &T : Threads)
    T.join();
  ASSERT_EQ(A.usedBytes(), 0u);

  // Exactly MaxHeap / MediumPageSize medium pages must fit; anything
  // less means a free run failed to coalesce across a cache or shard.
  constexpr size_t Capacity = MaxHeap / (512 * 1024);
  std::vector<Page *> Mediums;
  for (size_t I = 0; I < Capacity; ++I) {
    Page *P = A.allocatePage(PageSizeClass::Medium, 1024, I);
    ASSERT_NE(P, nullptr) << "medium page " << I << " of " << Capacity
                          << " unallocatable: free runs not coalesced";
    Mediums.push_back(P);
  }
  EXPECT_EQ(A.allocatePage(PageSizeClass::Medium, 1024, Capacity), nullptr);
  for (Page *P : Mediums)
    A.releasePage(P);
  EXPECT_EQ(A.usedBytes(), 0u);
}

TEST(PageAllocatorStressTest, ShardedExhaustionStillReachesRelocReserve) {
  constexpr size_t MaxHeap = 4 << 20;
  constexpr size_t ReserveBytes = 4 * 64 * 1024 + 512 * 1024;
  PageAllocator A(stressGeo(), MaxHeap, /*ReservedBytes=*/MaxHeap,
                  /*RelocReserveBytes=*/ReserveBytes, /*Shards=*/2);

  // Simulated exhaustion: the PageAlloc fault point makes every general
  // allocation fail (even forced relocation-target requests)...
  FaultPlan Plan(test::testSeed(0xFEED));
  FaultSpec Always;
  Always.Probability = 1.0;
  Plan.set(FailPoint::PageAlloc, Always);
  {
    ScopedFaultPlan Armed(Plan);
    EXPECT_EQ(A.allocatePage(PageSizeClass::Small, 64, 0), nullptr);
    EXPECT_EQ(
        A.allocatePage(PageSizeClass::Small, 64, 0, /*Force=*/true),
        nullptr);

    // ...but the relocation reserve is exempt from the fault point: the
    // sharded slow path must still reach it so relocation can finish.
    Page *RS = A.allocateReservePage(PageSizeClass::Small, 64, 0);
    ASSERT_NE(RS, nullptr);
    EXPECT_EQ(A.relocReservePagesUsed(), 1u);
    Page *RM = A.allocateReservePage(PageSizeClass::Medium, 1024, 0);
    ASSERT_NE(RM, nullptr);
    EXPECT_EQ(A.relocReservePagesUsed(), 2u);
    A.releasePage(RS);
    A.releasePage(RM);
  }

  // Disarmed, the general pool works again.
  EXPECT_NE(A.allocatePage(PageSizeClass::Small, 64, 0), nullptr);
}
