//===- tests/heap/PageTest.cpp -------------------------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "heap/Page.h"

#include "heap/ObjectModel.h"

#include <gtest/gtest.h>

#include <thread>

using namespace hcsgc;

namespace {

class PageTest : public ::testing::Test {
protected:
  static constexpr size_t Size = 64 * 1024;
  PageTest()
      : Buf(new uint8_t[Size + 8]),
        Begin((reinterpret_cast<uintptr_t>(Buf.get()) + 7) & ~uintptr_t(7)),
        P(Begin, Size, PageSizeClass::Small, /*Seq=*/3) {}

  std::unique_ptr<uint8_t[]> Buf;
  uintptr_t Begin;
  Page P;
};

} // namespace

TEST_F(PageTest, BumpAllocation) {
  uintptr_t A = P.allocate(32);
  uintptr_t B = P.allocate(32);
  EXPECT_EQ(A, Begin);
  EXPECT_EQ(B, Begin + 32);
  EXPECT_EQ(P.used(), 64u);
  EXPECT_EQ(P.remaining(), Size - 64);
}

TEST_F(PageTest, AllocationAligns) {
  uintptr_t A = P.allocate(12); // rounds to 16
  uintptr_t B = P.allocate(8);
  EXPECT_EQ(B, A + 16);
}

TEST_F(PageTest, AllocationFailsWhenFull) {
  EXPECT_NE(P.allocate(Size), 0u);
  EXPECT_EQ(P.allocate(8), 0u);
}

TEST_F(PageTest, UndoAllocateOnlyAtTop) {
  uintptr_t A = P.allocate(32);
  uintptr_t B = P.allocate(32);
  EXPECT_FALSE(P.undoAllocate(A, 32)); // not the top
  EXPECT_TRUE(P.undoAllocate(B, 32));
  EXPECT_EQ(P.used(), 32u);
  EXPECT_EQ(P.allocate(32), B); // reusable
}

TEST_F(PageTest, LiveMarkingAccumulates) {
  uintptr_t A = P.allocate(32);
  uintptr_t B = P.allocate(48);
  EXPECT_TRUE(P.markLive(A, 32));
  EXPECT_FALSE(P.markLive(A, 32)); // second mark is a no-op
  EXPECT_TRUE(P.markLive(B, 48));
  EXPECT_EQ(P.liveBytes(), 80u);
  EXPECT_EQ(P.liveObjects(), 2u);
  EXPECT_TRUE(P.isLive(A));
  EXPECT_DOUBLE_EQ(P.liveRatio(), 80.0 / Size);
}

TEST_F(PageTest, HotMarkingSeparateFromLive) {
  uintptr_t A = P.allocate(32);
  P.markLive(A, 32);
  EXPECT_FALSE(P.isHot(A));
  EXPECT_TRUE(P.flagHot(A, 32));
  EXPECT_FALSE(P.flagHot(A, 32));
  EXPECT_EQ(P.hotBytes(), 32u);
  EXPECT_EQ(P.coldBytes(), 0u);
}

TEST_F(PageTest, ColdBytesIsLiveMinusHot) {
  uintptr_t A = P.allocate(32);
  uintptr_t B = P.allocate(64);
  P.markLive(A, 32);
  P.markLive(B, 64);
  P.flagHot(A, 32);
  EXPECT_EQ(P.coldBytes(), 64u);
}

TEST_F(PageTest, ClearMarkStateResetsEverything) {
  // "hotmap is reset at the beginning of each M/R phase; this renders
  // all objects cold effectively" (§3.1.2).
  uintptr_t A = P.allocate(32);
  P.markLive(A, 32);
  P.flagHot(A, 32);
  P.clearMarkState();
  EXPECT_EQ(P.liveBytes(), 0u);
  EXPECT_EQ(P.hotBytes(), 0u);
  EXPECT_EQ(P.liveObjects(), 0u);
  EXPECT_FALSE(P.isLive(A));
  EXPECT_FALSE(P.isHot(A));
}

TEST_F(PageTest, ForEachLiveObjectInAddressOrder) {
  std::vector<uintptr_t> Allocated;
  for (int I = 0; I < 10; ++I)
    Allocated.push_back(P.allocate(40));
  // Mark a subset, out of order.
  P.markLive(Allocated[7], 40);
  P.markLive(Allocated[2], 40);
  P.markLive(Allocated[9], 40);
  std::vector<uintptr_t> Seen;
  P.forEachLiveObject([&](uintptr_t A) { Seen.push_back(A); });
  ASSERT_EQ(Seen.size(), 3u);
  EXPECT_EQ(Seen[0], Allocated[2]);
  EXPECT_EQ(Seen[1], Allocated[7]);
  EXPECT_EQ(Seen[2], Allocated[9]);
}

TEST_F(PageTest, StateTransitions) {
  EXPECT_EQ(P.state(), PageState::Active);
  EXPECT_FALSE(P.isRelocSourceOrQuarantined());
  uintptr_t A = P.allocate(32);
  P.markLive(A, 32);
  P.beginEvacuation(P.begin(), P.size());
  EXPECT_EQ(P.state(), PageState::RelocSource);
  EXPECT_TRUE(P.isRelocSourceOrQuarantined());
  ASSERT_NE(P.forwarding(), nullptr);
  EXPECT_GE(P.forwarding()->capacity(), P.liveObjects());
  bool Won = false;
  P.forwarding()->insertOrGet(P.offsetOf(A), A + 32, Won);
  P.setQuarantineCycle(42);
  P.finishDrain();
  EXPECT_EQ(P.state(), PageState::Quarantined);
  EXPECT_EQ(P.quarantineCycle(), 42u);
  // A drained page keeps only its forwarding table.
  EXPECT_GT(P.sideTableBytes(), 0u);
  P.dropSideTables();
  EXPECT_EQ(P.sideTableBytes(), 0u);
  ASSERT_NE(P.forwarding(), nullptr);
  EXPECT_EQ(P.forwarding()->lookup(P.offsetOf(A)), A + 32);
}

TEST_F(PageTest, OffsetOf) {
  uintptr_t A = P.allocate(32);
  uintptr_t B = P.allocate(32);
  EXPECT_EQ(P.offsetOf(A), 0u);
  EXPECT_EQ(P.offsetOf(B), 32u);
}

TEST_F(PageTest, ConcurrentAllocationNoOverlap) {
  std::vector<std::vector<uintptr_t>> PerThread(4);
  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([&, T] {
      for (;;) {
        uintptr_t A = P.allocate(16);
        if (!A)
          break;
        PerThread[T].push_back(A);
      }
    });
  for (auto &T : Threads)
    T.join();
  std::vector<uintptr_t> All;
  for (auto &V : PerThread)
    All.insert(All.end(), V.begin(), V.end());
  std::sort(All.begin(), All.end());
  EXPECT_EQ(All.size(), Size / 16);
  for (size_t I = 1; I < All.size(); ++I)
    EXPECT_EQ(All[I], All[I - 1] + 16);
}

//===----------------------------------------------------------------------===//
// Temperature plane (TEMPERATURE knob, INTERNALS §13)
//===----------------------------------------------------------------------===//

namespace {

/// Same page shape as PageTest, but with the temperature plane armed.
class TempPageTest : public ::testing::Test {
protected:
  static constexpr size_t Size = 64 * 1024;
  TempPageTest()
      : Buf(new uint8_t[Size + 8]),
        Begin((reinterpret_cast<uintptr_t>(Buf.get()) + 7) & ~uintptr_t(7)),
        P(Begin, Size, PageSizeClass::Small, /*Seq=*/3,
          /*TrackTemp=*/true) {}

  /// The driver's pre-STW1 reset in miniature: age using last cycle's
  /// maps, then clear them. Callers re-mark live (and optionally hot)
  /// afterwards, as marking would.
  void endCycle() {
    P.ageTemperature();
    P.clearMarkState();
  }

  std::unique_ptr<uint8_t[]> Buf;
  uintptr_t Begin;
  Page P;
};

} // namespace

TEST_F(TempPageTest, SideTablesCostBitsPerGranule) {
  // Livemap + hotmap: 2 bits per 8-byte granule (3.125% of the page);
  // the temperature plane adds 4 (6.25%). Sites live in object headers.
  const size_t Granules = Size / ObjectAlignment;
  Page Plain(Begin, Size, PageSizeClass::Small, /*Seq=*/3);
  EXPECT_EQ(Plain.sideTableBytes(), Granules * 2 / 8);
  EXPECT_EQ(P.sideTableBytes(), Granules * 6 / 8);
  Page Sited(Begin, Size, PageSizeClass::Small, /*Seq=*/3,
             /*TrackTemp=*/true, /*TrackSites=*/true);
  EXPECT_EQ(Sited.sideTableBytes(), P.sideTableBytes());
}

TEST_F(TempPageTest, SiteOfReadsTheHeaderOnTrackedPagesOnly) {
  Page Sited(Begin, Size, PageSizeClass::Small, /*Seq=*/3,
             /*TrackTemp=*/false, /*TrackSites=*/true);
  uintptr_t A = Sited.allocate(32);
  initializeObject(A, 4, /*Cls=*/1, 0, OF_None, 0, /*Site=*/42);
  EXPECT_TRUE(Sited.tracksSites());
  EXPECT_EQ(Sited.siteOf(A), 42);
  Page Plain(Begin, Size, PageSizeClass::Small, /*Seq=*/3);
  EXPECT_FALSE(Plain.tracksSites());
  EXPECT_EQ(Plain.siteOf(A), UnknownSiteId);
}

TEST_F(TempPageTest, UntrackedPageHasNoTemperaturePlane) {
  Page Plain(Begin, Size, PageSizeClass::Small, /*Seq=*/3);
  EXPECT_FALSE(Plain.tracksTemperature());
  uintptr_t A = Plain.allocate(32);
  Plain.markLive(A, 32);
  Plain.flagHot(A, 32);
  EXPECT_EQ(Plain.temperatureOf(A), 0u);
  EXPECT_EQ(Plain.coldStreakOf(A), 0u);
  Plain.seedTemperature(A, 3, 3); // no-op, must not crash
  Plain.ageTemperature();         // no-op, must not crash
  EXPECT_EQ(Plain.temperatureOf(A), 0u);
}

TEST_F(TempPageTest, RepeatedTouchesSaturateAtMaxTemperature) {
  ASSERT_TRUE(P.tracksTemperature());
  uintptr_t A = P.allocate(32);
  for (unsigned Round = 1; Round <= Page::MaxTemperature + 2; ++Round) {
    P.markLive(A, 32);
    P.flagHot(A, 32);
    EXPECT_EQ(P.temperatureOf(A),
              std::min(Round, Page::MaxTemperature))
        << "round " << Round;
    EXPECT_EQ(P.coldStreakOf(A), 0u);
    endCycle();
  }
}

TEST_F(TempPageTest, DecayIsMonotoneOneStepPerCycle) {
  uintptr_t A = P.allocate(32);
  // Heat to saturation.
  for (unsigned I = 0; I < Page::MaxTemperature; ++I) {
    P.markLive(A, 32);
    P.flagHot(A, 32);
    endCycle();
  }
  // Live-but-untouched cycles: temperature decays exactly one step per
  // aging walk and never rises. The streak stays zero until the granule
  // reaches temperature 0 — and the decaying cycle itself counts as the
  // first cold cycle (streak 1), keeping the nibble nonzero.
  unsigned Prev = Page::MaxTemperature;
  for (unsigned Cycle = 0; Cycle < Page::MaxTemperature; ++Cycle) {
    P.markLive(A, 32);
    endCycle();
    unsigned Cur = P.temperatureOf(A);
    EXPECT_EQ(Cur, Prev - 1) << "cycle " << Cycle;
    EXPECT_EQ(P.coldStreakOf(A), Cur == 0 ? 1u : 0u) << "cycle " << Cycle;
    Prev = Cur;
  }
  EXPECT_EQ(P.temperatureOf(A), 0u);
  // Further untouched cycles accrue cold streak, saturating.
  for (unsigned Cycle = 1; Cycle <= Page::MaxColdStreak + 2; ++Cycle) {
    P.markLive(A, 32);
    endCycle();
    EXPECT_EQ(P.temperatureOf(A), 0u);
    EXPECT_EQ(P.coldStreakOf(A),
              std::min(Cycle + 1, Page::MaxColdStreak))
        << "cycle " << Cycle;
  }
}

TEST_F(TempPageTest, TouchInterruptsColdStreak) {
  uintptr_t A = P.allocate(32);
  // One hot cycle, then decay to temperature 0 with a 2-cycle streak
  // (the decaying cycle starts the streak at 1, the next one accrues).
  P.markLive(A, 32);
  P.flagHot(A, 32);
  endCycle();
  for (int I = 0; I < 2; ++I) {
    P.markLive(A, 32);
    endCycle();
  }
  ASSERT_EQ(P.temperatureOf(A), 0u);
  ASSERT_EQ(P.coldStreakOf(A), 2u);
  // A touch bumps the temperature and wipes the streak immediately.
  P.markLive(A, 32);
  P.flagHot(A, 32);
  EXPECT_EQ(P.temperatureOf(A), 1u);
  EXPECT_EQ(P.coldStreakOf(A), 0u);
  // And the next aging walk keeps the bumped value (touched granules
  // are not decayed).
  endCycle();
  EXPECT_EQ(P.temperatureOf(A), 1u);
  EXPECT_EQ(P.coldStreakOf(A), 0u);
}

TEST_F(TempPageTest, SeedTransfersTemperatureAndStreak) {
  uintptr_t A = P.allocate(32);
  uintptr_t B = P.allocate(32);
  P.seedTemperature(A, 2, 0);
  P.seedTemperature(B, 0, 3);
  EXPECT_EQ(P.temperatureOf(A), 2u);
  EXPECT_EQ(P.coldStreakOf(A), 0u);
  EXPECT_EQ(P.temperatureOf(B), 0u);
  EXPECT_EQ(P.coldStreakOf(B), 3u);
  // Seeded state ages like any other: B was already fully cold, so its
  // streak is saturated; A decays.
  P.markLive(A, 32);
  P.markLive(B, 32);
  endCycle();
  EXPECT_EQ(P.temperatureOf(A), 1u);
  EXPECT_EQ(P.coldStreakOf(B), 3u);
}

TEST_F(TempPageTest, AgingCoversSeededCopiesAbsentFromLivemap) {
  // Relocated-in copies are seeded after marking ended, so they are not
  // in the target page's livemap at the next aging walk. They must age
  // anyway: a livemap-gated walk would freeze survivors that relocate
  // every cycle at their seeded temperature forever, and none would
  // ever prove cold. The live neighbour in the same nibble word is
  // unaffected.
  uintptr_t A = P.allocate(8); // granules 0 and 1 share a nibble word
  uintptr_t B = P.allocate(8);
  P.markLive(A, 8);
  P.flagHot(A, 8);
  P.seedTemperature(B, 2, 0); // as a relocation winner would
  endCycle();
  EXPECT_EQ(P.temperatureOf(A), 1u) << "live granule kept its bump";
  EXPECT_EQ(P.temperatureOf(B), 1u) << "seeded copy decayed one step";
  // The next markings see the copy as a regular live object: the decay
  // to temperature 0 starts the streak at 1, then it accrues normally.
  P.markLive(B, 8);
  endCycle();
  EXPECT_EQ(P.temperatureOf(B), 0u);
  EXPECT_EQ(P.coldStreakOf(B), 1u) << "decaying cycle counts as cold";
  P.markLive(B, 8);
  endCycle();
  EXPECT_EQ(P.coldStreakOf(B), 2u);
}

TEST_F(TempPageTest, TierByteTotalsPartitionLiveBytes) {
  // accumulateTempTierBytes walks real object headers, so write them.
  ClassId Cls = 0;
  std::vector<uintptr_t> Objs;
  for (int I = 0; I < 6; ++I) {
    uintptr_t A = P.allocate(32);
    *reinterpret_cast<uint64_t *>(A) = makeHeader(4, Cls, 0, OF_None);
    P.markLive(A, 32);
    Objs.push_back(A);
  }
  // Temperatures 0,1,2,3,3,0 via seeding (bump path covered above).
  P.seedTemperature(Objs[1], 1, 0);
  P.seedTemperature(Objs[2], 2, 0);
  P.seedTemperature(Objs[3], 3, 0);
  P.seedTemperature(Objs[4], 3, 0);
  uint64_t Tiers[Page::TempTiers], ProvenCold;
  P.accumulateTempTierBytes(Tiers, ProvenCold);
  EXPECT_EQ(Tiers[0], 64u);
  EXPECT_EQ(Tiers[1], 32u);
  EXPECT_EQ(Tiers[2], 32u);
  EXPECT_EQ(Tiers[3], 64u);
  EXPECT_EQ(ProvenCold, 0u) << "no object has a cold streak yet";
  uint64_t Sum = 0;
  for (unsigned T = 0; T < Page::TempTiers; ++T)
    Sum += Tiers[T];
  EXPECT_EQ(Sum, P.liveBytes());
}
