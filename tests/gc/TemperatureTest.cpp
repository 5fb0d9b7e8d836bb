//===- tests/gc/TemperatureTest.cpp --------------------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Tests the multi-cycle temperature extension (INTERNALS §13): knob
// dependencies, the atomicity of racing temperature bumps on shared
// nibble words (run under TSan in CI), the temp.* tier accounting, and
// the full proven-cold pipeline — decay to temperature 0, cold-streak
// routing onto dedicated cold pages, and cold adoption, which reports
// their bytes as cold-resident RSS.
//
//===----------------------------------------------------------------------===//

#include "runtime/Runtime.h"

#include <gtest/gtest.h>

#include <thread>

using namespace hcsgc;

namespace {

GcConfig tempConfig() {
  GcConfig Cfg;
  Cfg.Geometry.SmallPageSize = 64 * 1024;
  Cfg.Geometry.MediumPageSize = 1024 * 1024;
  Cfg.MaxHeapBytes = 32u << 20;
  Cfg.Hotness = true;
  Cfg.Temperature = true;
  return Cfg;
}

} // namespace

TEST(TemperatureTest, KnobValidation) {
  GcConfig Cfg;
  Cfg.Temperature = true; // requires Hotness
  EXPECT_FALSE(Cfg.knobsValid());
  Cfg.Hotness = true;
  EXPECT_TRUE(Cfg.knobsValid());
}

TEST(TemperatureTest, RacingBumpsOnSharedNibbleWordsStaySaturating) {
  // 16 granule nibbles share one atomic word; racing flagHot calls on
  // neighbouring 8-byte objects must neither lose bumps nor corrupt
  // neighbours. gc_tests runs under TSan in CI, which checks the
  // data-race half of that claim.
  constexpr size_t Size = 64 * 1024;
  std::unique_ptr<uint8_t[]> Buf(new uint8_t[Size + 8]);
  uintptr_t Begin =
      (reinterpret_cast<uintptr_t>(Buf.get()) + 7) & ~uintptr_t(7);
  Page P(Begin, Size, PageSizeClass::Small, /*Seq=*/1, /*TrackTemp=*/true);

  constexpr unsigned NumObjs = 64; // spans 4 nibble words
  constexpr unsigned NumThreads = 4;
  uintptr_t Objs[NumObjs];
  for (unsigned I = 0; I < NumObjs; ++I)
    Objs[I] = P.allocate(8);

  for (unsigned Round = 1; Round <= Page::MaxTemperature + 1; ++Round) {
    for (unsigned I = 0; I < NumObjs; ++I)
      P.markLive(Objs[I], 8);
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T < NumThreads; ++T)
      Threads.emplace_back([&, T] {
        // Interleaved subsets: every word sees all four threads.
        for (unsigned I = T; I < NumObjs; I += NumThreads)
          P.flagHot(Objs[I], 8);
      });
    for (auto &Th : Threads)
      Th.join();
    for (unsigned I = 0; I < NumObjs; ++I)
      EXPECT_EQ(P.temperatureOf(Objs[I]),
                std::min(Round, Page::MaxTemperature))
          << "object " << I << " round " << Round;
    EXPECT_EQ(P.hotBytes(), NumObjs * 8u);
    P.ageTemperature();
    P.clearMarkState();
  }
}

TEST(TemperatureTest, TierMetricsTrackTouchedVsUntouched) {
  Runtime RT(tempConfig());
  ClassId Cls = RT.registerClass("t.Obj", 0, 24);
  auto M = RT.attachMutator();
  const uint32_t N = 5000;
  {
    Root Arr(*M), Tmp(*M);
    M->allocateRefArray(Arr, N);
    for (uint32_t I = 0; I < N; ++I) {
      M->allocate(Tmp, Cls);
      M->storeElem(Arr, I, Tmp);
    }
    // Several cycles in which only the first half is ever re-touched:
    // that half climbs toward tier 3, the other half decays to tier 0.
    for (int Round = 0; Round < 5; ++Round) {
      for (uint32_t I = 0; I < N / 2; ++I)
        M->loadElem(Arr, I, Tmp);
      M->requestGcAndWait();
    }
  }
  M.reset();
  MetricsRegistry &MR = RT.metrics();
  EXPECT_GE(MR.counterValue("temp.aging_walks"), 5u);
  // The touched half reached tiers 2-3 (temp.hot_bytes), the untouched
  // half sat at tier 0 (temp.cold_bytes) in the later cycles.
  EXPECT_GT(MR.counterValue("temp.hot_bytes"), N / 2 * 16u);
  EXPECT_GT(MR.counterValue("temp.cold_bytes"), N / 2 * 16u);
}

TEST(TemperatureTest, ProvenColdSurvivorsSettleOnColdPages) {
  // The full pipeline: untouched survivors decay to temperature 0,
  // accrue a cold streak >= ProvenColdStreak, get routed onto dedicated
  // cold-tier pages at their next relocation, and — once those pages
  // settle (no longer relocation targets, dense enough to be rejected
  // by EC) — their bytes are reported as cold-resident RSS.
  GcConfig Cfg = tempConfig();
  Cfg.ColdPage = true;
  Cfg.ColdConfidence = 1.0;
  Cfg.EvacBudgetPages = 16;
  Runtime RT(Cfg);
  ClassId Cls = RT.registerClass("t.Cold", 0, 24);
  auto M = RT.attachMutator();
  const uint32_t N = 6400; // 32B each = ~200KB, >= 3 small pages
  {
    Root Arr(*M), Tmp(*M);
    M->allocateRefArray(Arr, N);
    for (uint32_t I = 0; I < N; ++I) {
      M->allocate(Tmp, Cls);
      M->storeElem(Arr, I, Tmp);
    }
    // Hot survivors interleaved 1-in-32 so every source page keeps a
    // heated remnant: with full cold confidence its WLB collapses to
    // roughly the hot bytes, the page clears the EC threshold, and the
    // cold majority gets excavated. Halfway through, the working set
    // drifts to a different 1-in-32 stripe: the newly touched objects
    // re-heat the settled cold pages, EC selects them, and their
    // proven-cold majority is routed onto fresh cold-tier pages by the
    // relocator (the earlier rounds exercise the adoption path — pages
    // that cool down in place and join the cold tier without moving).
    for (int Round = 0; Round < 12; ++Round) {
      uint32_t Off = Round < 6 ? 0 : 1;
      for (uint32_t I = Off; I < N; I += 32)
        M->loadElem(Arr, I, Tmp);
      M->requestGcAndWait();
    }
  }
  M.reset();
  MetricsRegistry &MR = RT.metrics();
  const uint64_t PageBytes = 64 * 1024;
  EXPECT_GE(MR.counterValue("coldpage.pages_allocated"), 2u);
  EXPECT_GT(MR.counterValue("coldpage.relocated_bytes"), 2 * PageBytes);
  // Cold-resident bytes are sampled every cycle as reclaimable RSS; at
  // peak they covered at least one full page.
  const Histogram *Resident = MR.findHistogram("coldpage.resident_bytes");
  ASSERT_NE(Resident, nullptr);
  EXPECT_GT(Resident->count(), 0u);
  EXPECT_GE(Resident->max(), PageBytes);
}
