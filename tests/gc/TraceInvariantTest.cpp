//===- tests/gc/TraceInvariantTest.cpp ----------------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Trace-driven protocol checks: instead of asserting on aggregate
// statistics, these tests collect the full GC event stream and check the
// paper's per-event ordering and selection rules:
//
//  - §3.1.2  the hotmap is reset at the start of every M/R phase, before
//            any hot flag of that cycle;
//  - §3.1.3  the WLB rule degenerates correctly at the COLDCONFIDENCE
//            boundaries 0.0 (wlb == live) and 1.0 (wlb == hot, unless
//            the page has no hot bytes), read from the snapshot rows;
//  - §3.2    under LAZYRELOCATE, GC threads perform no relocation work
//            between a cycle's end and the next cycle's begin (the
//            mutator owns that window); the only in-cycle GC relocations
//            are STW3 root healing.
//
// All tests run deterministic single-mutator workloads, so they are also
// exercised under TSan by the gc_tests suite.
//
//===----------------------------------------------------------------------===//

#include "runtime/Runtime.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

using namespace hcsgc;

namespace {

GcConfig tracedConfig() {
  GcConfig Cfg;
  Cfg.Geometry.SmallPageSize = 64 * 1024;
  Cfg.Geometry.MediumPageSize = 1024 * 1024;
  Cfg.MaxHeapBytes = 32u << 20;
  Cfg.TraceEnabled = true;
  // Per-object events are plentiful; deep rings so no event this test
  // reasons about is dropped.
  Cfg.TraceBufferEvents = size_t(1) << 17;
  return Cfg;
}

/// Builds an array of \p N leaf objects and returns after \p Cycles GC
/// rounds, touching the even-indexed half between rounds so pages carry a
/// hot/cold mix. Returns the collected trace.
CollectedTrace runMixedHotnessWorkload(Runtime &RT, uint32_t N,
                                       int Cycles) {
  ClassId Cls = RT.registerClass("ti.Obj", 0, 24);
  auto M = RT.attachMutator();
  {
    Root Arr(*M), Tmp(*M);
    M->allocateRefArray(Arr, N);
    for (uint32_t I = 0; I < N; ++I) {
      M->allocate(Tmp, Cls);
      M->storeElem(Arr, I, Tmp);
    }
    for (int Round = 0; Round < Cycles; ++Round) {
      M->requestGcAndWait();
      // Touch every other element: every page keeps live-but-cold
      // neighbors next to hot objects.
      for (uint32_t I = 0; I < N; I += 2)
        M->loadElem(Arr, I, Tmp);
    }
  }
  M.reset();
  return RT.collectTrace();
}

} // namespace

// §3.1.2: "the hotmap is reset at the beginning of each M/R phase". The
// reset event of cycle N must sit between cycle N's begin and its STW1
// pause, and no hot flag attributed to cycle N may precede it (hot flags
// of cycle N only start once STW1 has flipped the mark color).
TEST(TraceInvariantTest, HotmapResetStartsEveryMarkPhase) {
  GcConfig Cfg = tracedConfig();
  Cfg.Hotness = true;
  Runtime RT(Cfg);
  CollectedTrace T = runMixedHotnessWorkload(RT, 5000, 3);

  std::map<uint64_t, uint64_t> CycleBeginNs, ResetNs, Stw1BeginNs;
  for (const TraceEvent &E : T.Events) {
    switch (E.Kind) {
    case TraceEventKind::CycleBegin:
      CycleBeginNs[E.Cycle] = E.TimeNs;
      break;
    case TraceEventKind::HotmapReset:
      EXPECT_EQ(ResetNs.count(E.Cycle), 0u)
          << "two hotmap resets in cycle " << E.Cycle;
      ResetNs[E.Cycle] = E.TimeNs;
      break;
    case TraceEventKind::PauseBegin:
      if (static_cast<GcPhase>(E.A) == GcPhase::Stw1)
        Stw1BeginNs[E.Cycle] = E.TimeNs;
      break;
    default:
      break;
    }
  }

  ASSERT_GE(CycleBeginNs.size(), 3u);
  for (const auto &[Cycle, BeginNs] : CycleBeginNs) {
    ASSERT_EQ(ResetNs.count(Cycle), 1u)
        << "cycle " << Cycle << " has no hotmap reset";
    ASSERT_EQ(Stw1BeginNs.count(Cycle), 1u);
    EXPECT_GE(ResetNs[Cycle], BeginNs);
    EXPECT_LE(ResetNs[Cycle], Stw1BeginNs[Cycle])
        << "cycle " << Cycle
        << ": hotmap reset after STW1 — marking saw stale hotness";
  }

  size_t HotFlags = 0;
  for (const TraceEvent &E : T.Events) {
    if (E.Kind != TraceEventKind::HotFlag)
      continue;
    ++HotFlags;
    // A hot flag carries the cycle current at emission; that cycle's
    // hotmap reset must already have happened.
    ASSERT_EQ(ResetNs.count(E.Cycle), 1u)
        << "hot flag in cycle " << E.Cycle << " with no reset";
    EXPECT_GE(E.TimeNs, ResetNs[E.Cycle])
        << "hot flag recorded into a hotmap about to be cleared";
  }
  EXPECT_GT(HotFlags, 1000u) << "workload produced almost no hot flags";
}

namespace {

/// True for a row EC weighed as a candidate small page (past the
/// unjudged, pinned and dead filters): the rows its WLB rule judged.
bool judgedSmall(const PageRecord &P) {
  return P.SizeClass == SnapSizeClass::Small &&
         (P.Verdict == EcVerdict::Selected ||
          P.Verdict == EcVerdict::RejectedThreshold ||
          P.Verdict == EcVerdict::RejectedBudget);
}

} // namespace

// §3.1.3 boundary cases of wlb = hot + cold * (1 - confidence):
// confidence 0.0 treats cold as live (wlb == live bytes, plain ZGC), and
// confidence 1.0 discounts cold entirely (wlb == hot bytes) — except on
// pages with no hot bytes at all, where there is nothing to excavate and
// the rule falls back to live bytes. The weights are read from the judged
// small rows of each cycle's snapshot.
TEST(TraceInvariantTest, WlbRespectsColdConfidenceBoundaries) {
  for (double Conf : {0.0, 1.0}) {
    SCOPED_TRACE("ColdConfidence=" + std::to_string(Conf));
    GcConfig Cfg = tracedConfig();
    Cfg.Hotness = true;
    Cfg.ColdConfidence = Conf;
    Cfg.SnapshotLogEnabled = true;
    Runtime RT(Cfg);
    CollectedTrace T = runMixedHotnessWorkload(RT, 5000, 3);

    for (const TraceEvent &E : T.Events)
      if (E.Kind == TraceEventKind::PhaseBegin &&
          static_cast<GcPhase>(E.A) == GcPhase::EcSelect) {
        // The selector must run with the configured knob values.
        EXPECT_DOUBLE_EQ(traceDoubleFromBits(E.B), Conf);
        EXPECT_EQ(E.C, 1u) << "hotness knob not observed by selector";
      }

    size_t Considered = 0, Mixed = 0;
    for (const CycleSnapshot &S : RT.collectSnapshots())
      for (const PageRecord &P : S.Pages) {
        if (!judgedSmall(P))
          continue;
        ++Considered;
        double Live = static_cast<double>(P.LiveBytes);
        double Hot = static_cast<double>(P.HotBytes);
        ASSERT_LE(Hot, Live);
        if (Hot > 0.0 && Hot < Live)
          ++Mixed;
        // The weight selection used is the row's WLB.
        EXPECT_EQ(P.Weight, P.Wlb);
        if (Conf == 0.0)
          EXPECT_DOUBLE_EQ(P.Weight, Live);
        else
          EXPECT_DOUBLE_EQ(P.Weight, Hot > 0.0 ? Hot : Live);
      }
    EXPECT_GT(Considered, 0u) << "EC selection considered no small page";
    EXPECT_GT(Mixed, 0u)
        << "no page with a hot/cold mix; boundary checks were vacuous";
  }
}

// A selected row's weight is the one selection used. Under TEMPERATURE
// that is the tier-weighted WLB, so a selected small page's weight must
// equal its row's tempered WLB, never the 1-cycle hot/cold WLB.
TEST(TraceInvariantTest, SelectedWeightMatchesConsideredUnderTemperature) {
  GcConfig Cfg = tracedConfig();
  Cfg.Hotness = true;
  Cfg.Temperature = true;
  Cfg.ColdConfidence = 0.5;
  Cfg.SnapshotLogEnabled = true;
  Runtime RT(Cfg);

  ClassId Cls = RT.registerClass("ti.T", 0, 24);
  auto M = RT.attachMutator();
  {
    Root Arr(*M), Tmp(*M);
    const uint32_t N = 40000;
    M->allocateRefArray(Arr, N);
    for (uint32_t I = 0; I < N; ++I) {
      M->allocate(Tmp, Cls);
      M->storeElem(Arr, I, Tmp);
    }
    // Drop two objects in three so the pages fall under the live
    // threshold, then age the survivors: every fourth one stays hot.
    for (uint32_t I = 0; I < N; ++I)
      if (I % 3)
        M->storeElemNull(Arr, I);
    for (int Round = 0; Round < 4; ++Round) {
      for (uint32_t I = 0; I < N; I += 12)
        M->loadElem(Arr, I, Tmp);
      M->requestGcAndWait();
    }
  }
  M.reset();

  size_t Selected = 0, Tempered = 0;
  for (const CycleSnapshot &S : RT.collectSnapshots())
    for (const PageRecord &P : S.Pages) {
      if (P.Verdict != EcVerdict::Selected ||
          P.SizeClass != SnapSizeClass::Small)
        continue;
      ++Selected;
      EXPECT_EQ(P.Weight, wlbTempFormula(P.LiveBytes, P.TempBytes, true,
                                         S.ColdConfidence))
          << "cycle " << S.Cycle << ": selected weight " << P.Weight
          << " != tempered WLB";
      EXPECT_EQ(P.Weight, P.Wlb);
      if (P.Weight != wlbFormula(P.LiveBytes, P.HotBytes, true,
                                 Cfg.ColdConfidence))
        ++Tempered;
    }
  EXPECT_GT(Selected, 0u) << "no small page was selected";
  EXPECT_GT(Tempered, 0u)
      << "tier weights never differed from the hot/cold WLB; vacuous";
}

// §3.2 / Fig. 3: under LAZYRELOCATE the RE phase is deferred to the start
// of the next cycle, so between CycleEnd(N) and CycleBegin(N+1) only
// mutators relocate. Every GC-thread relocation attributed to cycle N
// must either lie inside cycle N's STW3 pause (root healing: "by the end
// of STW3, all roots pointing into EC are relocated") or happen at/after
// CycleBegin(N+1) (the deferred drain).
TEST(TraceInvariantTest, LazyRelocateGcWorkOnlyAfterNextCycleBegins) {
  GcConfig Cfg = tracedConfig();
  Cfg.LazyRelocate = true;
  Cfg.RelocateAllSmallPages = true;
  Runtime RT(Cfg);

  ClassId Cls = RT.registerClass("ti.L", 0, 24);
  auto M = RT.attachMutator();
  {
    Root Arr(*M), Tmp(*M);
    const uint32_t N = 4000;
    M->allocateRefArray(Arr, N);
    for (uint32_t I = 0; I < N; ++I) {
      M->allocate(Tmp, Cls);
      M->storeElem(Arr, I, Tmp);
    }
    for (int Round = 0; Round < 3; ++Round) {
      M->requestGcAndWait();
      // Touch only half: the untouched-but-live half is guaranteed
      // GC-drain work at the next cycle's start.
      for (uint32_t I = 0; I < N / 2; ++I)
        M->loadElem(Arr, I, Tmp);
    }
  }
  M.reset();
  CollectedTrace T = RT.collectTrace();

  std::map<uint64_t, uint64_t> CycleBeginNs;
  std::vector<std::pair<uint64_t, uint64_t>> Stw3; // pause windows
  std::map<uint64_t, uint64_t> OpenStw3;
  for (const TraceEvent &E : T.Events) {
    if (E.Kind == TraceEventKind::CycleBegin)
      CycleBeginNs[E.Cycle] = E.TimeNs;
    else if (E.Kind == TraceEventKind::PauseBegin &&
             static_cast<GcPhase>(E.A) == GcPhase::Stw3)
      OpenStw3[E.Cycle] = E.TimeNs;
    else if (E.Kind == TraceEventKind::PauseEnd &&
             static_cast<GcPhase>(E.A) == GcPhase::Stw3) {
      ASSERT_EQ(OpenStw3.count(E.Cycle), 1u);
      Stw3.emplace_back(OpenStw3[E.Cycle], E.TimeNs);
    }
  }
  ASSERT_GE(CycleBeginNs.size(), 3u);
  ASSERT_GE(Stw3.size(), 3u);

  auto InStw3 = [&Stw3](uint64_t Ns) {
    for (const auto &[B, E] : Stw3)
      if (Ns >= B && Ns <= E)
        return true;
    return false;
  };

  size_t CheckedDrain = 0, Healing = 0, ByMutator = 0;
  for (const TraceEvent &E : T.Events) {
    if (E.Kind != TraceEventKind::Relocation)
      continue;
    if (!E.GcThread) {
      ++ByMutator;
      continue; // mutators may relocate any time after STW3
    }
    if (InStw3(E.TimeNs)) {
      ++Healing; // STW3 root healing is the sanctioned exception
      continue;
    }
    auto Next = CycleBeginNs.find(E.Cycle + 1);
    if (Next == CycleBeginNs.end())
      continue; // EC still pending at collection time; no window yet
    EXPECT_GE(E.TimeNs, Next->second)
        << "GC thread relocated during cycle " << E.Cycle
        << "'s mutator window";
    ++CheckedDrain;
  }
  EXPECT_GT(CheckedDrain, 0u) << "no deferred-drain relocation checked";
  EXPECT_GT(ByMutator, 0u) << "mutator window produced no relocations";
  EXPECT_GT(Healing, 0u) << "STW3 healed no roots";
}
