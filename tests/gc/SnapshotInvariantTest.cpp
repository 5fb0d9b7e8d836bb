//===- tests/gc/SnapshotInvariantTest.cpp -------------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Heap-snapshot (locality observatory) invariants:
//
//  - every captured page record is internally consistent (hot <= live <=
//    used, WLB recomputes exactly from the recorded inputs), and a
//    cycle's AfterEc capture is its AfterMark census with EC's verdicts
//    applied;
//  - the EC decision audit is bit-exact: re-running the §3.1.3 selection
//    offline (replayEcSelection) from the audited inputs reproduces the
//    collector's recorded accept set byte-for-byte, at COLDCONFIDENCE
//    0.0, 0.5 and 1.0;
//  - every page the audit says was selected appears as an
//    ec_page_selected trace event of the same cycle (it actually entered
//    a relocation set rather than being silently dropped);
//  - the census walk and the capture acquire zero allocator shard locks
//    (the walk rides the lock-free active-page registries).
//
//===----------------------------------------------------------------------===//

#include "runtime/Runtime.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

using namespace hcsgc;

namespace {

GcConfig snapConfig(double ColdConf) {
  GcConfig Cfg;
  Cfg.Geometry.SmallPageSize = 64 * 1024;
  Cfg.Geometry.MediumPageSize = 1024 * 1024;
  Cfg.MaxHeapBytes = 32u << 20;
  Cfg.Hotness = true;
  Cfg.ColdConfidence = ColdConf;
  Cfg.SnapshotLogEnabled = true;
  Cfg.TraceEnabled = true;
  Cfg.TraceBufferEvents = size_t(1) << 17;
  return Cfg;
}

/// Array of leaf objects, three GC rounds touching every other element in
/// between: pages carry a hot/cold mix so WLB actually differs from live
/// bytes at non-zero confidence.
void runMixedWorkload(Runtime &RT) {
  ClassId Cls = RT.registerClass("si.Obj", 0, 24);
  auto M = RT.attachMutator();
  {
    Root Arr(*M), Tmp(*M);
    const uint32_t N = 5000;
    M->allocateRefArray(Arr, N);
    for (uint32_t I = 0; I < N; ++I) {
      M->allocate(Tmp, Cls);
      M->storeElem(Arr, I, Tmp);
    }
    for (int Round = 0; Round < 3; ++Round) {
      M->requestGcAndWait();
      for (uint32_t I = 0; I < N; I += 2)
        M->loadElem(Arr, I, Tmp);
    }
  }
  M.reset();
}

} // namespace

TEST(SnapshotInvariantTest, PageRecordsAreConsistent) {
  Runtime RT(snapConfig(0.5));
  runMixedWorkload(RT);
  std::vector<CycleSnapshot> Log = RT.collectSnapshots();
  ASSERT_GE(Log.size(), 2u) << "no snapshots captured";

  size_t Pages = 0;
  for (const CycleSnapshot &S : Log) {
    // Two captures per cycle, in order, sorted pages.
    uint64_t PrevBegin = 0;
    for (const PageRecord &P : S.Pages) {
      ++Pages;
      EXPECT_GT(P.PageBegin, PrevBegin) << "pages not sorted/unique";
      PrevBegin = P.PageBegin;
      EXPECT_LE(P.HotBytes, P.LiveBytes) << "hot bytes exceed live";
      EXPECT_LE(P.LiveBytes, P.UsedBytes) << "live bytes exceed used";
      EXPECT_LE(P.UsedBytes, P.PageSize);
      // The recorded WLB must recompute exactly from the recorded
      // inputs under the capture's confidence.
      EXPECT_EQ(P.Wlb, wlbFormula(P.LiveBytes, P.HotBytes,
                                  S.Hotness != 0, S.ColdConfidence));
      if (P.EcSelected)
        EXPECT_EQ(P.State, SnapPageState::RelocSource);
    }
  }
  EXPECT_GT(Pages, 0u);

  // Both capture points appear, and AfterMark precedes AfterEc within a
  // cycle (the log is chronological).
  std::map<uint64_t, std::vector<const CycleSnapshot *>> ByCycle;
  for (const CycleSnapshot &S : Log)
    ByCycle[S.Cycle].push_back(&S);
  for (const auto &[Cycle, Caps] : ByCycle) {
    ASSERT_EQ(Caps.size(), 2u) << "cycle " << Cycle;
    EXPECT_EQ(Caps[0]->Point, SnapshotPoint::AfterMark);
    EXPECT_EQ(Caps[1]->Point, SnapshotPoint::AfterEc);
    // Both come from one post-mark census: AfterEc is AfterMark minus the
    // pages EC reclaimed as dead, with the selected ones RelocSource.
    std::map<uint64_t, EcVerdict> Verdicts;
    for (const EcAuditEntry &E : Caps[1]->Audit.Entries)
      Verdicts[E.PageBegin] = E.Verdict;
    std::vector<const PageRecord *> Kept;
    for (const PageRecord &P : Caps[0]->Pages) {
      auto V = Verdicts.find(P.PageBegin);
      if (V == Verdicts.end() || V->second != EcVerdict::DeadReclaimed)
        Kept.push_back(&P);
    }
    ASSERT_EQ(Kept.size(), Caps[1]->Pages.size()) << "cycle " << Cycle;
    for (size_t I = 0; I < Kept.size(); ++I) {
      const PageRecord &M = *Kept[I], &E = Caps[1]->Pages[I];
      auto V = Verdicts.find(M.PageBegin);
      bool Selected = V != Verdicts.end() && V->second == EcVerdict::Selected;
      EXPECT_EQ(E.PageBegin, M.PageBegin);
      EXPECT_EQ(E.UsedBytes, M.UsedBytes);
      EXPECT_EQ(E.LiveBytes, M.LiveBytes);
      EXPECT_EQ(E.Wlb, M.Wlb);
      EXPECT_EQ(E.EcSelected, Selected ? 1 : 0);
      EXPECT_EQ(E.State, Selected ? SnapPageState::RelocSource : M.State);
    }
  }
}

TEST(SnapshotInvariantTest, EcReplayIsByteExactAcrossConfidences) {
  for (double Conf : {0.0, 0.5, 1.0}) {
    SCOPED_TRACE("ColdConfidence=" + std::to_string(Conf));
    Runtime RT(snapConfig(Conf));
    runMixedWorkload(RT);
    std::vector<CycleSnapshot> Log = RT.collectSnapshots();

    size_t Audited = 0, SelectedTotal = 0;
    for (const CycleSnapshot &S : Log) {
      if (S.Point != SnapshotPoint::AfterEc)
        continue;
      ASSERT_TRUE(S.HasAudit) << "AfterEc capture without audit";
      ++Audited;
      const EcAudit &A = S.Audit;
      EXPECT_EQ(A.Cycle, S.Cycle);
      EXPECT_EQ(A.ColdConfidence, Conf);
      ASSERT_FALSE(A.Entries.empty());

      // The recorded weight of every small candidate must be exactly
      // the shared formula applied to the recorded inputs.
      for (const EcAuditEntry &E : A.Entries) {
        EXPECT_LE(E.HotBytes, E.LiveBytes);
        bool IsCandidateVerdict =
            E.Verdict == EcVerdict::Selected ||
            E.Verdict == EcVerdict::RejectedThreshold ||
            E.Verdict == EcVerdict::RejectedBudget;
        if (E.SizeClass == SnapSizeClass::Small && IsCandidateVerdict &&
            !A.RelocateAll)
          EXPECT_EQ(E.Weight, wlbFormula(E.LiveBytes, E.HotBytes,
                                         A.Hotness != 0,
                                         A.ColdConfidence));
      }

      // Offline replay must reproduce the collector's accept set
      // byte-for-byte.
      std::vector<uint64_t> Replayed = replayEcSelection(A);
      std::vector<uint64_t> Recorded = auditSelectedPages(A);
      EXPECT_EQ(Replayed, Recorded)
          << "cycle " << S.Cycle << ": offline replay diverged from the "
          << "live selector";
      SelectedTotal += Recorded.size();

      // The snapshot's EC-selected pages and the audit agree.
      std::set<uint64_t> SnapSelected;
      for (const PageRecord &P : S.Pages)
        if (P.EcSelected)
          SnapSelected.insert(P.PageBegin);
      for (uint64_t B : Recorded)
        EXPECT_TRUE(SnapSelected.count(B))
            << "audit-selected page 0x" << std::hex << B
            << " not RelocSource in the snapshot";
    }
    EXPECT_GE(Audited, 3u);
    EXPECT_GT(SelectedTotal, 0u)
        << "selection accepted nothing; replay check was vacuous";
  }
}

TEST(SnapshotInvariantTest, AuditedSelectionsAppearInTrace) {
  Runtime RT(snapConfig(0.5));
  runMixedWorkload(RT);
  CollectedTrace T = RT.collectTrace();
  std::vector<CycleSnapshot> Log = RT.collectSnapshots();

  // (cycle, page begin) of every ec_page_selected trace event.
  std::set<std::pair<uint64_t, uint64_t>> Traced;
  for (const TraceEvent &E : T.Events)
    if (E.Kind == TraceEventKind::EcPageSelected)
      Traced.insert({E.Cycle, E.A});

  size_t Checked = 0;
  for (const CycleSnapshot &S : Log) {
    if (!S.HasAudit)
      continue;
    for (const EcAuditEntry &E : S.Audit.Entries) {
      if (E.Verdict != EcVerdict::Selected)
        continue;
      ++Checked;
      EXPECT_TRUE(Traced.count({S.Audit.Cycle, E.PageBegin}))
          << "cycle " << S.Audit.Cycle << " selected page 0x" << std::hex
          << E.PageBegin << " never traced as selected";
    }
  }
  EXPECT_GT(Checked, 0u);
}

TEST(SnapshotInvariantTest, CaptureAcquiresNoShardLocks) {
  Runtime RT(snapConfig(0.5));
  runMixedWorkload(RT);
  RT.driver().waitIdle();

  // The heap is idle: any shard-lock acquisition between the two reads
  // below can only come from the census walk or the capture itself.
  uint64_t Before =
      RT.metrics().counterValue("alloc.shard.lock_acquisitions");
  RT.heap().takeCensus(RT.heap().currentCycle());
  RT.heap().captureSnapshot(SnapshotPoint::AfterMark, nullptr);
  uint64_t After =
      RT.metrics().counterValue("alloc.shard.lock_acquisitions");
  EXPECT_EQ(Before, After)
      << "census or snapshot capture took an allocator shard lock";

  // And the capture actually recorded pages.
  std::vector<CycleSnapshot> Log = RT.collectSnapshots();
  ASSERT_FALSE(Log.empty());
  EXPECT_FALSE(Log.back().Pages.empty());
  EXPECT_GT(RT.metrics().counterValue("snapshot.captures"), 0u);
  EXPECT_GT(RT.metrics().counterValue("snapshot.pages_recorded"), 0u);
}

TEST(SnapshotInvariantTest, CensusSamplesSideTableBytesOncePerCycle) {
  // heap.side_table_bytes rides the census: one sample per cycle, equal
  // to the side metadata of the pages that census saw.
  Runtime RT(snapConfig(0.5));
  runMixedWorkload(RT);
  RT.driver().waitIdle();
  const Histogram *H = RT.metrics().findHistogram("heap.side_table_bytes");
  ASSERT_NE(H, nullptr);
  EXPECT_EQ(H->count(), RT.gcStats().cycleCount());

  // On the idle heap no page is released between the walk and the
  // reads below.
  uint64_t SumBefore = H->sum();
  RT.heap().takeCensus(RT.heap().currentCycle());
  uint64_t Expected = 0;
  for (const CensusRow &Row : RT.heap().census().Rows) {
    // No temperature plane: livemap + hotmap, 2 bits per granule.
    EXPECT_EQ(Row.P->sideTableBytes(), Row.Rec.PageSize / 32);
    Expected += Row.P->sideTableBytes();
  }
  EXPECT_GT(Expected, 0u);
  EXPECT_EQ(H->sum() - SumBefore, Expected);
}

TEST(SnapshotInvariantTest, TemperatureCapturesRecomputeAndReplay) {
  // With TEMPERATURE on, every small-page WLB in the log must recompute
  // exactly through the generalized per-tier formula, the recorded tier
  // bytes must partition the live bytes on every page the post-mark
  // accumulation covered, and the offline EC replay must stay bit-exact
  // (the audit carries the per-tier inputs the live selector consumed).
  GcConfig Cfg = snapConfig(1.0);
  Cfg.Temperature = true;
  Cfg.ColdPage = true;
  Runtime RT(Cfg);
  runMixedWorkload(RT);
  std::vector<CycleSnapshot> Log = RT.collectSnapshots();
  ASSERT_GE(Log.size(), 2u);

  size_t TieredPages = 0, Audited = 0, SelectedTotal = 0;
  for (const CycleSnapshot &S : Log) {
    EXPECT_EQ(S.Temperature, 1);
    for (const PageRecord &P : S.Pages) {
      uint64_t TierSum = 0;
      for (unsigned T = 0; T < SnapTempTiers; ++T)
        TierSum += P.TempBytes[T];
      if (P.SizeClass == SnapSizeClass::Small) {
        EXPECT_EQ(P.Wlb, wlbTempFormula(P.LiveBytes, P.TempBytes,
                                        S.Hotness != 0, S.ColdConfidence));
        if (P.AllocSeq < S.Cycle) {
          // Covered by this cycle's accumulation walk: the four tiers
          // partition the live bytes exactly. (Pages born during the
          // cycle are recorded zeroed and fall back to WLB == live.)
          EXPECT_EQ(TierSum, P.LiveBytes)
              << "cycle " << S.Cycle << " page 0x" << std::hex
              << P.PageBegin;
          if (TierSum > 0)
            ++TieredPages;
        }
      } else {
        // Medium pages carry no temperature plane.
        EXPECT_EQ(TierSum, 0u);
        EXPECT_EQ(P.Wlb, wlbFormula(P.LiveBytes, P.HotBytes,
                                    S.Hotness != 0, S.ColdConfidence));
      }
    }
    if (S.Point != SnapshotPoint::AfterEc)
      continue;
    ASSERT_TRUE(S.HasAudit);
    ++Audited;
    EXPECT_EQ(S.Audit.Temperature, 1);
    for (const EcAuditEntry &E : S.Audit.Entries) {
      bool IsCandidateVerdict = E.Verdict == EcVerdict::Selected ||
                                E.Verdict == EcVerdict::RejectedThreshold ||
                                E.Verdict == EcVerdict::RejectedBudget;
      if (E.SizeClass == SnapSizeClass::Small && IsCandidateVerdict &&
          !S.Audit.RelocateAll) {
        EXPECT_EQ(E.Weight,
                  wlbTempFormula(E.LiveBytes, E.TempBytes,
                                 S.Audit.Hotness != 0,
                                 S.Audit.ColdConfidence));
      }
    }
    std::vector<uint64_t> Recorded = auditSelectedPages(S.Audit);
    EXPECT_EQ(replayEcSelection(S.Audit), Recorded)
        << "cycle " << S.Cycle << ": temperature replay diverged";
    SelectedTotal += Recorded.size();
  }
  EXPECT_GT(TieredPages, 0u) << "accumulation never saw a settled page";
  EXPECT_GE(Audited, 3u);
  EXPECT_GT(SelectedTotal, 0u) << "replay check was vacuous";
}
