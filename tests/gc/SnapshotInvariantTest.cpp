//===- tests/gc/SnapshotInvariantTest.cpp -------------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Heap-snapshot (locality observatory) invariants:
//
//  - one capture per cycle, and every captured page record is internally
//    consistent (hot <= live <= used, WLB recomputes exactly from the
//    recorded inputs) and carries the verdict its inputs imply (pages
//    born this cycle unjudged, dead ones reclaimed, the rest weighed);
//  - the recorded EC decisions are bit-exact: re-running the §3.1.3
//    selection offline (replayEcSelection) from the recorded inputs
//    reproduces the collector's accept set byte-for-byte, at
//    COLDCONFIDENCE 0.0, 0.5 and 1.0;
//  - each line's rows agree with its record header: as many selected
//    rows as pages entered the relocation set, as many dead_reclaimed
//    rows as pages EC released;
//  - the census walk and the capture acquire zero allocator shard locks
//    (the walk rides the lock-free active-page registries);
//  - an unopenable snapshot log path stops the heap at construction.
//
//===----------------------------------------------------------------------===//

#include "runtime/Runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
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
  RT.driver().waitIdle();
  std::vector<CycleSnapshot> Log = RT.collectSnapshots();
  ASSERT_GE(Log.size(), 2u) << "no snapshots captured";
  // One capture per cycle, in cycle order.
  EXPECT_EQ(Log.size(), RT.gcStats().cycleCount());
  EXPECT_EQ(RT.metrics().counterValue("snapshot.captures"), Log.size());

  size_t Pages = 0, Selected = 0;
  uint64_t PrevCycle = 0;
  for (const CycleSnapshot &S : Log) {
    EXPECT_GT(S.Cycle, PrevCycle) << "cycles not in order or repeated";
    PrevCycle = S.Cycle;
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
      // The rows are the census as marking left it: EC's choice shows
      // only in the verdict, never in the recorded state.
      EXPECT_EQ(P.State, SnapPageState::Active);
      // The verdict follows from the inputs: born this cycle means not
      // judged; dead means reclaimed; a small candidate was weighed by
      // its WLB.
      if (P.AllocSeq >= S.Cycle) {
        EXPECT_EQ(P.Verdict, EcVerdict::NotJudged);
        continue;
      }
      if (P.LiveBytes == 0 && !P.Pinned) {
        EXPECT_EQ(P.Verdict, EcVerdict::DeadReclaimed);
        continue;
      }
      EXPECT_NE(P.Verdict, EcVerdict::NotJudged);
      EXPECT_NE(P.Verdict, EcVerdict::DeadReclaimed);
      if (P.SizeClass == SnapSizeClass::Small && !P.Pinned) {
        EXPECT_EQ(P.Weight, P.Wlb);
      }
      Selected += P.Verdict == EcVerdict::Selected;
    }
  }
  EXPECT_GT(Pages, 0u);
  EXPECT_GT(Selected, 0u);
}

TEST(SnapshotInvariantTest, EcReplayIsByteExactAcrossConfidences) {
  for (double Conf : {0.0, 0.5, 1.0}) {
    SCOPED_TRACE("ColdConfidence=" + std::to_string(Conf));
    Runtime RT(snapConfig(Conf));
    runMixedWorkload(RT);
    std::vector<CycleSnapshot> Log = RT.collectSnapshots();

    size_t Judged = 0, SelectedTotal = 0;
    for (const CycleSnapshot &S : Log) {
      ++Judged;
      EXPECT_EQ(S.ColdConfidence, Conf);
      ASSERT_FALSE(S.Pages.empty());

      // The recorded weight of every small candidate must be exactly
      // the shared formula applied to the recorded inputs.
      for (const PageRecord &P : S.Pages) {
        bool IsCandidateVerdict =
            P.Verdict == EcVerdict::Selected ||
            P.Verdict == EcVerdict::RejectedThreshold ||
            P.Verdict == EcVerdict::RejectedBudget;
        if (P.SizeClass == SnapSizeClass::Small && IsCandidateVerdict &&
            !S.RelocateAll) {
          EXPECT_EQ(P.Weight, wlbFormula(P.LiveBytes, P.HotBytes,
                                         S.Hotness != 0,
                                         S.ColdConfidence));
        }
      }

      // Offline replay must reproduce the collector's accept set
      // byte-for-byte.
      std::vector<uint64_t> Replayed = replayEcSelection(S);
      std::vector<uint64_t> Recorded = selectedPages(S);
      EXPECT_EQ(Replayed, Recorded)
          << "cycle " << S.Cycle << ": offline replay diverged from the "
          << "live selector";
      SelectedTotal += Recorded.size();
    }
    EXPECT_GE(Judged, 3u);
    EXPECT_GT(SelectedTotal, 0u)
        << "selection accepted nothing; replay check was vacuous";
  }
}

TEST(SnapshotInvariantTest, AuditedSelectionsMatchTheRecord) {
  Runtime RT(snapConfig(0.5));
  runMixedWorkload(RT);
  std::vector<CycleSnapshot> Log = RT.collectSnapshots();

  // Each line's rows and its record header describe the same selection:
  // the Selected rows are exactly the pages that entered the relocation
  // set, and the dead_reclaimed rows the pages EC released.
  size_t Selected = 0;
  for (const CycleSnapshot &S : Log) {
    SCOPED_TRACE("cycle " + std::to_string(S.Cycle));
    EXPECT_EQ(S.Record.Cycle, S.Cycle);
    size_t Dead = std::count_if(
        S.Pages.begin(), S.Pages.end(), [](const PageRecord &P) {
          return P.Verdict == EcVerdict::DeadReclaimed;
        });
    EXPECT_EQ(selectedPages(S).size(),
              S.Record.SmallPagesInEc + S.Record.MediumPagesInEc);
    EXPECT_EQ(Dead, S.Record.EmptyPagesReclaimed);
    Selected += selectedPages(S).size();
  }
  EXPECT_GT(Selected, 0u);
}

TEST(SnapshotInvariantTest, CaptureAcquiresNoShardLocks) {
  Runtime RT(snapConfig(0.5));
  runMixedWorkload(RT);
  RT.driver().waitIdle();

  // The heap is idle: any shard-lock acquisition between the two reads
  // below can only come from the census walk or the capture itself.
  uint64_t Before =
      RT.metrics().counterValue("alloc.shard.lock_acquisitions");
  CycleRecord Rec;
  Rec.Cycle = RT.heap().currentCycle();
  RT.heap().takeCensus(Rec);
  RT.heap().captureSnapshot();
  uint64_t After =
      RT.metrics().counterValue("alloc.shard.lock_acquisitions");
  EXPECT_EQ(Before, After)
      << "census or snapshot capture took an allocator shard lock";

  // And the capture actually recorded pages: commit it with its cycle's
  // record, as the driver does.
  RT.heap().snapshotter().commit(Rec);
  std::vector<CycleSnapshot> Log = RT.collectSnapshots();
  ASSERT_FALSE(Log.empty());
  EXPECT_EQ(Log.back().Cycle, Rec.Cycle);
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
  CycleRecord Rec;
  Rec.Cycle = RT.heap().currentCycle();
  RT.heap().takeCensus(Rec);
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
  // (the page rows carry the per-tier inputs the live selector consumed).
  GcConfig Cfg = snapConfig(1.0);
  Cfg.Temperature = true;
  Cfg.ColdPage = true;
  Runtime RT(Cfg);
  runMixedWorkload(RT);
  std::vector<CycleSnapshot> Log = RT.collectSnapshots();
  ASSERT_GE(Log.size(), 2u);

  size_t TieredPages = 0, Judged = 0, SelectedTotal = 0;
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
    ++Judged;
    for (const PageRecord &P : S.Pages) {
      bool IsCandidateVerdict = P.Verdict == EcVerdict::Selected ||
                                P.Verdict == EcVerdict::RejectedThreshold ||
                                P.Verdict == EcVerdict::RejectedBudget;
      if (P.SizeClass == SnapSizeClass::Small && IsCandidateVerdict &&
          !S.RelocateAll) {
        EXPECT_EQ(P.Weight, wlbTempFormula(P.LiveBytes, P.TempBytes,
                                           S.Hotness != 0,
                                           S.ColdConfidence));
      }
    }
    std::vector<uint64_t> Recorded = selectedPages(S);
    EXPECT_EQ(replayEcSelection(S), Recorded)
        << "cycle " << S.Cycle << ": temperature replay diverged";
    SelectedTotal += Recorded.size();
  }
  EXPECT_GT(TieredPages, 0u) << "accumulation never saw a settled page";
  EXPECT_GE(Judged, 3u);
  EXPECT_GT(SelectedTotal, 0u) << "replay check was vacuous";
}

TEST(SnapshotInvariantTest, UnopenableLogPathIsFatal) {
  // A run asked to stream its snapshots must not silently write none.
  GcConfig Cfg = snapConfig(0.5);
  Cfg.SnapshotLogPath = "/nonexistent-snapshot-dir/snap.jsonl";
  EXPECT_DEATH(GcHeap Heap(Cfg),
               "cannot open snapshot log /nonexistent-snapshot-dir/"
               "snap.jsonl");
}
