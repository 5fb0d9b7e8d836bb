//===- gc/EcSelector.cpp - Evacuation candidate selection --------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "gc/EcSelector.h"

#include <algorithm>

using namespace hcsgc;

double hcsgc::weightedLiveBytes(const Page &P, const GcConfig &Cfg) {
  // One shared formula (observe/HeapSnapshot.h) so the selector, the
  // snapshot capture and the offline replay agree bit-for-bit.
  return wlbFormula(P.liveBytes(), P.hotBytes(), Cfg.Hotness,
                    Cfg.ColdConfidence);
}

double hcsgc::reclamationDemand(size_t UsedBytes, size_t QuarantinedBytes,
                                size_t MaxHeapBytes,
                                double TriggerFraction) {
  // Target 90% of the trigger point so the next cycle starts with slack;
  // quarantined bytes are unreclaimed until the end of the next M/R and
  // must be covered by additional selection, not counted as freed.
  double Occupied = static_cast<double>(UsedBytes) +
                    static_cast<double>(QuarantinedBytes);
  double Target =
      TriggerFraction * static_cast<double>(MaxHeapBytes) * 0.9;
  return std::max(0.0, Occupied - Target);
}

namespace {
struct Candidate {
  CensusRow *Row;
  double Weight;
};
} // namespace

/// Sorts candidates ascending by weight and selects the maximal prefix
/// whose cumulative weight fits the budget (§2.2's constraint). On top of
/// the locality budget, reclamation demand is honored: like production
/// ZGC, the relocation set keeps growing (garbage-richest pages first)
/// until at least \p RequiredFree bytes would be reclaimed, so allocation
/// cannot outrun a fixed budget into OOM.
static void selectPrefix(std::vector<Candidate> &Cands, double Budget,
                         double RequiredFree, std::vector<Candidate> &Out) {
  std::sort(Cands.begin(), Cands.end(),
            [](const Candidate &A, const Candidate &B) {
              if (A.Weight != B.Weight)
                return A.Weight < B.Weight;
              return A.Row->Rec.PageBegin < B.Row->Rec.PageBegin;
            });
  double Sum = 0.0, Freed = 0.0;
  for (const Candidate &C : Cands) {
    bool WithinBudget = Sum + C.Weight <= Budget;
    bool NeedMemory = Freed < RequiredFree;
    if (!WithinBudget && !NeedMemory)
      break;
    Sum += C.Weight;
    // The census values (what the snapshot records), so the replay
    // performs identical arithmetic.
    Freed += static_cast<double>(C.Row->Rec.PageSize) -
             static_cast<double>(C.Row->Rec.LiveBytes);
    Out.push_back(C);
  }
}

EcSet hcsgc::selectEvacuationCandidates(GcHeap &Heap, ThreadContext &Ctx,
                                        CycleRecord &Rec) {
  const GcConfig &Cfg = Heap.config();
  const HeapGeometry &Geo = Cfg.Geometry;
  PageCensus &Census = Heap.census();
  // The census read the confidence once: the auto-tuner can move it
  // between cycles, and every weight this selection computes (and the
  // snapshot records) must use the same value so the offline replay is
  // bit-exact.
  const double EffCc = Census.ColdConfidence;
  EcSet Ec;
  Ec.Cycle = Census.Cycle;

  HCSGC_TRACE(Heap.traceSession(), Ctx.Trace, Ctx.IsGcThread,
              TraceEventKind::PhaseBegin, Ec.Cycle,
              static_cast<uint64_t>(GcPhase::EcSelect),
              traceBitsFromDouble(EffCc), Cfg.Hotness ? 1 : 0);

  std::vector<Candidate> Small, Medium;

  for (CensusRow &Row : Census.Rows) {
    PageRecord &R = Row.Rec;
    // Only pages allocated prior to STW1 have trustworthy liveness info
    // (§2.2: "all small pages that are allocated prior to STW1"); the
    // others keep the census's NotJudged verdict.
    if (R.AllocSeq >= Ec.Cycle)
      continue;
    // Every decision (and the snapshot record) below is a function of
    // the mark counters exactly as the census read them.
    const uint64_t Live = R.LiveBytes;
    const uint64_t Hot = R.HotBytes;
    Rec.LiveBytesMarked += Live;
    Rec.HotBytesMarked += Hot;

    // A pinned pre-STW1 page is an in-use bump-allocation target that
    // survived resetAllocTargets — today that is exactly the persistent
    // pretenure TLAB (SITEPROFILING): cold-routed sites trickle-fill a
    // warm/cold page across cycles, and a half-full cold page's low
    // live ratio would otherwise make it a bargain candidate, churning
    // the very bytes pretenuring placed. It is also excluded from the
    // dead-page fast path: its liveBytes() can read 0 while a mutator
    // is about to bump into it. The snapshot records the pin, and the
    // offline replay skips pinned pages the same way.
    if (R.Pinned) {
      R.Verdict = EcVerdict::PinnedSkipped;
      continue;
    }

    if (Live == 0) {
      // Nothing on the page is reachable; reclaim without relocation.
      // This covers large pages too ("we can decide whether that large
      // page should be kept or reclaimed right away", §2.2).
      R.Verdict = EcVerdict::DeadReclaimed;
      ++Rec.EmptyPagesReclaimed;
      Heap.allocator().releasePage(Row.P);
      Row.P = nullptr;
      continue;
    }

    switch (R.SizeClass) {
    case SnapSizeClass::Small: {
      // The census folded the tier bytes (all zeros without TEMPERATURE
      // or on a non-tracking page, which wlbTempFormula maps to plain
      // live bytes — same as the replay). One weight per page: the row
      // records the value the threshold and budget tests use.
      double W = Cfg.Temperature
                     ? wlbTempFormula(Live, R.TempBytes, Cfg.Hotness, EffCc)
                     : wlbFormula(Live, Hot, Cfg.Hotness, EffCc);
      if (Cfg.RelocateAllSmallPages) {
        // §3.1.1: crude-but-simple — all small pages, no sorting/budget.
        // Candidates start as RejectedBudget and flip to Selected below;
        // under RELOCATEALLSMALLPAGES everything flips. The snapshot
        // records weight 0: no decision read it.
        R.Verdict = EcVerdict::RejectedBudget;
        Small.push_back({&Row, W});
        break;
      }
      R.Weight = W;
      if (W / static_cast<double>(R.PageSize) <= Cfg.EvacLiveThreshold) {
        R.Verdict = EcVerdict::RejectedBudget;
        Small.push_back({&Row, W});
      } else {
        R.Verdict = EcVerdict::RejectedThreshold;
      }
      break;
    }
    case SnapSizeClass::Medium: {
      // Medium pages keep the original ZGC criteria (§3.4). No candidate
      // can be an in-use bump target: a live per-thread medium TLAB from
      // this cycle was filtered by allocSeq above, pre-cycle TLABs were
      // dropped at STW1, and the one target that survives the reset (the
      // pretenure TLAB, always a small page) was skipped by the pin
      // check above.
      double W = static_cast<double>(Live);
      R.Weight = W;
      if (W / static_cast<double>(R.PageSize) <= Cfg.EvacLiveThreshold) {
        R.Verdict = EcVerdict::RejectedBudget;
        Medium.push_back({&Row, W});
      } else {
        R.Verdict = EcVerdict::RejectedThreshold;
      }
      break;
    }
    case SnapSizeClass::Large:
      R.Weight = static_cast<double>(Live);
      R.Verdict = EcVerdict::LargeIgnored;
      break; // Live large pages are never relocated.
    }
  }

  // Reclamation demand: bring usage back under the trigger threshold
  // even if that exceeds the locality budget. Quarantined pages count as
  // occupied — evacuating into quarantine frees nothing until the end of
  // the next M/R, so demand must be met net of them.
  // The snapshot records the demand and budgets with the verdicts.
  Census.RequiredFree = reclamationDemand(
      Heap.allocator().usedBytes(), Heap.allocator().quarantinedBytes(),
      Heap.allocator().maxHeapBytes(), Cfg.TriggerFraction);

  std::vector<Candidate> Selected;
  if (Cfg.RelocateAllSmallPages) {
    Selected = std::move(Small);
  } else {
    Census.BudgetSmall = Cfg.EvacBudgetFraction *
                         static_cast<double>(Geo.SmallPageSize) *
                         Cfg.EvacBudgetPages;
    selectPrefix(Small, Census.BudgetSmall, Census.RequiredFree, Selected);
  }
  Rec.SmallPagesInEc = Selected.size();
  Census.BudgetMedium = Cfg.EvacBudgetFraction *
                        static_cast<double>(Geo.MediumPageSize) *
                        Cfg.EvacBudgetPages;
  selectPrefix(Medium, Census.BudgetMedium, 0.0, Selected);
  Rec.MediumPagesInEc = Selected.size() - Rec.SmallPagesInEc;

  // Install forwarding tables; mutators begin relocating these pages only
  // after STW3 flips the good color to R. The row keeps the page's
  // pre-EC state: the verdict says it entered the relocation set.
  for (const Candidate &C : Selected) {
    CensusRow &Row = *C.Row;
    Row.Rec.Verdict = EcVerdict::Selected;
    Ec.Pages.push_back(Row.P);
    Row.P->beginEvacuation(Heap.pageTable().base(),
                           Heap.pageTable().reservedBytes());
  }

  HCSGC_TRACE(Heap.traceSession(), Ctx.Trace, Ctx.IsGcThread,
              TraceEventKind::PhaseEnd, Ec.Cycle,
              static_cast<uint64_t>(GcPhase::EcSelect));
  return Ec;
}
