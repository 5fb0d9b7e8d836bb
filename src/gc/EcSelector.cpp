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
                         double RequiredFree, std::vector<Candidate> &Out,
                         uint64_t &Count) {
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
    // The census values (what the audit records), so the replay performs
    // identical arithmetic.
    Freed += static_cast<double>(C.Row->Rec.PageSize) -
             static_cast<double>(C.Row->Rec.LiveBytes);
    Out.push_back(C);
    ++Count;
  }
}

/// \returns the audit record of a row EC selection judged: the inputs it
/// read and its verdict. Tier bytes are an input only for small
/// candidates (not pinned, not dead) under TEMPERATURE.
static EcAuditEntry auditEntryOf(const CensusRow &Row, bool Temperature) {
  const PageRecord &R = Row.Rec;
  EcAuditEntry E;
  E.PageBegin = R.PageBegin;
  E.PageSize = R.PageSize;
  E.LiveBytes = R.LiveBytes;
  E.HotBytes = R.HotBytes;
  E.Weight = Row.Weight;
  if (Temperature && R.SizeClass == SnapSizeClass::Small && !R.Pinned &&
      R.LiveBytes > 0)
    for (unsigned T = 0; T < SnapTempTiers; ++T)
      E.TempBytes[T] = R.TempBytes[T];
  E.SizeClass = R.SizeClass;
  E.Pinned = R.Pinned;
  E.Verdict = Row.Verdict;
  return E;
}

EcSet hcsgc::selectEvacuationCandidates(GcHeap &Heap, ThreadContext &Ctx,
                                        EcAudit *Audit) {
  const GcConfig &Cfg = Heap.config();
  const HeapGeometry &Geo = Cfg.Geometry;
  PageCensus &Census = Heap.census();
  // The census read the confidence once: the auto-tuner can move it
  // between cycles, and every weight this selection computes (and the
  // audit records) must use the same value so the offline replay is
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
    const PageRecord &R = Row.Rec;
    // Only pages allocated prior to STW1 have trustworthy liveness info
    // (§2.2: "all small pages that are allocated prior to STW1").
    if (R.AllocSeq >= Ec.Cycle)
      continue;
    // Every decision (and the audit record) below is a function of the
    // mark counters exactly as the census read them.
    const uint64_t Live = R.LiveBytes;
    const uint64_t Hot = R.HotBytes;
    Ec.LiveBytesTotal += Live;
    Ec.HotBytesTotal += Hot;
    Row.Weight = 0.0;

    // A pinned pre-STW1 page is an in-use bump-allocation target that
    // survived resetAllocTargets — today that is exactly the persistent
    // pretenure TLAB (SITEPROFILING): cold-routed sites trickle-fill a
    // warm/cold page across cycles, and a half-full cold page's low
    // live ratio would otherwise make it a bargain candidate, churning
    // the very bytes pretenuring placed. It is also excluded from the
    // dead-page fast path: its liveBytes() can read 0 while a mutator
    // is about to bump into it. The audit records the pin, and the
    // offline replay skips pinned entries the same way.
    if (R.Pinned) {
      Row.Verdict = EcVerdict::PinnedSkipped;
      continue;
    }

    if (Live == 0) {
      // Nothing on the page is reachable; reclaim without relocation.
      // This covers large pages too ("we can decide whether that large
      // page should be kept or reclaimed right away", §2.2).
      Row.Verdict = EcVerdict::DeadReclaimed;
      ++Ec.EmptyReclaimed;
      HCSGC_TRACE(Heap.traceSession(), Ctx.Trace, Ctx.IsGcThread,
                  TraceEventKind::EcPageReclaimed, Ec.Cycle, R.PageBegin,
                  R.PageSize);
      Heap.allocator().releasePage(Row.P);
      Row.P = nullptr;
      continue;
    }

    switch (R.SizeClass) {
    case SnapSizeClass::Small: {
      // The census folded the tier bytes (all zeros without TEMPERATURE
      // or on a non-tracking page, which wlbTempFormula maps to plain
      // live bytes — same as the replay). One weight per page: the
      // considered and selected events carry the same value the
      // threshold and budget tests use.
      double W = Cfg.Temperature
                     ? wlbTempFormula(Live, R.TempBytes, Cfg.Hotness, EffCc)
                     : wlbFormula(Live, Hot, Cfg.Hotness, EffCc);
      HCSGC_TRACE(Heap.traceSession(), Ctx.Trace, Ctx.IsGcThread,
                  TraceEventKind::EcPageConsidered, Ec.Cycle, R.PageBegin,
                  Live, Hot, traceBitsFromDouble(W));
      if (Cfg.RelocateAllSmallPages) {
        // §3.1.1: crude-but-simple — all small pages, no sorting/budget.
        // Candidates start as RejectedBudget and flip to Selected below;
        // under RELOCATEALLSMALLPAGES everything flips. The audit records
        // weight 0: no decision read it.
        Row.Verdict = EcVerdict::RejectedBudget;
        Small.push_back({&Row, W});
        break;
      }
      Row.Weight = W;
      if (W / static_cast<double>(R.PageSize) <= Cfg.EvacLiveThreshold) {
        Row.Verdict = EcVerdict::RejectedBudget;
        Small.push_back({&Row, W});
      } else {
        Row.Verdict = EcVerdict::RejectedThreshold;
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
      Row.Weight = W;
      if (W / static_cast<double>(R.PageSize) <= Cfg.EvacLiveThreshold) {
        Row.Verdict = EcVerdict::RejectedBudget;
        Medium.push_back({&Row, W});
      } else {
        Row.Verdict = EcVerdict::RejectedThreshold;
      }
      break;
    }
    case SnapSizeClass::Large:
      Row.Weight = static_cast<double>(Live);
      Row.Verdict = EcVerdict::LargeIgnored;
      break; // Live large pages are never relocated.
    }
  }

  // Reclamation demand: bring usage back under the trigger threshold
  // even if that exceeds the locality budget. Quarantined pages count as
  // occupied — evacuating into quarantine frees nothing until the end of
  // the next M/R, so demand must be met net of them.
  double RequiredFree = reclamationDemand(
      Heap.allocator().usedBytes(), Heap.allocator().quarantinedBytes(),
      Heap.allocator().maxHeapBytes(), Cfg.TriggerFraction);

  std::vector<Candidate> Selected;
  double SmallBudget = 0.0;
  if (Cfg.RelocateAllSmallPages) {
    Ec.SmallCount = Small.size();
    Selected = std::move(Small);
  } else {
    SmallBudget = Cfg.EvacBudgetFraction *
                  static_cast<double>(Geo.SmallPageSize) *
                  Cfg.EvacBudgetPages;
    selectPrefix(Small, SmallBudget, RequiredFree, Selected,
                 Ec.SmallCount);
  }
  double MediumBudget = Cfg.EvacBudgetFraction *
                        static_cast<double>(Geo.MediumPageSize) *
                        Cfg.EvacBudgetPages;
  selectPrefix(Medium, MediumBudget, 0.0, Selected, Ec.MediumCount);

  // Install forwarding tables; mutators begin relocating these pages only
  // after STW3 flips the good color to R. The row takes the page's new
  // state, as the AfterEc snapshot records it.
  for (const Candidate &C : Selected) {
    CensusRow &Row = *C.Row;
    Row.Verdict = EcVerdict::Selected;
    Row.Rec.State = SnapPageState::RelocSource;
    Row.Rec.EcSelected = 1;
    Row.Rec.RelocOutBytesGc = Row.Rec.RelocOutBytesMutator = 0;
    Ec.Pages.push_back(Row.P);
    HCSGC_TRACE(Heap.traceSession(), Ctx.Trace, Ctx.IsGcThread,
                TraceEventKind::EcPageSelected, Ec.Cycle, Row.Rec.PageBegin,
                Row.Rec.LiveBytes, Row.Rec.HotBytes,
                traceBitsFromDouble(C.Weight));
    Row.P->beginEvacuation();
  }

  if (Audit) {
    Audit->Cycle = Ec.Cycle;
    Audit->ColdConfidence = EffCc;
    Audit->EvacLiveThreshold = Cfg.EvacLiveThreshold;
    Audit->BudgetSmall = SmallBudget;
    Audit->BudgetMedium = MediumBudget;
    Audit->RequiredFree = RequiredFree;
    Audit->Hotness = Cfg.Hotness ? 1 : 0;
    Audit->RelocateAll = Cfg.RelocateAllSmallPages ? 1 : 0;
    Audit->Temperature = Cfg.Temperature ? 1 : 0;
    Audit->Entries.clear();
    for (const CensusRow &Row : Census.Rows)
      if (Row.Rec.AllocSeq < Ec.Cycle)
        Audit->Entries.push_back(auditEntryOf(Row, Cfg.Temperature));
  }

  HCSGC_TRACE(Heap.traceSession(), Ctx.Trace, Ctx.IsGcThread,
              TraceEventKind::PhaseEnd, Ec.Cycle,
              static_cast<uint64_t>(GcPhase::EcSelect));
  return Ec;
}
