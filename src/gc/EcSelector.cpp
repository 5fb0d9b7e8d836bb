//===- gc/EcSelector.cpp - Evacuation candidate selection --------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "gc/EcSelector.h"

#include <algorithm>
#include <unordered_map>

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
  Page *P;
  double Weight;
  uint64_t Live; ///< liveBytes() as read during the walk (audit-stable).
};

SnapSizeClass snapClassOf(PageSizeClass C) {
  switch (C) {
  case PageSizeClass::Small:
    return SnapSizeClass::Small;
  case PageSizeClass::Medium:
    return SnapSizeClass::Medium;
  case PageSizeClass::Large:
    return SnapSizeClass::Large;
  }
  return SnapSizeClass::Large;
}
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
              return A.P->begin() < B.P->begin();
            });
  double Sum = 0.0, Freed = 0.0;
  for (const Candidate &C : Cands) {
    bool WithinBudget = Sum + C.Weight <= Budget;
    bool NeedMemory = Freed < RequiredFree;
    if (!WithinBudget && !NeedMemory)
      break;
    Sum += C.Weight;
    // C.Live (not a re-read of liveBytes()) so the audited replay, which
    // only has the recorded value, performs identical arithmetic.
    Freed += static_cast<double>(C.P->size()) -
             static_cast<double>(C.Live);
    Out.push_back(C);
    ++Count;
  }
}

EcSet hcsgc::selectEvacuationCandidates(GcHeap &Heap, ThreadContext &Ctx,
                                        EcAudit *Audit) {
  const GcConfig &Cfg = Heap.config();
  const HeapGeometry &Geo = Cfg.Geometry;
  // Read the confidence once: the auto-tuner can move it between cycles,
  // and every weight this selection computes (and the audit records) must
  // use the same value so the offline replay is bit-exact.
  const double EffCc = Heap.effectiveColdConfidence();
  EcSet Ec;
  Ec.Cycle = Heap.currentCycle();

  HCSGC_TRACE(Heap.traceSession(), Ctx.Trace, Ctx.IsGcThread,
              TraceEventKind::PhaseBegin, Ec.Cycle,
              static_cast<uint64_t>(GcPhase::EcSelect),
              traceBitsFromDouble(EffCc), Cfg.Hotness ? 1 : 0);

  if (Audit) {
    Audit->Cycle = Ec.Cycle;
    Audit->ColdConfidence = EffCc;
    Audit->EvacLiveThreshold = Cfg.EvacLiveThreshold;
    Audit->Hotness = Cfg.Hotness ? 1 : 0;
    Audit->RelocateAll = Cfg.RelocateAllSmallPages ? 1 : 0;
    Audit->Temperature = Cfg.Temperature ? 1 : 0;
    Audit->Entries.clear();
  }
  // Page begin -> index into Audit->Entries, to flip the verdict of the
  // candidates that make it through selectPrefix to Selected at the end.
  std::unordered_map<uint64_t, size_t> AuditIndex;
  auto note = [&](const Page &P, uint64_t Live, uint64_t Hot, double W,
                  EcVerdict V, const uint64_t *TB = nullptr) {
    if (!Audit)
      return;
    AuditIndex[P.begin()] = Audit->Entries.size();
    EcAuditEntry E;
    E.PageBegin = P.begin();
    E.PageSize = P.size();
    E.LiveBytes = Live;
    E.HotBytes = Hot;
    E.Weight = W;
    if (TB)
      for (unsigned T = 0; T < SnapTempTiers; ++T)
        E.TempBytes[T] = TB[T];
    E.SizeClass = snapClassOf(P.sizeClass());
    E.Pinned = static_cast<uint8_t>(P.isPinnedAsTarget());
    E.Verdict = V;
    Audit->Entries.push_back(E);
  };

  std::vector<Candidate> Small, Medium;
  std::vector<Page *> Dead;

  // Iterates the allocator's page registries directly — the same in-place
  // view the driver's hotmap-reset pass used at the start of this cycle,
  // with no snapshot vector copied under a lock. Pages installed during
  // the walk may or may not be visited; either way the allocSeq filter
  // below excludes them, so the selection sees one consistent pre-STW1
  // page population.
  Heap.allocator().forEachActivePage([&](Page &Pg) {
    Page *P = &Pg;
    // Only pages allocated prior to STW1 have trustworthy liveness info
    // (§2.2: "all small pages that are allocated prior to STW1").
    if (P->allocSeq() >= Ec.Cycle)
      return;
    // Read the mark counters once: every decision (and the audit record)
    // below must be a function of these exact values.
    const uint64_t Live = P->liveBytes();
    const uint64_t Hot = P->hotBytes();
    Ec.LiveBytesTotal += Live;
    Ec.HotBytesTotal += Hot;

    // A pinned pre-STW1 page is an in-use bump-allocation target that
    // survived resetAllocTargets — today that is exactly the persistent
    // pretenure TLAB (SITEPROFILING): cold-routed sites trickle-fill a
    // warm/cold page across cycles, and a half-full cold page's low
    // live ratio would otherwise make it a bargain candidate, churning
    // the very bytes pretenuring placed. It is also excluded from the
    // dead-page fast path: its liveBytes() can read 0 while a mutator
    // is about to bump into it. The audit records the pin, and the
    // offline replay skips pinned entries the same way.
    if (P->isPinnedAsTarget()) {
      note(*P, Live, Hot, 0.0, EcVerdict::PinnedSkipped);
      return;
    }

    if (Live == 0) {
      // Nothing on the page is reachable; reclaim without relocation.
      // This covers large pages too ("we can decide whether that large
      // page should be kept or reclaimed right away", §2.2).
      note(*P, Live, Hot, 0.0, EcVerdict::DeadReclaimed);
      Dead.push_back(P);
      return;
    }

    switch (P->sizeClass()) {
    case PageSizeClass::Small: {
      // Per-tier byte totals were accumulated by the driver's post-mark
      // coordinator pass; read them once so the audit records exactly the
      // selector's inputs (a non-tracking page reads all zeros, which
      // wlbTempFormula maps to plain live bytes — same as the replay).
      uint64_t TB[SnapTempTiers] = {0, 0, 0, 0};
      if (Cfg.Temperature)
        for (unsigned T = 0; T < SnapTempTiers; ++T)
          TB[T] = P->tempTierBytes(T);
      // One weight per page: the considered and selected events carry
      // the same value the threshold and budget tests use.
      double W = Cfg.Temperature
                     ? wlbTempFormula(Live, TB, Cfg.Hotness, EffCc)
                     : wlbFormula(Live, Hot, Cfg.Hotness, EffCc);
      HCSGC_TRACE(Heap.traceSession(), Ctx.Trace, Ctx.IsGcThread,
                  TraceEventKind::EcPageConsidered, Ec.Cycle, P->begin(),
                  Live, Hot, traceBitsFromDouble(W));
      if (Cfg.RelocateAllSmallPages) {
        // §3.1.1: crude-but-simple — all small pages, no sorting/budget.
        // Candidates start as RejectedBudget and flip to Selected below;
        // under RELOCATEALLSMALLPAGES everything flips. The audit records
        // weight 0: no decision read it.
        note(*P, Live, Hot, 0.0, EcVerdict::RejectedBudget,
             Cfg.Temperature ? TB : nullptr);
        Small.push_back({P, W, Live});
        break;
      }
      double Ratio = W / static_cast<double>(P->size());
      if (Ratio <= Cfg.EvacLiveThreshold) {
        note(*P, Live, Hot, W, EcVerdict::RejectedBudget,
             Cfg.Temperature ? TB : nullptr);
        Small.push_back({P, W, Live});
      } else {
        note(*P, Live, Hot, W, EcVerdict::RejectedThreshold,
             Cfg.Temperature ? TB : nullptr);
      }
      break;
    }
    case PageSizeClass::Medium: {
      // Medium pages keep the original ZGC criteria (§3.4). No candidate
      // can be an in-use bump target: a live per-thread medium TLAB from
      // this cycle was filtered by allocSeq above, pre-cycle TLABs were
      // dropped at STW1, and the one target that survives the reset (the
      // pretenure TLAB, always a small page) was skipped by the pin
      // check above.
      double W = static_cast<double>(Live);
      if (W / static_cast<double>(P->size()) <= Cfg.EvacLiveThreshold) {
        note(*P, Live, Hot, W, EcVerdict::RejectedBudget);
        Medium.push_back({P, W, Live});
      } else {
        note(*P, Live, Hot, W, EcVerdict::RejectedThreshold);
      }
      break;
    }
    case PageSizeClass::Large:
      note(*P, Live, Hot, static_cast<double>(Live),
           EcVerdict::LargeIgnored);
      break; // Live large pages are never relocated.
    }
  });

  for (Page *P : Dead) {
    ++Ec.EmptyReclaimed;
    HCSGC_TRACE(Heap.traceSession(), Ctx.Trace, Ctx.IsGcThread,
                TraceEventKind::EcPageReclaimed, Ec.Cycle, P->begin(),
                P->size());
    Heap.allocator().releasePage(P);
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

  if (Audit) {
    Audit->BudgetSmall = SmallBudget;
    Audit->BudgetMedium = MediumBudget;
    Audit->RequiredFree = RequiredFree;
  }

  // Install forwarding tables; mutators begin relocating these pages only
  // after STW3 flips the good color to R.
  for (const Candidate &C : Selected) {
    Page *P = C.P;
    Ec.Pages.push_back(P);
    if (Audit) {
      auto It = AuditIndex.find(P->begin());
      assert(It != AuditIndex.end() &&
             "selected page missing from EC audit");
      if (It != AuditIndex.end())
        Audit->Entries[It->second].Verdict = EcVerdict::Selected;
    }
    HCSGC_TRACE(Heap.traceSession(), Ctx.Trace, Ctx.IsGcThread,
                TraceEventKind::EcPageSelected, Ec.Cycle, P->begin(),
                P->liveBytes(), P->hotBytes(), traceBitsFromDouble(C.Weight));
    P->beginEvacuation();
  }

  HCSGC_TRACE(Heap.traceSession(), Ctx.Trace, Ctx.IsGcThread,
              TraceEventKind::PhaseEnd, Ec.Cycle,
              static_cast<uint64_t>(GcPhase::EcSelect));
  return Ec;
}
