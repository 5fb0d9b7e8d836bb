//===- observe/HeapSnapshot.cpp - Per-cycle page snapshots --------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "observe/HeapSnapshot.h"

#include "observe/SnapshotLog.h"

#include <algorithm>

using namespace hcsgc;

const char *hcsgc::ecVerdictName(EcVerdict V) {
  switch (V) {
  case EcVerdict::Selected:
    return "selected";
  case EcVerdict::RejectedThreshold:
    return "rejected_threshold";
  case EcVerdict::RejectedBudget:
    return "rejected_budget";
  case EcVerdict::DeadReclaimed:
    return "dead_reclaimed";
  case EcVerdict::PinnedSkipped:
    return "pinned_skipped";
  case EcVerdict::LargeIgnored:
    return "large_ignored";
  case EcVerdict::NotJudged:
    return "not_judged";
  }
  return "unknown";
}

double hcsgc::wlbFormula(uint64_t LiveBytes, uint64_t HotBytes,
                         bool Hotness, double ColdConfidence) {
  double Live = static_cast<double>(LiveBytes);
  if (!Hotness)
    return Live;
  double Hot = static_cast<double>(HotBytes);
  double Cold =
      static_cast<double>(LiveBytes > HotBytes ? LiveBytes - HotBytes : 0);
  if (Hot == 0.0)
    return Cold; // == live bytes: no hot objects to excavate (§3.1.3).
  return Hot + Cold * (1.0 - ColdConfidence);
}

double hcsgc::wlbTempFormula(uint64_t LiveBytes,
                             const uint64_t (&TempBytes)[SnapTempTiers],
                             bool Hotness, double ColdConfidence) {
  if (!Hotness)
    return static_cast<double>(LiveBytes);
  uint64_t Heated = TempBytes[1] + TempBytes[2] + TempBytes[3];
  if (Heated == 0)
    return static_cast<double>(LiveBytes); // nothing to excavate toward
  // w(t) = 1 - coldConf * ((3 - t) / 3): full confidence discounts tier 0
  // entirely, tier 3 is never discounted, the middle tiers interpolate.
  // The (3 - t) / 3 factor is parenthesized so tiers 0 and 3 use the
  // EXACT constants 1.0 and 0.0 (cc * 1.0 == cc and cc * 0.0 == 0.0 for
  // every confidence value); with x + 0.0 == x and commutative IEEE
  // addition, the binary {0,3} case is then bit-identical to
  // wlbFormula's Hot + Cold * (1 - coldConf).
  double W = 0.0;
  for (unsigned T = 0; T < SnapTempTiers; ++T)
    W += static_cast<double>(TempBytes[T]) *
         (1.0 - ColdConfidence * (static_cast<double>(3 - T) / 3.0));
  return W;
}

namespace {
struct ReplayCand {
  uint64_t Begin;
  uint64_t Size;
  uint64_t Live;
  double Weight;
};
} // namespace

/// Mirror of EcSelector's selectPrefix: ascending (weight, begin) sort,
/// then the maximal prefix within the budget, extended while the freed
/// bytes stay short of the reclamation demand. The arithmetic runs in
/// the same order over the same doubles, so the result is bit-identical
/// to the live selector's.
static void replayPrefix(std::vector<ReplayCand> &Cands, double Budget,
                         double RequiredFree,
                         std::vector<uint64_t> &Out) {
  std::sort(Cands.begin(), Cands.end(),
            [](const ReplayCand &A, const ReplayCand &B) {
              if (A.Weight != B.Weight)
                return A.Weight < B.Weight;
              return A.Begin < B.Begin;
            });
  double Sum = 0.0, Freed = 0.0;
  for (const ReplayCand &C : Cands) {
    bool WithinBudget = Sum + C.Weight <= Budget;
    bool NeedMemory = Freed < RequiredFree;
    if (!WithinBudget && !NeedMemory)
      break;
    Sum += C.Weight;
    Freed += static_cast<double>(C.Size) - static_cast<double>(C.Live);
    Out.push_back(C.Begin);
  }
}

std::vector<uint64_t> hcsgc::replayEcSelection(const CycleSnapshot &S) {
  std::vector<ReplayCand> Small, Medium;
  std::vector<uint64_t> Out;
  for (const PageRecord &P : S.Pages) {
    // Pages born this cycle have no final liveness; dead pages are
    // reclaimed without relocation; pinned pages are defensively skipped
    // — none of them reaches the candidate lists.
    if (P.AllocSeq >= S.Cycle || P.LiveBytes == 0 || P.Pinned)
      continue;
    switch (P.SizeClass) {
    case SnapSizeClass::Small: {
      if (S.RelocateAll) {
        Small.push_back({P.PageBegin, P.PageSize, P.LiveBytes, 0.0});
        break;
      }
      double W = S.Temperature
                     ? wlbTempFormula(P.LiveBytes, P.TempBytes,
                                      S.Hotness != 0, S.ColdConfidence)
                     : wlbFormula(P.LiveBytes, P.HotBytes, S.Hotness != 0,
                                  S.ColdConfidence);
      if (W / static_cast<double>(P.PageSize) <= S.EvacLiveThreshold)
        Small.push_back({P.PageBegin, P.PageSize, P.LiveBytes, W});
      break;
    }
    case SnapSizeClass::Medium: {
      double W = static_cast<double>(P.LiveBytes);
      if (W / static_cast<double>(P.PageSize) <= S.EvacLiveThreshold)
        Medium.push_back({P.PageBegin, P.PageSize, P.LiveBytes, W});
      break;
    }
    case SnapSizeClass::Large:
      break; // Live large pages are never relocated.
    }
  }
  if (S.RelocateAll) {
    // §3.1.1: every eligible small page, no sorting or budget.
    for (const ReplayCand &C : Small)
      Out.push_back(C.Begin);
  } else {
    replayPrefix(Small, S.BudgetSmall, S.RequiredFree, Out);
  }
  replayPrefix(Medium, S.BudgetMedium, 0.0, Out);
  std::sort(Out.begin(), Out.end());
  return Out;
}

std::vector<uint64_t> hcsgc::selectedPages(const CycleSnapshot &S) {
  std::vector<uint64_t> Out;
  for (const PageRecord &P : S.Pages)
    if (P.Verdict == EcVerdict::Selected)
      Out.push_back(P.PageBegin);
  std::sort(Out.begin(), Out.end());
  return Out;
}

// --- SnapshotRing ----------------------------------------------------------

uint64_t SnapshotRing::push(CycleSnapshot &&S) {
  uint64_t Dropped = 0;
  Ring.push_back(std::move(S));
  while (Ring.size() > Capacity) {
    Dropped += Ring.front().Pages.size();
    Ring.pop_front();
  }
  return Dropped;
}

// --- HeapSnapshotter -------------------------------------------------------

HeapSnapshotter::~HeapSnapshotter() {
  if (Stream)
    std::fclose(Stream);
}

bool HeapSnapshotter::configure(bool On, const std::string &JsonlPath) {
  Enabled = On;
  if (JsonlPath.empty())
    return true;
  Stream = std::fopen(JsonlPath.c_str(), "w");
  return Stream != nullptr;
}

void HeapSnapshotter::bindMetrics(MetricsRegistry &MR) {
  Captures = &MR.counter("snapshot.captures");
  PagesRecorded = &MR.counter("snapshot.pages_recorded");
  DroppedRecords = &MR.counter("snapshot.dropped_records");
}

void HeapSnapshotter::stage(CycleSnapshot &&S) {
  std::lock_guard<std::mutex> G(Lock);
  Staged = std::move(S);
}

void HeapSnapshotter::commit(const CycleRecord &R) {
  size_t NumPages;
  uint64_t Dropped;
  {
    std::lock_guard<std::mutex> G(Lock);
    if (!Staged || Staged->Cycle != R.Cycle)
      return;
    Staged->Record = R;
    NumPages = Staged->Pages.size();
    if (Stream)
      writeSnapshotJsonl(*Staged, Stream);
    Dropped = Ring.push(std::move(*Staged));
    Staged.reset();
  }
  Captures->increment();
  PagesRecorded->add(NumPages);
  DroppedRecords->add(Dropped);
}

std::vector<CycleSnapshot> HeapSnapshotter::history() const {
  std::lock_guard<std::mutex> G(Lock);
  return Ring.history();
}
