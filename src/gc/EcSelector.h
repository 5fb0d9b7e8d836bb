//===- gc/EcSelector.h - Evacuation candidate selection --------*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Evacuation candidate (EC) selection. Baseline ZGC (§2.2): small pages
/// allocated before STW1 whose live ratio is below the threshold are
/// sorted by live bytes ascending, and the maximal prefix fitting the
/// relocation budget is selected. HCSGC revisions (§3.1):
///
///  - RELOCATEALLSMALLPAGES: every eligible small page enters EC.
///  - Weighted live bytes (§3.1.3):
///        WLB = cold bytes                            if hot bytes == 0
///        WLB = hot bytes + cold bytes*(1 - coldConf) otherwise
///    substituted for live bytes in the filter, the sort and the budget,
///    so pages full of live-but-cold objects can still be selected and
///    their hot objects excavated.
///
/// Medium pages always use the baseline rule (§3.4 restricts HCSGC to
/// small pages); large pages are never candidates — each holds a single
/// object that is reclaimed directly when dead (§2.2).
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_GC_ECSELECTOR_H
#define HCSGC_GC_ECSELECTOR_H

#include "gc/GcHeap.h"
#include "observe/HeapSnapshot.h"

#include <vector>

namespace hcsgc {

/// The relocation set EC selection chose for one cycle.
struct EcSet {
  uint64_t Cycle = 0;
  std::vector<Page *> Pages; ///< Selected small + medium pages.
};

/// \returns the weighted live bytes of \p P under \p Cfg (plain live
/// bytes when HOTNESS is off or ColdConfidence is 0, cf. §3.1.3).
double weightedLiveBytes(const Page &P, const GcConfig &Cfg);

/// \returns the bytes EC selection must (eventually) reclaim to bring
/// usage back under the pacing point. Quarantined pages count as still
/// occupied: they have left the logical heap but hold address space
/// until the end of the next Mark/Remap, so a selection that "frees"
/// into quarantine has not yet produced a single allocatable byte —
/// treating it as free lets allocation outrun the collector under
/// LAZYRELOCATE and tight reservations.
double reclamationDemand(size_t UsedBytes, size_t QuarantinedBytes,
                         size_t MaxHeapBytes, double TriggerFraction);

/// Runs EC selection over the rows of this cycle's page census
/// (GcHeap::takeCensus) whose pages predate the cycle, writes each row's
/// verdict and weight and the census's budgets and reclamation demand,
/// installs forwarding tables on the selected pages (transitioning them
/// to RelocSource), and releases dead pages outright. \p Ctx is the
/// calling thread's context (the cycle coordinator in production), which
/// traces the ec_select phase. \p Rec receives the cycle's EC
/// composition (small and medium pages selected, dead pages released)
/// and the live and hot bytes of the pages judged.
///
/// The rows then hold everything observe's replayEcSelection needs to
/// re-run the decision offline and prove the §3.1.3 formula was honored
/// (heapscope --replay, the snapshot invariant tests). Weights are
/// computed through the same wlbFormula the replay uses, so the
/// comparison is bit-exact.
EcSet selectEvacuationCandidates(GcHeap &Heap, ThreadContext &Ctx,
                                 CycleRecord &Rec);

} // namespace hcsgc

#endif // HCSGC_GC_ECSELECTOR_H
