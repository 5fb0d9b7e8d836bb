//===- gc/Barrier.cpp - ZGC-style load barrier -------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "gc/Barrier.h"

#include "gc/Marker.h"
#include "gc/Relocator.h"

using namespace hcsgc;

/// Modeled instruction cost of one load-barrier slow path (check, page
/// lookup, CAS self-heal); fed to the probe when probes are on.
static constexpr uint64_t BarrierSlowPathCycles = 15;

Oop hcsgc::loadBarrierSlow(GcHeap &Heap, std::atomic<Oop> *Slot,
                           Oop Observed, ThreadContext &Ctx) {
  Ctx.probeCompute(BarrierSlowPathCycles);
  for (;;) {
    uintptr_t Addr = oopAddr(Observed);
    Page *P = Heap.pageTable().lookup(Addr);
    assert(P && "stale pointer outside the heap");

    uintptr_t Cur = Addr;
    if (P->isRelocSourceOrQuarantined()) {
      if (P->state() == PageState::RelocSource) {
        // Relocation window: relocate the object ourselves or adopt the
        // winning copy. This is the mutator-participation mechanism of
        // §3.2 (GC workers also come through here while draining).
        Cur = relocateOrForward(Heap, P, Addr, Ctx);
      } else {
        Cur = P->forwarding()->lookup(P->offsetOf(Addr));
        if (HCSGC_UNLIKELY(Cur == 0))
          fatalError("unforwarded stale pointer to quarantined page");
      }
    }

    // During the M/R phase, a slow-path hit is both a mark obligation and
    // a hotness signal ("Mutators flag an object as hot on the slow path
    // of a load barrier (because if accessed, it is hot by definition)",
    // §3.1.2).
    if (Heap.markActive()) {
      Page *Target = Cur == Addr ? P : Heap.pageTable().lookup(Cur);
      if (Heap.config().Hotness &&
          Target->sizeClass() == PageSizeClass::Small &&
          Target->allocSeq() < Heap.currentCycle()) {
        Ctx.probeLoad(Cur, HeaderBytes);
        ObjectView TV(Cur);
        if (Target->flagHot(Cur, TV.sizeBytes()))
          HCSGC_TRACE(Heap.traceSession(), Ctx.Trace, Ctx.IsGcThread,
                      TraceEventKind::HotFlag, Heap.currentCycle(), Cur,
                      TV.sizeBytes());
      }
      markAndPush(Heap, Cur, Ctx);
    }

    // Self-heal the slot.
    Oop Good = Heap.makeGood(Cur);
    if (Slot->compare_exchange_strong(Observed, Good,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      Ctx.probeStore(reinterpret_cast<uintptr_t>(Slot), 8);
      return Good;
    }
    // Lost the heal race: the slot now holds either a good value (another
    // thread healed it, or a mutator stored a different reference) or a
    // new stale value to process.
    if (Observed == NullOop || Heap.isGood(Observed))
      return Observed;
  }
}
