//===- gc/Barrier.h - ZGC-style load barrier -------------------*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The load barrier (§2): "Loading a pointer from heap to stack always
/// involves a check — a load barrier — and a good-coloured pointer will
/// always hit the fast path which incurs no additional work. Otherwise it
/// will hit the slow path and the slot where this pointer resides will be
/// updated with a good coloured alias" (self-healing).
///
/// The slow path, by page state:
///  - RelocSource page (evacuation candidate, relocation window): the
///    caller relocates the object itself — this is how mutators lay
///    objects out in access order (§3.2) — or adopts the already-published
///    copy.
///  - Quarantined page (evacuated earlier): forwarding-table lookup.
///  - Active page: the object has not moved; only the color is stale.
/// During marking the slow path additionally marks the target and flags
/// it hot (§3.1.2).
///
/// Contract: callers poll safepoints *before* invoking the barrier and
/// must not poll between the barrier and the dereference of its result;
/// the returned good-colored address is valid until the next poll.
///
/// Cost model: the fast path is one load + mask + compare (~4 ns,
/// BM_BarrierFastPath). With probes on, the caller additionally records
/// the access into a per-thread ProbeBatch queue (store + increment,
/// plus one hand-off per 256 events) and a replay thread simulates it —
/// the fast-path cost budget and the batching/flush protocol are
/// INTERNALS §14.
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_GC_BARRIER_H
#define HCSGC_GC_BARRIER_H

#include "gc/GcHeap.h"
#include "support/Compiler.h"

namespace hcsgc {

/// Out-of-line slow path; \p Observed is the stale value just loaded.
Oop loadBarrierSlow(GcHeap &Heap, std::atomic<Oop> *Slot, Oop Observed,
                    ThreadContext &Ctx);

/// Loads a reference from \p Slot through the barrier.
/// \returns a good-colored oop (or null).
inline Oop loadBarrier(GcHeap &Heap, std::atomic<Oop> *Slot,
                       ThreadContext &Ctx) {
  Oop V = Slot->load(std::memory_order_acquire);
  if (HCSGC_LIKELY(V == NullOop || Heap.isGood(V)))
    return V;
  return loadBarrierSlow(Heap, Slot, V, Ctx);
}

/// Stores \p GoodValue (a good-colored oop or null, typically obtained
/// from loadBarrier or a fresh allocation) into \p Slot. No read of the
/// old value is needed: marking correctness comes from the load barrier
/// alone (§2).
inline void storeBarrier(std::atomic<Oop> *Slot, Oop GoodValue) {
  Slot->store(GoodValue, std::memory_order_release);
}

} // namespace hcsgc

#endif // HCSGC_GC_BARRIER_H
