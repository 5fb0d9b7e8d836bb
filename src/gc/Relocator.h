//===- gc/Relocator.h - Concurrent object relocation -----------*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Object relocation, raced between mutators and GC threads exactly as
/// §2.2 describes: both copy the object privately, then CAS the new
/// address into the page's forwarding table; the loser retracts its copy.
/// Destination selection implements §3.3's speculative hot-cold
/// segregation: with COLDPAGE enabled, GC threads send cold objects to a
/// separate thread-local cold page. Objects relocated by a mutator are
/// hot by definition (the mutator is accessing them) and always go to the
/// mutator's own target page — in access order, which is what creates the
/// prefetch-friendly layout (§3.2).
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_GC_RELOCATOR_H
#define HCSGC_GC_RELOCATOR_H

#include "gc/GcHeap.h"

namespace hcsgc {

/// Relocates the object at \p OldAddr on evacuation-candidate page
/// \p Src, or returns its already-published new address.
/// Callable from any thread during the relocation window.
uintptr_t relocateOrForward(GcHeap &Heap, Page *Src, uintptr_t OldAddr,
                            ThreadContext &Ctx);

/// GC-side page drain: forwards every live object off \p Src, then
/// transitions the page to Quarantined (tagged with \p EcCycle), waits
/// out the copiers still reading it, and moves it to quarantine
/// accounting, which returns its memory and side tables. After this
/// returns, all lookups into the page hit the forwarding table, and the
/// forwarding table is all that is left to read.
void relocatePage(GcHeap &Heap, Page *Src, uint64_t EcCycle,
                  ThreadContext &Ctx);

} // namespace hcsgc

#endif // HCSGC_GC_RELOCATOR_H
