//===- gc/Marker.cpp - Concurrent marking with hotness detection ------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "gc/Marker.h"

#include "support/Bits.h"
#include "support/Compiler.h"

using namespace hcsgc;

/// Modeled instruction cost of marking one object (bitmap CAS,
/// accounting, stack push); fed to the probe when probes are on.
static constexpr uint64_t MarkObjectCycles = 12;

/// Look-behind distance of the mark-stack drain prefetch: while tracing
/// entry i of the thread-local mark stack, the header of entry i - 4 is
/// prefetched (the stack drains from the back). A full mark cycle timed
/// 2.571 / 2.537 / 2.566 ms at distances 0 / 4 / 16, so the distance is
/// fixed; mark results never depend on it because prefetches touch no
/// state.
static constexpr size_t MarkPrefetchDistance = 4;

void hcsgc::markAndPush(GcHeap &Heap, uintptr_t Addr, ThreadContext &Ctx) {
  Page *P = Heap.pageTable().lookup(Addr);
  assert(P && "marked address not covered by any page");
  // Pages allocated during the current cycle hold implicitly-live objects
  // whose fields only ever contained good-colored values; neither marking
  // nor tracing is needed (ZGC's "allocating pages are not candidates").
  if (P->allocSeq() >= Heap.currentCycle())
    return;
  // Hint the livemap word into exclusive state ahead of markLive's CAS:
  // the header read below gives the prefetch a window to complete.
  P->prefetchMarkState(Addr);
  ++Ctx.MarkPrefetchPending;
  Ctx.probeLoad(Addr, HeaderBytes); // header read for the size
  ObjectView V(Addr);
  if (!P->markLive(Addr, V.sizeBytes()))
    return;
  Ctx.probeCompute(MarkObjectCycles);
  Ctx.MarkBuffer.push_back(Addr);
  if (Ctx.MarkBuffer.size() >= MarkQueue::ChunkSize)
    flushMarkBuffer(Heap, Ctx);
}

void hcsgc::markSlot(GcHeap &Heap, std::atomic<Oop> *Slot,
                     ThreadContext &Ctx) {
  Oop V = Slot->load(std::memory_order_acquire);
  Ctx.probeLoad(reinterpret_cast<uintptr_t>(Slot), 8);
  if (V == NullOop || Heap.isGood(V))
    return; // good targets are already marked (see file header).

  uintptr_t Addr = oopAddr(V);
  Page *P = Heap.pageTable().lookup(Addr);
  assert(P && "stale pointer outside the heap");

  uintptr_t Cur = Addr;
  if (P->isRelocSourceOrQuarantined()) {
    // Remap: during marking every evacuated page is fully forwarded.
    Cur = P->forwarding()->lookup(P->offsetOf(Addr));
    if (HCSGC_UNLIKELY(Cur == 0))
      fatalError("unforwarded stale pointer during mark/remap");
  }
  Page *Target = Cur == Addr ? P : Heap.pageTable().lookup(Cur);

  // §3.1.2: "GC threads on finding pointers with R colour while traversing
  // the object graph in the M/R phase will flag the corresponding objects
  // as hot" — R-colored means a mutator accessed (or created) the target
  // since STW3 of the previous cycle. Only small pages track hotness
  // (§3.4).
  if (Heap.config().Hotness && oopColor(V) == PtrColor::R &&
      Target->sizeClass() == PageSizeClass::Small &&
      Target->allocSeq() < Heap.currentCycle()) {
    ObjectView TV(Cur);
    if (Target->flagHot(Cur, TV.sizeBytes()))
      HCSGC_TRACE(Heap.traceSession(), Ctx.Trace, Ctx.IsGcThread,
                  TraceEventKind::HotFlag, Heap.currentCycle(), Cur,
                  TV.sizeBytes());
  }

  markAndPush(Heap, Cur, Ctx);

  // Self-heal the slot with the good color. A racing mutator store wins
  // harmlessly: stores only ever write good-colored values.
  Oop Good = Heap.makeGood(Cur);
  if (Slot->compare_exchange_strong(V, Good, std::memory_order_acq_rel,
                                    std::memory_order_relaxed))
    Ctx.probeStore(reinterpret_cast<uintptr_t>(Slot), 8);
}

void hcsgc::traceObject(GcHeap &Heap, uintptr_t Addr, ThreadContext &Ctx) {
  Ctx.probeLoad(Addr, HeaderBytes);
  ObjectView V(Addr);
  uint32_t NumRefs = V.numRefs();
  for (uint32_t I = 0; I < NumRefs; ++I)
    markSlot(Heap, oopSlot(V.refSlotAddr(I)), Ctx);
}

void hcsgc::flushMarkBuffer(GcHeap &Heap, ThreadContext &Ctx) {
  // Publish prefetch stats accumulated by barrier-side markAndPush calls
  // (mutators never run drainMarkWork, so this is their drain point).
  Heap.publishMarkPrefetches(Ctx);
  if (Ctx.MarkBuffer.empty())
    return;
  MarkChunk Chunk;
  Chunk.swap(Ctx.MarkBuffer);
  Heap.markQueue().pushChunk(std::move(Chunk));
}

bool hcsgc::drainMarkWork(GcHeap &Heap, ThreadContext &Ctx) {
  // LIFO drain with look-behind software prefetch: entry size()-1 is
  // traced now, entry size()-1-MarkPrefetchDistance is traced that many
  // iterations from now — far enough ahead to cover a memory round trip,
  // near enough that the line is still resident when its turn comes.
  bool DidWork = false;
  for (;;) {
    if (!Ctx.MarkBuffer.empty()) {
      size_t N = Ctx.MarkBuffer.size();
      if (N > MarkPrefetchDistance) {
        prefetchRead(reinterpret_cast<const void *>(
            Ctx.MarkBuffer[N - 1 - MarkPrefetchDistance]));
        ++Ctx.MarkPrefetchPending;
      }
      uintptr_t Addr = Ctx.MarkBuffer.back();
      Ctx.MarkBuffer.pop_back();
      traceObject(Heap, Addr, Ctx);
      DidWork = true;
      continue;
    }
    if (!Heap.markQueue().popChunk(Ctx.MarkBuffer)) {
      if (DidWork)
        Heap.publishMarkPrefetches(Ctx);
      return DidWork;
    }
    DidWork = true;
  }
}
