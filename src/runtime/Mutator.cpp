//===- runtime/Mutator.cpp - Mutator thread API --------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Mutator.h"

#include "gc/Marker.h"
#include "inject/FaultInject.h"
#include "runtime/Runtime.h"
#include "support/Compiler.h"
#include "support/MathExtras.h"
#include "support/Stopwatch.h"

#include <algorithm>

using namespace hcsgc;

// --- Root ------------------------------------------------------------------

Root::Root(Mutator &M) : Owner(M), Prev(M.RootHead) { M.RootHead = this; }

Root::~Root() {
  assert(Owner.RootHead == this &&
         "roots must be destroyed in LIFO order");
  Owner.RootHead = Prev;
}

// --- Mutator lifecycle ----------------------------------------------------

Mutator::Mutator(Runtime &RT) : RT(RT), Heap(RT.heap()) {
  const GcConfig &Cfg = Heap.config();
  if (Cfg.EnableProbes) {
    Probe = std::make_unique<CacheHierarchy>(Cfg.Cache);
    Ctx.Probe = Probe.get();
  }
  TlabRefills = &Heap.metrics().counter("alloc.tlab.refills");
  PretenureRefills =
      &Heap.metrics().counter("alloc.tlab.pretenure_refills");
  RT.SP.registerMutator(); // blocks while a pause is in flight
  Heap.registerContext(&Ctx);
  {
    std::lock_guard<std::mutex> G(RT.MutatorLock);
    RT.Mutators.push_back(this);
  }
}

Mutator::~Mutator() {
  assert(RootHead == nullptr && "detaching a mutator with live roots");
  // Release the TLAB and relocation targets from target duty: no pause
  // can run while this registered mutator is outside a poll, so the
  // unpin cannot race STW1's resetAllocTargets. Detach also surrenders
  // the persistent pretenure TLAB that STW1 leaves in place.
  Ctx.releaseAllocTargets();
  // Publish any marking work this thread still buffers, and drain the
  // probe-event batch so the counters merged below are complete.
  flushMarkBuffer(Heap, Ctx);
  Ctx.flushProbes();
  RT.SP.unregisterMutator();
  Heap.unregisterContext(&Ctx);
  {
    std::lock_guard<std::mutex> G(RT.MutatorLock);
    RT.Mutators.erase(
        std::remove(RT.Mutators.begin(), RT.Mutators.end(), this),
        RT.Mutators.end());
  }
  if (Probe) {
    std::lock_guard<std::mutex> G(RT.CounterLock);
    RT.DetachedMutatorCounters += Probe->counters();
  }
}

void Mutator::poll() {
  if (HCSGC_UNLIKELY(RT.SP.pollNeeded())) {
    // Parking is a flush point for both deferred planes: buffered mark
    // work must be published for STW termination, and the probe-event
    // batch must drain so any mid-pause counter aggregation is exact.
    flushMarkBuffer(Heap, Ctx);
    Ctx.flushProbes();
    RT.SP.park();
  }
}

void Mutator::requestGcAndWait() {
  flushMarkBuffer(Heap, Ctx);
  Ctx.flushProbes();
  BlockedScope B(RT.SP);
  RT.Driver->requestCycleAndWait();
}

// --- Resolution and allocation -----------------------------------------------

uintptr_t Mutator::resolve(const Root &R) {
  return oopAddr(loadBarrier(Heap, &R.Slot, Ctx));
}

uintptr_t Mutator::resolveNonNull(const Root &R) {
  uintptr_t Addr = resolve(R);
  if (HCSGC_UNLIKELY(Addr == 0))
    fatalError("null reference dereferenced");
  return Addr;
}

void Mutator::maybeTriggerGc() {
  const PageAllocator &Alloc = Heap.allocator();
  const GcConfig &Cfg = Heap.config();
  double Max = static_cast<double>(Alloc.maxHeapBytes());
  if (Alloc.usedBytes() >=
          static_cast<size_t>(Cfg.TriggerFraction * Max) &&
      Heap.allocatedSinceCycle() >=
          static_cast<uint64_t>(Cfg.TriggerHysteresisFraction * Max))
    RT.Driver->requestCycle();
}

uintptr_t Mutator::allocFast(size_t Bytes) {
  const HeapGeometry &Geo = Heap.config().Geometry;
  if (Bytes <= Geo.smallObjectMax())
    return Ctx.AllocPage ? Ctx.AllocPage->allocate(Bytes) : 0;
  if (Bytes <= Geo.mediumObjectMax())
    return Ctx.MediumAllocPage ? Ctx.MediumAllocPage->allocate(Bytes) : 0;
  return 0; // large objects have no TLAB
}

uintptr_t Mutator::allocMid(size_t Bytes) {
  const HeapGeometry &Geo = Heap.config().Geometry;
  if (Bytes <= Geo.smallObjectMax()) {
    // Small-TLAB refill: one page from the sharded allocator (zero shard
    // locks on the common path — the cached-unit pop, registry insert and
    // page-table install are all lock-free; only a cache miss locks), swap
    // it in as the new pinned bump target.
    Page *P = nullptr;
    if (!HCSGC_INJECT_FAIL(TlabRefill))
      P = Heap.allocator().allocatePage(PageSizeClass::Small, Bytes,
                                        Heap.currentCycle());
    if (!P)
      return 0;
    if (Ctx.AllocPage)
      Ctx.AllocPage->unpinAsTarget();
    P->pinAsTarget();
    Ctx.AllocPage = P;
    if (TlabRefills)
      TlabRefills->increment();
    // TLAB refill is the batching protocol's slow-path flush point: the
    // refill already left the fast path, so drain the probe ring here
    // rather than on the allocation fast path.
    Ctx.flushProbes();
    uintptr_t Addr = P->allocate(Bytes);
    Heap.noteAllocation(P->size());
    maybeTriggerGc();
    return Addr;
  }
  // Medium (TLAB refill in GcHeap) and large objects.
  return Heap.allocateShared(Ctx, Bytes);
}

uintptr_t Mutator::allocPretenure(size_t Bytes, SiteRoute Route) {
  if (Ctx.PretenureAllocPage) {
    uintptr_t Addr = Ctx.PretenureAllocPage->allocate(Bytes);
    if (Addr)
      return Addr;
  }
  // Refill like a small-TLAB refill (budgeted allocatePage, not the
  // relocation reserve — pretenuring must never eat evacuation
  // headroom). The fresh page is stamped with the site's destination
  // tier so the cold-resident accounting and reclaim pass see it.
  Page *P = nullptr;
  if (!HCSGC_INJECT_FAIL(TlabRefill))
    P = Heap.allocator().allocatePage(PageSizeClass::Small, Bytes,
                                      Heap.currentCycle());
  if (!P)
    return 0;
  if (Ctx.PretenureAllocPage)
    Heap.retirePretenurePage(Ctx.PretenureAllocPage);
  P->pinAsTarget();
  Heap.allocator().notePageTier(
      P, Route == SiteRoute::Cold ? PageTier::Cold : PageTier::Warm);
  Ctx.PretenureAllocPage = P;
  if (PretenureRefills)
    PretenureRefills->increment();
  uintptr_t Addr = P->allocate(Bytes);
  Heap.noteAllocation(P->size());
  maybeTriggerGc();
  return Addr;
}

uintptr_t Mutator::allocRaw(size_t Bytes, StallInfo &SI, SiteId Site) {
  poll();
  const GcConfig &Cfg = Heap.config();
  const HeapGeometry &Geo = Cfg.Geometry;
  const bool Shared = Bytes > Geo.smallObjectMax();
  // Site hooks only engage for tagged small allocations with the profile
  // table armed; everything else keeps the pre-site code path exactly.
  SiteProfileTable *Prof =
      Site != UnknownSiteId && !Shared ? Heap.siteProfile() : nullptr;
  // Each ordinary stall waits for one full cycle — two under
  // LAZYRELOCATE, where cycle k defers its relocation set and only
  // cycle k+1's drain actually releases the evacuated memory.
  const unsigned CyclesPerStall = Cfg.LazyRelocate ? 2 : 1;
  const unsigned Retries = std::max(1u, Cfg.AllocStallRetries);

  for (unsigned Attempt = 0; Attempt <= Retries; ++Attempt) {
    // Tier 0 (pretenure): sites with a cold/warm verdict bump into the
    // secondary TLAB; a denied refill falls through to the normal tiers.
    // Tier 1 (fast): TLAB bump, no locks. Tier 2 (mid): refill from the
    // sharded allocator. Tier 3 (slow, below): GC-assisted stall.
    uintptr_t Addr = 0;
    bool Pretenured = false;
    if (Prof) {
      SiteRoute Route = Prof->routeOf(Site);
      if (Route != SiteRoute::Hot) {
        Addr = allocPretenure(Bytes, Route);
        Pretenured = Addr != 0;
      }
    }
    if (!Addr)
      Addr = allocFast(Bytes);
    if (!Addr) {
      Addr = allocMid(Bytes);
      if (Addr && Shared) {
        // Small refills account the whole page inside allocMid; shared
        // classes pace the trigger per object, as before the tiering.
        Heap.noteAllocation(Bytes);
        maybeTriggerGc();
      }
    } else if (Shared) {
      Heap.noteAllocation(Bytes);
      maybeTriggerGc();
    }
    if (Addr) {
      if (Prof) {
        if (Page *P = Heap.pageTable().lookup(Addr))
          P->stampSite(Addr, Site);
        Prof->noteAllocation(Site, alignUp(Bytes, ObjectAlignment),
                             Pretenured);
      }
      return Addr;
    }
    if (Attempt == Retries)
      break; // retries exhausted; surface HeapExhausted to the caller

    // Allocation stall: GC-assisted backoff. The last retry runs an
    // emergency synchronous cycle that drains the deferred relocation
    // set immediately, so exhaustion is only declared once everything
    // reclaimable has actually been reclaimed.
    bool Emergency = Attempt + 1 == Retries;
    unsigned WaitCycles = Emergency ? 1 : CyclesPerStall;
    HCSGC_TRACE(Heap.traceSession(), Ctx.Trace, Ctx.IsGcThread,
                TraceEventKind::AllocStall, Heap.currentCycle(), Bytes,
                Attempt, WaitCycles);
    flushMarkBuffer(Heap, Ctx);
    Ctx.flushProbes();
    {
      Stopwatch StallSw;
      BlockedScope B(RT.SP);
      if (Emergency)
        RT.Driver->requestEmergencyCycleAndWait();
      else
        RT.Driver->requestCyclesAndWait(CyclesPerStall);
      Heap.recordAllocStall(StallSw.elapsedNs() / 1000);
    }
    ++SI.Attempts;
    SI.CyclesWaited += WaitCycles;
    poll();
  }
  return 0;
}

// --- Allocation -----------------------------------------------------------

void Mutator::allocate(Root &Out, ClassId Cls, SiteId Site) {
  const ClassInfo &Info = RT.Classes.info(Cls);
  allocateSized(Out, Cls, Info.NumRefs, Info.PayloadBytes, Site);
}

AllocStatus Mutator::tryAllocate(Root &Out, ClassId Cls, SiteId Site) {
  const ClassInfo &Info = RT.Classes.info(Cls);
  return tryAllocateSized(Out, Cls, Info.NumRefs, Info.PayloadBytes,
                          Site);
}

AllocStatus Mutator::tryAllocateSized(Root &Out, ClassId Cls,
                                      uint8_t NumRefs,
                                      size_t PayloadBytes, SiteId Site) {
  size_t Bytes = objectSizeFor(NumRefs, PayloadBytes);
  StallInfo SI;
  uintptr_t Addr = allocRaw(Bytes, SI, Site);
  if (!Addr) {
    Out.Slot.store(NullOop, std::memory_order_release);
    return AllocStatus::HeapExhausted;
  }
  initializeObject(Addr, static_cast<uint32_t>(Bytes / 8), Cls, NumRefs,
                   OF_None, 0);
  Ctx.probeStore(Addr, HeaderBytes);
  Out.Slot.store(Heap.makeGood(Addr), std::memory_order_release);
  return AllocStatus::Ok;
}

void Mutator::allocateSized(Root &Out, ClassId Cls, uint8_t NumRefs,
                            size_t PayloadBytes, SiteId Site) {
  size_t Bytes = objectSizeFor(NumRefs, PayloadBytes);
  StallInfo SI;
  uintptr_t Addr = allocRaw(Bytes, SI, Site);
  if (HCSGC_UNLIKELY(!Addr))
    throw HeapExhaustedError(Bytes, SI.Attempts, SI.CyclesWaited);
  initializeObject(Addr, static_cast<uint32_t>(Bytes / 8), Cls, NumRefs,
                   OF_None, 0);
  Ctx.probeStore(Addr, HeaderBytes);
  Out.Slot.store(Heap.makeGood(Addr), std::memory_order_release);
}

AllocStatus Mutator::tryAllocateRefArray(Root &Out, uint32_t Length,
                                         SiteId Site) {
  size_t Bytes = refArraySizeFor(Length);
  StallInfo SI;
  uintptr_t Addr = allocRaw(Bytes, SI, Site);
  if (!Addr) {
    Out.Slot.store(NullOop, std::memory_order_release);
    return AllocStatus::HeapExhausted;
  }
  initializeObject(Addr, static_cast<uint32_t>(Bytes / 8),
                   ClassRegistry::RefArrayClass, 0, OF_RefArray, Length);
  Ctx.probeStore(Addr, HeaderBytes + 8);
  Out.Slot.store(Heap.makeGood(Addr), std::memory_order_release);
  return AllocStatus::Ok;
}

void Mutator::allocateRefArray(Root &Out, uint32_t Length, SiteId Site) {
  size_t Bytes = refArraySizeFor(Length);
  StallInfo SI;
  uintptr_t Addr = allocRaw(Bytes, SI, Site);
  if (HCSGC_UNLIKELY(!Addr))
    throw HeapExhaustedError(Bytes, SI.Attempts, SI.CyclesWaited);
  initializeObject(Addr, static_cast<uint32_t>(Bytes / 8),
                   ClassRegistry::RefArrayClass, 0, OF_RefArray, Length);
  Ctx.probeStore(Addr, HeaderBytes + 8);
  Out.Slot.store(Heap.makeGood(Addr), std::memory_order_release);
}

// --- Reference fields --------------------------------------------------------

void Mutator::loadRef(const Root &Obj, uint32_t Idx, Root &Out) {
  poll();
  uintptr_t Addr = resolveNonNull(Obj);
  Ctx.probeLoad(Addr, HeaderBytes);
  ObjectView V(Addr);
  std::atomic<Oop> *Slot = oopSlot(V.refSlotAddr(Idx));
  Ctx.probeLoad(V.refSlotAddr(Idx), 8);
  Oop Val = loadBarrier(Heap, Slot, Ctx);
  Out.Slot.store(Val, std::memory_order_release);
}

void Mutator::storeRef(const Root &Obj, uint32_t Idx, const Root &Val) {
  poll();
  // Resolve the value first: both resolutions happen under the same good
  // color (no poll in between), so the stored oop stays good.
  Oop Good = loadBarrier(Heap, &Val.Slot, Ctx);
  uintptr_t Addr = resolveNonNull(Obj);
  Ctx.probeLoad(Addr, HeaderBytes);
  ObjectView V(Addr);
  storeBarrier(oopSlot(V.refSlotAddr(Idx)), Good);
  Ctx.probeStore(V.refSlotAddr(Idx), 8);
}

void Mutator::storeNullRef(const Root &Obj, uint32_t Idx) {
  poll();
  uintptr_t Addr = resolveNonNull(Obj);
  Ctx.probeLoad(Addr, HeaderBytes);
  ObjectView V(Addr);
  storeBarrier(oopSlot(V.refSlotAddr(Idx)), NullOop);
  Ctx.probeStore(V.refSlotAddr(Idx), 8);
}

void Mutator::copyRoot(const Root &From, Root &To) {
  poll();
  Oop V = loadBarrier(Heap, &From.Slot, Ctx);
  To.Slot.store(V, std::memory_order_release);
}

void Mutator::clearRoot(Root &R) {
  R.Slot.store(NullOop, std::memory_order_release);
}

bool Mutator::refEquals(const Root &A, const Root &B) {
  poll();
  return resolve(A) == resolve(B);
}

// --- Payload ------------------------------------------------------------------

int64_t Mutator::loadWord(const Root &Obj, uint32_t WordIdx) {
  poll();
  uintptr_t Addr = resolveNonNull(Obj);
  Ctx.probeLoad(Addr, HeaderBytes);
  ObjectView V(Addr);
  uintptr_t P = V.payloadAddr() + static_cast<size_t>(WordIdx) * 8;
  assert(P + 8 <= Addr + V.sizeBytes() && "payload index out of range");
  Ctx.probeLoad(P, 8);
  return *reinterpret_cast<const int64_t *>(P);
}

void Mutator::storeWord(const Root &Obj, uint32_t WordIdx, int64_t Value) {
  poll();
  uintptr_t Addr = resolveNonNull(Obj);
  Ctx.probeLoad(Addr, HeaderBytes);
  ObjectView V(Addr);
  uintptr_t P = V.payloadAddr() + static_cast<size_t>(WordIdx) * 8;
  assert(P + 8 <= Addr + V.sizeBytes() && "payload index out of range");
  *reinterpret_cast<int64_t *>(P) = Value;
  Ctx.probeStore(P, 8);
}

// --- Arrays ---------------------------------------------------------------------

uint32_t Mutator::arrayLength(const Root &Arr) {
  poll();
  uintptr_t Addr = resolveNonNull(Arr);
  Ctx.probeLoad(Addr, HeaderBytes + 8);
  ObjectView V(Addr);
  assert(V.isRefArray() && "arrayLength on non-array");
  return V.numRefs();
}

void Mutator::loadElem(const Root &Arr, uint32_t Idx, Root &Out) {
  loadRef(Arr, Idx, Out);
}

void Mutator::storeElem(const Root &Arr, uint32_t Idx, const Root &Val) {
  storeRef(Arr, Idx, Val);
}

void Mutator::storeElemNull(const Root &Arr, uint32_t Idx) {
  storeNullRef(Arr, Idx);
}

// --- Global roots ------------------------------------------------------------------

void Mutator::loadGlobal(const GlobalRoot &G, Root &Out) {
  poll();
  Oop V = loadBarrier(Heap, &G.Slot, Ctx);
  Out.Slot.store(V, std::memory_order_release);
}

void Mutator::storeGlobal(GlobalRoot &G, const Root &Val) {
  poll();
  Oop Good = loadBarrier(Heap, &Val.Slot, Ctx);
  G.Slot.store(Good, std::memory_order_release);
}

// --- Introspection -----------------------------------------------------------------

ClassId Mutator::classOf(const Root &Obj) {
  poll();
  uintptr_t Addr = resolveNonNull(Obj);
  Ctx.probeLoad(Addr, HeaderBytes);
  return ObjectView(Addr).classId();
}

uint32_t Mutator::numRefs(const Root &Obj) {
  poll();
  uintptr_t Addr = resolveNonNull(Obj);
  Ctx.probeLoad(Addr, HeaderBytes);
  return ObjectView(Addr).numRefs();
}
