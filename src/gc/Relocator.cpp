//===- gc/Relocator.cpp - Concurrent object relocation ----------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "gc/Relocator.h"

#include "support/Compiler.h"

#include <algorithm>
#include <cstring>

using namespace hcsgc;

/// Modeled fixed + per-byte instruction cost of relocating one object
/// (bump allocation, memcpy, forwarding CAS), fed to the probe when
/// probes are on. Models the copy bandwidth the cache simulator's
/// prefetch-friendly streams would otherwise hide.
static constexpr uint64_t RelocateObjectCycles = 40;
static constexpr double RelocatePerByteCycles = 0.5;

/// Bump-allocates \p Bytes in the thread-local target page referenced by
/// \p Target, acquiring a fresh page when the current one is full.
static uintptr_t allocateInTarget(GcHeap &Heap, Page *&Target,
                                  PageSizeClass Cls, size_t Bytes,
                                  PageTier Tier = PageTier::None) {
  if (Target) {
    if (uintptr_t Addr = Target->allocate(Bytes))
      return Addr;
    Target->unpinAsTarget(); // full: retire it from target duty
  }
  Target = Heap.allocateRelocTarget(Cls, Bytes, Tier); // returned pinned
  uintptr_t Addr = Target->allocate(Bytes);
  assert(Addr && "fresh relocation target cannot be full");
  return Addr;
}

/// Copies the unforwarded object at \p OldAddr off \p Src and races to
/// publish the copy (INTERNALS §3, steps 2-4). The caller has seen the
/// forwarding miss and holds the page's drain handshake: it is either
/// the draining thread or an announced copier, so the page's memory and
/// side tables stay in place until this returns.
static uintptr_t copyAndForward(GcHeap &Heap, Page *Src, uintptr_t OldAddr,
                                ThreadContext &Ctx) {
  assert(Src->isLive(OldAddr) && "relocating an unmarked object");

  ObjectView V(OldAddr);
  size_t Bytes = V.sizeBytes();
  const GcConfig &Cfg = Heap.config();

  // Destination selection (§3.3). Mutator relocations are hot by
  // definition; GC threads consult the hotmap when COLDPAGE is on. With
  // TEMPERATURE the GC consults the 2-bit counter instead: warm-or-hotter
  // survivors (temp >= 2, or flagged hot this cycle) go to the hot tier,
  // survivors frozen at temp 0 for >= Page::ProvenColdStreak cycles
  // are proven cold and segregate onto dedicated cold pages, everything
  // in between lands on warm pages.
  PageSizeClass Cls = Src->sizeClass();
  Page **TargetSlot;
  PageTier Tier = PageTier::None;
  unsigned Temp = 0, Streak = 0;
  const bool TempMode =
      Cls == PageSizeClass::Small && Cfg.Hotness && Cfg.Temperature;
  if (TempMode) {
    Temp = Src->temperatureOf(OldAddr);
    Streak = Src->coldStreakOf(OldAddr);
  }
  if (Cls == PageSizeClass::Medium) {
    TargetSlot = &Ctx.TargetMedium;
  } else if (TempMode && Cfg.ColdPage) {
    if (!Ctx.IsGcThread || Src->isHot(OldAddr) || Temp >= 2) {
      TargetSlot = &Ctx.TargetSmallHot;
      Tier = PageTier::Hot;
    } else if (Temp == 0 && Streak >= Page::ProvenColdStreak) {
      TargetSlot = &Ctx.TargetSmallCold;
      Tier = PageTier::Cold;
    } else {
      TargetSlot = &Ctx.TargetSmallWarm;
      Tier = PageTier::Warm;
    }
  } else {
    bool Hot = true;
    if (Ctx.IsGcThread && Cfg.Hotness && Cfg.ColdPage)
      Hot = Src->isHot(OldAddr);
    TargetSlot = Hot ? &Ctx.TargetSmallHot : &Ctx.TargetSmallCold;
  }

  uintptr_t NewAddr = allocateInTarget(Heap, *TargetSlot, Cls, Bytes, Tier);
  Ctx.probeLoad(OldAddr, static_cast<uint32_t>(Bytes));
  std::memcpy(reinterpret_cast<void *>(NewAddr),
              reinterpret_cast<const void *>(OldAddr), Bytes);
  Ctx.probeStore(NewAddr, static_cast<uint32_t>(Bytes));

  Ctx.probeCompute(RelocateObjectCycles +
                   static_cast<uint64_t>(RelocatePerByteCycles *
                                         static_cast<double>(Bytes)));
  bool Won = false;
  uintptr_t Final =
      Src->forwarding()->insertOrGet(Src->offsetOf(OldAddr), NewAddr, Won);
  if (!Won) {
    // §2.2: "others will discard their local value". The target page is
    // thread-private, so retracting the bump pointer always succeeds.
    bool Undone = (*TargetSlot)->undoAllocate(NewAddr, Bytes);
    (void)Undone;
    assert(Undone && "loser copy was not the top of its private page");
  } else {
    if (TempMode) {
      // Only the forwarding winner seeds: the destination granule's
      // nibble is still zero (losers retract their copy above), so a
      // plain fetch_or carries the temperature across the move. A hot
      // source also hands its hotmap bit to the copy — the next aging
      // walk must see the object as touched, not decay it for having
      // moved (mutator relocations ARE touches, so they transfer too).
      (*TargetSlot)->seedTemperature(NewAddr, Temp, Streak);
      if (!Ctx.IsGcThread || Src->isHot(OldAddr))
        (*TargetSlot)->transferHot(NewAddr, Bytes);
      if (Tier == PageTier::Cold)
        Heap.countColdRelocation(Bytes);
    }
    // The copied header already carries the allocation site; the winner
    // charges the site with the relocation churn — the byte stream
    // pretenuring exists to shrink.
    SiteProfileTable *Prof = Heap.siteProfile();
    if (Prof && Src->tracksSites()) {
      SiteId Site = Src->siteOf(OldAddr);
      Prof->noteRelocation(Site, Bytes);
      // A relocated object is a survivor the pre-STW1 walk will never
      // see (its destination livemap is empty until the next mark);
      // charge its survival here. Mutator relocations are accesses, so
      // they count as hot, matching the hotmap transfer above.
      Prof->noteRelocatedSurvival(Site, Bytes,
                                  !Ctx.IsGcThread || Src->isHot(OldAddr));
    }
    Heap.countRelocation(Ctx.IsGcThread, Bytes);
    Src->noteRelocatedFrom(Ctx.IsGcThread, Bytes);
    HCSGC_TRACE(Heap.traceSession(), Ctx.Trace, Ctx.IsGcThread,
                TraceEventKind::Relocation, Heap.currentCycle(), OldAddr,
                NewAddr, Bytes);
  }
  return Final;
}

uintptr_t hcsgc::relocateOrForward(GcHeap &Heap, Page *Src,
                                   uintptr_t OldAddr, ThreadContext &Ctx) {
  ForwardingTable *Fwd = Src->forwarding();
  assert(Fwd && "relocating from a page without a forwarding table");
  uint32_t Off = Src->offsetOf(OldAddr);
  if (uintptr_t Existing = Fwd->lookup(Off))
    return Existing;

  // A miss means copying, which reads the page. Announce it first: the
  // drain drops the page's memory and side tables once it ends, and
  // waits out every copier announced by then (INTERNALS §4). A drain
  // that ended before the announcement forwarded this object already.
  uintptr_t Final = Src->beginCopy() ? copyAndForward(Heap, Src, OldAddr, Ctx)
                                     : Fwd->lookup(Off);
  Src->endCopy();
  assert(Final && "drained page left a live object unforwarded");
  return Final;
}

void hcsgc::relocatePage(GcHeap &Heap, Page *Src, uint64_t EcCycle,
                         ThreadContext &Ctx) {
  assert(Src->state() == PageState::RelocSource &&
         "draining a page not selected for evacuation");
  const ForwardingTable *Fwd = Src->forwarding();
  Src->forEachLiveObject([&](uintptr_t Addr) {
    if (!Fwd->lookup(Src->offsetOf(Addr)))
      copyAndForward(Heap, Src, Addr, Ctx);
  });
  // Every live object is forwarded. Once the announced copiers are done,
  // only the forwarding table is ever read again: return the memory and
  // the side tables.
  Src->setQuarantineCycle(EcCycle);
  Src->finishDrain();
  Heap.allocator().quarantinePage(Src);
}
