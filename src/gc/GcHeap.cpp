//===- gc/GcHeap.cpp - Shared collector state --------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "gc/GcHeap.h"

#include "inject/FaultInject.h"
#include "support/Compiler.h"

#include <algorithm>

using namespace hcsgc;

/// Sizes the relocation-target reserve: the configured number of small
/// pages plus one medium page, so both target classes can fall back to
/// the reserve at least once per cycle even when the general
/// reservation is fully consumed by quarantined pages.
static size_t relocReserveBytesFor(const GcConfig &C) {
  if (C.RelocReservePages == 0)
    return 0;
  return C.RelocReservePages * C.Geometry.SmallPageSize +
         C.Geometry.MediumPageSize;
}

GcHeap::GcHeap(const GcConfig &C)
    : Cfg(C), Alloc(C.Geometry, C.MaxHeapBytes, C.ReservedBytes,
                    relocReserveBytesFor(C), C.AllocatorShards,
                    C.Hotness && C.Temperature,
                    C.Hotness && C.SiteProfiling),
      Trace(C.TraceBufferEvents) {
  if (!Cfg.knobsValid())
    fatalError("invalid knob combination: COLDPAGE/COLDCONFIDENCE/"
               "TEMPERATURE require HOTNESS, cold reclaim requires "
               "TEMPERATURE+COLDPAGE");
  // The window before the first cycle behaves like a relocation window
  // with an empty EC: the good color starts as R (Fig. 2).
  EffectiveColdConf.store(Cfg.ColdConfidence, std::memory_order_relaxed);
  if (Cfg.TraceEnabled)
    Trace.setEnabled(true);
  Alloc.bindMetrics(Metrics);
  MediumRefills = &Metrics.counter("alloc.tlab.medium_refills");
  StallUs = &Metrics.histogram("alloc.stall_us");
  // Raw-speed instrumentation (INTERNALS §14): created unconditionally so
  // the catalog stays config-independent; batch_* only move when probes
  // are on, prefetch_* whenever the mark path runs.
  BatchFlushes = &Metrics.counter("simcache.batch_flushes");
  BatchEvents = &Metrics.counter("simcache.batch_events");
  MarkPrefetchIssued = &Metrics.counter("mark.prefetch_issued");
  MarkPrefetchDrains = &Metrics.counter("mark.prefetch_drains");
  // Bind unconditionally so the snapshot.* names always exist in the
  // registry (the metrics catalog is config-independent).
  Snap.bindMetrics(Metrics);
  Snap.configure(Cfg.SnapshotLogEnabled, Cfg.SnapshotLogPath);
  // site.* counters are created unconditionally (config-independent
  // catalog, same as snapshot.*); the table only exists — and only then
  // advances them — when the knob is on.
  Counter *SiteTagged = &Metrics.counter("site.tagged_bytes");
  Counter *SiteSurvived = &Metrics.counter("site.survived_bytes");
  Counter *SiteRelocated = &Metrics.counter("site.relocated_bytes");
  Counter *SitePretenured = &Metrics.counter("site.pretenured_bytes");
  Counter *SiteFlips = &Metrics.counter("site.route_flips");
  Counter *SiteCycles = &Metrics.counter("site.profile_cycles");
  if (Cfg.Hotness && Cfg.SiteProfiling) {
    Sites = std::make_unique<SiteProfileTable>(Cfg.SiteProfileCycles);
    Sites->bindMetrics(SiteTagged, SiteSurvived, SiteRelocated,
                       SitePretenured, SiteFlips, SiteCycles);
  }
}

void GcHeap::captureSnapshot(SnapshotPoint Point, uint64_t SnapCycle,
                             const EcAudit *Audit) {
  if (!Snap.enabled())
    return;
  CycleSnapshot S;
  S.Cycle = SnapCycle;
  S.Point = Point;
  S.TimeNs = Trace.nowNs();
  S.ColdConfidence = effectiveColdConfidence();
  S.Hotness = Cfg.Hotness ? 1 : 0;
  S.Temperature = Cfg.Temperature ? 1 : 0;
  // Lock-free registry walk — the same iteration EC selection uses. Pages
  // installed concurrently may be missed; that is fine, a snapshot is a
  // point-in-time sample, not an exhaustive ledger.
  Alloc.forEachActivePage([&](Page &P) {
    PageRecord R;
    R.PageBegin = P.begin();
    R.PageSize = P.size();
    R.UsedBytes = P.used();
    R.LiveBytes = P.liveBytes();
    R.HotBytes = P.hotBytes();
    R.AllocSeq = P.allocSeq();
    R.RelocOutBytesGc = P.relocOutBytesGc();
    R.RelocOutBytesMutator = P.relocOutBytesMutator();
    R.Tier = static_cast<uint8_t>(P.tier());
    if (Cfg.Temperature && P.tracksTemperature()) {
      for (unsigned T = 0; T < Page::TempTiers; ++T)
        R.TempBytes[T] = P.tempTierBytes(T);
      R.Wlb = wlbTempFormula(R.LiveBytes, R.TempBytes, Cfg.Hotness,
                             S.ColdConfidence);
    } else {
      R.Wlb = wlbFormula(R.LiveBytes, R.HotBytes, Cfg.Hotness,
                         S.ColdConfidence);
    }
    switch (P.sizeClass()) {
    case PageSizeClass::Small:
      R.SizeClass = SnapSizeClass::Small;
      break;
    case PageSizeClass::Medium:
      R.SizeClass = SnapSizeClass::Medium;
      break;
    case PageSizeClass::Large:
      R.SizeClass = SnapSizeClass::Large;
      break;
    }
    switch (P.state()) {
    case PageState::Active:
      R.State = SnapPageState::Active;
      break;
    case PageState::RelocSource:
      R.State = SnapPageState::RelocSource;
      break;
    case PageState::Quarantined:
      R.State = SnapPageState::Quarantined;
      break;
    }
    R.Pinned = P.isPinnedAsTarget() ? 1 : 0;
    R.EcSelected = P.state() == PageState::RelocSource ? 1 : 0;
    S.Pages.push_back(R);
  });
  std::sort(S.Pages.begin(), S.Pages.end(),
            [](const PageRecord &A, const PageRecord &B) {
              return A.PageBegin < B.PageBegin;
            });
  if (Sites) {
    for (const SiteStats &St : Sites->snapshot()) {
      SiteRecord R;
      R.SiteIdNum = St.Id;
      R.Name = St.Name;
      R.AllocatedBytes = St.AllocatedBytes;
      R.SurvivedBytes = St.SurvivedBytes;
      R.HotBytes = St.HotBytes;
      R.RelocatedBytes = St.RelocatedBytes;
      R.PretenuredBytes = St.PretenuredBytes;
      R.HotEwma = St.HotEwma;
      R.Route = static_cast<uint8_t>(St.Route);
      S.Sites.push_back(std::move(R));
    }
  }
  if (Audit) {
    S.HasAudit = true;
    S.Audit = *Audit;
  }
  Snap.commit(std::move(S));
}

void GcHeap::registerContext(ThreadContext *Ctx) {
  std::lock_guard<std::mutex> G(ContextLock);
  Ctx->Heap = this;
  // Bind the probe-batching counter mirrors here so every context —
  // mutator, worker, coordinator — gets them from one place.
  Ctx->BatchFlushesCtr = BatchFlushes;
  Ctx->BatchEventsCtr = BatchEvents;
  Contexts.push_back(Ctx);
}

void ThreadContext::releaseAllocTargets() {
  resetAllocTargets();
  if (PretenureAllocPage) {
    Heap->retirePretenurePage(PretenureAllocPage);
    PretenureAllocPage = nullptr;
  }
}

void GcHeap::retirePretenurePage(Page *P) {
  std::lock_guard<std::mutex> G(RetiredLock);
  RetiredPretenure.push_back(P);
}

void GcHeap::unpinRetiredPretenurePages() {
  std::lock_guard<std::mutex> G(RetiredLock);
  for (Page *P : RetiredPretenure)
    P->unpinAsTarget();
  RetiredPretenure.clear();
}

void GcHeap::unregisterContext(ThreadContext *Ctx) {
  std::lock_guard<std::mutex> G(ContextLock);
  Contexts.erase(std::remove(Contexts.begin(), Contexts.end(), Ctx),
                 Contexts.end());
}

void GcHeap::forEachContext(
    const std::function<void(ThreadContext &)> &Fn) {
  std::lock_guard<std::mutex> G(ContextLock);
  for (ThreadContext *Ctx : Contexts)
    Fn(*Ctx);
}

uintptr_t GcHeap::allocateShared(ThreadContext &Ctx, size_t Bytes) {
  PageSizeClass Cls = Cfg.Geometry.sizeClassFor(Bytes);
  assert(Cls != PageSizeClass::Small &&
         "small objects allocate from mutator TLAB pages");

  if (Cls == PageSizeClass::Large) {
    Page *P = Alloc.allocatePage(PageSizeClass::Large, Bytes,
                                 currentCycle());
    if (!P)
      return 0;
    uintptr_t Addr = P->allocate(Bytes);
    assert(Addr && "fresh large page cannot be full");
    return Addr;
  }

  // Medium: refill this thread's medium TLAB. The caller already tried
  // (and failed) to bump into the current MediumAllocPage, so replace it
  // like a small-TLAB refill: unpin the old page, pin the fresh one.
  // Dropped at STW1 by ThreadContext::resetAllocTargets, so it can never
  // linger into EC selection.
  Page *P = Alloc.allocatePage(PageSizeClass::Medium, Bytes,
                               currentCycle());
  if (!P)
    return 0;
  if (Ctx.MediumAllocPage)
    Ctx.MediumAllocPage->unpinAsTarget();
  P->pinAsTarget();
  Ctx.MediumAllocPage = P;
  if (MediumRefills)
    MediumRefills->increment();
  uintptr_t Addr = P->allocate(Bytes);
  assert(Addr && "fresh medium page cannot be full");
  return Addr;
}

Page *GcHeap::allocateRelocTarget(PageSizeClass Cls, size_t ObjectBytes,
                                  PageTier Tier) {
  Page *P = nullptr;
  if (!HCSGC_INJECT_FAIL(RelocTargetAlloc))
    P = Alloc.allocatePage(Cls, ObjectBytes, currentCycle(),
                           /*Force=*/true);
  // The forced path only fails when the whole reservation is consumed
  // (or a fault plan denied it); fall back to the dedicated relocation
  // reserve so evacuation keeps making progress.
  if (!P)
    P = Alloc.allocateReservePage(Cls, ObjectBytes, currentCycle());
  // A concurrent releasePage can return address space between the two
  // attempts, so retry the primary path once before giving up.
  if (!P)
    P = Alloc.allocatePage(Cls, ObjectBytes, currentCycle(),
                           /*Force=*/true);
  if (!P)
    fatalError("address space exhausted while allocating relocation "
               "target (reservation and relocation reserve both empty; "
               "raise ReservedBytes or RelocReservePages)");
  P->pinAsTarget();
  if (Tier != PageTier::None)
    Alloc.notePageTier(P, Tier);
  return P;
}
