//===- gc/Driver.cpp - GC cycle orchestration ---------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "gc/Driver.h"

#include "gc/Barrier.h"
#include "gc/Marker.h"
#include "gc/Relocator.h"
#include "inject/FaultInject.h"
#include "support/MathExtras.h"
#include "support/Stopwatch.h"

#include <cassert>
#include <chrono>
#include <cstdio>

#if __has_include(<sys/mman.h>)
#include <sys/mman.h>
#endif

using namespace hcsgc;

GcDriver::GcDriver(GcHeap &Heap, SafepointManager &SP, RuntimeHooks Hooks)
    : Heap(Heap), SP(SP), Hooks(std::move(Hooks)) {
  const GcConfig &Cfg = Heap.config();

  CoordCtx.IsGcThread = true;
  if (Cfg.EnableProbes) {
    CoordProbe = std::make_unique<CacheHierarchy>(Cfg.Cache);
    CoordCtx.Probe = CoordProbe.get();
  }
  Heap.registerContext(&CoordCtx);

  MetricsRegistry &MR = Heap.metrics();
  Met.Cycles = &MR.counter("gc.cycles");
  Met.RelocObjMut = &MR.counter("gc.reloc.objects_mutator");
  Met.RelocObjGc = &MR.counter("gc.reloc.objects_gc");
  Met.RelocBytesMut = &MR.counter("gc.reloc.bytes_mutator");
  Met.RelocBytesGc = &MR.counter("gc.reloc.bytes_gc");
  Met.LiveBytes = &MR.counter("gc.marked.live_bytes");
  Met.HotBytes = &MR.counter("gc.marked.hot_bytes");
  Met.EcSmallPages = &MR.counter("gc.ec.small_pages");
  Met.EcMediumPages = &MR.counter("gc.ec.medium_pages");
  Met.EmptyReclaimed = &MR.counter("gc.ec.empty_pages_reclaimed");
  Met.TempHotBytes = &MR.counter("temp.hot_bytes");
  Met.TempWarmBytes = &MR.counter("temp.warm_bytes");
  Met.TempColdBytes = &MR.counter("temp.cold_bytes");
  Met.TempAgingWalks = &MR.counter("temp.aging_walks");
  Met.ColdRelocBytes = &MR.counter("coldpage.relocated_bytes");
  Met.ColdMadviseCalls = &MR.counter("coldpage.madvise_calls");
  Met.ColdMadviseBytes = &MR.counter("coldpage.madvise_bytes");
  Met.PauseUs = &MR.histogram("gc.pause_us");
  Met.HotRatioPct = &MR.histogram("gc.hot_ratio_pct");
  Met.RelocBytesPerCycle = &MR.histogram("gc.reloc_bytes_per_cycle");
  Met.ColdResidentBytes = &MR.histogram("coldpage.resident_bytes");

  unsigned NumWorkers = Cfg.GcWorkers ? Cfg.GcWorkers : 1;
  for (unsigned I = 0; I < NumWorkers; ++I) {
    auto Ctx = std::make_unique<ThreadContext>();
    Ctx->IsGcThread = true;
    if (Cfg.EnableProbes) {
      WorkerProbes.push_back(std::make_unique<CacheHierarchy>(Cfg.Cache));
      Ctx->Probe = WorkerProbes.back().get();
    }
    Heap.registerContext(Ctx.get());
    WorkerCtxs.push_back(std::move(Ctx));
  }
  for (unsigned I = 0; I < NumWorkers; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
  Coordinator = std::thread([this] { coordinatorLoop(); });
}

GcDriver::~GcDriver() { shutdown(); }

void GcDriver::requestCycle() {
  std::lock_guard<std::mutex> G(CycleLock);
  if (!CycleRequested) {
    CycleRequested = true;
    CycleCv.notify_all();
  }
}

uint64_t GcDriver::completedCycles() const {
  std::lock_guard<std::mutex> G(CycleLock);
  return Completed;
}

void GcDriver::waitForCompletedCycles(uint64_t N) {
  std::unique_lock<std::mutex> L(CycleLock);
  CycleCv.wait(L, [&] { return Completed >= N || ExitRequested; });
}

void GcDriver::waitIdle() {
  std::unique_lock<std::mutex> L(CycleLock);
  CycleCv.wait(L, [&] {
    return (!InCycle && !CycleRequested) || ExitRequested;
  });
}

void GcDriver::requestCycleAndWait() {
  uint64_t Target;
  {
    std::lock_guard<std::mutex> G(CycleLock);
    Target = Completed + 1;
    CycleRequested = true;
    CycleCv.notify_all();
  }
  waitForCompletedCycles(Target);
}

void GcDriver::requestCyclesAndWait(unsigned N) {
  for (unsigned I = 0; I < N; ++I)
    requestCycleAndWait();
}

void GcDriver::requestEmergencyCycleAndWait() {
  uint64_t Target;
  {
    std::lock_guard<std::mutex> G(CycleLock);
    Target = EmergencyCompleted + 1;
    EmergencyRequested = true;
    CycleRequested = true;
    CycleCv.notify_all();
  }
  std::unique_lock<std::mutex> L(CycleLock);
  CycleCv.wait(
      L, [&] { return EmergencyCompleted >= Target || ExitRequested; });
}

void GcDriver::shutdown() {
  {
    std::lock_guard<std::mutex> G(CycleLock);
    if (ExitRequested && !Coordinator.joinable())
      return;
    ExitRequested = true;
    CycleCv.notify_all();
  }
  if (Coordinator.joinable())
    Coordinator.join();
  startTask(Task::Exit);
  for (std::thread &W : Workers)
    if (W.joinable())
      W.join();
  Heap.unregisterContext(&CoordCtx);
  for (auto &Ctx : WorkerCtxs)
    Heap.unregisterContext(Ctx.get());
}

CacheCounters GcDriver::gcThreadCounters() const {
  // Workers drained their batches at task end (workerLoop); the
  // coordinator's ring can still hold events from root scans and EC
  // selection, so drain it here. Callers hold the documented contract —
  // driver idle or shut down — which makes the const_cast safe.
  const_cast<GcDriver *>(this)->CoordCtx.flushProbes();
  CacheCounters Sum;
  if (CoordProbe)
    Sum += CoordProbe->counters();
  for (const auto &P : WorkerProbes)
    Sum += P->counters();
  return Sum;
}

// --- Worker task machinery ----------------------------------------------

void GcDriver::startTask(Task T) {
  std::lock_guard<std::mutex> G(TaskLock);
  CurrentTask = T;
  ++TaskEpoch;
  RunningWorkers = static_cast<unsigned>(Workers.size());
  TaskCv.notify_all();
}

void GcDriver::waitTaskDone() {
  std::unique_lock<std::mutex> L(TaskLock);
  TaskDoneCv.wait(L, [&] { return RunningWorkers == 0; });
  CurrentTask = Task::None;
}

void GcDriver::workerLoop(unsigned Id) {
  ThreadContext &Ctx = *WorkerCtxs[Id];
  uint64_t SeenEpoch = 0;
  for (;;) {
    Task T;
    {
      std::unique_lock<std::mutex> L(TaskLock);
      TaskCv.wait(L, [&] { return TaskEpoch != SeenEpoch; });
      SeenEpoch = TaskEpoch;
      T = CurrentTask;
    }
    if (T == Task::Exit)
      return;
    if (T == Task::Mark)
      markTask(Ctx);
    else if (T == Task::Relocate)
      relocateTask(Ctx);
    // Worker-side drain of the probe-event batch: by the time the
    // coordinator sees RunningWorkers == 0 every worker ring is empty,
    // so gcThreadCounters never reads a worker mid-batch.
    Ctx.flushProbes();
    {
      std::lock_guard<std::mutex> G(TaskLock);
      if (--RunningWorkers == 0)
        TaskDoneCv.notify_all();
    }
  }
}

void GcDriver::markTask(ThreadContext &Ctx) {
  using namespace std::chrono_literals;
  for (;;) {
    (void)drainMarkWork(Heap, Ctx);
    if (StopMark.load(std::memory_order_acquire))
      return;
    // No work: declare idle, then wait for the queue to refill. The
    // ordering (idle++ only while provably empty-handed, idle-- before
    // taking work again) is what makes the coordinator's termination
    // check inside STW2 sound.
    IdleWorkers.fetch_add(1, std::memory_order_acq_rel);
    while (!StopMark.load(std::memory_order_acquire) &&
           Heap.markQueue().empty())
      std::this_thread::sleep_for(50us);
    IdleWorkers.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void GcDriver::relocateTask(ThreadContext &Ctx) {
  for (;;) {
    size_t I = RelocNext.fetch_add(1, std::memory_order_relaxed);
    if (I >= RelocPages.size())
      return;
    relocatePage(Heap, RelocPages[I], RelocEcCycle, Ctx);
  }
}

// --- Cycle machine ---------------------------------------------------------

void GcDriver::stwPause(GcPhase Phase, uint64_t Cycle,
                        const std::function<void()> &Fn) {
  HCSGC_TRACE(Heap.traceSession(), CoordCtx.Trace, true,
              TraceEventKind::PauseBegin, Cycle,
              static_cast<uint64_t>(Phase));
  SP.beginPause();
  Fn();
  SP.endPause();
  HCSGC_TRACE(Heap.traceSession(), CoordCtx.Trace, true,
              TraceEventKind::PauseEnd, Cycle,
              static_cast<uint64_t>(Phase));
}

void GcDriver::recordCycle(const CycleRecord &Rec) {
  Heap.stats().addCycle(Rec);
  Met.Cycles->increment();
  Met.RelocObjMut->add(Rec.ObjectsRelocatedByMutators);
  Met.RelocObjGc->add(Rec.ObjectsRelocatedByGc);
  Met.RelocBytesMut->add(Rec.BytesRelocatedByMutators);
  Met.RelocBytesGc->add(Rec.BytesRelocatedByGc);
  Met.LiveBytes->add(Rec.LiveBytesMarked);
  Met.HotBytes->add(Rec.HotBytesMarked);
  Met.EcSmallPages->add(Rec.SmallPagesInEc);
  Met.EcMediumPages->add(Rec.MediumPagesInEc);
  Met.EmptyReclaimed->add(Rec.EmptyPagesReclaimed);
  for (double Ms : {Rec.Stw1Ms, Rec.Stw2Ms, Rec.Stw3Ms})
    Met.PauseUs->record(static_cast<uint64_t>(Ms * 1000.0));
  if (Rec.LiveBytesMarked > 0)
    Met.HotRatioPct->record(Rec.HotBytesMarked * 100 /
                            Rec.LiveBytesMarked);
  Met.RelocBytesPerCycle->record(Rec.BytesRelocated);
}

void GcDriver::drainRelocationSet(EcSet &Ec, CycleRecord &Rec) {
  Stopwatch Sw;
  HCSGC_TRACE(Heap.traceSession(), CoordCtx.Trace, true,
              TraceEventKind::PhaseBegin, Ec.Cycle,
              static_cast<uint64_t>(GcPhase::Relocate));
  RelocPages = Ec.Pages;
  RelocNext.store(0, std::memory_order_relaxed);
  RelocEcCycle = Ec.Cycle;
  startTask(Task::Relocate);
  waitTaskDone();
  RelocPages.clear();
  HCSGC_TRACE(Heap.traceSession(), CoordCtx.Trace, true,
              TraceEventKind::PhaseEnd, Ec.Cycle,
              static_cast<uint64_t>(GcPhase::Relocate));

  uint64_t ByMut = 0, ByGc = 0, BytesMut = 0, BytesGc = 0;
  Heap.takeRelocationCounters(ByMut, ByGc, BytesMut, BytesGc);
  if (uint64_t ColdBytes = Heap.takeColdRelocationBytes())
    Met.ColdRelocBytes->add(ColdBytes);
  Rec.ObjectsRelocatedByMutators += ByMut;
  Rec.ObjectsRelocatedByGc += ByGc;
  Rec.BytesRelocatedByMutators += BytesMut;
  Rec.BytesRelocatedByGc += BytesGc;
  Rec.BytesRelocated += BytesMut + BytesGc;
  Rec.RelocMs += Sw.elapsedMs();
  Rec.UsedAfterBytes = Heap.allocator().usedBytes();

  if (Heap.config().VerboseGc)
    std::fprintf(stderr,
                 "[gc] cycle=%llu ec_small=%llu ec_medium=%llu empty=%llu "
                 "reloc_mut=%llu reloc_gc=%llu live=%lluK hot=%lluK "
                 "used=%lluK\n",
                 (unsigned long long)Rec.Cycle,
                 (unsigned long long)Rec.SmallPagesInEc,
                 (unsigned long long)Rec.MediumPagesInEc,
                 (unsigned long long)Rec.EmptyPagesReclaimed,
                 (unsigned long long)Rec.ObjectsRelocatedByMutators,
                 (unsigned long long)Rec.ObjectsRelocatedByGc,
                 (unsigned long long)(Rec.LiveBytesMarked / 1024),
                 (unsigned long long)(Rec.HotBytesMarked / 1024),
                 (unsigned long long)(Rec.UsedAfterBytes / 1024));
}

void GcDriver::accumulateTemperatureTiers(uint64_t Cycle) {
  uint64_t Tiers[Page::TempTiers] = {0, 0, 0, 0};
  Heap.allocator().forEachActivePage([&](Page &P) {
    if (!P.tracksTemperature())
      return;
    // Pages installed during this cycle have no trustworthy livemap yet
    // (same filter the EC selector applies); leave their totals zeroed so
    // the temperature WLB degrades to plain live bytes for them.
    if (P.allocSeq() >= Cycle) {
      P.accumulateTempTierBytes(); // zeroes stale totals
      return;
    }
    P.accumulateTempTierBytes();
    for (unsigned T = 0; T < Page::TempTiers; ++T)
      Tiers[T] += P.tempTierBytes(T);
  });
  // Tier 2-3 objects were referenced recently enough to count as hot;
  // tier 1 is cooling; tier 0 is the cold candidate mass.
  Met.TempHotBytes->add(Tiers[2] + Tiers[3]);
  Met.TempWarmBytes->add(Tiers[1]);
  Met.TempColdBytes->add(Tiers[0]);
}

void GcDriver::coldReclaimPass(uint64_t Cycle) {
  Heap.allocator().forEachActivePage([&](Page &P) {
    // Adoption: a settled page whose whole live population proved cold
    // joins the cold tier. All-cold pages keep WLB == live bytes
    // (§3.1.3: nothing to excavate), so EC never re-selects them and
    // relocation can never route their objects to a cold destination —
    // without adoption their bytes would sit outside the reclaimable
    // accounting forever. The tier totals are from this cycle's
    // accumulate pass, so only pages that predate the cycle (and were
    // not selected: still Active, not pinned) are judged.
    if (P.tracksTemperature() && P.tier() != PageTier::Cold &&
        P.state() == PageState::Active && !P.isPinnedAsTarget() &&
        P.allocSeq() < Cycle && P.liveBytes() > 0 &&
        P.provenColdBytes() == P.liveBytes())
      Heap.allocator().notePageTier(&P, PageTier::Cold);
  });
  // Total cold-tier RSS the OS could drop without losing live data (the
  // pages are live, MADV_COLD only deactivates them — never DONTNEED).
  Met.ColdResidentBytes->record(Heap.allocator().coldPageBytes());
  if (!Heap.config().ColdReclaim)
    return;
  Heap.allocator().forEachActivePage([&](Page &P) {
    if (P.tier() != PageTier::Cold || P.isPinnedAsTarget() ||
        P.madviseDone())
      return;
    P.setMadviseDone();
    Met.ColdMadviseCalls->increment();
    Met.ColdMadviseBytes->add(P.size());
#ifdef MADV_COLD
    ::madvise(reinterpret_cast<void *>(P.begin()), P.size(), MADV_COLD);
#endif
  });
}

void GcDriver::runCycle(bool Emergency) {
  using namespace std::chrono_literals;
  const GcConfig &Cfg = Heap.config();
  CycleRecord Rec;

  // The cycle number STW1 will assign below; only the coordinator bumps
  // the counter, so reading it early is race-free. The trace marks the
  // cycle as begun *before* the lazy drain: under LAZYRELOCATE "each GC
  // cycle (except the first) starts with releasing memory" (Fig. 3), and
  // the invariant tests lean on that ordering.
  const uint64_t ThisCycle = Heap.currentCycle() + 1;
  HCSGC_TRACE(Heap.traceSession(), CoordCtx.Trace, true,
              TraceEventKind::CycleBegin, ThisCycle);
  if (Emergency)
    HCSGC_TRACE(Heap.traceSession(), CoordCtx.Trace, true,
                TraceEventKind::EmergencyCycle, ThisCycle,
                Heap.allocator().usedBytes(),
                Heap.allocator().quarantinedBytes());
  HCSGC_INJECT_DELAY(PhaseDelay);

  // Phase 0 (LAZYRELOCATE, Fig. 3): "each GC cycle (except the first)
  // starts with releasing memory" — drain the previous cycle's deferred
  // relocation set. The good color is still R, so the invariants match a
  // normal RE phase; mutators have had the whole inter-cycle window to
  // relocate in access order.
  if (PendingEc) {
    drainRelocationSet(*PendingEc, *PendingRecord);
    recordCycle(*PendingRecord);
    PendingEc.reset();
    PendingRecord.reset();
  }

  // Reset livemaps/hotmaps ahead of STW1. No thread writes marking
  // metadata outside the M/R phase, so this is safe to do concurrently
  // and keeps the pause brief. §3.1.2: "the hotmap is reset at the start
  // of every marking phase". Under TEMPERATURE the reset walk doubles as
  // the aging walk: flagHot only fires while markActive, which is false
  // here, so folding last cycle's hotmap into the 2-bit counters (decay
  // if unreferenced, cold-streak bump at zero) cannot race a bump.
  {
    // Walks the allocator's page registries in place: no snapshot vector
    // is copied and no allocator lock is taken (only the coordinator
    // releases pages, so coordinator-side iteration cannot race page
    // teardown).
    size_t NumPages = 0;
    const bool Age = Cfg.Temperature;
    // SITEPROFILING piggybacks on the same walk: fold last cycle's final
    // livemap/hotmap into the per-site survival window before the reset
    // wipes them, then close the profile window (EWMA aging + route
    // refresh) so mutators allocate under the new verdicts from STW1 on.
    SiteProfileTable *Prof = Heap.siteProfile();
    Heap.allocator().forEachActivePage([&](Page &P) {
      if (Prof && P.tracksSites() && P.liveBytes() > 0)
        P.forEachLiveObject([&](uintptr_t Addr) {
          ObjectView V(Addr);
          Prof->noteSurvival(P.siteOf(Addr),
                             alignUp(V.sizeBytes(), ObjectAlignment),
                             P.isHot(Addr));
        });
      if (Age)
        P.ageTemperature();
      P.clearMarkState();
      ++NumPages;
    });
    if (Age)
      Met.TempAgingWalks->increment();
    if (Prof)
      Prof->endCycle();
    HCSGC_TRACE(Heap.traceSession(), CoordCtx.Trace, true,
                TraceEventKind::HotmapReset, ThisCycle, NumPages);
  }

  // STW1: flip to the next mark color, retire allocation/relocation
  // target pages, scan and heal roots into the mark queue.
  Stopwatch PauseSw;
  stwPause(GcPhase::Stw1, ThisCycle, [&] {
    Rec.Cycle = Heap.bumpCycle();
    LastMarkColor = nextMarkColor(LastMarkColor);
    Heap.setGoodColor(LastMarkColor);
    Heap.setMarkActive(true);
    // resetAllocTargets drops every per-thread bump target, including
    // the medium TLABs that replaced the old shared medium page — there
    // is no longer any global allocation page to reset separately. The
    // one exception is the pretenure TLAB: it keeps its pin so EC skips
    // the slowly-filling cold page instead of churning it. Pretenure
    // pages retired since the last STW1 unpin now: this cycle's marking
    // is the first to cover every object bumped into them.
    Heap.forEachContext([](ThreadContext &C) {
      assert(C.MarkBuffer.empty() && "mark buffer survived across cycles");
      C.resetAllocTargets();
    });
    Heap.unpinRetiredPretenurePages();
    Hooks.ForEachRoot(
        [&](std::atomic<Oop> *Slot) { markSlot(Heap, Slot, CoordCtx); });
    flushMarkBuffer(Heap, CoordCtx);
  });
  Rec.Stw1Ms = PauseSw.elapsedMs();
  HCSGC_INJECT_DELAY(PhaseDelay);

  // Concurrent Mark/Remap with parallel workers; mutators cooperate via
  // their barrier slow paths and flush their stacks at polls.
  Stopwatch MarkSw;
  HCSGC_TRACE(Heap.traceSession(), CoordCtx.Trace, true,
              TraceEventKind::PhaseBegin, ThisCycle,
              static_cast<uint64_t>(GcPhase::Mark));
  StopMark.store(false, std::memory_order_release);
  startTask(Task::Mark);
  unsigned NumWorkers = static_cast<unsigned>(Workers.size());
  for (;;) {
    while (!(IdleWorkers.load(std::memory_order_acquire) == NumWorkers &&
             Heap.markQueue().empty()))
      std::this_thread::sleep_for(100us);

    // STW2 candidate: flush mutator mark stacks; if marking is truly
    // finished, end it inside the pause.
    bool Done = false;
    PauseSw.restart();
    stwPause(GcPhase::Stw2, ThisCycle, [&] {
      Heap.forEachContext([&](ThreadContext &C) {
        if (!C.IsGcThread)
          flushMarkBuffer(Heap, C);
      });
      if (Heap.markQueue().empty() &&
          IdleWorkers.load(std::memory_order_acquire) == NumWorkers) {
        Heap.setMarkActive(false);
        StopMark.store(true, std::memory_order_release);
        Done = true;
      }
    });
    if (Done)
      break;
  }
  Rec.Stw2Ms = PauseSw.elapsedMs();
  waitTaskDone();
  Rec.MarkMs = MarkSw.elapsedMs();
  HCSGC_TRACE(Heap.traceSession(), CoordCtx.Trace, true,
              TraceEventKind::PhaseEnd, ThisCycle,
              static_cast<uint64_t>(GcPhase::Mark));
  HCSGC_INJECT_DELAY(PhaseDelay);

  // With TEMPERATURE on, fold the final livemaps into per-tier byte
  // totals now: both the AfterMark snapshot below and the EC selector
  // read Page::tempTierBytes, so the accumulation must come first.
  if (Cfg.Temperature)
    accumulateTemperatureTiers(Rec.Cycle);

  // Observatory capture point 1: livemaps/hotmaps are final, nothing has
  // been reclaimed or selected yet.
  Heap.captureSnapshot(SnapshotPoint::AfterMark, Rec.Cycle, nullptr);

  // Marking healed every reachable slot, so forwarding tables from the
  // previous cycle can never be consulted again: retire quarantined pages
  // and reuse their address ranges.
  // One batched pass per cycle: each shard's lock is taken at most once.
  Heap.allocator().releaseQuarantinedBefore(Rec.Cycle);

  // Concurrent EC selection, audited when the observatory is armed.
  EcAudit Audit;
  bool WantAudit = Heap.snapshotter().enabled();
  EcSet Ec = selectEvacuationCandidates(Heap, CoordCtx,
                                        WantAudit ? &Audit : nullptr);
  Rec.SmallPagesInEc = Ec.SmallCount;
  Rec.MediumPagesInEc = Ec.MediumCount;
  Rec.EmptyPagesReclaimed = Ec.EmptyReclaimed;
  Rec.LiveBytesMarked = Ec.LiveBytesTotal;
  Rec.HotBytesMarked = Ec.HotBytesTotal;

  // Observatory capture point 2: selected pages are now RelocSource; the
  // audit rides along. Taken before the auto-tuner moves the effective
  // confidence so the snapshot's WLBs match the audit's.
  Heap.captureSnapshot(SnapshotPoint::AfterEc, Rec.Cycle,
                       WantAudit ? &Audit : nullptr);

  // §4.8 feedback loop (future work in the paper, implemented here as an
  // optional knob): steer COLDCONFIDENCE toward the cold fraction of the
  // live set. A cold-heavy heap means hot objects are buried and worth
  // excavating (confidence up); a hot-dense heap means selection should
  // fall back to plain live bytes (confidence down). Exponential
  // smoothing avoids oscillation.
  if (Cfg.AutoTuneColdConfidence && Rec.LiveBytesMarked > 0) {
    double HotRatio = static_cast<double>(Rec.HotBytesMarked) /
                      static_cast<double>(Rec.LiveBytesMarked);
    double Target = std::min(1.0, std::max(0.0, 1.0 - HotRatio));
    double Cur = Heap.effectiveColdConfidence();
    Heap.setEffectiveColdConfidence(0.6 * Cur + 0.4 * Target);
  }

  // STW3: flip the good color to R (invalidating every pointer) and heal
  // all roots — relocating root-referenced EC objects on the spot, so
  // that "by the end of STW3, all roots pointing into EC are relocated".
  HCSGC_INJECT_DELAY(PhaseDelay);
  PauseSw.restart();
  stwPause(GcPhase::Stw3, ThisCycle, [&] {
    Heap.setGoodColor(PtrColor::R);
    Hooks.ForEachRoot([&](std::atomic<Oop> *Slot) {
      (void)loadBarrier(Heap, Slot, CoordCtx);
    });
  });
  Rec.Stw3Ms = PauseSw.elapsedMs();

  // RE: either now (baseline ZGC) or deferred to the start of the next
  // cycle (LAZYRELOCATE), leaving relocation to mutators meanwhile. An
  // emergency cycle always drains immediately: its caller is about to
  // declare exhaustion and needs every reclaimable byte back now.
  HCSGC_INJECT_DELAY(PhaseDelay);
  if (Cfg.LazyRelocate && !Emergency) {
    PendingEc = std::move(Ec);
    PendingRecord = Rec;
  } else {
    drainRelocationSet(Ec, Rec);
    recordCycle(Rec);
  }

  // Cold pages populated during RE (or by mutators, under LAZYRELOCATE)
  // are stable until some future cycle routes their survivors elsewhere:
  // account their resident bytes as reclaimable RSS and advise the
  // kernel once per page.
  if (Cfg.Temperature && Cfg.ColdPage)
    coldReclaimPass(Rec.Cycle);

  // End-of-cycle probe drain: the coordinator's ring holds the root-scan
  // and EC-selection accesses of this cycle.
  CoordCtx.flushProbes();

  HCSGC_TRACE(Heap.traceSession(), CoordCtx.Trace, true,
              TraceEventKind::CycleEnd, ThisCycle);
}

void GcDriver::coordinatorLoop() {
  for (;;) {
    bool Emergency = false;
    {
      std::unique_lock<std::mutex> L(CycleLock);
      CycleCv.wait(L, [&] { return CycleRequested || ExitRequested; });
      if (!CycleRequested && ExitRequested)
        break;
      CycleRequested = false;
      Emergency = EmergencyRequested;
      EmergencyRequested = false;
      InCycle = true;
    }
    runCycle(Emergency);
    Heap.resetAllocatedSinceCycle();
    {
      std::lock_guard<std::mutex> G(CycleLock);
      ++Completed;
      if (Emergency)
        ++EmergencyCompleted;
      InCycle = false;
      CycleCv.notify_all();
    }
  }

  // Drain any deferred relocation so statistics are complete and all
  // memory accounting is final before the runtime tears down.
  if (PendingEc) {
    drainRelocationSet(*PendingEc, *PendingRecord);
    recordCycle(*PendingRecord);
    PendingEc.reset();
    PendingRecord.reset();
  }
}
