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
#include <iterator>

using namespace hcsgc;

GcDriver::GcDriver(GcHeap &Heap, SafepointManager &SP, RuntimeHooks Hooks)
    : Heap(Heap), SP(SP), Hooks(std::move(Hooks)) {
  const GcConfig &Cfg = Heap.config();

  CoordCtx.IsGcThread = true;
  if (Cfg.EnableProbes)
    CoordCtx.bindProbes(Cfg.Cache);
  Heap.registerContext(&CoordCtx);

  MetricsRegistry &MR = Heap.metrics();
  Met.Cycles = &MR.counter("gc.cycles");
  for (size_t I = 0; I < std::size(CycleCounts); ++I)
    if (CycleCounts[I].Counter)
      Met.Counts[I] = &MR.counter(CycleCounts[I].Counter);
  Met.TempAgingWalks = &MR.counter("temp.aging_walks");
  Met.PauseUs = &MR.histogram("gc.pause_us");
  for (size_t I = 0; I < std::size(CyclePhases); ++I)
    Met.PhaseUs[I] = &MR.histogram(std::string("gc.phase.") +
                                   CyclePhases[I].Name + "_us");
  Met.HotRatioPct = &MR.histogram("gc.hot_ratio_pct");
  Met.RelocBytesPerCycle = &MR.histogram("gc.reloc_bytes_per_cycle");
  Met.ColdResidentBytes = &MR.histogram("coldpage.resident_bytes");

  unsigned NumWorkers = Cfg.GcWorkers ? Cfg.GcWorkers : 1;
  for (unsigned I = 0; I < NumWorkers; ++I) {
    auto Ctx = std::make_unique<ThreadContext>();
    Ctx->IsGcThread = true;
    if (Cfg.EnableProbes)
      Ctx->bindProbes(Cfg.Cache);
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
  // Every GC thread is gone: wait for the replay threads so the
  // simulated counters are final.
  (void)CoordCtx.drainProbes();
  for (auto &Ctx : WorkerCtxs)
    (void)Ctx->drainProbes();
  Heap.unregisterContext(&CoordCtx);
  for (auto &Ctx : WorkerCtxs)
    Heap.unregisterContext(Ctx.get());
}

CacheCounters GcDriver::gcThreadCounters() const {
  // A reader drain of every GC context. Callers hold the documented
  // contract — driver idle or shut down, so no GC thread is recording —
  // which makes touching the producer side (and the const_cast) safe.
  auto &Self = const_cast<GcDriver &>(*this);
  CacheCounters Sum = Self.CoordCtx.drainProbes();
  for (auto &Ctx : Self.WorkerCtxs)
    Sum += Ctx->drainProbes();
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
  Heap.snapshotter().commit(Rec);
  Met.Cycles->increment();
  for (size_t I = 0; I < std::size(CycleCounts); ++I)
    if (Met.Counts[I])
      Met.Counts[I]->add(Rec.*CycleCounts[I].Member);
  for (double Ms : {Rec.Stw1Ms, Rec.Stw2Ms, Rec.Stw3Ms})
    Met.PauseUs->record(static_cast<uint64_t>(Ms * 1000.0));
  for (size_t I = 0; I < std::size(CyclePhases); ++I)
    Met.PhaseUs[I]->record(
        static_cast<uint64_t>(Rec.*CyclePhases[I].Ms * 1000.0));
  if (Rec.LiveBytesMarked > 0)
    Met.HotRatioPct->record(Rec.HotBytesMarked * 100 /
                            Rec.LiveBytesMarked);
  Met.RelocBytesPerCycle->record(Rec.BytesRelocated);
}

void GcDriver::drainRelocationSet(EcSet &Ec, CycleRecord &Rec) {
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

  Heap.takeRelocationCounters(Rec);
  Rec.UsedAfterBytes = Heap.allocator().usedBytes();
}

void GcDriver::finishDeferredCycle() {
  Stopwatch Drain;
  drainRelocationSet(Pending->Ec, Pending->Rec);
  double Ms = Drain.elapsedMs();
  Pending->Rec.RelocMs += Ms;
  Pending->Rec.WallMs += Ms;
  recordCycle(Pending->Rec);
  Pending.reset();
}

void GcDriver::runCycle(bool Emergency) {
  using namespace std::chrono_literals;
  const GcConfig &Cfg = Heap.config();
  CycleRecord Rec;

  // Clock's laps close the CyclePhases back to back, so every step below
  // lands in exactly one; Wall times the whole. The leading drain belongs
  // to the previous cycle.
  Stopwatch Wall, Clock;
  double LeadMs = 0;

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
  if (Pending) {
    Rec.AgingMs += Clock.lapMs();
    finishDeferredCycle();
    LeadMs = Clock.lapMs();
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
  Rec.AgingMs += Clock.lapMs();

  // STW1: flip to the next mark color, retire allocation/relocation
  // target pages, scan and heal roots into the mark queue.
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
  Rec.Stw1Ms = Clock.lapMs();
  HCSGC_INJECT_DELAY(PhaseDelay);

  // Concurrent Mark/Remap with parallel workers; mutators cooperate via
  // their barrier slow paths and flush their stacks at polls.
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
    // finished, end it inside the pause. STW2 is timed inside mark.
    bool Done = false;
    Stopwatch Stw2;
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
    if (Done) {
      Rec.Stw2Ms = Stw2.elapsedMs();
      break;
    }
  }
  waitTaskDone();
  Rec.MarkMs = Clock.lapMs();
  HCSGC_TRACE(Heap.traceSession(), CoordCtx.Trace, true,
              TraceEventKind::PhaseEnd, ThisCycle,
              static_cast<uint64_t>(GcPhase::Mark));
  HCSGC_INJECT_DELAY(PhaseDelay);

  // The post-mark census: one walk reads every page's mark counters
  // (and, under TEMPERATURE, folds its livemap into tier bytes). EC
  // selection, the cycle's snapshot and cold adoption read its rows.
  Heap.takeCensus(Rec);
  Rec.CensusMs = Clock.lapMs();

  // Marking healed every reachable slot, so forwarding tables from the
  // previous cycle can never be consulted again: retire quarantined pages
  // and reuse their address ranges.
  // One batched pass per cycle: each shard's lock is taken at most once.
  Heap.allocator().releaseQuarantinedBefore(Rec.Cycle);

  // Concurrent EC selection; its verdicts land on the census rows.
  EcSet Ec = selectEvacuationCandidates(Heap, CoordCtx, Rec);
  Rec.EcSelectMs = Clock.lapMs();

  // The observatory's one capture per cycle: every census row in its
  // pre-EC state with EC's verdict, before the auto-tuner moves the
  // confidence the weights were computed under.
  Heap.captureSnapshot();
  Rec.SnapshotMs = Clock.lapMs();

  // §4.8 feedback loop (future work in the paper, implemented here as an
  // optional knob): steer COLDCONFIDENCE toward the cold fraction of the
  // live set. A cold-heavy heap means hot objects are buried and worth
  // excavating (confidence up); a hot-dense heap means selection should
  // fall back to plain live bytes (confidence down). Exponential
  // smoothing avoids oscillation. Timed with EC selection.
  if (Cfg.AutoTuneColdConfidence && Rec.LiveBytesMarked > 0) {
    double HotRatio = static_cast<double>(Rec.HotBytesMarked) /
                      static_cast<double>(Rec.LiveBytesMarked);
    double Target = std::min(1.0, std::max(0.0, 1.0 - HotRatio));
    double Cur = Heap.effectiveColdConfidence();
    Heap.setEffectiveColdConfidence(0.6 * Cur + 0.4 * Target);
  }
  HCSGC_INJECT_DELAY(PhaseDelay);
  Rec.EcSelectMs += Clock.lapMs();

  // STW3: flip the good color to R (invalidating every pointer) and heal
  // all roots — relocating root-referenced EC objects on the spot, so
  // that "by the end of STW3, all roots pointing into EC are relocated".
  stwPause(GcPhase::Stw3, ThisCycle, [&] {
    Heap.setGoodColor(PtrColor::R);
    Hooks.ForEachRoot([&](std::atomic<Oop> *Slot) {
      (void)loadBarrier(Heap, Slot, CoordCtx);
    });
  });
  Rec.Stw3Ms = Clock.lapMs();

  // RE: either now (baseline ZGC) or deferred to the start of the next
  // cycle (LAZYRELOCATE), leaving relocation to mutators meanwhile. An
  // emergency cycle always drains immediately: its caller is about to
  // declare exhaustion and needs every reclaimable byte back now.
  HCSGC_INJECT_DELAY(PhaseDelay);
  const bool Defer = Cfg.LazyRelocate && !Emergency;
  if (!Defer)
    drainRelocationSet(Ec, Rec);

  // Cold adoption: a settled page whose whole live population proved
  // cold joins the cold tier unless EC just selected it. Then sample the
  // cold-resident bytes: live data the OS could page out first. Timed
  // with relocation.
  if (Cfg.Temperature && Cfg.ColdPage) {
    for (const CensusRow &Row : Heap.census().Rows)
      if (Row.AdoptCold && Row.Rec.Verdict != EcVerdict::Selected)
        Heap.allocator().notePageTier(Row.P, PageTier::Cold);
    Met.ColdResidentBytes->record(Heap.allocator().coldPageBytes());
  }
  Rec.RelocMs += Clock.lapMs();
  Rec.WallMs = Wall.elapsedMs() - LeadMs;
  if (Defer)
    Pending = Deferred{std::move(Ec), Rec};
  else
    recordCycle(Rec);

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
  if (Pending)
    finishDeferredCycle();
}
