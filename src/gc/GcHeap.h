//===- gc/GcHeap.h - Shared collector state --------------------*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// GcHeap is the shared state every barrier, marker, relocator and the
/// cycle driver operate on: the page allocator, the global good color,
/// the cycle counter, the shared mark queue, and per-cycle accounting.
/// ThreadContext carries the per-thread pieces: the local mark stack, the
/// relocation destination pages (hot page, cold page, medium page) and
/// the optional cache simulator with its probe queue.
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_GC_GCHEAP_H
#define HCSGC_GC_GCHEAP_H

#include "gc/ColoredPtr.h"
#include "gc/GcConfig.h"
#include "gc/GcStats.h"
#include "gc/MarkQueue.h"
#include "gc/SiteProfile.h"
#include "heap/PageAllocator.h"
#include "observe/HeapSnapshot.h"
#include "observe/Metrics.h"
#include "observe/TraceBuffer.h"
#include "simcache/Hierarchy.h"
#include "simcache/ProbeBatch.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

namespace hcsgc {

/// Per-thread GC state. One per mutator, one per GC worker, one for the
/// coordinator. Registered with the GcHeap so stop-the-world operations
/// can reset relocation targets and flush mark buffers.
struct ThreadContext {
  class GcHeap *Heap = nullptr;
  /// Lazily bound per-thread trace ring; owned by the heap's
  /// TraceSession. Stays nullptr until this thread records its first
  /// event with tracing enabled.
  TraceBuffer *Trace = nullptr;
  bool IsGcThread = false;

  /// Thread-local mark stack (see MarkQueue.h).
  MarkChunk MarkBuffer;

  /// Relocation destination pages. §3.3: "each GC thread in HCSGC has two
  /// thread-local pages, for hot and cold objects, respectively."
  /// Mutators only use the hot target (objects they relocate are hot by
  /// definition). TEMPERATURE adds a third, warm, destination so
  /// GC-side relocation can keep proven-cold survivors (cold streak >=
  /// Page::ProvenColdStreak) apart from merely not-recently-touched ones
  /// (INTERNALS §13).
  Page *TargetSmallHot = nullptr;
  Page *TargetSmallWarm = nullptr;
  Page *TargetSmallCold = nullptr;
  Page *TargetMedium = nullptr;

  /// Mutator TLAB: the small page this thread bump-allocates new objects
  /// from.
  Page *AllocPage = nullptr;

  /// Mutator medium TLAB: the medium page this thread bump-allocates
  /// medium-sized objects from. Thread-private like AllocPage — medium
  /// allocation used to funnel through one shared page under a global
  /// lock; now only the refill (GcHeap::allocateShared) is a slow path.
  Page *MediumAllocPage = nullptr;

  /// Secondary mutator TLAB for pretenured allocations (SITEPROFILING,
  /// INTERNALS §13): small objects whose allocation site has proven
  /// persistently cold bump-allocate here instead of AllocPage, so they
  /// are born on a warm/cold-tier page and never dilute hot pages.
  Page *PretenureAllocPage = nullptr;

  /// Dropped at STW1 so no page being bump-allocated into can become an
  /// EC candidate. Unpins each page so the EC dead-page fast path can
  /// reclaim it once its objects die. The pretenure TLAB deliberately
  /// survives the reset: cold-routed sites trickle-fill it over several
  /// cycles, and dropping it each cycle would expose a half-full cold
  /// page whose low live ratio makes it a bargain EC candidate — the
  /// selector would relocate the very bytes pretenuring just placed.
  /// EC skips pinned pages instead, so the page stays invisible until
  /// it fills, is retired (GcHeap::retirePretenurePage), and competes
  /// as an ordinary (by then all-cold, near-full) page.
  void resetAllocTargets() {
    for (Page *P : {TargetSmallHot, TargetSmallWarm, TargetSmallCold,
                    TargetMedium, AllocPage, MediumAllocPage})
      if (P)
        P->unpinAsTarget();
    TargetSmallHot = TargetSmallWarm = TargetSmallCold = TargetMedium =
        nullptr;
    AllocPage = nullptr;
    MediumAllocPage = nullptr;
  }

  /// Full release for thread detach: everything resetAllocTargets drops
  /// plus the persistent pretenure TLAB, which is retired to the heap.
  void releaseAllocTargets();

  // Batched probe recording (INTERNALS §14.1): the instrumented fast
  // path is a bounds-checked store into the current slot plus an
  // increment; a full slot goes to the replay thread, which simulates
  // it off this thread's critical path. With probes off each call is
  // still a single predictable null test.
  void probeLoad(uintptr_t Addr, uint32_t Bytes) {
    if (Sim && Batch.record(Addr, Bytes, /*IsStore=*/false))
      publishProbes();
  }
  void probeStore(uintptr_t Addr, uint32_t Bytes) {
    if (Sim && Batch.record(Addr, Bytes, /*IsStore=*/true))
      publishProbes();
  }
  void probeCompute(uint64_t Cycles) {
    if (Sim)
      Batch.addCompute(Cycles);
  }

  /// Creates this thread's cache simulator and binds the probe queue to
  /// it (probes on). Call once, before the thread records anything.
  void bindProbes(const CacheConfig &Cfg) {
    Sim = std::make_unique<CacheHierarchy>(Cfg);
    Batch.bind(*Sim);
  }

  /// Hands the current slot to the replay thread and publishes the
  /// batching stats to the simcache.batch_* counters. Called when a slot
  /// fills.
  void publishProbes() {
    Batch.publish();
    if (BatchFlushesCtr && Batch.Flushes != ReportedFlushes) {
      BatchFlushesCtr->add(Batch.Flushes - ReportedFlushes);
      ReportedFlushes = Batch.Flushes;
    }
    if (BatchEventsCtr && Batch.EventsFlushed != ReportedEvents) {
      BatchEventsCtr->add(Batch.EventsFlushed - ReportedEvents);
      ReportedEvents = Batch.EventsFlushed;
    }
  }

  /// The reader drain: publishes the partial slot, waits until the
  /// replay thread has simulated every recorded event, and \returns the
  /// simulator's counters (zero with probes off). Call from the owning
  /// thread, or while it is parked, idle or detached.
  CacheCounters drainProbes() {
    if (!Sim)
      return CacheCounters();
    publishProbes();
    Batch.drain();
    return Sim->counters();
  }

  /// This thread's cache simulator, or null with probes off. Declared
  /// before Batch so Batch's replay thread is joined before it dies.
  std::unique_ptr<CacheHierarchy> Sim;
  /// Per-thread probe event queue (see simcache/ProbeBatch.h).
  ProbeBatch Batch;
  /// simcache.batch_* counter mirrors, bound by GcHeap::registerContext.
  Counter *BatchFlushesCtr = nullptr;
  Counter *BatchEventsCtr = nullptr;
  /// Software prefetches issued on the mark path since the last publish
  /// (drained into mark.prefetch_issued by GcHeap::publishMarkPrefetches).
  uint64_t MarkPrefetchPending = 0;

private:
  uint64_t ReportedFlushes = 0;
  uint64_t ReportedEvents = 0;
};

/// One active page as the post-mark census read it (INTERNALS §12).
struct CensusRow {
  /// The page; null once EC selection has released it as dead.
  Page *P = nullptr;
  /// What the cycle's snapshot records: live/hot/tier bytes, WLB, state
  /// and pin as the census read them, plus EC selection's verdict and
  /// weight (set only on rows whose page predates the cycle).
  PageRecord Rec;
  /// Settled page whose whole live population has proven cold: it joins
  /// the cold tier unless EC selects it.
  bool AdoptCold = false;
};

/// The per-cycle page table one post-mark walk fills; reused across
/// cycles. The snapshot, EC selection and cold adoption read it instead
/// of walking the heap again.
struct PageCensus {
  uint64_t Cycle = 0;
  /// Effective COLDCONFIDENCE the row WLBs were computed under.
  double ColdConfidence = 0.0;
  std::vector<CensusRow> Rows;
  /// The budgets and reclamation demand EC selection ran under (zero
  /// until it runs).
  double BudgetSmall = 0.0;
  double BudgetMedium = 0.0;
  double RequiredFree = 0.0;
};

/// Shared collector state.
class GcHeap {
public:
  explicit GcHeap(const GcConfig &Cfg);

  const GcConfig &config() const { return Cfg; }
  PageAllocator &allocator() { return Alloc; }
  const PageAllocator &allocator() const { return Alloc; }
  PageTable &pageTable() { return Alloc.pageTable(); }
  GcStats &stats() { return Stats; }
  MarkQueue &markQueue() { return Queue; }
  TraceSession &traceSession() { return Trace; }
  const TraceSession &traceSession() const { return Trace; }
  MetricsRegistry &metrics() { return Metrics; }
  HeapSnapshotter &snapshotter() { return Snap; }
  const HeapSnapshotter &snapshotter() const { return Snap; }

  /// Allocation-site profile table, or nullptr unless SITEPROFILING is
  /// on (callers gate every hook on this, so the knob-off cost is one
  /// null check on paths that already took a slow branch).
  SiteProfileTable *siteProfile() { return Sites.get(); }
  const SiteProfileTable *siteProfile() const { return Sites.get(); }

  /// Records a mutator allocation stall (blocked waiting for a GC cycle)
  /// into the alloc.stall_us histogram.
  void recordAllocStall(uint64_t Micros) {
    if (StallUs)
      StallUs->record(Micros);
  }

  /// Drains \p Ctx's pending mark-path prefetch count into
  /// mark.prefetch_issued and counts the publish in mark.prefetch_drains
  /// when it carried any. Called at the end of each drainMarkWork pass
  /// and when a thread flushes its mark buffer.
  void publishMarkPrefetches(ThreadContext &Ctx) {
    if (Ctx.MarkPrefetchPending == 0)
      return;
    MarkPrefetchIssued->add(Ctx.MarkPrefetchPending);
    MarkPrefetchDrains->increment();
    Ctx.MarkPrefetchPending = 0;
  }

  /// Coordinator-only, after mark termination: walks the allocator's
  /// lock-free active-page registries once and refills the census for
  /// \p Rec's cycle (no shard lock is taken, asserted by
  /// SnapshotInvariantTest via alloc.shard.lock_acquisitions). Under
  /// TEMPERATURE the walk also folds each page's livemap into tier bytes
  /// and adds those of the pages that predate the cycle to \p Rec.
  void takeCensus(CycleRecord &Rec);
  PageCensus &census() { return Census; }

  /// Stages the census, every row with EC's verdict, as this cycle's
  /// snapshot; the driver commits it with the cycle's record
  /// (HeapSnapshotter::commit). No-op unless snapshot logging is armed.
  void captureSnapshot();

  // --- Colors and phase ----------------------------------------------------

  PtrColor goodColor() const {
    return static_cast<PtrColor>(
        GoodColorBits.load(std::memory_order_acquire));
  }
  void setGoodColor(PtrColor C) {
    GoodColorBits.store(static_cast<uint64_t>(C),
                        std::memory_order_release);
  }
  bool isGood(Oop V) const {
    return (V >> ColorShift) ==
           GoodColorBits.load(std::memory_order_acquire);
  }
  Oop makeGood(uintptr_t Addr) const { return makeOop(Addr, goodColor()); }

  /// True between STW1 and the end of marking; gates mutator mark
  /// cooperation and hotness recording ("hotness is recorded by mutators
  /// and GC threads during the M/R phase", §3.1.2).
  bool markActive() const {
    return MarkActiveFlag.load(std::memory_order_acquire);
  }
  void setMarkActive(bool B) {
    MarkActiveFlag.store(B, std::memory_order_release);
  }

  /// Monotonic cycle number; incremented at STW1. Pages stamped with a
  /// smaller number were allocated before the current mark started and
  /// are therefore EC-eligible.
  uint64_t currentCycle() const {
    return Cycle.load(std::memory_order_acquire);
  }
  uint64_t bumpCycle() {
    return Cycle.fetch_add(1, std::memory_order_acq_rel) + 1;
  }

  // --- Thread contexts -------------------------------------------------------

  void registerContext(ThreadContext *Ctx);
  void unregisterContext(ThreadContext *Ctx);

  /// Invokes \p Fn on every registered context. Only safe while the world
  /// is stopped or all other threads are quiescent.
  void forEachContext(const std::function<void(ThreadContext &)> &Fn);

  // --- Allocation helpers ---------------------------------------------------

  /// Takes over a pretenure TLAB page its thread stopped bumping into
  /// (refill or detach). The page predates the cycle, so objects bumped
  /// into it since this cycle's STW1 are neither marked nor implicitly
  /// live; it stays pinned, out of EC selection, until the next STW1,
  /// after which a full marking covers it.
  void retirePretenurePage(Page *P);

  /// Unpins every page retired so far. Called inside STW1.
  void unpinRetiredPretenurePages();

  /// Slow path for medium and large objects: refills \p Ctx's medium
  /// TLAB (pinning the fresh page) or allocates a dedicated large page.
  /// The caller's bump into MediumAllocPage is the lock-free fast path.
  /// \returns 0 if the heap limit is reached.
  uintptr_t allocateShared(ThreadContext &Ctx, size_t Bytes);

  /// Allocates a fresh relocation target page, bypassing the heap limit
  /// (relocation must always make progress; ZGC reserves headroom for the
  /// same reason). \p Tier stamps the page's destination tier for the
  /// cold-resident (reclaimable RSS) accounting.
  Page *allocateRelocTarget(PageSizeClass Cls, size_t ObjectBytes,
                            PageTier Tier = PageTier::None);

  // --- Per-cycle relocation attribution -------------------------------------

  void countRelocation(bool ByGcThread, size_t Bytes) {
    if (ByGcThread) {
      RelocByGc.fetch_add(1, std::memory_order_relaxed);
      RelocBytesByGc.fetch_add(Bytes, std::memory_order_relaxed);
    } else {
      RelocByMutator.fetch_add(1, std::memory_order_relaxed);
      RelocBytesByMutator.fetch_add(Bytes, std::memory_order_relaxed);
    }
  }

  /// Bytes relocated into cold-tier destination pages (TEMPERATURE +
  /// COLDPAGE).
  void countColdRelocation(size_t Bytes) {
    ColdRelocBytes.fetch_add(Bytes, std::memory_order_relaxed);
  }

  /// COLDCONFIDENCE actually used by EC selection this cycle: the
  /// configured constant, or the auto-tuner's current value (§4.8).
  double effectiveColdConfidence() const {
    return EffectiveColdConf.load(std::memory_order_relaxed);
  }
  void setEffectiveColdConfidence(double C) {
    EffectiveColdConf.store(C, std::memory_order_relaxed);
  }

  /// Bytes of new pages allocated since the last completed cycle; used
  /// for trigger hysteresis so back-to-back cycles cannot starve the
  /// inter-cycle mutator relocation window LAZYRELOCATE depends on.
  void noteAllocation(size_t Bytes) {
    AllocatedSinceCycle.fetch_add(Bytes, std::memory_order_relaxed);
  }
  uint64_t allocatedSinceCycle() const {
    return AllocatedSinceCycle.load(std::memory_order_relaxed);
  }
  void resetAllocatedSinceCycle() {
    AllocatedSinceCycle.store(0, std::memory_order_relaxed);
  }

  /// Moves the relocation counted since the last call into \p Rec:
  /// objects and bytes by actor, their byte total, and the bytes that
  /// landed on cold-tier pages.
  void takeRelocationCounters(CycleRecord &Rec) {
    constexpr auto Relaxed = std::memory_order_relaxed;
    uint64_t BytesMut = RelocBytesByMutator.exchange(0, Relaxed);
    uint64_t BytesGc = RelocBytesByGc.exchange(0, Relaxed);
    Rec.ObjectsRelocatedByMutators += RelocByMutator.exchange(0, Relaxed);
    Rec.ObjectsRelocatedByGc += RelocByGc.exchange(0, Relaxed);
    Rec.BytesRelocatedByMutators += BytesMut;
    Rec.BytesRelocatedByGc += BytesGc;
    Rec.BytesRelocated += BytesMut + BytesGc;
    Rec.ColdRelocatedBytes += ColdRelocBytes.exchange(0, Relaxed);
  }

private:
  GcConfig Cfg;
  PageAllocator Alloc;
  GcStats Stats;
  MarkQueue Queue;

  std::atomic<uint64_t> GoodColorBits{
      static_cast<uint64_t>(PtrColor::R)};
  std::atomic<bool> MarkActiveFlag{false};
  std::atomic<uint64_t> Cycle{0};

  std::mutex ContextLock;
  std::vector<ThreadContext *> Contexts;

  std::mutex RetiredLock;
  std::vector<Page *> RetiredPretenure; ///< Guarded by RetiredLock.

  /// Mirror of alloc.tlab.medium_refills, cached at construction.
  Counter *MediumRefills = nullptr;
  /// alloc.stall_us histogram, cached at construction.
  Histogram *StallUs = nullptr;
  /// heap.side_table_bytes histogram, cached at construction.
  Histogram *SideTableBytes = nullptr;
  /// simcache.batch_* counters, cached at construction and handed to
  /// every registering ThreadContext (the catalog is config-independent,
  /// so they exist even with probes off).
  Counter *BatchFlushes = nullptr;
  Counter *BatchEvents = nullptr;
  /// mark.prefetch_* counters, cached at construction.
  Counter *MarkPrefetchIssued = nullptr;
  Counter *MarkPrefetchDrains = nullptr;

  std::atomic<uint64_t> RelocByMutator{0};
  std::atomic<uint64_t> RelocByGc{0};
  std::atomic<uint64_t> RelocBytesByMutator{0};
  std::atomic<uint64_t> RelocBytesByGc{0};
  std::atomic<uint64_t> ColdRelocBytes{0};
  std::atomic<uint64_t> AllocatedSinceCycle{0};
  std::atomic<double> EffectiveColdConf{0.0};

  TraceSession Trace;
  MetricsRegistry Metrics;
  HeapSnapshotter Snap;
  PageCensus Census;
  std::unique_ptr<SiteProfileTable> Sites;
};

} // namespace hcsgc

#endif // HCSGC_GC_GCHEAP_H
