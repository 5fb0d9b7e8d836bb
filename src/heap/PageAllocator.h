//===- heap/PageAllocator.h - Sharded heap reservation and page pool -*- C++
//-*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Owns the heap's virtual-memory reservation and hands out pages of the
/// three size classes. §2.1 of the paper: "Memory reclamation happens on
/// the granularity of a page and as part of relocation."
///
/// Free-space management is sharded: the general pool's unit space
/// [0, GeneralUnits) is tiled into N contiguous lock-striped partitions,
/// each with its own mutex, free-run map, a *lock-free* Treiber stack of
/// cached free units for small pages (refilled in adaptively sized
/// batches), an intrusive owned-page list, and an iterable active-page
/// registry. A small-page refill that hits the cache takes **zero** shard
/// locks — the pop, the registry insert, the page-table install and the
/// owned-list push are all lock-free; only a cache miss takes the shard
/// lock, to carve a fresh batch from the run map. Threads are spread
/// round-robin over home shards. Small-page refills are touched-first:
/// before any shard carves a never-used unit, every shard is offered the
/// chance to hand out a unit some page has already used, so the resident
/// footprint tracks peak occupancy instead of growing with work done.
/// Multi-unit requests fall back to a
/// deterministic lock-all pass that merges runs across partition
/// boundaries, so a request fails only when it would also have failed
/// under a single free-run map — exhaustion (and with it the PR-2
/// stall/reserve semantics) is unchanged by sharding or by the lock-free
/// refill (INTERNALS §10–11).
///
/// Logical heap accounting: `usedBytes` counts active pages and is bounded
/// by the configured max heap (the GC trigger and OOM limit); the bound is
/// enforced by a CAS reservation loop, not a lock. Quarantined pages —
/// fully evacuated but awaiting pointer remapping — are accounted
/// separately and live in extra reserved address space, standing in for
/// ZGC's multi-mapped views (see DESIGN.md §2); they are retired in one
/// batched pass per GC cycle (releaseQuarantinedBefore) that takes each
/// shard's lock at most once. The relocation reserve is modeled as one
/// extra shard covering [GeneralUnits, TotalUnits), so reserve pages never
/// bleed into the general pool and vice versa.
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_HEAP_PAGEALLOCATOR_H
#define HCSGC_HEAP_PAGEALLOCATOR_H

#include "heap/Geometry.h"
#include "heap/Page.h"
#include "heap/PageRegistry.h"
#include "heap/PageTable.h"
#include "heap/TreiberStack.h"

#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace hcsgc {

class Counter;
class MetricsRegistry;

/// Reserves one contiguous region and manages page allocation within it.
class PageAllocator {
public:
  /// Initial small-page units carved from a shard's run map per cache
  /// refill. Each shard adapts its own batch between 1 and CacheBatchMax,
  /// driven by refill misses (grow under churn, shrink near full).
  static constexpr uint32_t CacheBatch = 8;
  /// Upper bound for the adaptive refill batch (and the size of
  /// refillCacheLocked's carve buffer).
  static constexpr uint32_t CacheBatchMax = 64;

  /// \param Geo page geometry (sizes must be powers of two).
  /// \param MaxHeapBytes logical heap limit (multiple of small page size).
  /// \param ReservedBytes address space to reserve; defaults to
  ///        3 * MaxHeapBytes to absorb quarantined pages.
  /// \param RelocReserveBytes additional address space (on top of
  ///        ReservedBytes) set aside exclusively for relocation targets;
  ///        served by allocateReservePage when the general pool is
  ///        exhausted, so relocation keeps making progress. Released
  ///        reserve pages return to the reserve, not the general pool.
  /// \param Shards requested general-pool shard count; 0 picks one per
  ///        hardware thread (capped at 8). Clamped so every shard spans
  ///        at least one medium page — tiny pools collapse to one shard.
  /// \param TrackTemperature arm the per-object temperature plane on
  ///        every small page (TEMPERATURE knob; see Page).
  /// \param TrackAllocSites arm the allocation-site side table on every
  ///        small page (SITEPROFILING knob; see Page).
  PageAllocator(const HeapGeometry &Geo, size_t MaxHeapBytes,
                size_t ReservedBytes = 0, size_t RelocReserveBytes = 0,
                unsigned Shards = 0, bool TrackTemperature = false,
                bool TrackAllocSites = false);
  ~PageAllocator();

  PageAllocator(const PageAllocator &) = delete;
  PageAllocator &operator=(const PageAllocator &) = delete;

  /// Allocates a page of class \p Cls (for large pages, sized to hold
  /// \p ObjectBytes).
  /// \returns nullptr if the allocation would exceed the max heap or the
  /// reservation is exhausted.
  /// \param Force bypass the max-heap check (relocation targets must make
  ///        progress; the reservation headroom absorbs them).
  Page *allocatePage(PageSizeClass Cls, size_t ObjectBytes,
                     uint64_t AllocSeq, bool Force = false);

  /// Allocates a page from the dedicated relocation reserve, bypassing
  /// both the max-heap check and the general free pool. \returns nullptr
  /// only when the reserve itself is exhausted. Not subject to the
  /// PageAlloc fault point: the reserve is the progress guarantee fault
  /// plans exercise.
  Page *allocateReservePage(PageSizeClass Cls, size_t ObjectBytes,
                            uint64_t AllocSeq);

  /// Moves \p P from active to quarantined accounting. The page's state
  /// must already be Quarantined; its address range stays mapped.
  void quarantinePage(Page *P);

  /// Destroys \p P and returns its address range to the free pool.
  void releasePage(Page *P);

  /// Retires every quarantined page whose quarantineCycle() is strictly
  /// below \p Cycle, in one batched pass that takes each shard's lock at
  /// most once per call (cross-shard portions are deferred forward into
  /// the ascending sweep). Called by the GC coordinator once per cycle;
  /// safe concurrent with allocation and quarantinePage.
  /// \returns the number of pages released.
  uint64_t releaseQuarantinedBefore(uint64_t Cycle);

  /// \returns bytes in active pages (the paper's "heap usage").
  size_t usedBytes() const {
    return Used.load(std::memory_order_relaxed);
  }
  /// \returns bytes held by quarantined (evacuated, not yet retired)
  /// pages.
  size_t quarantinedBytes() const {
    return Quarantined.load(std::memory_order_relaxed);
  }
  size_t maxHeapBytes() const { return MaxHeap; }

  /// Stamps \p P with destination tier \p T and keeps the cold-resident
  /// accounting consistent (cold-tier bytes are the reclaimable-RSS
  /// population reported by coldPageBytes()).
  void notePageTier(Page *P, PageTier T);

  /// \returns bytes in active cold-tier pages — an upper bound on the
  /// RSS madvise(MADV_COLD) can offer back to the OS.
  size_t coldPageBytes() const {
    return ColdBytes.load(std::memory_order_relaxed);
  }

  /// \returns bytes currently free in the relocation reserve.
  size_t relocReserveFreeBytes() const;
  /// \returns pages handed out by allocateReservePage so far.
  uint64_t relocReservePagesUsed() const {
    return ReservePagesUsed.load(std::memory_order_relaxed);
  }

  const HeapGeometry &geometry() const { return Geo; }
  PageTable &pageTable() { return *Table; }
  const PageTable &pageTable() const { return *Table; }

  /// Number of general-pool shards after clamping.
  unsigned shardCount() const { return NumGeneralShards; }

  /// Invokes \p Fn on every active page (general pool and relocation
  /// reserve) without copying a snapshot vector and without taking any
  /// shard lock: iterates the per-shard registries' atomic slots. Pages
  /// installed concurrently may or may not be visited (per-cycle callers
  /// filter by allocSeq); a visited page is destroyed only by
  /// releasePage/releaseQuarantinedBefore, which in this collector only
  /// the GC coordinator calls, so coordinator-side iteration never races
  /// page teardown.
  template <typename Fn> void forEachActivePage(Fn &&F) const {
    for (const auto &S : Shards)
      S->Registry.forEach(F);
  }

  /// \returns a snapshot of all active (non-quarantined) pages.
  std::vector<Page *> activePagesSnapshot() const;

  /// \returns a snapshot of all quarantined pages.
  std::vector<Page *> quarantinedPagesSnapshot() const;

  // --- Observability ----------------------------------------------------

  /// Point-in-time view of the allocator's internal counters.
  struct AllocStats {
    /// Mutex acquisitions on page-allocation paths (refill-miss carve,
    /// multi-unit, fallback, cross-shard, reserve). Excludes
    /// quarantine/release (see QuarantineReleaseLocks).
    uint64_t ShardLockAcquisitions;
    /// Small-page refills served by a shard other than the home shard,
    /// and multi-unit allocations that had to look beyond it.
    uint64_t FallbackScans;
    /// Multi-unit allocations satisfied by the lock-all merged-run pass.
    uint64_t CrossShardTakes;
    /// Small-page refills served entirely lock-free from a shard's
    /// cached-unit stack.
    uint64_t CacheHits;
    /// Small-page refills that took the shard lock (to carve a batch,
    /// recycled units before fresh ones, or to catch a unit freed
    /// concurrently). On the small-page path, ShardLockAcquisitions ==
    /// CacheMisses + exhausted-shard probes; with free units available,
    /// locks == misses exactly.
    uint64_t CacheMisses;
    /// Adaptive refill-batch doublings (churn evidence).
    uint64_t CacheBatchGrows;
    /// Adaptive refill-batch reductions (shard nearing full).
    uint64_t CacheBatchShrinks;
    /// Batched quarantine-release passes (one per GC cycle).
    uint64_t QuarantineBatchPasses;
    /// Shard-lock acquisitions made by those passes; bounded by
    /// passes * (shardCount() + 1).
    uint64_t QuarantineReleaseLocks;
    /// Pages retired by batched passes.
    uint64_t QuarantinePagesReleased;
    /// Units ever carved out of the run maps (general pool and reserve):
    /// the heap's touched footprint in small-page units.
    uint64_t UnitsTouched;
  };
  AllocStats allocStats() const;

  /// Mirrors the internal counters into \p MR under the "alloc.shard.*",
  /// "alloc.cache.*", "alloc.quarantine.*" and "alloc.units_touched"
  /// names so harness reports
  /// pick them up. Call before the allocator is shared between threads.
  void bindMetrics(MetricsRegistry &MR);

private:
  /// One lock-striped partition of the unit space. Shards tile
  /// [0, GeneralUnits) contiguously; the last entry of Shards is the
  /// relocation reserve covering [GeneralUnits, TotalUnits).
  struct alignas(64) Shard {
    size_t BeginUnit = 0;
    size_t EndUnit = 0; // exclusive
    mutable std::mutex Lock;
    /// Free runs: unit offset -> run length in units. Coalesced on free.
    /// Guarded by Lock.
    std::map<size_t, size_t> Runs;
    /// Units [BeginUnit, TouchedEnd) have all been carved at least once.
    /// Carving is lowest-first, so the never-touched units are exactly
    /// the free suffix [TouchedEnd, EndUnit). Guarded by Lock.
    size_t TouchedEnd = 0;
    /// Free run-map units below TouchedEnd. Written under Lock; peeked
    /// lock-free so the touched-first pass skips shards without any.
    std::atomic<size_t> TouchedFree{0};
    /// Single free units pre-carved for small-page refills. Lock-free
    /// (TreiberStack.h); within a carved batch the lowest offset pops
    /// first (pushed in reverse) for address-ordered reuse.
    CountedIndexStack Cache;
    /// Adaptive refill batch size in [1, CacheBatchMax]; written only
    /// under Lock (refill), read lock-free by the free path's bound.
    std::atomic<uint32_t> CacheTarget{CacheBatch};
    /// Intrusive list of pages owned by this shard: pushed lock-free on
    /// install (head CAS), unlinked only under Lock.
    std::atomic<Page *> OwnedHead{nullptr};
    /// Quarantined pages awaiting retirement. Guarded by Lock.
    std::vector<Page *> Quarantined;
    /// Lock-free peek so the batched release can skip idle shards.
    std::atomic<uint32_t> QuarCount{0};
    PageRegistry Registry;

    ~Shard() {
      for (Page *P = OwnedHead.load(std::memory_order_relaxed); P;) {
        Page *Next = P->nextOwned();
        delete P;
        P = Next;
      }
      for (Page *P : Quarantined)
        delete P;
    }
  };

  /// Maps a unit index to its next-link for the per-shard cache stacks
  /// (side storage — see TreiberStack.h on why links never live in page
  /// memory).
  struct UnitLinkFn {
    std::atomic<uint32_t> *Links;
    std::atomic<uint32_t> &operator()(uint32_t I) const { return Links[I]; }
  };
  UnitLinkFn unitLinks() { return {UnitLinks.data()}; }

  HeapGeometry Geo;
  size_t MaxHeap;
  size_t Reserved;
  size_t RelocReserve;
  uintptr_t Base = 0;
  std::unique_ptr<PageTable> Table;

  size_t GeneralUnits = 0;
  unsigned NumGeneralShards = 1;
  bool TrackTemp = false;
  bool TrackSites = false;
  std::vector<std::unique_ptr<Shard>> Shards; // general shards + reserve
  /// One next-link per general-pool unit, shared by all shard caches (a
  /// unit is on at most one stack at a time).
  std::vector<std::atomic<uint32_t>> UnitLinks;

  std::atomic<size_t> Used{0};
  std::atomic<size_t> Quarantined{0};
  std::atomic<uint64_t> ReservePagesUsed{0};
  /// Bytes in active cold-tier pages; adjusted by notePageTier and the
  /// quarantine/release paths (the tier tag is cleared when a cold page
  /// leaves the active set so it is never subtracted twice).
  std::atomic<size_t> ColdBytes{0};

  // Internal stats (source of truth) with optional registry mirrors.
  std::atomic<uint64_t> StShardLocks{0};
  std::atomic<uint64_t> StFallbacks{0};
  std::atomic<uint64_t> StCrossShard{0};
  std::atomic<uint64_t> StCacheHits{0};
  std::atomic<uint64_t> StCacheMisses{0};
  std::atomic<uint64_t> StBatchGrows{0};
  std::atomic<uint64_t> StBatchShrinks{0};
  std::atomic<uint64_t> StQuarBatches{0};
  std::atomic<uint64_t> StQuarLocks{0};
  std::atomic<uint64_t> StQuarPages{0};
  std::atomic<uint64_t> StColdPages{0};
  std::atomic<uint64_t> StUnitsTouched{0};
  Counter *CtrShardLocks = nullptr;
  Counter *CtrFallbacks = nullptr;
  Counter *CtrCrossShard = nullptr;
  Counter *CtrCacheHits = nullptr;
  Counter *CtrCacheMisses = nullptr;
  Counter *CtrBatchGrows = nullptr;
  Counter *CtrBatchShrinks = nullptr;
  Counter *CtrQuarBatches = nullptr;
  Counter *CtrQuarLocks = nullptr;
  Counter *CtrQuarPages = nullptr;
  Counter *CtrColdPages = nullptr;
  Counter *CtrUnitsTouched = nullptr;

  size_t unitsFor(size_t Bytes) const {
    return divideCeil(Bytes, Geo.SmallPageSize);
  }
  Shard &reserveShard() { return *Shards[NumGeneralShards]; }
  const Shard &reserveShard() const { return *Shards[NumGeneralShards]; }
  Shard &shardForUnit(size_t Unit) { return *Shards[shardIndexForUnit(Unit)]; }
  size_t shardIndexForUnit(size_t Unit) const;
  /// This thread's preferred shard (stable round-robin assignment).
  unsigned homeShard() const;

  void note(std::atomic<uint64_t> &Stat, Counter *Ctr);

  // All helpers suffixed "Locked" require the shard's lock.
  Page *allocateSmallPage(size_t PageBytes, uint64_t AllocSeq);
  Page *allocateMultiUnit(size_t Units, size_t PageBytes, PageSizeClass Cls,
                          uint64_t AllocSeq);
  Page *takeRunAcrossShards(size_t Units, size_t PageBytes,
                            PageSizeClass Cls, uint64_t AllocSeq);
  /// Carves an adaptively sized batch of single units below \p Limit
  /// from the run map: the first carved unit is returned for immediate
  /// use, the rest are pushed onto the shard's lock-free cache.
  /// \returns SIZE_MAX if the run map has no unit below \p Limit.
  size_t refillCacheLocked(Shard &S, size_t Limit);
  void flushCacheLocked(Shard &S);
  size_t takeRunLocked(Shard &S, size_t Units);
  /// Accounts for [Offset, Offset+Units) having left \p S's run map:
  /// advances TouchedEnd and the touched-unit tally.
  void noteCarvedLocked(Shard &S, size_t Offset, size_t Units);
  /// Returns previously carved units to \p S's run map.
  static void freeRunLocked(Shard &S, size_t Offset, size_t Units);
  /// Removes [Offset, Offset+Units) from \p Runs; the range must lie
  /// inside a single run.
  static void removeRangeFromMap(std::map<size_t, size_t> &Runs,
                                 size_t Offset, size_t Units);
  /// Adds a run to \p Runs, coalescing with neighbors.
  static void addRunToMap(std::map<size_t, size_t> &Runs, size_t Offset,
                          size_t Units);
  /// Returns \p Units at \p Offset to the owning shard(s). Single
  /// general-pool units go onto the owning shard's lock-free cache
  /// (bounded); runs take each owning shard's lock in turn (never
  /// nested).
  void giveRun(size_t Offset, size_t Units);
  /// Builds, installs and registers a page at \p Offset — entirely
  /// lock-free (callers may or may not hold the shard's lock).
  Page *installPage(Shard &S, size_t Offset, size_t PageBytes,
                    PageSizeClass Cls, uint64_t AllocSeq);
  /// Lock-free push onto the shard's intrusive owned-page list.
  static void ownedPushPage(Shard &S, Page *P);
  /// Unlinks \p P from the owned list; requires the shard's lock (the
  /// lock serializes removers, so only lock-free pushers race the head).
  static bool ownedRemovePageLocked(Shard &S, Page *P);
};

} // namespace hcsgc

#endif // HCSGC_HEAP_PAGEALLOCATOR_H
