//===- heap/PageAllocator.cpp - Sharded heap reservation and page pool ------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Locking discipline: every path holds at most one shard lock at a time,
// except takeRunAcrossShards, which locks all general shards in ascending
// index order — together that makes the lock graph acyclic. releasePage
// removes ownership under the begin-unit shard's lock, then returns the
// unit range shard by shard without nesting. releaseQuarantinedBefore
// sweeps the shards in ascending order, locking each at most once and
// carrying cross-shard portions forward.
//
// The small-page refill path holds NO lock when the shard's cached-unit
// stack is non-empty: pop, page-object construction, registry insert,
// owned-list push and page-table install are all lock-free (the Treiber
// pop's acquire pairs with the freeing push's release, which is the
// memory handoff for the recycled unit — INTERNALS §11).
//
//===----------------------------------------------------------------------===//

#include "heap/PageAllocator.h"

#include "inject/FaultInject.h"
#include "observe/Metrics.h"
#include "support/Compiler.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <string>
#include <thread>

#include <sys/mman.h>

using namespace hcsgc;

namespace {
/// Process-wide thread ordinal source for round-robin home-shard
/// assignment; a thread keeps its ordinal for life, so its home shard is
/// stable for a given shard count.
std::atomic<unsigned> ThreadOrdinalSource{0};

unsigned threadOrdinal() {
  thread_local unsigned Ordinal =
      ThreadOrdinalSource.fetch_add(1, std::memory_order_relaxed);
  return Ordinal;
}
} // namespace

PageAllocator::PageAllocator(const HeapGeometry &Geo, size_t MaxHeapBytes,
                             size_t ReservedBytes, size_t RelocReserveBytes,
                             unsigned RequestedShards, bool TrackTemperature,
                             bool TrackAllocSites)
    : Geo(Geo), MaxHeap(alignUp(MaxHeapBytes, Geo.SmallPageSize)),
      Reserved(ReservedBytes ? alignUp(ReservedBytes, Geo.SmallPageSize)
                             : 3 * MaxHeap),
      RelocReserve(alignUp(RelocReserveBytes, Geo.SmallPageSize)),
      TrackTemp(TrackTemperature), TrackSites(TrackAllocSites) {
  if (!Geo.valid())
    fatalError("invalid heap geometry");
  if (Reserved < MaxHeap)
    fatalError("reservation smaller than max heap");

  // The relocation reserve rides on top of the configured reservation so
  // tightening ReservedBytes squeezes the general pool, never the
  // collector's progress guarantee.
  size_t TotalBytes = Reserved + RelocReserve;
  void *Mem = mmap(nullptr, TotalBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (Mem == MAP_FAILED)
    fatalError("failed to reserve heap address space");
  Base = reinterpret_cast<uintptr_t>(Mem);
  Table = std::make_unique<PageTable>(Base, TotalBytes, Geo.SmallPageSize);
  GeneralUnits = Reserved / Geo.SmallPageSize;

  // One Treiber next-link per general-pool unit (a unit sits on at most
  // one shard cache at a time, so side storage can be shared).
  UnitLinks = std::vector<std::atomic<uint32_t>>(GeneralUnits);
  for (auto &L : UnitLinks)
    L.store(CountedIndexStack::Nil, std::memory_order_relaxed);

  // Clamp the shard count so every shard spans at least one medium page:
  // partitioning below that granularity would route most medium requests
  // through the cross-shard fallback, defeating the striping. Tiny pools
  // (unit tests with a handful of units) collapse to a single shard and
  // behave exactly like the unsharded allocator.
  size_t MediumUnits = Geo.MediumPageSize / Geo.SmallPageSize;
  size_t MaxShards =
      std::max<size_t>(1, GeneralUnits / std::max<size_t>(MediumUnits, 1));
  unsigned Requested = RequestedShards;
  if (Requested == 0) {
    unsigned HW = std::thread::hardware_concurrency();
    Requested = std::min(HW ? HW : 4u, 8u);
  }
  NumGeneralShards = static_cast<unsigned>(
      std::min<size_t>(std::max(1u, Requested), MaxShards));

  size_t PerShard = GeneralUnits / NumGeneralShards;
  Shards.reserve(NumGeneralShards + 1);
  for (unsigned I = 0; I < NumGeneralShards; ++I) {
    auto S = std::make_unique<Shard>();
    S->BeginUnit = static_cast<size_t>(I) * PerShard;
    S->EndUnit = I + 1 == NumGeneralShards ? GeneralUnits
                                           : S->BeginUnit + PerShard;
    if (S->EndUnit > S->BeginUnit)
      S->Runs[S->BeginUnit] = S->EndUnit - S->BeginUnit;
    S->TouchedEnd = S->BeginUnit;
    Shards.push_back(std::move(S));
  }
  // The relocation reserve is one extra shard past the general pool.
  auto R = std::make_unique<Shard>();
  R->BeginUnit = GeneralUnits;
  R->EndUnit = GeneralUnits + RelocReserve / Geo.SmallPageSize;
  if (R->EndUnit > R->BeginUnit)
    R->Runs[R->BeginUnit] = R->EndUnit - R->BeginUnit;
  R->TouchedEnd = R->BeginUnit;
  Shards.push_back(std::move(R));
}

PageAllocator::~PageAllocator() {
  // Drop the pages (and with them forwarding tables etc.) before the
  // mapping goes away.
  Shards.clear();
  munmap(reinterpret_cast<void *>(Base), Reserved + RelocReserve);
}

size_t PageAllocator::shardIndexForUnit(size_t Unit) const {
  if (Unit >= GeneralUnits)
    return NumGeneralShards;
  size_t PerShard = GeneralUnits / NumGeneralShards;
  return std::min<size_t>(Unit / PerShard, NumGeneralShards - 1);
}

unsigned PageAllocator::homeShard() const {
  return threadOrdinal() % NumGeneralShards;
}

void PageAllocator::note(std::atomic<uint64_t> &Stat, Counter *Ctr) {
  Stat.fetch_add(1, std::memory_order_relaxed);
  if (Ctr)
    Ctr->increment();
}

void PageAllocator::bindMetrics(MetricsRegistry &MR) {
  CtrShardLocks = &MR.counter("alloc.shard.lock_acquisitions");
  CtrFallbacks = &MR.counter("alloc.shard.fallback_scans");
  CtrCrossShard = &MR.counter("alloc.shard.cross_shard_takes");
  CtrCacheHits = &MR.counter("alloc.cache.page_hits");
  CtrCacheMisses = &MR.counter("alloc.cache.page_misses");
  CtrBatchGrows = &MR.counter("alloc.cache.batch_grows");
  CtrBatchShrinks = &MR.counter("alloc.cache.batch_shrinks");
  CtrQuarBatches = &MR.counter("alloc.quarantine.batch_passes");
  CtrQuarLocks = &MR.counter("alloc.quarantine.release_locks");
  CtrQuarPages = &MR.counter("alloc.quarantine.pages_released");
  CtrColdPages = &MR.counter("coldpage.pages_allocated");
  CtrUnitsTouched = &MR.counter("alloc.units_touched");
}

void PageAllocator::notePageTier(Page *P, PageTier T) {
  PageTier Old = P->tier();
  if (Old == T)
    return;
  P->setTier(T);
  if (Old == PageTier::Cold)
    ColdBytes.fetch_sub(P->size(), std::memory_order_relaxed);
  if (T == PageTier::Cold) {
    ColdBytes.fetch_add(P->size(), std::memory_order_relaxed);
    if (CtrColdPages)
      CtrColdPages->increment();
  }
}

PageAllocator::AllocStats PageAllocator::allocStats() const {
  AllocStats S;
  S.ShardLockAcquisitions = StShardLocks.load(std::memory_order_relaxed);
  S.FallbackScans = StFallbacks.load(std::memory_order_relaxed);
  S.CrossShardTakes = StCrossShard.load(std::memory_order_relaxed);
  S.CacheHits = StCacheHits.load(std::memory_order_relaxed);
  S.CacheMisses = StCacheMisses.load(std::memory_order_relaxed);
  S.CacheBatchGrows = StBatchGrows.load(std::memory_order_relaxed);
  S.CacheBatchShrinks = StBatchShrinks.load(std::memory_order_relaxed);
  S.QuarantineBatchPasses = StQuarBatches.load(std::memory_order_relaxed);
  S.QuarantineReleaseLocks = StQuarLocks.load(std::memory_order_relaxed);
  S.QuarantinePagesReleased = StQuarPages.load(std::memory_order_relaxed);
  S.UnitsTouched = StUnitsTouched.load(std::memory_order_relaxed);
  return S;
}

size_t PageAllocator::takeRunLocked(Shard &S, size_t Units) {
  for (auto It = S.Runs.begin(); It != S.Runs.end(); ++It) {
    if (It->second < Units)
      continue;
    size_t Offset = It->first;
    size_t Len = It->second;
    S.Runs.erase(It);
    if (Len > Units)
      S.Runs[Offset + Units] = Len - Units;
    noteCarvedLocked(S, Offset, Units);
    return Offset;
  }
  return SIZE_MAX;
}

void PageAllocator::noteCarvedLocked(Shard &S, size_t Offset, size_t Units) {
  // Carving is lowest-first, so a carve that reaches past TouchedEnd
  // starts at or below it: the units below are touched free units, the
  // rest extend the touched prefix.
  size_t End = Offset + Units;
  assert(Offset <= S.TouchedEnd && "carve skipped never-touched units");
  S.TouchedFree.fetch_sub(std::min(End, S.TouchedEnd) - Offset,
                          std::memory_order_relaxed);
  if (End > S.TouchedEnd) {
    size_t Fresh = End - S.TouchedEnd;
    S.TouchedEnd = End;
    StUnitsTouched.fetch_add(Fresh, std::memory_order_relaxed);
    if (CtrUnitsTouched)
      CtrUnitsTouched->add(Fresh);
  }
}

void PageAllocator::freeRunLocked(Shard &S, size_t Offset, size_t Units) {
  addRunToMap(S.Runs, Offset, Units);
  S.TouchedFree.fetch_add(Units, std::memory_order_relaxed);
}

void PageAllocator::addRunToMap(std::map<size_t, size_t> &Runs,
                                size_t Offset, size_t Units) {
  auto Next = Runs.lower_bound(Offset);
  // Coalesce with the following run.
  if (Next != Runs.end() && Next->first == Offset + Units) {
    Units += Next->second;
    Next = Runs.erase(Next);
  }
  // Coalesce with the preceding run.
  if (Next != Runs.begin()) {
    auto Prev = std::prev(Next);
    if (Prev->first + Prev->second == Offset) {
      Prev->second += Units;
      return;
    }
  }
  Runs[Offset] = Units;
}

void PageAllocator::removeRangeFromMap(std::map<size_t, size_t> &Runs,
                                       size_t Offset, size_t Units) {
  auto It = Runs.upper_bound(Offset);
  assert(It != Runs.begin() && "range not free");
  --It;
  size_t RunOff = It->first;
  size_t RunLen = It->second;
  assert(RunOff <= Offset && RunOff + RunLen >= Offset + Units &&
         "range straddles allocated units");
  Runs.erase(It);
  if (RunOff < Offset)
    Runs[RunOff] = Offset - RunOff;
  if (RunOff + RunLen > Offset + Units)
    Runs[Offset + Units] = RunOff + RunLen - (Offset + Units);
}

size_t PageAllocator::refillCacheLocked(Shard &S, size_t Limit) {
  uint32_t Target = S.CacheTarget.load(std::memory_order_relaxed);
  size_t Want = Target;
  size_t Carved[CacheBatchMax];
  size_t NumCarved = 0;
  while (Want > 0 && !S.Runs.empty() && NumCarved < CacheBatchMax &&
         S.Runs.begin()->first < Limit) {
    auto It = S.Runs.begin();
    size_t Offset = It->first;
    size_t Len = It->second;
    size_t Take = std::min({Want, Len, CacheBatchMax - NumCarved,
                            Limit - Offset});
    S.Runs.erase(It);
    if (Len > Take)
      S.Runs[Offset + Take] = Len - Take;
    noteCarvedLocked(S, Offset, Take);
    for (size_t I = 0; I < Take; ++I)
      Carved[NumCarved++] = Offset + I;
    Want -= Take;
  }
  if (NumCarved == 0)
    return SIZE_MAX;

  // The first (lowest) carved unit is returned for immediate use; the
  // rest go onto the lock-free cache pushed in reverse so the lowest
  // offset pops first (address-ordered reuse like the unsharded
  // first-fit allocator).
  UnitLinkFn Links = unitLinks();
  for (size_t I = NumCarved; I > 1; --I)
    S.Cache.push(static_cast<uint32_t>(Carved[I - 1]), Links);

  // Adapt the next refill's batch to what this one saw. A miss with
  // plenty of free space is churn evidence: the previous batch drained
  // before a free replenished the cache, so carve bigger next time. A
  // shard whose run map is nearly dry should carve smaller batches so
  // cached units do not monopolize the remaining space (they would be
  // flushed back for multi-unit requests, but holes still cost carve
  // work and defer coalescing).
  size_t FreeUnits = 0;
  for (const auto &[Off, Len] : S.Runs)
    FreeUnits += Len;
  size_t Span = S.EndUnit - S.BeginUnit;
  if (FreeUnits < Span / 8) {
    if (Target > 1) {
      S.CacheTarget.store(std::max(Target / 2, 1u),
                          std::memory_order_relaxed);
      note(StBatchShrinks, CtrBatchShrinks);
    }
  } else if (Target < CacheBatchMax) {
    S.CacheTarget.store(std::min(Target * 2, CacheBatchMax),
                        std::memory_order_relaxed);
    note(StBatchGrows, CtrBatchGrows);
  }
  return Carved[0];
}

void PageAllocator::flushCacheLocked(Shard &S) {
  // Detach the whole chain in one CAS; stragglers popping concurrently
  // either got their unit before the detach (it is theirs, and it is not
  // in the run map) or find the stack empty. The detached chain is
  // private, so walking the side links needs no further ordering.
  uint32_t Idx = S.Cache.popAll();
  uint32_t Drained = 0;
  UnitLinkFn Links = unitLinks();
  while (Idx != CountedIndexStack::Nil) {
    freeRunLocked(S, Idx, 1);
    Idx = Links(Idx).load(std::memory_order_relaxed);
    ++Drained;
  }
  if (Drained)
    S.Cache.noteDrained(Drained);
}

void PageAllocator::ownedPushPage(Shard &S, Page *P) {
  Page *Head = S.OwnedHead.load(std::memory_order_relaxed);
  do {
    P->setNextOwned(Head);
  } while (!S.OwnedHead.compare_exchange_weak(Head, P,
                                              std::memory_order_release,
                                              std::memory_order_relaxed));
}

bool PageAllocator::ownedRemovePageLocked(Shard &S, Page *P) {
  // The shard lock serializes removers; only lock-free pushers race the
  // head. Interior next-links are stable once a page is published, so
  // the only retry point is a head CAS losing against a fresh push.
  for (;;) {
    Page *Head = S.OwnedHead.load(std::memory_order_acquire);
    if (Head == P) {
      if (S.OwnedHead.compare_exchange_strong(Head, P->nextOwned(),
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire))
        return true;
      continue; // a push moved the head; re-examine
    }
    Page *Prev = Head;
    while (Prev && Prev->nextOwned() != P)
      Prev = Prev->nextOwned();
    if (!Prev)
      return false;
    // P is interior: its predecessor's link is only written by removers
    // (serialized by the shard lock), so a plain store suffices.
    Prev->setNextOwned(P->nextOwned());
    return true;
  }
}

Page *PageAllocator::installPage(Shard &S, size_t Offset, size_t PageBytes,
                                 PageSizeClass Cls, uint64_t AllocSeq) {
  uintptr_t Begin = Base + Offset * Geo.SmallPageSize;
  // Fresh pages must be zeroed: reference slots of new objects are null
  // by construction. For a recycled cached unit this runs strictly after
  // the Treiber handoff edge, so no earlier owner's stores can be
  // reordered past it.
  std::memset(reinterpret_cast<void *>(Begin), 0, PageBytes);

  Page *P = new Page(Begin, PageBytes, Cls, AllocSeq,
                     TrackTemp && Cls == PageSizeClass::Small,
                     TrackSites && Cls == PageSizeClass::Small);
  P->setRegistryIndex(S.Registry.insert(P));
  ownedPushPage(S, P);
  Table->install(P, unitsFor(PageBytes));
  return P;
}

Page *PageAllocator::allocateSmallPage(size_t PageBytes,
                                       uint64_t AllocSeq) {
  unsigned Home = homeShard();
  UnitLinkFn Links = unitLinks();
  // Pass 0 is touched-first: it takes only units some page has already
  // used — a cached unit, or a free run-map unit below TouchedEnd — from
  // any shard, home first. Only pass 1 may carve never-touched units
  // (INTERNALS §10). A shard with no touched free unit in its run map is
  // skipped on a lock-free peek, so pass 0 takes no lock on a heap with
  // nothing to recycle.
  for (unsigned Pass = 0; Pass < 2; ++Pass) {
    for (unsigned I = 0; I < NumGeneralShards; ++I) {
      Shard &S = *Shards[(Home + I) % NumGeneralShards];

      // Fast refill: pop a cached unit — zero locks end to end.
      uint32_t Unit = S.Cache.pop(Links);
      if (Unit != CountedIndexStack::Nil) {
        if (I != 0)
          note(StFallbacks, CtrFallbacks);
        note(StCacheHits, CtrCacheHits);
        return installPage(S, Unit, PageBytes, PageSizeClass::Small,
                           AllocSeq);
      }
      if (Pass == 0 && S.TouchedFree.load(std::memory_order_relaxed) == 0)
        continue;

      // Cache miss: take the shard lock and carve a batch from the run
      // map (the only lock on the small-page path).
      std::lock_guard<std::mutex> G(S.Lock);
      note(StShardLocks, CtrShardLocks);
      size_t Offset = refillCacheLocked(S, Pass == 0 ? S.TouchedEnd
                                                     : S.EndUnit);
      if (Offset == SIZE_MAX) {
        // Nothing to carve, but a unit freed concurrently may have been
        // pushed onto the cache between our pop and the lock.
        Unit = S.Cache.pop(Links);
        if (Unit == CountedIndexStack::Nil)
          continue; // nothing here; try the next shard
        Offset = Unit;
      }
      if (I != 0)
        note(StFallbacks, CtrFallbacks);
      note(StCacheMisses, CtrCacheMisses);
      return installPage(S, Offset, PageBytes, PageSizeClass::Small,
                         AllocSeq);
    }
  }
  return nullptr;
}

Page *PageAllocator::allocateMultiUnit(size_t Units, size_t PageBytes,
                                       PageSizeClass Cls,
                                       uint64_t AllocSeq) {
  unsigned Home = homeShard();
  for (unsigned I = 0; I < NumGeneralShards; ++I) {
    if (I == 1)
      note(StFallbacks, CtrFallbacks);
    Shard &S = *Shards[(Home + I) % NumGeneralShards];
    std::lock_guard<std::mutex> G(S.Lock);
    note(StShardLocks, CtrShardLocks);
    // Flush the small-page cache first: cached units punch holes in the
    // run map, and carving a multi-unit run around a hole would
    // fragment the shard for good. Multi-unit requests are rare (medium
    // TLAB refills, large objects), so the flush cost is negligible.
    flushCacheLocked(S);
    size_t Offset = takeRunLocked(S, Units);
    if (Offset != SIZE_MAX)
      return installPage(S, Offset, PageBytes, Cls, AllocSeq);
  }
  return takeRunAcrossShards(Units, PageBytes, Cls, AllocSeq);
}

Page *PageAllocator::takeRunAcrossShards(size_t Units, size_t PageBytes,
                                         PageSizeClass Cls,
                                         uint64_t AllocSeq) {
  if (NumGeneralShards < 2)
    return nullptr; // single shard: the per-shard pass was exhaustive

  // Lock every general shard in ascending index order (the only place
  // two shard locks nest, so the order makes deadlock impossible), flush
  // the caches, and search the merged free view. Partitions tile the
  // unit space contiguously, so runs abutting across a boundary form one
  // allocatable window: a request fails here only if it would also have
  // failed under the old single free-run map.
  std::vector<std::unique_lock<std::mutex>> Locks;
  Locks.reserve(NumGeneralShards);
  for (unsigned I = 0; I < NumGeneralShards; ++I) {
    Locks.emplace_back(Shards[I]->Lock);
    note(StShardLocks, CtrShardLocks);
    flushCacheLocked(*Shards[I]);
  }

  // First-fit over the merged, address-ordered run sequence.
  size_t WindowOff = SIZE_MAX, WindowLen = 0, FoundOff = SIZE_MAX;
  for (unsigned I = 0; I < NumGeneralShards && FoundOff == SIZE_MAX; ++I) {
    for (const auto &[Offset, Len] : Shards[I]->Runs) {
      if (WindowOff != SIZE_MAX && WindowOff + WindowLen == Offset) {
        WindowLen += Len;
      } else {
        WindowOff = Offset;
        WindowLen = Len;
      }
      if (WindowLen >= Units) {
        FoundOff = WindowOff;
        break;
      }
    }
  }
  if (FoundOff == SIZE_MAX)
    return nullptr;

  size_t End = FoundOff + Units;
  for (unsigned I = 0; I < NumGeneralShards; ++I) {
    Shard &S = *Shards[I];
    size_t B = std::max(FoundOff, S.BeginUnit);
    size_t E = std::min(End, S.EndUnit);
    if (B < E) {
      removeRangeFromMap(S.Runs, B, E - B);
      noteCarvedLocked(S, B, E - B);
    }
  }
  note(StCrossShard, CtrCrossShard);
  // The page is owned by the shard holding its first unit.
  return installPage(shardForUnit(FoundOff), FoundOff, PageBytes, Cls,
                     AllocSeq);
}

Page *PageAllocator::allocatePage(PageSizeClass Cls, size_t ObjectBytes,
                                  uint64_t AllocSeq, bool Force) {
  size_t PageBytes = Geo.pageSizeFor(Cls, ObjectBytes);
  size_t Units = unitsFor(PageBytes);

  // Reserve the logical heap budget first (CAS loop instead of the old
  // check-under-global-lock); undone on any failure below.
  if (Force) {
    Used.fetch_add(PageBytes, std::memory_order_relaxed);
  } else {
    size_t Cur = Used.load(std::memory_order_relaxed);
    do {
      if (Cur + PageBytes > MaxHeap)
        return nullptr;
    } while (!Used.compare_exchange_weak(Cur, Cur + PageBytes,
                                         std::memory_order_relaxed));
  }

  Page *P = nullptr;
  if (HCSGC_INJECT_FAIL(PageAlloc)) {
    // synthetic address-space exhaustion
  } else if (Units == 1) {
    P = allocateSmallPage(PageBytes, AllocSeq);
  } else {
    P = allocateMultiUnit(Units, PageBytes, Cls, AllocSeq);
  }
  if (!P)
    Used.fetch_sub(PageBytes, std::memory_order_relaxed);
  return P;
}

Page *PageAllocator::allocateReservePage(PageSizeClass Cls,
                                         size_t ObjectBytes,
                                         uint64_t AllocSeq) {
  size_t PageBytes = Geo.pageSizeFor(Cls, ObjectBytes);
  size_t Units = unitsFor(PageBytes);

  Shard &R = reserveShard();
  std::lock_guard<std::mutex> G(R.Lock);
  note(StShardLocks, CtrShardLocks);
  size_t Offset = takeRunLocked(R, Units);
  if (Offset == SIZE_MAX)
    return nullptr;
  ReservePagesUsed.fetch_add(1, std::memory_order_relaxed);
  Used.fetch_add(PageBytes, std::memory_order_relaxed);
  return installPage(R, Offset, PageBytes, Cls, AllocSeq);
}

size_t PageAllocator::relocReserveFreeBytes() const {
  const Shard &R = reserveShard();
  std::lock_guard<std::mutex> G(R.Lock);
  size_t Units = 0;
  for (const auto &[Offset, Len] : R.Runs)
    Units += Len;
  return Units * Geo.SmallPageSize;
}

void PageAllocator::quarantinePage(Page *P) {
  assert(P->state() == PageState::Quarantined &&
         "page must be marked quarantined first");
  // A quarantined page keeps its address range, its page-table entry and
  // its forwarding table; nothing reads its objects or side tables again
  // (INTERNALS §4). Return the memory now: the range stays mapped and
  // refaults as zeros when installPage reuses it.
  if (madvise(reinterpret_cast<void *>(P->begin()), P->size(),
              MADV_DONTNEED) != 0)
    fatalError(("madvise(MADV_DONTNEED) on a quarantined page failed: " +
                std::string(std::strerror(errno)))
                   .c_str());
  P->dropSideTables();
  size_t Offset = (P->begin() - Base) / Geo.SmallPageSize;
  Shard &S = shardForUnit(Offset);
  std::lock_guard<std::mutex> G(S.Lock);
  if (!ownedRemovePageLocked(S, P))
    fatalError("quarantining unknown page");
  S.Registry.erase(P->registryIndex());
  P->setRegistryIndex(Page::NoRegistryIndex);
  S.Quarantined.push_back(P);
  S.QuarCount.fetch_add(1, std::memory_order_relaxed);
  Used.fetch_sub(P->size(), std::memory_order_relaxed);
  Quarantined.fetch_add(P->size(), std::memory_order_relaxed);
  if (P->tier() == PageTier::Cold) {
    // An evacuated cold page no longer holds resident cold data.
    P->setTier(PageTier::None);
    ColdBytes.fetch_sub(P->size(), std::memory_order_relaxed);
  }
}

void PageAllocator::releasePage(Page *P) {
  size_t Units = unitsFor(P->size());
  size_t Offset = (P->begin() - Base) / Geo.SmallPageSize;
  {
    Shard &S = shardForUnit(Offset);
    std::lock_guard<std::mutex> G(S.Lock);
    Table->remove(P->begin(), Units);

    auto It = std::find(S.Quarantined.begin(), S.Quarantined.end(), P);
    if (It != S.Quarantined.end()) {
      S.Quarantined.erase(It);
      S.QuarCount.fetch_sub(1, std::memory_order_relaxed);
      Quarantined.fetch_sub(P->size(), std::memory_order_relaxed);
    } else if (ownedRemovePageLocked(S, P)) {
      S.Registry.erase(P->registryIndex());
      P->setRegistryIndex(Page::NoRegistryIndex);
      Used.fetch_sub(P->size(), std::memory_order_relaxed);
      if (P->tier() == PageTier::Cold)
        ColdBytes.fetch_sub(P->size(), std::memory_order_relaxed);
    } else {
      fatalError("releasing unknown page");
    }
    delete P;
  }
  giveRun(Offset, Units);
}

uint64_t PageAllocator::releaseQuarantinedBefore(uint64_t Cycle) {
  note(StQuarBatches, CtrQuarBatches);
  uint64_t Released = 0;
  // Portions of released pages that extend past the owning shard's end
  // (medium/large pages spanning partition boundaries). A page is owned
  // by the shard holding its first unit, so portions only ever belong to
  // *later* shards and can be spliced when the ascending sweep gets
  // there — no second lock acquisition on any shard.
  std::vector<std::pair<size_t, size_t>> Carried; // (offset, units)

  for (size_t SI = 0; SI < Shards.size(); ++SI) {
    Shard &S = *Shards[SI];
    bool HasCarried = false;
    for (const auto &[Off, Len] : Carried)
      HasCarried |= Len > 0 && Off < S.EndUnit;
    if (S.QuarCount.load(std::memory_order_relaxed) == 0 && !HasCarried)
      continue; // idle shard: skip without locking

    std::lock_guard<std::mutex> G(S.Lock);
    note(StQuarLocks, CtrQuarLocks);

    // Splice the portions carried forward into this shard's run map.
    for (auto &[Off, Len] : Carried) {
      if (Len == 0 || Off >= S.EndUnit)
        continue;
      size_t E = std::min(Off + Len, S.EndUnit);
      freeRunLocked(S, Off, E - Off);
      Len -= E - Off;
      Off = E;
    }

    // Retire this shard's expired quarantined pages in one pass.
    for (size_t I = 0; I < S.Quarantined.size();) {
      Page *P = S.Quarantined[I];
      if (P->quarantineCycle() >= Cycle) {
        ++I;
        continue;
      }
      size_t Units = unitsFor(P->size());
      size_t Offset = (P->begin() - Base) / Geo.SmallPageSize;
      Table->remove(P->begin(), Units);
      Quarantined.fetch_sub(P->size(), std::memory_order_relaxed);
      size_t InShardEnd = std::min(Offset + Units, S.EndUnit);
      freeRunLocked(S, Offset, InShardEnd - Offset);
      if (Offset + Units > InShardEnd)
        Carried.push_back({InShardEnd, Offset + Units - InShardEnd});
      delete P;
      S.Quarantined[I] = S.Quarantined.back();
      S.Quarantined.pop_back();
      S.QuarCount.fetch_sub(1, std::memory_order_relaxed);
      ++Released;
    }
  }
  assert(std::all_of(Carried.begin(), Carried.end(),
                     [](const auto &C) { return C.second == 0; }) &&
         "quarantined units past the reserve shard");
  StQuarPages.fetch_add(Released, std::memory_order_relaxed);
  if (CtrQuarPages)
    CtrQuarPages->add(Released);
  return Released;
}

void PageAllocator::giveRun(size_t Offset, size_t Units) {
  // A freed small page from the general pool goes straight onto its
  // shard's lock-free cache (bounded by the adaptive batch): the most
  // recently freed unit is the next one handed out, which keeps the old
  // allocator's immediate address reuse for alloc/free pairs and
  // re-serves cache-warm memory — and the freeing thread takes no lock.
  // Multi-unit runs and reserve pages always rejoin the run map, so
  // their coalescing is never deferred (a full cache spills to the run
  // map too, and multi-unit requests flush the cache before declaring a
  // shard empty).
  if (Units == 1 && Offset < GeneralUnits) {
    Shard &S = shardForUnit(Offset);
    size_t Bound =
        static_cast<size_t>(S.CacheTarget.load(std::memory_order_relaxed)) *
        4;
    if (S.Cache.sizeApprox() < Bound) {
      S.Cache.push(static_cast<uint32_t>(Offset), unitLinks());
      return;
    }
  }
  // Cross-shard runs are returned piecewise, one shard lock at a time.
  size_t End = Offset + Units;
  while (Offset < End) {
    Shard &S = shardForUnit(Offset);
    size_t PortionEnd = std::min(End, S.EndUnit);
    std::lock_guard<std::mutex> G(S.Lock);
    freeRunLocked(S, Offset, PortionEnd - Offset);
    Offset = PortionEnd;
  }
}

std::vector<Page *> PageAllocator::activePagesSnapshot() const {
  std::vector<Page *> Snapshot;
  forEachActivePage([&](Page &P) { Snapshot.push_back(&P); });
  return Snapshot;
}

std::vector<Page *> PageAllocator::quarantinedPagesSnapshot() const {
  std::vector<Page *> Snapshot;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> G(S->Lock);
    for (Page *P : S->Quarantined)
      Snapshot.push_back(P);
  }
  return Snapshot;
}
