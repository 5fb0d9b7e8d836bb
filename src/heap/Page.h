//===- heap/Page.h - Heap pages with livemap and hotmap --------*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A heap page: bump-pointer allocated, carrying the per-page metadata the
/// collector needs — the ZGC livemap (live bits + live bytes/objects) and
/// the HCSGC hotmap (§3.1.2: "Per-object hotness metadata is recorded in a
/// bitmap called hotmap, adapted from the livemap"), the allocation
/// sequence number used to exclude pages allocated after mark start from
/// EC selection, and the forwarding table while the page is being
/// evacuated.
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_HEAP_PAGE_H
#define HCSGC_HEAP_PAGE_H

#include "heap/Forwarding.h"
#include "heap/Geometry.h"
#include "heap/ObjectModel.h"
#include "support/BitMap.h"
#include "support/Bits.h"

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

namespace hcsgc {

/// Destination tier a relocation-target page was allocated for
/// (TEMPERATURE mode splits ColdPage's §3.3 hot/cold destination pair
/// into hot/warm/cold). Pages that never served as a relocation target
/// stay None. The cold tier is the reclaimable-RSS population
/// (coldpage.resident_bytes): live data whose hotness is low.
enum class PageTier : uint8_t {
  None = 0,
  Hot,
  Warm,
  Cold,
};

/// Lifecycle states of a page.
enum class PageState : uint32_t {
  /// Normal page holding objects.
  Active,
  /// Selected into the evacuation candidate set; objects are being (or
  /// waiting to be) relocated out, forwarding table installed.
  RelocSource,
  /// Fully evacuated. Only the address range, the page-table entry and
  /// the forwarding table are kept, until all stale pointers into the
  /// page have been remapped (end of the next M/R): the object memory is
  /// returned to the OS and the side tables are freed when the drain
  /// ends. The address range is not reused before then (see DESIGN.md on
  /// the absence of ZGC's multi-mapping).
  Quarantined,
};

/// One heap page of any size class.
class Page {
public:
  /// \p TrackTemp arms the per-object temperature plane (TEMPERATURE
  /// knob): a 4-bit nibble per granule beside the hotmap — 2-bit
  /// saturating temperature plus a 2-bit cold-streak counter.
  /// \p TrackSites marks a page whose objects' header site bits are
  /// attributed to the site profile (SITEPROFILING knob).
  Page(uintptr_t Begin, size_t Size, PageSizeClass Cls, uint64_t AllocSeq,
       bool TrackTemp = false, bool TrackSites = false);

  uintptr_t begin() const { return BeginAddr; }
  uintptr_t end() const { return BeginAddr + PageBytes; }
  size_t size() const { return PageBytes; }
  PageSizeClass sizeClass() const { return Cls; }
  uint64_t allocSeq() const { return AllocSeq; }
  bool contains(uintptr_t Addr) const {
    return Addr >= BeginAddr && Addr < end();
  }

  // --- Allocation -------------------------------------------------------

  /// Bump-allocates \p Bytes (8-byte aligned).
  /// \returns the object address, or 0 if the page is full. Thread-safe
  /// (medium pages are shared between mutators).
  uintptr_t allocate(size_t Bytes);

  /// Undoes the most recent allocation if \p Addr + \p Bytes is still the
  /// bump pointer. Used by relocation losers to retract their private
  /// copy. Only valid when the caller is the page's sole allocator.
  bool undoAllocate(uintptr_t Addr, size_t Bytes);

  /// \returns bytes allocated so far.
  size_t used() const {
    return Top.load(std::memory_order_relaxed) - BeginAddr;
  }
  size_t remaining() const { return PageBytes - used(); }

  // --- State ------------------------------------------------------------

  PageState state() const {
    return static_cast<PageState>(State.load(std::memory_order_acquire));
  }
  void setState(PageState S) {
    State.store(static_cast<uint32_t>(S), std::memory_order_release);
  }

  /// \returns true if objects on this page are subject to relocation and
  /// stale pointers into it must go through the forwarding table.
  bool isRelocSourceOrQuarantined() const {
    return state() != PageState::Active;
  }

  // --- Marking metadata ---------------------------------------------------

  /// Resets livemap, hotmap and the byte/object counters. Called at the
  /// beginning of each mark phase ("hotmap is reset at the beginning of
  /// each M/R phase; this renders all objects cold effectively", §3.1.2).
  void clearMarkState();

  /// Atomically marks the object at \p Addr (of \p Bytes) live.
  /// \returns true if this call transitioned the object to live.
  bool markLive(uintptr_t Addr, size_t Bytes);

  /// Atomically flags the object at \p Addr (of \p Bytes) hot.
  /// \returns true if this call transitioned the object to hot.
  bool flagHot(uintptr_t Addr, size_t Bytes);

  /// Sets the hotmap bit for a relocated-in copy whose SOURCE was hot
  /// this cycle, without bumping the temperature (the seed already
  /// carries the bumped value). Keeps the aging cadence intact across a
  /// move: the next aging walk treats the copy as touched instead of
  /// decaying it. TEMPERATURE mode only.
  void transferHot(uintptr_t Addr, size_t Bytes);

  bool isLive(uintptr_t Addr) const {
    return LiveMap.test(granuleOf(Addr));
  }
  bool isHot(uintptr_t Addr) const { return HotMap.test(granuleOf(Addr)); }

  /// Hints the livemap word covering \p Addr into cache (write intent)
  /// ahead of the markLive CAS. Issued by the marker while it still has
  /// the object-header read in flight, so the two misses overlap
  /// (INTERNALS §14).
  void prefetchMarkState(uintptr_t Addr) const {
    prefetchWrite(LiveMap.wordAddr(granuleOf(Addr)));
  }

  size_t liveBytes() const {
    return LiveBytesCtr.load(std::memory_order_relaxed);
  }
  size_t hotBytes() const {
    return HotBytesCtr.load(std::memory_order_relaxed);
  }
  uint32_t liveObjects() const {
    return LiveObjectsCtr.load(std::memory_order_relaxed);
  }
  size_t coldBytes() const {
    size_t L = liveBytes(), H = hotBytes();
    return L > H ? L - H : 0;
  }
  double liveRatio() const {
    return static_cast<double>(liveBytes()) /
           static_cast<double>(PageBytes);
  }

  /// Invokes \p Fn for every live object start address, in address order.
  void forEachLiveObject(const std::function<void(uintptr_t)> &Fn) const;

  // --- Temperature (TEMPERATURE knob, INTERNALS §13) --------------------

  /// Saturation bound of the 2-bit per-object temperature counter.
  static constexpr unsigned MaxTemperature = 3;
  /// Number of temperature tiers (0..MaxTemperature).
  static constexpr unsigned TempTiers = MaxTemperature + 1;
  /// Saturation bound of the 2-bit cold-streak counter.
  static constexpr unsigned MaxColdStreak = 3;
  /// Cold streak (consecutive aging walks at temperature 0) at which a
  /// survivor counts as proven cold: relocation routes it to the cold
  /// tier and accumulateTempTierBytes counts it as proven cold.
  static constexpr unsigned ProvenColdStreak = 2;

  /// \returns true when this page carries the temperature plane.
  bool tracksTemperature() const { return !TempWords.empty(); }

  /// Current temperature of the object at \p Addr (0 when untracked).
  unsigned temperatureOf(uintptr_t Addr) const;

  /// Consecutive aging walks the object at \p Addr has spent at
  /// temperature 0 without being touched (saturating; 0 when untracked).
  unsigned coldStreakOf(uintptr_t Addr) const;

  /// Transfers a (temperature, streak) pair onto the object at \p Addr.
  /// Used by the relocation winner to seed the destination copy from the
  /// source object; must only be called after winning the forwarding CAS
  /// (losers undoAllocate their granules, which must stay zeroed).
  void seedTemperature(uintptr_t Addr, unsigned Temp, unsigned Streak);

  /// Ages the temperature plane by one cycle using the previous cycle's
  /// livemap/hotmap: touched objects keep their (already bumped)
  /// temperature, warm objects decay one step (a decay that reaches
  /// temperature 0 starts the cold streak at 1 — the decaying cycle was
  /// itself untouched, and the nibble must stay nonzero to remain
  /// visible under churn), temperature-0 objects accrue cold streak.
  /// Granules with a nonzero nibble age even when absent from the
  /// livemap — relocated-in copies are seeded after marking ended, and
  /// they must keep decaying on schedule. Runs in the driver's pre-STW1
  /// reset walk, BEFORE clearMarkState (it needs the maps intact).
  void ageTemperature();

  /// Sums the live bytes of each temperature tier into \p Tiers (zeroed
  /// first) from the terminated livemap, so the tiers partition
  /// liveBytes(). \p ProvenCold receives the bytes of temperature-0
  /// objects with a cold streak of at least ProvenColdStreak: when that
  /// equals liveBytes() the whole page has proven cold, and cold adoption
  /// moves it into the cold tier (INTERNALS §13). Valid between mark
  /// termination and the next clearMarkState; the post-mark page census
  /// is the caller.
  void accumulateTempTierBytes(uint64_t (&Tiers)[TempTiers],
                               uint64_t &ProvenCold) const;

  /// Destination tier this page was allocated for (relocation targets
  /// only; None otherwise). Stamped by the allocator's notePageTier.
  PageTier tier() const {
    return static_cast<PageTier>(TierTag.load(std::memory_order_relaxed));
  }
  void setTier(PageTier T) {
    TierTag.store(static_cast<uint8_t>(T), std::memory_order_relaxed);
  }

  // --- Allocation sites (SITEPROFILING knob, INTERNALS §13) -------------

  /// \returns true when this page's objects are attributed to sites.
  bool tracksSites() const { return TrackSites; }

  /// Allocation site in the header of the object at \p Addr
  /// (UnknownSiteId on an untracked page or for an untagged object).
  SiteId siteOf(uintptr_t Addr) const {
    assert(contains(Addr) && "address not on this page");
    return TrackSites ? ObjectView(Addr).site() : UnknownSiteId;
  }

  /// Bytes of per-granule side metadata this page carries: the livemap,
  /// the hotmap and (TEMPERATURE) the temperature plane. 0 once the page
  /// is quarantined.
  size_t sideTableBytes() const {
    return (LiveMap.numWords() + HotMap.numWords() + TempWords.size()) *
           sizeof(uint64_t);
  }

  // --- Relocation -------------------------------------------------------

  /// Installs a forwarding table sized for this page's live population and
  /// transitions the page to RelocSource. Called during EC selection.
  /// \p HeapBase and \p HeapBytes span the mapping every relocation
  /// target lies in (the table stores targets relative to it).
  void beginEvacuation(uintptr_t HeapBase, size_t HeapBytes);

  ForwardingTable *forwarding() const { return Fwd.get(); }

  // --- Drain handshake (INTERNALS §4) -------------------------------------

  /// Announces a copier (a thread that missed in the forwarding table)
  /// before it reads the object memory and side tables of this RelocSource
  /// page. \returns false if the drain already ended: every live object
  /// is forwarded, so the caller must only look its object up. Either way
  /// the caller finishes with endCopy().
  bool beginCopy() {
    Copiers.fetch_add(1, std::memory_order_seq_cst);
    return State.load(std::memory_order_seq_cst) ==
           static_cast<uint32_t>(PageState::RelocSource);
  }
  void endCopy() { Copiers.fetch_sub(1, std::memory_order_release); }

  /// Ends the drain, called by the draining thread once every live object
  /// is forwarded: the page becomes Quarantined, then this waits until
  /// every copier announced before the transition has finished. From then
  /// on nothing but the forwarding table is read, so dropSideTables() and
  /// returning the object memory are safe.
  void finishDrain();

  /// Frees the livemap, the hotmap and the temperature plane of a drained
  /// page (see finishDrain). Their accessors must not be called again.
  void dropSideTables();

  /// Attributes \p Bytes relocated OUT of this page to the acting thread
  /// kind. Called by the relocation winner; reset when the page enters a
  /// relocation set. The heap snapshots read these to show whether a
  /// RelocSource page was drained by GC threads, excavated by mutators,
  /// or is still fully deferred (LAZYRELOCATE window).
  void noteRelocatedFrom(bool ByGcThread, size_t Bytes) {
    (ByGcThread ? RelocOutGcCtr : RelocOutMutCtr)
        .fetch_add(Bytes, std::memory_order_relaxed);
  }
  uint64_t relocOutBytesGc() const {
    return RelocOutGcCtr.load(std::memory_order_relaxed);
  }
  uint64_t relocOutBytesMutator() const {
    return RelocOutMutCtr.load(std::memory_order_relaxed);
  }

  /// Cycle in which this page was quarantined (set by the driver).
  uint64_t quarantineCycle() const { return QuarantineCycle; }
  void setQuarantineCycle(uint64_t C) { QuarantineCycle = C; }

  // --- Allocation-target pinning ----------------------------------------

  /// Marks the page as an in-use bump-allocation target (mutator small or
  /// medium TLAB, relocation target, or the persistent pretenure TLAB).
  /// A pinned page must never be reclaimed through the EC dead-page fast
  /// path (its liveBytes() can read 0 while an allocator is about to bump
  /// into it) nor become a relocation source. STW1's resetAllocTargets
  /// unpins everything except the pretenure TLAB, which fills across
  /// cycles; the EC selector therefore skips pinned pages outright and
  /// records a pinned_skipped verdict.
  void pinAsTarget() {
    PinnedAsTarget.store(true, std::memory_order_release);
  }
  void unpinAsTarget() {
    PinnedAsTarget.store(false, std::memory_order_release);
  }
  bool isPinnedAsTarget() const {
    return PinnedAsTarget.load(std::memory_order_acquire);
  }

  uint32_t offsetOf(uintptr_t Addr) const {
    assert(contains(Addr) && "address not on this page");
    return static_cast<uint32_t>(Addr - BeginAddr);
  }

  // --- Allocator linkage (owned by PageAllocator) -----------------------

  /// Index of the slot this page occupies in its shard's active-page
  /// registry; set on install (lock-free), cleared on quarantine/release
  /// under the owning shard's lock. Only the PageAllocator touches it.
  static constexpr uint32_t NoRegistryIndex = UINT32_MAX;
  uint32_t registryIndex() const { return RegistryIndex; }
  void setRegistryIndex(uint32_t I) { RegistryIndex = I; }

  /// Next page in the owning shard's intrusive active-page list. Pushed
  /// lock-free on install (Treiber-style head CAS on the shard), unlinked
  /// only under the shard lock; atomic so the lock-free pushers and the
  /// locked unlinkers stay race-free (ordering is carried by the shard's
  /// list-head CAS, so relaxed accesses suffice).
  Page *nextOwned() const {
    return NextOwned.load(std::memory_order_relaxed);
  }
  void setNextOwned(Page *P) {
    NextOwned.store(P, std::memory_order_relaxed);
  }

private:
  /// Side-table index of \p Addr; every per-object side-table accessor
  /// goes through here.
  size_t granuleOf(uintptr_t Addr) const {
    assert(contains(Addr) && "address not on this page");
    assert(hasSideTables() && "side table of a drained page");
    return (Addr - BeginAddr) / ObjectAlignment;
  }

  /// False once dropSideTables() ran (every page has a nonempty livemap
  /// until then).
  bool hasSideTables() const { return LiveMap.size() != 0; }

  /// Temperature nibbles are packed 16 per 64-bit word: bits [1:0] hold
  /// the saturating temperature, bits [3:2] the cold streak.
  static constexpr size_t GranulesPerTempWord = 16;
  static constexpr unsigned TempNibbleBits = 4;

  uint64_t tempNibble(size_t Granule) const {
    const std::atomic<uint64_t> &W = TempWords[Granule / GranulesPerTempWord];
    unsigned Shift =
        (Granule % GranulesPerTempWord) * TempNibbleBits;
    return (W.load(std::memory_order_relaxed) >> Shift) & 0xF;
  }

  /// Saturating temperature bump for the object at \p Addr; resets its
  /// cold streak. Called under flagHot's once-per-cycle gate, but CAS'd
  /// because 16 granules share a nibble word.
  void bumpTemperature(uintptr_t Addr);

  uintptr_t BeginAddr;
  size_t PageBytes;
  PageSizeClass Cls;
  uint64_t AllocSeq;
  std::atomic<uintptr_t> Top;
  std::atomic<uint32_t> State{static_cast<uint32_t>(PageState::Active)};

  BitMap LiveMap;
  BitMap HotMap;
  std::atomic<size_t> LiveBytesCtr{0};
  std::atomic<size_t> HotBytesCtr{0};
  std::atomic<uint32_t> LiveObjectsCtr{0};

  /// Packed temperature plane (empty unless TrackTemp). All accesses go
  /// through atomics so racing flagHot callers on neighbouring granules
  /// stay TSan-clean.
  std::vector<std::atomic<uint64_t>> TempWords;
  bool TrackSites;
  std::atomic<uint8_t> TierTag{static_cast<uint8_t>(PageTier::None)};

  std::unique_ptr<ForwardingTable> Fwd;
  std::atomic<uint64_t> RelocOutGcCtr{0};
  std::atomic<uint64_t> RelocOutMutCtr{0};
  /// Copiers announced by beginCopy() and not yet finished. Starts a cache
  /// line: every mutator relocating off this page writes it twice, and
  /// the fields before it are read on other paths.
  alignas(64) std::atomic<uint32_t> Copiers{0};
  uint64_t QuarantineCycle = 0;
  std::atomic<bool> PinnedAsTarget{false};
  uint32_t RegistryIndex = NoRegistryIndex;
  std::atomic<Page *> NextOwned{nullptr};
};

} // namespace hcsgc

#endif // HCSGC_HEAP_PAGE_H
