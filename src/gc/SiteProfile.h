//===- gc/SiteProfile.h - Allocation-site profiles & pretenuring *- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-allocation-site lifetime/hotness profiles (SITEPROFILING knob,
/// INTERNALS §13). NG2C-style pretenuring: call sites tag allocations
/// with an interned SiteId (HCSGC_ALLOC_SITE), the mutator stamps the id
/// into the object header's site bits, and the driver's pre-STW1 walk folds
/// each cycle's livemap/hotmap into per-site survival and hotness
/// EWMAs. Sites that prove persistently cold get their allocations
/// routed to warm/cold-tier pages through a per-thread secondary TLAB —
/// the objects never occupy hot small pages at all, composing with the
/// temperature tiers and LazyRelocate (fewer floating-garbage
/// relocations for objects that were never going to be touched).
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_GC_SITEPROFILE_H
#define HCSGC_GC_SITEPROFILE_H

#include "heap/ObjectModel.h" // SiteId / UnknownSiteId
#include "observe/Metrics.h"

#include <array>
#include <atomic>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace hcsgc {

/// Process-wide intern table mapping site names to stable SiteIds.
/// Interning is mutex-guarded but happens once per call site (the
/// HCSGC_ALLOC_SITE macro caches the id in a function-local static);
/// the hot allocation path only ever carries the integer. The table is
/// process-global, not per-runtime: ids must stay stable across the
/// many short-lived Runtimes a bench sweep creates, and snapshot rows
/// serialize the resolved name so offline tools never need the table.
class SiteRegistry {
public:
  static SiteRegistry &instance();

  /// Interns \p Name, returning its stable id (allocating a fresh one on
  /// first sight). Falls back to UnknownSiteId once the fixed profile
  /// capacity (SiteProfileTable::MaxSites) is exhausted — allocation
  /// correctness never depends on a site getting a distinct id.
  SiteId intern(const std::string &Name);

  /// Name of \p Id ("unknown" for UnknownSiteId or out-of-range ids).
  std::string nameOf(SiteId Id) const;

  /// Number of interned ids, including the implicit unknown site.
  size_t count() const;

private:
  SiteRegistry();
  mutable std::mutex Mu;
  std::vector<std::string> Names; ///< Index = id; [0] = "unknown".
  std::unordered_map<std::string, SiteId> Index;
};

/// Tags an allocation call site: `M.allocate(R, Cls,
/// HCSGC_ALLOC_SITE("kv.record"))`. The intern happens once per call
/// site (function-local static), so the steady-state cost is one load.
#define HCSGC_ALLOC_SITE(NAME)                                           \
  ([]() -> ::hcsgc::SiteId {                                             \
    static const ::hcsgc::SiteId HcsgcCachedSiteId =                     \
        ::hcsgc::SiteRegistry::instance().intern(NAME);                  \
    return HcsgcCachedSiteId;                                            \
  }())

/// Placement verdict a site's profile has earned. Hot is the default —
/// allocations take the normal TLAB path; Warm/Cold route through the
/// per-thread pretenure TLAB onto pages stamped with the matching tier.
enum class SiteRoute : uint8_t { Hot = 0, Warm = 1, Cold = 2 };

const char *siteRouteName(SiteRoute R);

/// Plain per-site stats snapshot (feeds SiteRecord snapshot rows and
/// tests).
struct SiteStats {
  SiteId Id = UnknownSiteId;
  std::string Name;
  uint64_t AllocatedBytes = 0;  ///< Cumulative tagged allocation volume.
  uint64_t SurvivedBytes = 0;   ///< Cumulative live bytes seen by walks.
  uint64_t HotBytes = 0;        ///< Cumulative hotmap-flagged live bytes.
  uint64_t RelocatedBytes = 0;  ///< Cumulative relocation churn.
  uint64_t PretenuredBytes = 0; ///< Bytes placed via the pretenure TLAB.
  double HotEwma = 1.0;         ///< EWMA of hot/survived byte fraction.
  unsigned ObservedCycles = 0;  ///< Cycles with surviving bytes so far.
  SiteRoute Route = SiteRoute::Hot;
};

/// The per-site profile table. One instance per GcHeap when
/// SiteProfiling is on. Mutator-side hooks (noteAllocation, routeOf,
/// noteRelocation) are lock-free relaxed atomics; the per-cycle
/// accumulation + EWMA aging (noteSurvival, endCycle) run exclusively on
/// the GC coordinator in the pre-STW1 window, piggybacking on the same
/// walk that ages temperature and resets mark state.
class SiteProfileTable {
public:
  /// Fixed site capacity, one slot per id a header can carry: SiteIds at
  /// or above this fall back to the unknown slot's accounting. 128
  /// tagged call sites is far beyond any workload in-tree; a fixed array
  /// keeps every hook allocation-free and index-race-free.
  static constexpr size_t MaxSites = size_t(MaxHeaderSite) + 1;

  explicit SiteProfileTable(unsigned ProfileCycles);

  /// Optional: counters mirrored into the metrics registry (site.*).
  /// Safe to skip entirely (tests drive the table bare).
  void bindMetrics(Counter *TaggedBytes, Counter *SurvivedBytes,
                   Counter *RelocatedBytes, Counter *PretenuredBytes,
                   Counter *RouteFlips, Counter *ProfileCycleCtr);

  // --- Mutator-side (lock-free) -----------------------------------------

  /// Records \p Bytes allocated under \p Site. \p Pretenured marks bytes
  /// placed through the secondary TLAB (cold-routed placement).
  void noteAllocation(SiteId Site, size_t Bytes, bool Pretenured);

  /// Current placement verdict for \p Site (one relaxed load).
  SiteRoute routeOf(SiteId Site) const {
    return static_cast<SiteRoute>(
        Slots[slotOf(Site)].Route.load(std::memory_order_relaxed));
  }

  /// Records \p Bytes of relocation churn for \p Site (called by
  /// relocation winners, GC and mutator threads alike).
  void noteRelocation(SiteId Site, size_t Bytes);

  /// Records a relocated survivor into the current cycle's window
  /// (lock-free; GC and mutator winners). Needed because a relocated
  /// object lands on a destination page whose livemap stays empty until
  /// the next marking — the pre-STW1 walk can only see survivors that
  /// stayed put, so without this hook an aggressively-compacting config
  /// would attribute almost no survival at all.
  void noteRelocatedSurvival(SiteId Site, size_t Bytes, bool Hot);

  // --- Coordinator-side (pre-STW1 exclusive window) ---------------------

  /// Accumulates one surviving object into this cycle's window. Called
  /// from the driver's pre-STW1 page walk, before clearMarkState.
  void noteSurvival(SiteId Site, size_t Bytes, bool Hot);

  /// Closes the cycle's window: folds the window's hot/survived bytes
  /// into each site's EWMA, re-derives routes (persistently cold sites
  /// move to Warm/Cold; any re-heating decays them back toward Hot), and
  /// publishes the new verdicts for the mutators' next allocations.
  void endCycle();

  /// Route thresholds on the hot-byte EWMA (exposed for tests).
  static constexpr double ColdEwmaMax = 0.05;
  static constexpr double WarmEwmaMax = 0.25;

  /// Snapshot of every site that has seen any traffic, ordered by id.
  /// Coordinator-window values (EWMA, route) are read relaxed; callers
  /// get the last published cycle's verdicts.
  std::vector<SiteStats> snapshot() const;

  unsigned profileCycles() const { return ProfileCycles; }

private:
  static size_t slotOf(SiteId Site) {
    return Site < MaxSites ? Site : 0;
  }

  struct Slot {
    // Mutator-written, relaxed.
    std::atomic<uint64_t> AllocatedBytes{0};
    std::atomic<uint64_t> WindowAllocatedBytes{0};
    std::atomic<uint64_t> PretenuredBytes{0};
    std::atomic<uint64_t> RelocatedBytes{0};
    // Relocation-winner-written (GC + mutator threads), drained by
    // endCycle into the same window as the coordinator walk's fields.
    std::atomic<uint64_t> WindowRelocSurvivedBytes{0};
    std::atomic<uint64_t> WindowRelocHotBytes{0};
    // Coordinator-only (pre-STW1 window; plain fields).
    uint64_t SurvivedBytes = 0;
    uint64_t HotBytes = 0;
    uint64_t WindowSurvivedBytes = 0;
    uint64_t WindowHotBytes = 0;
    double HotEwma = 1.0; ///< Born hot: never pretenure on no evidence.
    unsigned ObservedCycles = 0;
    // Published verdict (coordinator writes, mutators read).
    std::atomic<uint8_t> Route{static_cast<uint8_t>(SiteRoute::Hot)};
  };

  std::array<Slot, MaxSites> Slots;
  unsigned ProfileCycles;
  // Metric mirrors (null when unbound). Volume counters are advanced by
  // per-cycle deltas in endCycle so the hooks stay single-fetch_add.
  Counter *MetTagged = nullptr;
  Counter *MetSurvived = nullptr;
  Counter *MetRelocated = nullptr;
  Counter *MetPretenured = nullptr;
  Counter *MetRouteFlips = nullptr;
  Counter *MetProfileCycles = nullptr;
  uint64_t PublishedTagged = 0;
  uint64_t PublishedSurvived = 0;
  uint64_t PublishedRelocated = 0;
  uint64_t PublishedPretenured = 0;
};

} // namespace hcsgc

#endif // HCSGC_GC_SITEPROFILE_H
