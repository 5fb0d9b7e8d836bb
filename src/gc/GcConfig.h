//===- gc/GcConfig.h - Collector configuration and tuning knobs *- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// All collector parameters, including the five HCSGC tuning knobs of
/// §4.1 of the paper:
///
///   HOTNESS               - record per-object hotness in the hotmap.
///   COLDPAGE              - GC threads relocate cold objects to a separate
///                           thread-local destination page (needs HOTNESS).
///   COLDCONFIDENCE        - 0..1 weight discounting cold bytes in EC
///                           selection (needs HOTNESS).
///   RELOCATEALLSMALLPAGES - put every small page in EC.
///   LAZYRELOCATE          - defer the GC threads' relocation pass to the
///                           start of the next cycle (Fig. 3).
///
/// Parameters that every benchmark, tool and example runs at a single
/// value are named constants beside their use rather than fields here:
/// the modeled instruction costs (Barrier.cpp, Marker.cpp,
/// Relocator.cpp), the mark-prefetch distance (Marker.cpp), the
/// page-cache refill batch (PageAllocator::CacheBatch/Max), the
/// proven-cold streak (Page::ProvenColdStreak), the snapshot ring size
/// (HeapSnapshotter::RingCaptures), the allocation-stall retry budget
/// (Mutator::AllocStallRetries, 5), the relocation-target reserve and
/// the site-profile window (RelocReservePages, 4, and
/// SiteProfileCycles, 3, in GcHeap.cpp), and the simulated machine's
/// line size, associativities, latencies and prefetcher (CacheHierarchy;
/// only the three cache capacities in CacheConfig scale).
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_GC_GCCONFIG_H
#define HCSGC_GC_GCCONFIG_H

#include "heap/Geometry.h"
#include "simcache/Hierarchy.h"

#include <cstddef>
#include <string>

namespace hcsgc {

/// Full collector + heap + instrumentation configuration.
struct GcConfig {
  // --- HCSGC tuning knobs (Table 2) -------------------------------------
  bool Hotness = false;
  bool ColdPage = false;
  double ColdConfidence = 0.0;
  bool RelocateAllSmallPages = false;
  bool LazyRelocate = false;
  /// §4.8 (future work): auto-tune COLDCONFIDENCE with a per-cycle
  /// feedback loop instead of a fixed value. Uses the marked hot/live
  /// ratio as the feedback signal: a cold-heavy heap raises the
  /// confidence (more excavation), a hot-dense heap lowers it (avoid
  /// pointless churn). Requires HOTNESS.
  bool AutoTuneColdConfidence = false;

  // --- Multi-cycle temperature extension (INTERNALS §13) -----------------
  /// Widen the 1-cycle hotmap bit into a 2-bit saturating per-object
  /// temperature that decays across cycles instead of being zeroed.
  /// EC selection then weights bytes by tier confidence
  /// (WLB = sum w(temp)*bytes) and relocation routes survivors into
  /// hot/warm/cold destination tiers. A survivor is "proven cold" after
  /// Page::ProvenColdStreak consecutive aging walks at temperature 0;
  /// with COLDPAGE, a page whose whole live population proved cold joins
  /// the cold tier. Requires HOTNESS.
  bool Temperature = false;

  // --- Allocation-site profiling & pretenuring (INTERNALS §13) -----------
  /// Carry caller-supplied allocation-site IDs through the allocation
  /// path, stamp them into the object header, and accumulate
  /// per-site survival/hotness/relocation-churn profiles across cycles.
  /// Sites whose profile proves persistently cold get their allocations
  /// routed to warm/cold-tier pages via a per-thread secondary TLAB, so
  /// the objects never occupy hot small pages at all. Requires HOTNESS.
  bool SiteProfiling = false;

  // --- ZGC-inherited parameters ------------------------------------------
  /// Candidate filter: pages whose (weighted) live ratio is at or below
  /// this threshold may enter EC (§2.2: 75% by default).
  double EvacLiveThreshold = 0.75;
  /// Evacuation budget: EC is the maximal sorted prefix whose cumulative
  /// (weighted) live bytes stay within
  /// EvacBudgetFraction * PageSize * EvacBudgetPages (§2.2's constraint,
  /// with a page-count multiplier exposed so scaled-down heaps keep
  /// comparable relocation volume).
  double EvacBudgetFraction = 0.75;
  double EvacBudgetPages = 1.0;
  /// Start a cycle when used bytes exceed this fraction of the max heap.
  double TriggerFraction = 0.70;
  /// Additionally require this fraction of the heap to have been newly
  /// allocated since the previous cycle before triggering again. This is
  /// the allocation-rate pacing that keeps an inter-cycle window open
  /// (during which mutators relocate under LAZYRELOCATE) instead of
  /// running cycles back to back whenever usage sits at the threshold.
  double TriggerHysteresisFraction = 0.05;

  // --- Resources ----------------------------------------------------------
  unsigned GcWorkers = 1;
  HeapGeometry Geometry;
  size_t MaxHeapBytes = size_t(256) << 20;
  /// Address space to reserve; 0 means 3 * MaxHeapBytes (quarantine
  /// headroom, see DESIGN.md). The relocation-target reserve
  /// (RelocReservePages in GcHeap.cpp) is carved on top of it.
  size_t ReservedBytes = 0;
  /// General-pool shard count for the page allocator's lock striping;
  /// 0 picks one shard per hardware thread (capped at 8). Always clamped
  /// so each shard spans at least one medium page (see INTERNALS §10).
  unsigned AllocatorShards = 0;

  // --- Instrumentation ------------------------------------------------------
  /// When true every thread gets a CacheHierarchy probe and all heap
  /// accesses are fed through it. The modeled instruction costs of the
  /// barrier slow path, marking and relocation are constants beside
  /// their single use (Barrier.cpp, Marker.cpp, Relocator.cpp).
  bool EnableProbes = false;
  CacheConfig Cache;
  /// Arm the GC event trace at startup (equivalent to calling
  /// Runtime::setTraceEnabled(true) before the first cycle). Tracing can
  /// also be toggled at runtime; this knob exists so a config (tests,
  /// gc_torture --trace-dir, bench/e2e) can request it declaratively.
  bool TraceEnabled = false;
  /// Per-thread trace ring capacity in events. Overflow drops the newest
  /// events and counts them, it never blocks the hot path.
  size_t TraceBufferEvents = size_t(1) << 15;
  /// Arm the heap locality observatory: after EC selection the driver
  /// captures one per-page snapshot per cycle (the post-mark census, each
  /// page carrying EC's verdict), into a bounded in-memory ring of
  /// HeapSnapshotter::RingCaptures cycles, each committed with its
  /// cycle's record. Disabled capture costs one flag test per cycle.
  bool SnapshotLogEnabled = false;
  /// When non-empty, every capture is additionally streamed to this file
  /// as JSONL (one cycle per line; see tools/heapscope). A path that
  /// cannot be opened is a fatal error at heap construction.
  std::string SnapshotLogPath;

  /// \returns true if knob dependencies hold (COLDPAGE, COLDCONFIDENCE,
  /// TEMPERATURE and SITEPROFILING require HOTNESS, §4.1).
  bool knobsValid() const {
    if (!Hotness && (ColdPage || ColdConfidence != 0.0 ||
                     AutoTuneColdConfidence || Temperature ||
                     SiteProfiling))
      return false;
    return ColdConfidence >= 0.0 && ColdConfidence <= 1.0;
  }
};

} // namespace hcsgc

#endif // HCSGC_GC_GCCONFIG_H
