//===- observe/HeapSnapshot.h - Per-cycle page snapshots -------*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The heap locality observatory's data model: once per cycle, right
/// after EC selection, the driver captures one compact record per page of
/// the post-mark census (live/hot bytes, WLB, state, pin, relocation
/// attribution) in its pre-EC state, each carrying the selector's verdict
/// and weight, plus the knob values and budgets the selection ran under.
/// That is EC's full decision record: every candidate page's WLB inputs
/// and the accept/reject verdict, committed with the cycle's CycleRecord
/// into a bounded in-memory ring and, optionally, a JSONL stream.
///
/// Everything here is plain data, deliberately free of heap types: the
/// observe layer sits below hcsgc_heap in the link order (heap links
/// observe for bindMetrics), so the page census that walks real Page
/// objects lives in the gc layer (GcHeap::takeCensus) and only the
/// POD results flow down here. That also makes the EC replay below a
/// pure function a CLI (tools/heapscope) can run offline from a log.
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_OBSERVE_HEAPSNAPSHOT_H
#define HCSGC_OBSERVE_HEAPSNAPSHOT_H

#include "observe/Metrics.h"

#include <cstdint>
#include <cstdio>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace hcsgc {

/// Page size class as recorded in snapshots (mirrors PageSizeClass
/// without including heap headers).
enum class SnapSizeClass : uint8_t { Small = 0, Medium = 1, Large = 2 };

inline const char *snapSizeClassName(SnapSizeClass C) {
  switch (C) {
  case SnapSizeClass::Small:
    return "small";
  case SnapSizeClass::Medium:
    return "medium";
  case SnapSizeClass::Large:
    return "large";
  }
  return "unknown";
}

/// Page lifecycle state as recorded in snapshots (mirrors PageState).
enum class SnapPageState : uint8_t {
  Active = 0,
  RelocSource = 1,
  Quarantined = 2,
};

inline const char *snapPageStateName(SnapPageState S) {
  switch (S) {
  case SnapPageState::Active:
    return "active";
  case SnapPageState::RelocSource:
    return "reloc_source";
  case SnapPageState::Quarantined:
    return "quarantined";
  }
  return "unknown";
}

/// The selector's verdict on one considered page.
enum class EcVerdict : uint8_t {
  /// Entered the evacuation candidate set.
  Selected = 0,
  /// (Weighted) live ratio above EvacLiveThreshold.
  RejectedThreshold = 1,
  /// Passed the filter but fell outside the sorted budget prefix.
  RejectedBudget = 2,
  /// Fully dead; reclaimed without relocation.
  DeadReclaimed = 3,
  /// Skipped because it is a pinned in-use allocation target (defensive
  /// release-build path; asserts fire in debug builds).
  PinnedSkipped = 4,
  /// Live large page; never a relocation candidate.
  LargeIgnored = 5,
  /// Allocated during the cycle (AllocSeq >= cycle): its liveness is not
  /// final, so selection did not look at it.
  NotJudged = 6,
};

const char *ecVerdictName(EcVerdict V);

/// §3.1.3's weighted-live-bytes formula, as one pure function shared by
/// the selector, the snapshot capture, the replay below and the tests:
///
///   WLB = live bytes                       if HOTNESS is off
///   WLB = cold bytes (== live bytes)       if hot bytes == 0
///   WLB = hot + cold * (1 - coldConf)      otherwise
double wlbFormula(uint64_t LiveBytes, uint64_t HotBytes, bool Hotness,
                  double ColdConfidence);

/// Number of temperature tiers in snapshot records (mirrors
/// Page::TempTiers without including heap headers).
constexpr unsigned SnapTempTiers = 4;

/// TEMPERATURE's confidence-weighted generalization of wlbFormula:
///
///   WLB = live bytes                        if HOTNESS is off
///   WLB = live bytes                        if no byte is above tier 0
///   WLB = sum_t bytes[t] * (1 - coldConf * (3 - t) / 3)   otherwise
///
/// With only tiers {0, 3} populated (1-bit temperature) this reduces
/// BIT-EXACTLY to wlbFormula(live, bytes[3], ...): the tier-3 weight is
/// exactly 1.0, the tier-0 weight exactly (1 - coldConf), the empty
/// middle tiers add exact zeros, and IEEE addition is commutative.
double wlbTempFormula(uint64_t LiveBytes,
                      const uint64_t (&TempBytes)[SnapTempTiers],
                      bool Hotness, double ColdConfidence);

/// Destination tier of a relocation-target page as recorded in
/// snapshots (mirrors PageTier).
enum class SnapPageTier : uint8_t { None = 0, Hot = 1, Warm = 2, Cold = 3 };

inline const char *snapPageTierName(SnapPageTier T) {
  switch (T) {
  case SnapPageTier::None:
    return "none";
  case SnapPageTier::Hot:
    return "hot";
  case SnapPageTier::Warm:
    return "warm";
  case SnapPageTier::Cold:
    return "cold";
  }
  return "unknown";
}

/// One page of the post-mark census, in its state before EC selection.
struct PageRecord {
  uint64_t PageBegin = 0;
  uint64_t PageSize = 0;
  uint64_t UsedBytes = 0;
  uint64_t LiveBytes = 0;
  uint64_t HotBytes = 0;
  uint64_t AllocSeq = 0;
  /// Bytes relocated OUT of this page since it entered the relocation
  /// set, split by acting thread kind. Both zero on a RelocSource page
  /// mean its evacuation is still fully deferred (LAZYRELOCATE window).
  uint64_t RelocOutBytesGc = 0;
  uint64_t RelocOutBytesMutator = 0;
  /// WLB under the effective COLDCONFIDENCE at capture.
  double Wlb = 0.0;
  /// The weight selection actually used: WLB for small pages, plain live
  /// bytes for medium and large, 0.0 under RELOCATEALLSMALLPAGES and on
  /// dead, pinned and unjudged pages.
  double Weight = 0.0;
  /// Per-temperature-tier live bytes (TEMPERATURE only, else zeros).
  uint64_t TempBytes[SnapTempTiers] = {0, 0, 0, 0};
  SnapSizeClass SizeClass = SnapSizeClass::Small;
  SnapPageState State = SnapPageState::Active;
  uint8_t Pinned = 0;
  /// Destination tier (SnapPageTier) if the page served as a relocation
  /// target; None otherwise.
  uint8_t Tier = 0;
  /// EC selection's verdict on this page.
  EcVerdict Verdict = EcVerdict::NotJudged;
};

/// One allocation site's cumulative profile at capture time
/// (SITEPROFILING only). Plain data mirroring gc/SiteProfile.h's
/// SiteStats; Route is the SiteRoute value (0 hot, 1 warm, 2 cold).
struct SiteRecord {
  uint64_t SiteIdNum = 0;
  std::string Name;
  uint64_t AllocatedBytes = 0;
  uint64_t SurvivedBytes = 0;
  uint64_t HotBytes = 0;
  uint64_t RelocatedBytes = 0;
  uint64_t PretenuredBytes = 0;
  double HotEwma = 0.0;
  uint8_t Route = 0;
};

inline const char *snapSiteRouteName(uint8_t Route) {
  switch (Route) {
  case 1:
    return "warm";
  case 2:
    return "cold";
  default:
    return "hot";
  }
}

/// One GC cycle as the driver saw it. GcStats keeps one per cycle, the
/// cycle's snapshot line carries it, and GcDriver::recordCycle folds it
/// into every per-cycle metric (INTERNALS §12).
struct CycleRecord {
  uint64_t Cycle = 0;
  uint64_t SmallPagesInEc = 0;
  uint64_t MediumPagesInEc = 0;
  uint64_t EmptyPagesReclaimed = 0;
  uint64_t LiveBytesMarked = 0;
  uint64_t HotBytesMarked = 0;
  uint64_t ObjectsRelocatedByMutators = 0;
  uint64_t ObjectsRelocatedByGc = 0;
  uint64_t BytesRelocatedByMutators = 0;
  uint64_t BytesRelocatedByGc = 0;
  uint64_t BytesRelocated = 0;
  uint64_t UsedAfterBytes = 0;
  /// Bytes relocated onto cold-tier pages (TEMPERATURE + COLDPAGE).
  uint64_t ColdRelocatedBytes = 0;
  /// The census's live bytes by temperature tier over the pages that
  /// predate the cycle (TEMPERATURE only): tiers 2-3 were referenced
  /// recently enough to count as hot, tier 1 is cooling, tier 0 is the
  /// cold candidate mass.
  uint64_t TempHotBytes = 0, TempWarmBytes = 0, TempColdBytes = 0;
  double Stw1Ms = 0, Stw2Ms = 0, Stw3Ms = 0;
  double MarkMs = 0, RelocMs = 0;
  double AgingMs = 0, CensusMs = 0, EcSelectMs = 0, SnapshotMs = 0;
  /// This cycle's runCycle minus its leading drain of the previous
  /// cycle's deferred set, plus (LAZYRELOCATE) its own drain at the next
  /// cycle's start. The CyclePhases partition it.
  double WallMs = 0;

  friend bool operator==(const CycleRecord &, const CycleRecord &) = default;
};

/// One counter of the record: its snapshot-line member, the metrics
/// counter recordCycle adds it to (null: none), and the member.
struct CycleCount {
  const char *Key;
  const char *Counter;
  uint64_t CycleRecord::*Member;
};

inline constexpr CycleCount CycleCounts[] = {
    {"small_pages_in_ec", "gc.ec.small_pages", &CycleRecord::SmallPagesInEc},
    {"medium_pages_in_ec", "gc.ec.medium_pages",
     &CycleRecord::MediumPagesInEc},
    {"empty_pages_reclaimed", "gc.ec.empty_pages_reclaimed",
     &CycleRecord::EmptyPagesReclaimed},
    {"live_bytes", "gc.marked.live_bytes", &CycleRecord::LiveBytesMarked},
    {"hot_bytes", "gc.marked.hot_bytes", &CycleRecord::HotBytesMarked},
    {"objects_reloc_mut", "gc.reloc.objects_mutator",
     &CycleRecord::ObjectsRelocatedByMutators},
    {"objects_reloc_gc", "gc.reloc.objects_gc",
     &CycleRecord::ObjectsRelocatedByGc},
    {"bytes_reloc_mut", "gc.reloc.bytes_mutator",
     &CycleRecord::BytesRelocatedByMutators},
    {"bytes_reloc_gc", "gc.reloc.bytes_gc", &CycleRecord::BytesRelocatedByGc},
    {"bytes_reloc", nullptr, &CycleRecord::BytesRelocated},
    {"used_after", nullptr, &CycleRecord::UsedAfterBytes},
    {"cold_reloc", "coldpage.relocated_bytes",
     &CycleRecord::ColdRelocatedBytes},
    {"temp_hot", "temp.hot_bytes", &CycleRecord::TempHotBytes},
    {"temp_warm", "temp.warm_bytes", &CycleRecord::TempWarmBytes},
    {"temp_cold", "temp.cold_bytes", &CycleRecord::TempColdBytes},
};

/// One timed phase: its name (gc.phase.<name>_us, the line's <name>_ms,
/// heapscope's column) and the member holding its time.
struct CyclePhase {
  const char *Name;
  double CycleRecord::*Ms;
};

/// The phases that partition CycleRecord::WallMs, in the order a cycle
/// runs them. STW2 is not one: it ends marking and is timed inside mark.
inline constexpr CyclePhase CyclePhases[] = {
    {"aging", &CycleRecord::AgingMs},
    {"stw1", &CycleRecord::Stw1Ms},
    {"mark", &CycleRecord::MarkMs},
    {"census", &CycleRecord::CensusMs},
    {"ec_select", &CycleRecord::EcSelectMs},
    {"snapshot", &CycleRecord::SnapshotMs},
    {"stw3", &CycleRecord::Stw3Ms},
    {"reloc", &CycleRecord::RelocMs},
};

/// One cycle: its record, every census page with EC's verdict, the site
/// profile, and the knob values and budgets the selection ran under.
struct CycleSnapshot {
  uint64_t Cycle = 0;
  /// The cycle's finished record (Record.Cycle == Cycle).
  CycleRecord Record;
  uint64_t TimeNs = 0; ///< Trace-session clock at capture.
  double ColdConfidence = 0.0; ///< Effective value (auto-tuner aware).
  double EvacLiveThreshold = 0.0;
  double BudgetSmall = 0.0; ///< 0 under RELOCATEALLSMALLPAGES.
  double BudgetMedium = 0.0;
  double RequiredFree = 0.0; ///< Reclamation demand (small pass only).
  uint8_t Hotness = 0;
  /// TEMPERATURE was on: small-page weights came from wlbTempFormula
  /// over the per-page TempBytes tiers.
  uint8_t Temperature = 0;
  uint8_t RelocateAll = 0;
  std::vector<PageRecord> Pages; ///< Sorted by PageBegin.
  /// Per-site profile rows (SITEPROFILING only, else empty).
  std::vector<SiteRecord> Sites;
};

/// Re-runs EC selection from the snapshot's raw inputs alone — same
/// filter (pages that predate the cycle, not pinned, not dead), same
/// (weight, address) sort, same budget/required-free prefix walk as
/// gc/EcSelector.cpp, double-for-double. \returns the selected page
/// begins, sorted ascending. Comparing against selectedPages proves the
/// live selector honored the recorded formula.
std::vector<uint64_t> replayEcSelection(const CycleSnapshot &S);

/// \returns the page begins whose recorded verdict is Selected, sorted.
std::vector<uint64_t> selectedPages(const CycleSnapshot &S);

/// Bounded FIFO of snapshots: pushing past the capacity drops the oldest
/// capture and counts its page records as dropped.
class SnapshotRing {
public:
  explicit SnapshotRing(size_t CapacityCaptures)
      : Capacity(CapacityCaptures ? CapacityCaptures : 1) {}

  /// \returns the number of page records dropped to make room.
  uint64_t push(CycleSnapshot &&S);

  std::vector<CycleSnapshot> history() const {
    return {Ring.begin(), Ring.end()};
  }

private:
  const size_t Capacity;
  std::deque<CycleSnapshot> Ring;
};

/// Owns the ring and the optional JSONL stream; the GcHeap holds one.
/// A capture is staged after EC selection and committed with its
/// cycle's record, so the ring, the JSONL file and GcStats hold the same
/// cycles. Capture never takes an allocator shard lock (asserted via
/// alloc.shard.lock_acquisitions in the invariant tests).
class HeapSnapshotter {
public:
  /// Captures retained in memory (one per cycle when enabled); older
  /// ones are dropped and counted in snapshot.dropped_records.
  static constexpr size_t RingCaptures = 128;

  HeapSnapshotter() = default;
  ~HeapSnapshotter();

  HeapSnapshotter(const HeapSnapshotter &) = delete;
  HeapSnapshotter &operator=(const HeapSnapshotter &) = delete;

  /// Applies the GcConfig::SnapshotLog* knobs at heap construction: arms
  /// the ring and, when \p JsonlPath is non-empty, opens the streaming
  /// JSONL file. \returns false if that file cannot be opened.
  bool configure(bool Enabled, const std::string &JsonlPath);

  bool enabled() const { return Enabled; }

  /// Registers the snapshot.* counters. Called once by the GcHeap ctor
  /// (always, so the metric names exist even when capture is off).
  void bindMetrics(MetricsRegistry &MR);

  /// Holds \p S until commit() brings its cycle's record, replacing any
  /// capture still staged.
  void stage(CycleSnapshot &&S);

  /// Completes the staged capture of R.Cycle, if any, with \p R, appends
  /// it to the ring (dropping the oldest past capacity) and streams it to
  /// the JSONL file when one is open.
  void commit(const CycleRecord &R);

  /// Copy of the retained captures, oldest first.
  std::vector<CycleSnapshot> history() const;

private:
  bool Enabled = false;
  mutable std::mutex Lock;
  std::optional<CycleSnapshot> Staged;
  SnapshotRing Ring{RingCaptures};
  std::FILE *Stream = nullptr;
  Counter *Captures = nullptr;
  Counter *PagesRecorded = nullptr;
  Counter *DroppedRecords = nullptr;
};

} // namespace hcsgc

#endif // HCSGC_OBSERVE_HEAPSNAPSHOT_H
