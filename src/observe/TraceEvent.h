//===- observe/TraceEvent.h - Typed GC trace events ------------*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event taxonomy of the tracing layer. One fixed-size POD record per
/// event keeps the per-thread buffers allocation-free and cheap to fill;
/// the meaning of the A..D payload words depends on the kind (documented
/// on each enumerator). Every event carries the GC cycle number current
/// at emission time and the emitting thread's session id + GC/mutator
/// attribution, which is what lets the trace-driven invariant tests check
/// the paper's protocol (who relocated what, and when).
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_OBSERVE_TRACEEVENT_H
#define HCSGC_OBSERVE_TRACEEVENT_H

#include <cstdint>
#include <cstring>

namespace hcsgc {

/// Phases of one GC cycle, used as the payload of Phase*/Pause* events.
enum class GcPhase : uint8_t {
  Stw1,     ///< Pause 1: color flip + root scan.
  Mark,     ///< Concurrent mark/remap.
  Stw2,     ///< Pause 2: mark termination.
  EcSelect, ///< Concurrent evacuation-candidate selection.
  Stw3,     ///< Pause 3: flip to R + root healing.
  Relocate, ///< Relocation-set drain (eager, or deferred under lazy).
};

/// Typed GC events. Payload word meaning per kind:
enum class TraceEventKind : uint8_t {
  /// A new cycle's runCycle invocation starts. Under LAZYRELOCATE this
  /// precedes the deferred drain of the previous cycle's EC (Fig. 3:
  /// "each GC cycle starts with releasing memory"). Cycle = the cycle
  /// about to run.
  CycleBegin,
  /// runCycle finished (its own EC may still be pending under lazy).
  CycleEnd,
  /// A = GcPhase. Brackets the concurrent phases. PhaseBegin(EcSelect)
  /// also carries B = the effective COLDCONFIDENCE (bit-cast double) and
  /// C = the HOTNESS knob.
  PhaseBegin,
  PhaseEnd,
  /// A = GcPhase (Stw1/Stw2/Stw3). Brackets a stop-the-world pause,
  /// emitted by the coordinator around beginPause/endPause.
  PauseBegin,
  PauseEnd,
  /// Livemaps + hotmaps cleared ahead of STW1 ("hotmap is reset at the
  /// beginning of each M/R phase", §3.1.2). A = pages cleared. Cycle =
  /// the upcoming cycle.
  HotmapReset,
  /// An object transitioned cold -> hot in the hotmap. A = object
  /// address, B = object bytes. GcThread tells which §3.1.2 source fired
  /// (marker R-color scan vs mutator barrier slow path).
  HotFlag,
  /// An object was relocated (forwarding CAS won). A = old address,
  /// B = new address, C = bytes. GcThread is the actor attribution the
  /// LAZYRELOCATE invariant test keys on.
  Relocation,
  /// A mutator allocation failed its fast path and is stalling for a GC
  /// cycle. A = requested bytes, B = stall attempt (0-based), C = cycles
  /// this stall waits for (2 under LAZYRELOCATE).
  AllocStall,
  /// An emergency synchronous cycle began (allocation stall ran out of
  /// ordinary retries). Drains deferred + own EC immediately even under
  /// LAZYRELOCATE. A = used bytes, B = quarantined bytes at entry.
  EmergencyCycle,
};

/// One fixed-size trace record.
struct TraceEvent {
  uint64_t TimeNs = 0; ///< steady_clock ns since session start.
  uint64_t Cycle = 0;  ///< GcHeap::currentCycle() at emission.
  uint64_t A = 0, B = 0, C = 0, D = 0;
  TraceEventKind Kind = TraceEventKind::CycleBegin;
  uint8_t GcThread = 0; ///< 1 if emitted by a GC thread.
  uint16_t Tid = 0;     ///< Session-assigned thread id.
};

/// Stable string names (used by the exporter and the CLI).
inline const char *traceEventKindName(TraceEventKind K) {
  switch (K) {
  case TraceEventKind::CycleBegin:
    return "cycle_begin";
  case TraceEventKind::CycleEnd:
    return "cycle_end";
  case TraceEventKind::PhaseBegin:
    return "phase_begin";
  case TraceEventKind::PhaseEnd:
    return "phase_end";
  case TraceEventKind::PauseBegin:
    return "pause_begin";
  case TraceEventKind::PauseEnd:
    return "pause_end";
  case TraceEventKind::HotmapReset:
    return "hotmap_reset";
  case TraceEventKind::HotFlag:
    return "hot_flag";
  case TraceEventKind::Relocation:
    return "relocation";
  case TraceEventKind::AllocStall:
    return "alloc_stall";
  case TraceEventKind::EmergencyCycle:
    return "emergency_cycle";
  }
  return "unknown";
}

inline const char *gcPhaseName(GcPhase P) {
  switch (P) {
  case GcPhase::Stw1:
    return "STW1";
  case GcPhase::Mark:
    return "mark";
  case GcPhase::Stw2:
    return "STW2";
  case GcPhase::EcSelect:
    return "ec_select";
  case GcPhase::Stw3:
    return "STW3";
  case GcPhase::Relocate:
    return "relocate";
  }
  return "unknown";
}

/// Bit-cast helpers for double payloads (confidences).
inline uint64_t traceBitsFromDouble(double D) {
  uint64_t U;
  std::memcpy(&U, &D, sizeof(U));
  return U;
}
inline double traceDoubleFromBits(uint64_t U) {
  double D;
  std::memcpy(&D, &U, sizeof(D));
  return D;
}

} // namespace hcsgc

#endif // HCSGC_OBSERVE_TRACEEVENT_H
