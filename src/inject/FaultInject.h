//===- inject/FaultInject.h - Deterministic fault-point registry *- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic, seeded fault injection for the heap/GC stack. Each
/// named FailPoint is a site compiled into a slow path (page allocation,
/// TLAB refill, relocation-target allocation, phase boundaries); a
/// FaultPlan armed on the global FaultRegistry decides, per site and per
/// hit ordinal, whether the site reports failure (or, for delay points,
/// how long it sleeps). Decisions are a pure function of
/// (plan seed, fail point, hit ordinal), so a torture run with a fixed
/// seed injects the same faults at the same allocation counts regardless
/// of thread interleaving — the schedule varies, the adversity does not.
///
/// Mirrors the HCSGC_TRACE cost model: a disarmed registry costs one
/// relaxed atomic load and a predicted-not-taken branch per site, and
/// -DHCSGC_FAULT_DISABLED compiles every site out entirely.
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_INJECT_FAULTINJECT_H
#define HCSGC_INJECT_FAULTINJECT_H

#include "support/Compiler.h"

#include <array>
#include <atomic>
#include <cstdint>

namespace hcsgc {

/// Named injection sites. Keep traceFailPointName in sync.
enum class FailPoint : unsigned {
  /// PageAllocator::allocatePage, immediately before takeRun: synthetic
  /// address-space exhaustion. Denies mutator TLAB pages, shared
  /// medium/large pages, and the *primary* relocation-target path (the
  /// relocation reserve is deliberately not covered — it is the
  /// mechanism under test).
  PageAlloc,
  /// GcHeap::allocateRelocTarget: deny the forced primary allocation so
  /// the reserved relocation-target pool must satisfy the request.
  RelocTargetAlloc,
  /// Mutator TLAB refill in allocObject: the refill reports failure without
  /// consuming address space, driving the stall/backoff path.
  TlabRefill,
  /// GcDriver phase boundaries: bounded randomized sleep for schedule
  /// fuzzing (uses FaultSpec::MaxDelayUs).
  PhaseDelay,
  /// SafepointManager::beginPause/endPause: bounded randomized sleep
  /// stretching the pause protocol windows.
  SafepointDelay,
  NumPoints
};

inline constexpr unsigned NumFailPoints =
    static_cast<unsigned>(FailPoint::NumPoints);

/// Stable names for reports and torture logs.
inline const char *failPointName(FailPoint P) {
  switch (P) {
  case FailPoint::PageAlloc:
    return "page_alloc";
  case FailPoint::RelocTargetAlloc:
    return "reloc_target_alloc";
  case FailPoint::TlabRefill:
    return "tlab_refill";
  case FailPoint::PhaseDelay:
    return "phase_delay";
  case FailPoint::SafepointDelay:
    return "safepoint_delay";
  case FailPoint::NumPoints:
    break;
  }
  return "unknown";
}

/// Per-site behavior of a plan. All-zero means the site never fires.
struct FaultSpec {
  /// Chance in [0,1] that an eligible hit fires (1.0 = every hit).
  double Probability = 0.0;
  /// Hits to let through before the site becomes eligible.
  uint64_t SkipFirst = 0;
  /// Cap on total fires (UINT64_MAX = unlimited).
  uint64_t MaxFires = UINT64_MAX;
  /// Delay points: a fire sleeps a deterministic duration in
  /// [1, MaxDelayUs] microseconds. Ignored by failure points.
  uint32_t MaxDelayUs = 0;
};

/// A seeded set of per-site specs. Cheap value type; arm it on the
/// registry (preferably via ScopedFaultPlan).
class FaultPlan {
public:
  explicit FaultPlan(uint64_t Seed = 0) : Seed(Seed) {}

  FaultPlan &set(FailPoint P, FaultSpec S) {
    Specs[static_cast<unsigned>(P)] = S;
    return *this;
  }
  const FaultSpec &spec(FailPoint P) const {
    return Specs[static_cast<unsigned>(P)];
  }
  uint64_t seed() const { return Seed; }

private:
  uint64_t Seed;
  std::array<FaultSpec, NumFailPoints> Specs{};
};

/// Process-global fault state queried by the HCSGC_INJECT_* macros.
/// Arm/disarm are test-harness operations (not thread-safe against each
/// other); shouldFail/delayUs are lock-free and safe from any thread.
class FaultRegistry {
public:
  static FaultRegistry &instance();

  /// Cheap gate read on every instrumented site.
  bool armed() const { return Armed.load(std::memory_order_relaxed); }

  /// Installs \p Plan and zeroes all hit/fire counters. Call only while
  /// no instrumented site can be running (e.g. before attaching
  /// mutators, or between runtimes).
  void arm(const FaultPlan &Plan);

  /// Deactivates injection; counters are preserved for inspection.
  void disarm() { Armed.store(false, std::memory_order_release); }

  /// Decides deterministically whether the current hit of \p P fires.
  /// Always accounts the hit.
  bool shouldFail(FailPoint P);

  /// Delay-point variant: \returns the sleep in microseconds for this
  /// hit (0 = no delay).
  uint32_t delayUs(FailPoint P);

  // --- Introspection (tests, torture reports) ---------------------------

  uint64_t hits(FailPoint P) const {
    return Sites[static_cast<unsigned>(P)].Hits.load(
        std::memory_order_relaxed);
  }
  uint64_t fires(FailPoint P) const {
    return Sites[static_cast<unsigned>(P)].Fires.load(
        std::memory_order_relaxed);
  }

private:
  FaultRegistry() = default;

  struct SiteState {
    std::atomic<uint64_t> Hits{0};
    std::atomic<uint64_t> Fires{0};
  };

  /// \returns the fire decision for hit ordinal \p Ordinal of \p P and,
  /// via \p DelayUs, the deterministic delay for delay points.
  bool decide(FailPoint P, uint64_t Ordinal, uint32_t &DelayUs) const;

  std::atomic<bool> Armed{false};
  FaultPlan Plan{0};
  std::array<SiteState, NumFailPoints> Sites;
};

/// Sleeps \p Us microseconds (no-op for 0). Out of line so the macro
/// below does not pull <thread> into every instrumented translation
/// unit.
void faultSleep(uint32_t Us);

/// RAII arm/disarm, so a failing test cannot leak an armed plan into the
/// rest of the suite.
class ScopedFaultPlan {
public:
  explicit ScopedFaultPlan(const FaultPlan &Plan) {
    FaultRegistry::instance().arm(Plan);
  }
  ~ScopedFaultPlan() { FaultRegistry::instance().disarm(); }

  ScopedFaultPlan(const ScopedFaultPlan &) = delete;
  ScopedFaultPlan &operator=(const ScopedFaultPlan &) = delete;
};

} // namespace hcsgc

/// Failure-site guard: true when the armed plan injects a failure at
/// \p Point for this hit. Disarmed cost: one relaxed load + branch.
/// Compile out entirely with -DHCSGC_FAULT_DISABLED.
#ifndef HCSGC_FAULT_DISABLED
#define HCSGC_INJECT_FAIL(Point)                                           \
  (HCSGC_UNLIKELY(::hcsgc::FaultRegistry::instance().armed()) &&           \
   ::hcsgc::FaultRegistry::instance().shouldFail(                          \
       ::hcsgc::FailPoint::Point))
#define HCSGC_INJECT_DELAY(Point)                                          \
  do {                                                                     \
    if (HCSGC_UNLIKELY(::hcsgc::FaultRegistry::instance().armed()))        \
      ::hcsgc::faultSleep(::hcsgc::FaultRegistry::instance().delayUs(      \
          ::hcsgc::FailPoint::Point));                                     \
  } while (0)
#else
#define HCSGC_INJECT_FAIL(Point) false
#define HCSGC_INJECT_DELAY(Point)                                          \
  do {                                                                     \
  } while (0)
#endif

#endif // HCSGC_INJECT_FAULTINJECT_H
