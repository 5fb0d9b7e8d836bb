//===- runtime/Mutator.h - Mutator thread API ------------------*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mutator-facing API. A Mutator is bound to one application thread
/// and provides allocation and field access; every reference access runs
/// the load barrier, a safepoint poll and (when enabled) the cache-
/// simulator probe — the managed-language contract HCSGC relies on.
///
/// References held across operations must live in Root handles (they are
/// the collector's root set and are healed at STW pauses, exactly like
/// thread stacks in ZGC). Roots are scoped objects with LIFO lifetime on
/// their owning mutator.
///
/// Example:
/// \code
///   hcsgc::Runtime RT(Config);
///   auto M = RT.attachMutator();
///   hcsgc::Root Node(*M);
///   M->allocate(Node, NodeClass);
///   M->storeWord(Node, 0, 42);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_RUNTIME_MUTATOR_H
#define HCSGC_RUNTIME_MUTATOR_H

#include "gc/Barrier.h"
#include "gc/GcHeap.h"
#include "runtime/ClassRegistry.h"
#include "runtime/HeapError.h"
#include "simcache/Hierarchy.h"

#include <memory>

namespace hcsgc {

class Mutator;
class Runtime;

/// A GC root holding one reference. Scoped to a mutator with LIFO
/// lifetime (assert-enforced). Copyable only through Mutator::copyRoot.
class Root {
public:
  explicit Root(Mutator &M);
  ~Root();

  Root(const Root &) = delete;
  Root &operator=(const Root &) = delete;

  /// \returns true if this root holds no reference. (Null-ness can only
  /// be changed by the owning thread, so no barrier is required.)
  bool isNull() const {
    return Slot.load(std::memory_order_relaxed) == NullOop;
  }

  /// Raw (possibly stale-colored) oop value, for tests and debugging
  /// tools only; never dereference it.
  Oop rawOop() const { return Slot.load(std::memory_order_relaxed); }

private:
  friend class Mutator;
  friend class Runtime;
  Mutator &Owner;
  Root *Prev;
  // mutable: the load barrier self-heals slots of logically-const roots.
  mutable std::atomic<Oop> Slot{NullOop};
};

/// A heap reference owned by the runtime rather than a mutator scope;
/// lives until destroyed via Runtime::destroyGlobalRoot.
class GlobalRoot {
public:
  /// Overwrites the slot with an arbitrary raw value, bypassing every
  /// barrier. Exists so tests can plant corrupted references for the
  /// heap verifier to find; never use it in real code.
  void poisonForTests(Oop V) {
    Slot.store(V, std::memory_order_relaxed);
  }

private:
  friend class Mutator;
  friend class Runtime;
  mutable std::atomic<Oop> Slot{NullOop};
};

/// Per-thread mutator handle. Create via Runtime::attachMutator; use only
/// from the creating thread.
class Mutator {
public:
  ~Mutator();

  Mutator(const Mutator &) = delete;
  Mutator &operator=(const Mutator &) = delete;

  // --- Allocation --------------------------------------------------------
  //
  // Heap exhaustion is recoverable: the slow path stalls through
  // AllocStallRetries GC-assisted retries (each waiting one full cycle,
  // or two under LAZYRELOCATE, the last one an emergency synchronous
  // cycle), and only then reports failure — the allocate* family by
  // throwing HeapExhaustedError, the tryAllocate* family by returning
  // AllocStatus::HeapExhausted with \p Out left null. The process is
  // never aborted.

  /// GC-assisted stalls one allocation endures before it reports
  /// HeapExhausted.
  static constexpr unsigned AllocStallRetries = 5;

  // Every allocation entry point takes an optional allocation-site id
  // (tag call sites with HCSGC_ALLOC_SITE("name"); the default leaves
  // the allocation anonymous, so existing callers compile unchanged).
  // With SITEPROFILING on, tagged small allocations carry the site in
  // their header (bits 57-63), are accounted in the site profile, and —
  // once the site's profile proves it persistently cold — routed to a
  // warm/cold-tier page through the per-thread pretenure TLAB
  // (INTERNALS §13). Without the knob a tag costs nothing beyond the
  // defaulted argument.

  /// Allocates an instance of \p Cls into \p Out (ref slots null, payload
  /// zero). \throws HeapExhaustedError when the heap stays full.
  void allocate(Root &Out, ClassId Cls, SiteId Site = UnknownSiteId);

  /// Allocates a reference array of \p Length null elements into \p Out.
  /// \throws HeapExhaustedError when the heap stays full.
  void allocateRefArray(Root &Out, uint32_t Length,
                        SiteId Site = UnknownSiteId);

  /// Allocates a variable-sized object: \p NumRefs reference slots plus
  /// \p PayloadBytes of raw payload, tagged with \p Cls.
  /// \throws HeapExhaustedError when the heap stays full.
  void allocateSized(Root &Out, ClassId Cls, uint8_t NumRefs,
                     size_t PayloadBytes, SiteId Site = UnknownSiteId);

  /// Non-throwing variants: \returns AllocStatus::HeapExhausted (leaving
  /// \p Out null) instead of throwing.
  AllocStatus tryAllocate(Root &Out, ClassId Cls,
                          SiteId Site = UnknownSiteId);
  AllocStatus tryAllocateRefArray(Root &Out, uint32_t Length,
                                  SiteId Site = UnknownSiteId);
  AllocStatus tryAllocateSized(Root &Out, ClassId Cls, uint8_t NumRefs,
                               size_t PayloadBytes,
                               SiteId Site = UnknownSiteId);

  // --- Reference fields ----------------------------------------------------

  /// Loads reference slot \p Idx of \p Obj into \p Out.
  void loadRef(const Root &Obj, uint32_t Idx, Root &Out);

  /// Stores \p Val into reference slot \p Idx of \p Obj.
  void storeRef(const Root &Obj, uint32_t Idx, const Root &Val);

  /// Stores null into reference slot \p Idx of \p Obj.
  void storeNullRef(const Root &Obj, uint32_t Idx);

  /// Copies one root into another (no heap access).
  void copyRoot(const Root &From, Root &To);

  /// Clears \p R to null.
  void clearRoot(Root &R);

  /// \returns true if \p A and \p B refer to the same object (or are both
  /// null).
  bool refEquals(const Root &A, const Root &B);

  // --- Payload (8-byte words, indexed after the ref slots) -----------------

  int64_t loadWord(const Root &Obj, uint32_t WordIdx);
  void storeWord(const Root &Obj, uint32_t WordIdx, int64_t Value);

  // --- Arrays ---------------------------------------------------------------

  uint32_t arrayLength(const Root &Arr);
  void loadElem(const Root &Arr, uint32_t Idx, Root &Out);
  void storeElem(const Root &Arr, uint32_t Idx, const Root &Val);
  void storeElemNull(const Root &Arr, uint32_t Idx);

  // --- Global roots -----------------------------------------------------------

  void loadGlobal(const GlobalRoot &G, Root &Out);
  void storeGlobal(GlobalRoot &G, const Root &Val);

  // --- Introspection -----------------------------------------------------------

  ClassId classOf(const Root &Obj);
  uint32_t numRefs(const Root &Obj);
  /// Allocation site stamped in \p Obj's header (Page::siteOf).
  SiteId siteOf(const Root &Obj);

  // --- GC interaction -----------------------------------------------------------

  /// Safepoint poll; called implicitly by every operation above.
  void poll();

  /// Requests a GC cycle and blocks (as a safepoint-blocked mutator)
  /// until it completes.
  void requestGcAndWait();

  /// Adds \p N simulated compute cycles to this thread's time model.
  void simulateWork(uint64_t N) { Ctx.probeCompute(N); }

  /// This thread's cache counters (zero if probes are disabled). Waits
  /// for the replay thread to simulate every recorded access first; call
  /// from this thread, or only while it is quiescent (the drain touches
  /// the producer side of the probe queue, hence the const_cast).
  CacheCounters counters() const {
    return const_cast<Mutator *>(this)->Ctx.drainProbes();
  }

  Runtime &runtime() { return RT; }

private:
  friend class Runtime;
  friend class Root;

  explicit Mutator(Runtime &RT);

  /// Barrier on a root slot; \returns the current raw address (0 = null).
  uintptr_t resolve(const Root &R);
  uintptr_t resolveNonNull(const Root &R);

  /// Stall diagnostics of the most recent allocObject slow path, reported
  /// through HeapExhaustedError on failure.
  struct StallInfo {
    unsigned Attempts = 0;
    uint64_t CyclesWaited = 0;
  };

  /// Allocates \p Bytes through three explicit tiers — fast (TLAB bump,
  /// no locks), mid (page refill, one shard lock), slow (GC-assisted
  /// stall/backoff), see INTERNALS §10 — and writes the header. \p Site
  /// routes cold-profiled small allocations through the pretenure TLAB
  /// and is stamped into the header. \returns 0 once every stall retry
  /// (including the final emergency cycle) failed; never aborts.
  uintptr_t allocObject(size_t Bytes, StallInfo &SI, SiteId Site,
                        ClassId Cls, uint8_t NumRefs, uint8_t Flags,
                        uint32_t ArrayLength);
  /// Pretenure tier: bump into (or refill) the secondary cold/warm TLAB
  /// for a site routed off the hot path. Best-effort — \returns 0 when
  /// the refill is denied, and the caller falls back to the normal path.
  uintptr_t allocPretenure(size_t Bytes, SiteRoute Route);
  /// Fast tier: bump into this thread's small or medium TLAB. Touches no
  /// lock and no shared allocator state. \returns 0 when the TLAB is
  /// missing/full or the size class has no TLAB (large).
  uintptr_t allocFast(size_t Bytes);
  /// Mid tier: refill the TLAB from the sharded page allocator (one
  /// shard lock in the common case) or take the shared large/medium slow
  /// path. \returns 0 on heap exhaustion; the caller then stalls.
  uintptr_t allocMid(size_t Bytes);
  void maybeTriggerGc();

  Runtime &RT;
  GcHeap &Heap;
  ThreadContext Ctx;
  Root *RootHead = nullptr;
  /// Mirror of alloc.tlab.refills, cached at attach time (registry
  /// lookup takes a lock; updates do not).
  Counter *TlabRefills = nullptr;
  /// Mirror of alloc.tlab.pretenure_refills (SITEPROFILING).
  Counter *PretenureRefills = nullptr;
};

} // namespace hcsgc

#endif // HCSGC_RUNTIME_MUTATOR_H
