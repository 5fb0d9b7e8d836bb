//===- runtime/Runtime.h - The HCSGC runtime -------------------*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Top-level runtime object: owns the heap, the safepoint manager, the GC
/// driver (coordinator + workers) and the class registry, and tracks
/// attached mutators (whose Root chains form the root set).
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_RUNTIME_RUNTIME_H
#define HCSGC_RUNTIME_RUNTIME_H

#include "gc/Driver.h"
#include "gc/Verifier.h"
#include "gc/GcHeap.h"
#include "gc/Safepoint.h"
#include "runtime/ClassRegistry.h"
#include "runtime/Mutator.h"

#include <memory>
#include <mutex>
#include <vector>

namespace hcsgc {

/// One managed heap plus its collector threads.
class Runtime {
public:
  explicit Runtime(const GcConfig &Cfg);
  ~Runtime();

  Runtime(const Runtime &) = delete;
  Runtime &operator=(const Runtime &) = delete;

  /// Registers a class shape; typically done once at startup.
  ClassId registerClass(std::string Name, uint8_t NumRefs,
                        uint32_t PayloadBytes) {
    return Classes.registerClass(std::move(Name), NumRefs, PayloadBytes);
  }

  /// Attaches the calling thread as a mutator. Use the returned object
  /// only from this thread; destroy it (from the same thread) to detach.
  std::unique_ptr<Mutator> attachMutator();

  /// Creates/destroys a runtime-lifetime root.
  GlobalRoot *createGlobalRoot();
  void destroyGlobalRoot(GlobalRoot *G);

  /// Asynchronously requests a GC cycle.
  void requestGc() { Driver->requestCycle(); }

  /// Requests a cycle and waits for completion. Only call from threads
  /// that are NOT attached mutators (mutators use
  /// Mutator::requestGcAndWait, which cooperates with safepoints).
  void collectFromExternalThread() { Driver->requestCycleAndWait(); }

  // --- Introspection -------------------------------------------------------

  size_t usedBytes() const { return Heap.allocator().usedBytes(); }
  size_t quarantinedBytes() const {
    return Heap.allocator().quarantinedBytes();
  }
  size_t maxHeapBytes() const { return Heap.allocator().maxHeapBytes(); }
  GcStats &gcStats() { return Heap.stats(); }
  const GcConfig &config() const { return Heap.config(); }
  MetricsRegistry &metrics() { return Heap.metrics(); }

  // --- Tracing -------------------------------------------------------------

  /// Toggles GC event tracing at runtime (also armed at startup by
  /// GcConfig::TraceEnabled). Cheap to leave off: disabled sites pay one
  /// relaxed load on slow paths only.
  void setTraceEnabled(bool On) { Heap.traceSession().setEnabled(On); }
  bool traceEnabled() const { return Heap.traceSession().enabled(); }

  /// Drains all per-thread trace buffers into one time-sorted stream.
  /// Call while the driver is idle and mutators are quiescent; collection
  /// consumes the buffered events.
  CollectedTrace collectTrace() {
    Driver->waitIdle();
    return Heap.traceSession().collect();
  }

  /// collectTrace() rendered as Chrome trace_event JSON, written to
  /// \p Path. \returns false if the file cannot be opened.
  bool dumpTrace(const std::string &Path);

  // --- Heap snapshots (the locality observatory) ---------------------------

  /// Copy of the retained snapshot ring, oldest capture first. Waits for
  /// the driver to go idle so no capture races the copy. It holds the
  /// cycles gcStats() does: under LAZYRELOCATE the latest joins once its
  /// deferred relocation drains.
  std::vector<CycleSnapshot> collectSnapshots() {
    Driver->waitIdle();
    return Heap.snapshotter().history();
  }

  /// Aggregated cache counters of all mutators (live + detached). Call
  /// while the workload is quiescent for exact numbers.
  CacheCounters mutatorCounters() const;

  /// Walks the reachable heap checking collector invariants (see
  /// gc/Verifier.h). Call from the only running mutator thread while no
  /// cycle is in flight (it waits for the driver to go idle first).
  VerifyResult verifyHeap() {
    Driver->waitIdle();
    return hcsgc::verifyHeap(
        Heap, [this](const std::function<void(std::atomic<Oop> *)> &Fn) {
          forEachRoot(Fn);
        });
  }

  /// Aggregated cache counters of the GC threads.
  CacheCounters gcThreadCounters() const {
    return Driver->gcThreadCounters();
  }

  // Internal access for the collector implementation and tests.
  GcHeap &heap() { return Heap; }
  SafepointManager &safepoints() { return SP; }
  GcDriver &driver() { return *Driver; }
  ClassRegistry &classes() { return Classes; }

private:
  friend class Mutator;

  void forEachRoot(const std::function<void(std::atomic<Oop> *)> &Fn);

  GcHeap Heap;
  SafepointManager SP;
  ClassRegistry Classes;
  std::unique_ptr<GcDriver> Driver;

  mutable std::mutex MutatorLock;
  std::vector<Mutator *> Mutators;
  mutable std::mutex CounterLock;
  CacheCounters DetachedMutatorCounters;

  std::mutex GlobalRootLock;
  std::vector<std::unique_ptr<GlobalRoot>> GlobalRoots;
};

} // namespace hcsgc

#endif // HCSGC_RUNTIME_RUNTIME_H
