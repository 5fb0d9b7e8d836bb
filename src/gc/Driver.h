//===- gc/Driver.h - GC cycle orchestration --------------------*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cycle driver: one coordinator thread running the phase machine of
/// Fig. 1 — STW1 (flip to mark color, scan roots), concurrent Mark/Remap,
/// STW2 (termination), EC selection, STW3 (flip to R, relocate roots),
/// concurrent RE — plus a pool of GC worker threads that execute the
/// parallel marking and relocation tasks. Under LAZYRELOCATE the RE phase
/// of cycle N is deferred to the start of cycle N+1 (Fig. 3), leaving the
/// whole inter-cycle window to mutator-driven relocation.
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_GC_DRIVER_H
#define HCSGC_GC_DRIVER_H

#include "gc/EcSelector.h"
#include "gc/GcHeap.h"
#include "gc/Safepoint.h"

#include <condition_variable>
#include <functional>
#include <iterator>
#include <optional>
#include <thread>
#include <vector>

namespace hcsgc {

/// Callbacks the runtime provides to the driver.
struct RuntimeHooks {
  /// Invokes the callback on every root slot (mutator local roots plus
  /// global roots). Called only inside STW pauses.
  std::function<void(const std::function<void(std::atomic<Oop> *)> &)>
      ForEachRoot;
};

/// Owns the coordinator and worker threads and runs GC cycles.
class GcDriver {
public:
  GcDriver(GcHeap &Heap, SafepointManager &SP, RuntimeHooks Hooks);
  ~GcDriver();

  GcDriver(const GcDriver &) = delete;
  GcDriver &operator=(const GcDriver &) = delete;

  /// Asynchronously requests a cycle (idempotent while one is pending).
  void requestCycle();

  /// Number of fully completed cycles (a LAZYRELOCATE cycle counts as
  /// completed when it has deferred its relocation set).
  uint64_t completedCycles() const;

  /// Blocks the calling mutator (which must wrap itself in a
  /// BlockedScope) until at least \p N cycles have completed.
  void waitForCompletedCycles(uint64_t N);

  /// Blocks until no cycle is running or requested. Used by the harness
  /// to read consistent statistics after a workload finishes.
  void waitIdle();

  /// Convenience: request a cycle and wait for it. The caller must be a
  /// mutator thread; it is marked blocked for the duration.
  void requestCycleAndWait();

  /// Requests and waits for \p N back-to-back cycles. The allocation
  /// stall path uses N=2 under LAZYRELOCATE: cycle k defers its
  /// relocation set, so memory selected for evacuation is not released
  /// before cycle k+1 has drained it.
  void requestCyclesAndWait(unsigned N);

  /// Runs one emergency synchronous cycle: even under LAZYRELOCATE the
  /// cycle drains its own relocation set immediately (after first
  /// draining any deferred set), so it reclaims everything reclaimable
  /// before the caller declares heap exhaustion.
  void requestEmergencyCycleAndWait();

  /// Stops the coordinator and workers. Any deferred relocation set is
  /// drained first so all statistics are final.
  void shutdown();

  /// Aggregated cache counters of all GC threads (coordinator+workers);
  /// meaningful when probes are enabled. Waits for their replay threads
  /// to catch up first. Safe to call when the driver is idle or shut
  /// down.
  CacheCounters gcThreadCounters() const;

private:
  enum class Task { None, Mark, Relocate, Exit };

  void coordinatorLoop();
  void workerLoop(unsigned Id);
  void runCycle(bool Emergency);
  void drainRelocationSet(EcSet &Ec, CycleRecord &Rec);

  /// LAZYRELOCATE: drains the deferred relocation set, adds the drain's
  /// time to its cycle's reloc phase and wall, and commits that record.
  void finishDeferredCycle();

  /// Commits a finished cycle record: appends it to GcStats, commits the
  /// cycle's staged snapshot with it, and folds it into the metrics
  /// registry. The only place the per-cycle gc.*, temp.*_bytes and
  /// coldpage.relocated_bytes metrics move.
  void recordCycle(const CycleRecord &Rec);

  void startTask(Task T);
  void waitTaskDone();
  void markTask(ThreadContext &Ctx);
  void relocateTask(ThreadContext &Ctx);

  /// Runs \p Fn inside a stop-the-world pause, bracketed by trace pause
  /// events stamped with \p Phase and \p Cycle (passed explicitly because
  /// STW1 bumps the cycle counter inside the pause).
  void stwPause(GcPhase Phase, uint64_t Cycle,
                const std::function<void()> &Fn);

  GcHeap &Heap;
  SafepointManager &SP;
  RuntimeHooks Hooks;

  std::thread Coordinator;
  std::vector<std::thread> Workers;
  std::vector<std::unique_ptr<ThreadContext>> WorkerCtxs;
  ThreadContext CoordCtx;

  // Request/completion state.
  mutable std::mutex CycleLock;
  std::condition_variable CycleCv;
  bool CycleRequested = false;
  bool EmergencyRequested = false;
  bool ExitRequested = false;
  bool InCycle = false;
  uint64_t Completed = 0;
  uint64_t EmergencyCompleted = 0;

  // Worker task dispatch.
  std::mutex TaskLock;
  std::condition_variable TaskCv;
  std::condition_variable TaskDoneCv;
  Task CurrentTask = Task::None;
  uint64_t TaskEpoch = 0;
  unsigned RunningWorkers = 0;

  // Marking coordination.
  std::atomic<bool> StopMark{false};
  std::atomic<unsigned> IdleWorkers{0};

  // Relocation work list.
  std::vector<Page *> RelocPages;
  std::atomic<size_t> RelocNext{0};
  uint64_t RelocEcCycle = 0;

  // LazyRelocate state: EC deferred to the next cycle, plus the cycle's
  // record still awaiting its drain.
  struct Deferred {
    EcSet Ec;
    CycleRecord Rec;
  };
  std::optional<Deferred> Pending;

  PtrColor LastMarkColor = PtrColor::M1; // so the first cycle uses M0

  // Cached metric handles (registry lookup takes a lock; resolve once in
  // the constructor, update lock-free per cycle).
  struct {
    Counter *Cycles = nullptr;
    /// One per CycleCounts entry; null where it names no counter.
    Counter *Counts[std::size(CycleCounts)] = {};
    Counter *TempAgingWalks = nullptr;
    Histogram *PauseUs = nullptr;
    /// gc.phase.<name>_us, one per CyclePhases entry.
    Histogram *PhaseUs[std::size(CyclePhases)] = {};
    Histogram *HotRatioPct = nullptr;
    Histogram *RelocBytesPerCycle = nullptr;
    Histogram *ColdResidentBytes = nullptr;
  } Met;
};

} // namespace hcsgc

#endif // HCSGC_GC_DRIVER_H
