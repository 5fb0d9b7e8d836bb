//===- simcache/ProbeBatch.h - Batched probe event ring --------*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A per-thread ring of recorded heap accesses that turns the instrumented
/// barrier fast path into a store + increment. The old path paid a virtual
/// dispatch into the cache simulator on EVERY probed access; now the access
/// is appended here and the simulator sees one onBatch call per full ring
/// (or per flush point: TLAB refill, safepoint park, counter read, thread
/// detach — see INTERNALS §14 for the flush protocol).
///
/// Determinism: events replay in FIFO order, so the simulated cache state
/// and every counter are bit-identical to the per-access path — modeled
/// compute cycles are an order-independent sum and are drained separately
/// through onCompute.
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_SIMCACHE_PROBEBATCH_H
#define HCSGC_SIMCACHE_PROBEBATCH_H

#include "simcache/Probe.h"

#include <cstddef>
#include <cstdint>

namespace hcsgc {

/// Fixed-capacity event ring plus the compute-cycle accumulator. Owned by
/// ThreadContext (single-threaded access; flushes happen on the owning
/// thread or while it is provably quiescent).
struct ProbeBatch {
  /// Ring capacity. 256 events of 16 bytes = 4 KiB: large enough to
  /// amortize the virtual dispatch to < 0.5% of accesses, small enough
  /// to stay L1-resident next to the mutator's working set.
  static constexpr uint32_t Capacity = 256;

  ProbeEvent Events[Capacity];
  uint32_t Count = 0;
  /// Modeled compute cycles accumulated since the last flush. A plain
  /// sum — order against memory events does not affect any counter — so
  /// it needs no ring slots and never forces a flush by itself.
  uint64_t PendingCompute = 0;

  // Lifetime totals, drained into simcache.batch_* metrics by the
  // owning ThreadContext (ProbeBatch itself stays observe-free).
  uint64_t Flushes = 0;
  uint64_t EventsFlushed = 0;

  bool empty() const { return Count == 0 && PendingCompute == 0; }

  /// Appends one access. \returns true when the ring just filled and the
  /// caller must flush before recording more.
  bool record(uintptr_t Addr, uint32_t Bytes, bool IsStore) {
    Events[Count] = {Addr, Bytes, IsStore ? 1u : 0u};
    return ++Count == Capacity;
  }

  /// Drains the pending compute sum and replays the recorded events into
  /// \p P in FIFO order, then empties the ring.
  void flush(MemoryProbe &P) {
    if (PendingCompute != 0) {
      P.onCompute(PendingCompute);
      PendingCompute = 0;
    }
    if (Count != 0) {
      P.onBatch(Events, Count);
      EventsFlushed += Count;
      ++Flushes;
      Count = 0;
    }
  }
};

} // namespace hcsgc

#endif // HCSGC_SIMCACHE_PROBEBATCH_H
