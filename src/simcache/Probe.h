//===- simcache/Probe.h - Memory access probe interface --------*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The probe interface through which the runtime reports every managed-heap
/// access (mutator field loads/stores, object copies during relocation, GC
/// marking traversal). The paper measured these effects with `perf`
/// hardware counters; we substitute a deterministic software cache
/// simulator that consumes this stream (see DESIGN.md §2).
///
/// The runtime no longer dispatches one virtual call per access: events
/// are recorded into a per-thread ProbeBatch queue (see ProbeBatch.h) and
/// replayed through onBatch, one call per 256 accesses, on that queue's
/// replay thread (INTERNALS §14). A probe bound to a queue is therefore
/// called from the replay thread, never concurrently with itself.
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_SIMCACHE_PROBE_H
#define HCSGC_SIMCACHE_PROBE_H

#include <cstddef>
#include <cstdint>

namespace hcsgc {

/// One recorded heap access, queued in a per-thread ProbeBatch slot and
/// replayed in FIFO order. 16 bytes so a 256-entry slot spans one small
/// page's worth of L1 (4 KiB).
struct ProbeEvent {
  uintptr_t Addr;
  uint32_t Bytes;
  uint32_t IsStore; // 0 = load, 1 = store
};

/// Receives one event per managed-heap memory access.
class MemoryProbe {
public:
  virtual ~MemoryProbe();

  /// Called for every heap read of \p Bytes bytes at \p Addr.
  virtual void onLoad(uintptr_t Addr, uint32_t Bytes) = 0;

  /// Called for every heap write of \p Bytes bytes at \p Addr.
  virtual void onStore(uintptr_t Addr, uint32_t Bytes) = 0;

  /// Adds \p N cycles of modeled non-memory work (instruction execution)
  /// to this thread's simulated clock.
  virtual void onCompute(uint64_t N) = 0;

  /// Replays \p N recorded accesses in FIFO order. The default forwards
  /// each event through onLoad/onStore, so existing probe implementations
  /// observe the exact per-access stream they always did; CacheHierarchy
  /// overrides it with a tight loop that skips the per-event virtual
  /// dispatch entirely.
  virtual void onBatch(const ProbeEvent *Events, size_t N);
};

} // namespace hcsgc

#endif // HCSGC_SIMCACHE_PROBE_H
