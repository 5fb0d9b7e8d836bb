//===- simcache/ProbeBatch.h - Pipelined probe event queue -----*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A per-thread queue of recorded heap accesses that turns the instrumented
/// barrier fast path into a store + increment and takes the cache
/// simulation off the recording thread. The owning thread (the producer)
/// appends events to the current 256-event slot; a full slot is published
/// to a companion replay thread (the consumer), which replays it into the
/// bound MemoryProbe while the owner keeps running. See INTERNALS §14.1 for
/// the flush protocol and §14.4 for the replay thread.
///
/// Determinism: there is exactly one producer and one consumer, and slots
/// are consumed in publication order, so the probe sees the same FIFO
/// event stream as per-access delivery and every counter is bit-identical.
/// Modeled compute cycles are an order-independent sum; each slot carries
/// the sum accumulated since the previous slot.
///
/// Threading: record(), addCompute(), publish() and drain() are the
/// producer side. Only the owning thread calls them, or another thread
/// while the owner is provably quiescent (parked, idle or detached) with a
/// happens-before edge from its last record. The probe's own state may be
/// read once drain() returns, under the same rule.
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_SIMCACHE_PROBEBATCH_H
#define HCSGC_SIMCACHE_PROBEBATCH_H

#include "simcache/Probe.h"

#include <cstddef>
#include <cstdint>
#include <memory>

namespace hcsgc {

class ProbeBatch {
public:
  /// Events per slot. 256 events of 16 bytes = 4 KiB: large enough to
  /// amortize the virtual dispatch and the hand-off to one per 256
  /// accesses, small enough to stay L1-resident next to the mutator's
  /// working set.
  static constexpr uint32_t Capacity = 256;
  /// Slots in the queue (32 KiB of events). When all are full the
  /// producer blocks, which bounds both memory and replay lag.
  static constexpr uint32_t Slots = 8;

  ProbeBatch();
  /// Stops and joins the replay thread. Slots already published are
  /// replayed first (the bound probe must still be alive); events in the
  /// unpublished partial slot are dropped.
  ~ProbeBatch();
  ProbeBatch(const ProbeBatch &) = delete;
  ProbeBatch &operator=(const ProbeBatch &) = delete;

  /// Allocates the slots and makes \p P the consumer's target. Call once,
  /// before recording. \p P must outlive this batch.
  void bind(MemoryProbe &P);

  /// Appends one access. \returns true when the slot just filled and the
  /// caller must publish() before recording more. Requires bind().
  bool record(uintptr_t Addr, uint32_t Bytes, bool IsStore) {
    Cur[Count] = {Addr, Bytes, IsStore ? 1u : 0u};
    return ++Count == Capacity;
  }

  /// Adds modeled compute cycles. A plain sum — order against memory
  /// events does not affect any counter — so it takes no event space and
  /// never forces a publish by itself.
  void addCompute(uint64_t N) { PendingCompute += N; }

  /// Hands the current slot (events plus compute sum) to the replay
  /// thread, starting that thread on first use so it inherits the
  /// caller's CPU affinity. Blocks while every slot is still queued.
  /// No-op when nothing is pending.
  void publish();

  /// publish(), then waits until the replay thread has consumed every
  /// published slot: afterwards the probe has seen every recorded event.
  void drain();

  // Lifetime totals of published work, drained into simcache.batch_*
  // metrics by the owning ThreadContext (ProbeBatch itself stays
  // observe-free).
  uint64_t Flushes = 0;       ///< Slots published that carried events.
  uint64_t EventsFlushed = 0; ///< Events published.

private:
  struct Queue;

  /// Blocks until the replay thread has consumed \p Target slots.
  void waitConsumed(uint32_t Target);

  // Producer-side state, touched only by the owning thread (or a
  // quiescent-owner reader); the shared words live in Queue.
  ProbeEvent *Cur = nullptr; ///< Event array of the slot being filled.
  uint32_t Count = 0;
  uint64_t PendingCompute = 0;
  uint32_t Head = 0; ///< Slots published so far (wraps).
  uint32_t Tail = 0; ///< Slots known consumed: a cached Queue::Consumed.
  std::unique_ptr<Queue> Q;
};

} // namespace hcsgc

#endif // HCSGC_SIMCACHE_PROBEBATCH_H
