//===- simcache/ProbeBatch.cpp - Pipelined probe event queue --------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "simcache/ProbeBatch.h"

#include <atomic>
#include <thread>

using namespace hcsgc;

namespace {

inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Polls (a pause each, ~20 ns on x86) before a waiting side sleeps:
/// about as long as a slot takes to fill or to replay. Sleeping and
/// being woken costs several microseconds, more on a virtual machine,
/// so a reader that drains after every short transaction, or a producer
/// that publishes soon after the replay thread ran dry, would otherwise
/// pay that each time.
constexpr unsigned SpinPolls = 2048;

} // namespace

/// The shared half of the queue: slot storage plus the words the two
/// sides exchange. Heap-allocated on bind() so a probes-off context pays
/// nothing. Published and Consumed are free-running slot counts; slot i
/// lives at Ring[i % Slots], and Published - Consumed is the occupancy.
struct ProbeBatch::Queue {
  struct Slot {
    ProbeEvent Events[Capacity];
    uint32_t Count = 0;
    uint64_t Compute = 0;
  };

  explicit Queue(MemoryProbe &P) : Sink(P) {}

  void replayLoop();
  uint32_t awaitSlot(uint32_t Tail);

  MemoryProbe &Sink;
  Slot Ring[Slots];

  // Written by the producer. Wake changes on every publish and on stop:
  // the replay thread sleeps on it, and atomic::wait returns only when
  // the watched word changes, so setting Stop alone would never wake it.
  alignas(64) std::atomic<uint32_t> Published{0};
  std::atomic<uint32_t> Wake{0};
  std::atomic<bool> Stop{false};
  // Written by the consumer after each slot's replay.
  alignas(64) std::atomic<uint32_t> Consumed{0};
  /// The Consumed count a blocked producer or drain waits for.
  std::atomic<uint32_t> ResumeAt{0};

  /// Runs replayLoop; started by the first publish, joined by
  /// ~ProbeBatch.
  std::thread Replayer;
};

void ProbeBatch::Queue::replayLoop() {
  // Avail caches Published, so a backlog is consumed without touching
  // the producer's cache line between slots.
  for (uint32_t Tail = 0, Avail = 0;; ++Tail) {
    if (Tail == Avail && (Avail = awaitSlot(Tail)) == Tail)
      return;
    const Slot &S = Ring[Tail % Slots];
    if (S.Compute != 0)
      Sink.onCompute(S.Compute);
    if (S.Count != 0)
      Sink.onBatch(S.Events, S.Count);
    // The probe's writes above happen-before any drain() or slot reuse
    // that observes this count. Only the count a waiting producer asked
    // for costs a wake-up; seq_cst pairs with waitConsumed so that either
    // this load sees the request or the producer sees this count.
    Consumed.store(Tail + 1, std::memory_order_seq_cst);
    if (ResumeAt.load(std::memory_order_seq_cst) == Tail + 1)
      Consumed.notify_all();
  }
}

/// Spins briefly, then sleeps until slot \p Tail is published.
/// \returns the published count, or \p Tail once Stop is set with the
/// queue empty.
uint32_t ProbeBatch::Queue::awaitSlot(uint32_t Tail) {
  for (unsigned I = 0; I < SpinPolls; ++I) {
    if (uint32_t P = Published.load(std::memory_order_acquire); P != Tail)
      return P;
    cpuRelax();
  }
  for (;;) {
    // Load Wake before re-checking: a publish or stop after this load
    // changes Wake, so the wait below cannot miss it.
    uint32_t W = Wake.load(std::memory_order_acquire);
    if (uint32_t P = Published.load(std::memory_order_acquire); P != Tail)
      return P;
    if (Stop.load(std::memory_order_acquire))
      return Tail;
    Wake.wait(W, std::memory_order_acquire);
  }
}

ProbeBatch::ProbeBatch() = default;

ProbeBatch::~ProbeBatch() {
  if (!Q || !Q->Replayer.joinable())
    return;
  Q->Stop.store(true, std::memory_order_release);
  Q->Wake.fetch_add(1, std::memory_order_release);
  Q->Wake.notify_one();
  Q->Replayer.join();
}

void ProbeBatch::bind(MemoryProbe &P) {
  Q = std::make_unique<Queue>(P);
  Cur = Q->Ring[0].Events;
}

void ProbeBatch::publish() {
  if (Count == 0 && PendingCompute == 0)
    return;
  Queue::Slot &S = Q->Ring[Head % Slots];
  S.Count = Count;
  S.Compute = PendingCompute;
  if (Count != 0) {
    ++Flushes;
    EventsFlushed += Count;
  }
  Count = 0;
  PendingCompute = 0;
  if (!Q->Replayer.joinable())
    Q->Replayer = std::thread([Q = Q.get()] { Q->replayLoop(); });
  Q->Published.store(++Head, std::memory_order_release);
  Q->Wake.fetch_add(1, std::memory_order_release);
  Q->Wake.notify_one();
  // Take the next slot, waiting while the replay thread still owns it.
  // Tail caches Consumed and is refreshed only when the queue looks full.
  // A full queue waits until half of it is free, so a producer that
  // outruns its replay thread costs it one wake-up per Slots / 2 slots,
  // not one per slot.
  if (Head - Tail == Slots)
    waitConsumed(Head - Slots / 2);
  Cur = Q->Ring[Head % Slots].Events;
}

void ProbeBatch::drain() {
  if (!Q)
    return;
  publish();
  for (unsigned I = 0;
       I < SpinPolls && Q->Consumed.load(std::memory_order_acquire) != Head;
       ++I)
    cpuRelax();
  waitConsumed(Head);
}

void ProbeBatch::waitConsumed(uint32_t Target) {
  // Target is at most Head and at most Slots behind it, so "Consumed has
  // reached Target" is Head - Consumed <= Head - Target in wrapping
  // arithmetic.
  auto Reached = [&] { return Head - Tail <= Head - Target; };
  Tail = Q->Consumed.load(std::memory_order_acquire);
  if (Reached())
    return;
  Q->ResumeAt.store(Target, std::memory_order_seq_cst);
  while (Tail = Q->Consumed.load(std::memory_order_seq_cst), !Reached())
    Q->Consumed.wait(Tail, std::memory_order_acquire);
}
