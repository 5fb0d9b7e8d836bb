//===- tests/simcache/ProbeReplayTest.cpp - Pipelined replay exactness ----===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// ProbeBatch hands full slots to a replay thread that simulates them while
// the recording thread keeps going. One producer, one consumer, FIFO slots:
// the hierarchy behind the queue must end every drain with exactly the
// counters of a hierarchy fed the same stream per access, on the calling
// thread. Also covered: backpressure (a slow probe, more slots published
// than the queue holds), a drain from a second thread while the owner is
// blocked, and teardown with events still queued.
//
//===----------------------------------------------------------------------===//

#include "simcache/Hierarchy.h"
#include "simcache/ProbeBatch.h"
#include "support/Random.h"
#include "TestSeeds.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

using namespace hcsgc;

namespace {

void expectSameCounters(const CacheCounters &A, const CacheCounters &B,
                        unsigned Round) {
  ASSERT_EQ(A.Loads, B.Loads) << "round " << Round;
  ASSERT_EQ(A.Stores, B.Stores) << "round " << Round;
  ASSERT_EQ(A.L1Misses, B.L1Misses) << "round " << Round;
  ASSERT_EQ(A.L2Misses, B.L2Misses) << "round " << Round;
  ASSERT_EQ(A.LlcMisses, B.LlcMisses) << "round " << Round;
  ASSERT_EQ(A.PrefetchesIssued, B.PrefetchesIssued) << "round " << Round;
  ASSERT_EQ(A.Cycles, B.Cycles) << "round " << Round;
}

enum class StreamKind { Random, Sequential, LineCrossing, Mixed };

/// Seeded access streams over a 16 MiB span.
class StreamGen {
public:
  StreamGen(StreamKind Kind, uint64_t Seed) : Kind(Kind), Rng(Seed) {}

  ProbeEvent next() {
    ++N;
    switch (Kind) {
    case StreamKind::Random:
      return {Base + Rng.nextBelow(Span), 8, 0};
    case StreamKind::Sequential:
      return {Base + N * 24 % Span, 8, 0};
    case StreamKind::LineCrossing:
      // 200-byte accesses at a 150-byte stride span up to four lines.
      return {Base + N * 150 % Span, 200, Rng.nextBelow(4) == 0 ? 1u : 0u};
    case StreamKind::Mixed: {
      uint64_t Pick = Rng.nextBelow(8);
      uint64_t Off = Pick < 3   ? N * 16 % Span
                     : Pick < 5 ? Last
                                : Rng.nextBelow(Span);
      Last = Off;
      return {Base + Off, 16, Pick % 3 == 0 ? 1u : 0u};
    }
    }
    return {Base, 8, 0};
  }

private:
  static constexpr uint64_t Base = 1ull << 32;
  static constexpr uint64_t Span = 16ull << 20;
  StreamKind Kind;
  SplitMix64 Rng;
  uint64_t N = 0;
  uint64_t Last = 0;
};

void deliver(CacheHierarchy &H, const ProbeEvent &E) {
  if (E.IsStore)
    H.onStore(E.Addr, E.Bytes);
  else
    H.onLoad(E.Addr, E.Bytes);
}

/// A hierarchy whose replay is slowed down, so the queue fills and
/// drains actually wait on the replay thread.
class SlowHierarchy : public CacheHierarchy {
public:
  void onBatch(const ProbeEvent *Events, size_t N) override {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    CacheHierarchy::onBatch(Events, N);
  }
};

class ProbeReplayTest : public ::testing::TestWithParam<StreamKind> {};

} // namespace

TEST_P(ProbeReplayTest, QueuedReplayMatchesDirectDelivery) {
  StreamKind Kind = GetParam();
  SplitMix64 Sizes(test::testSeed(80));
  StreamGen Gen(Kind, test::testSeed(81 + static_cast<uint64_t>(Kind)));
  CacheHierarchy Direct, Queued;
  ProbeBatch Batch;
  Batch.bind(Queued);

  uint64_t Events = 0;
  for (unsigned Round = 0; Round < 200; ++Round) {
    // Round sizes from empty through several slots, so drains publish
    // partial slots at every fill level; every fifth round is
    // compute-only, so its drain publishes a slot without events.
    uint64_t Count = Round % 5 == 4 ? 0 : Sizes.nextBelow(3 * 256 + 1);
    for (uint64_t I = 0; I < Count; ++I) {
      ProbeEvent E = Gen.next();
      deliver(Direct, E);
      if (Batch.record(E.Addr, E.Bytes, E.IsStore != 0))
        Batch.publish();
    }
    uint64_t Compute = Sizes.nextBelow(1000);
    Direct.onCompute(Compute);
    Batch.addCompute(Compute);
    Events += Count;
    Batch.drain();
    expectSameCounters(Queued.counters(), Direct.counters(), Round);
    if (HasFatalFailure())
      return;
  }
  EXPECT_EQ(Batch.EventsFlushed, Events);
}

INSTANTIATE_TEST_SUITE_P(Streams, ProbeReplayTest,
                         ::testing::Values(StreamKind::Random,
                                           StreamKind::Sequential,
                                           StreamKind::LineCrossing,
                                           StreamKind::Mixed));

namespace {

/// Records the sequence numbers it receives (carried in Addr) and how
/// many batches arrived, slowly.
class SequenceProbe : public MemoryProbe {
public:
  void onLoad(uintptr_t Addr, uint32_t) override { Seen.push_back(Addr); }
  void onStore(uintptr_t Addr, uint32_t) override { Seen.push_back(Addr); }
  void onCompute(uint64_t) override {}
  void onBatch(const ProbeEvent *Events, size_t N) override {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    MemoryProbe::onBatch(Events, N);
    Batches.fetch_add(1, std::memory_order_relaxed);
  }

  std::vector<uint64_t> Seen;
  std::atomic<uint64_t> Batches{0};
};

} // namespace

TEST(ProbeReplayBackpressureTest, SlowProbeGetsEverySlotInOrder) {
  constexpr uint64_t FullSlots = 4 * ProbeBatch::Slots;
  SequenceProbe Probe;
  ProbeBatch Batch;
  Batch.bind(Probe);
  uint64_t Seq = 0;
  for (uint64_t S = 0; S < FullSlots; ++S)
    for (uint32_t I = 0; I < ProbeBatch::Capacity; ++I)
      if (Batch.record(Seq++, 8, false))
        Batch.publish();
  // The producer blocks while every slot is queued, so by now at most
  // Slots - 1 published slots can still be waiting.
  EXPECT_GE(Probe.Batches.load(std::memory_order_relaxed),
            FullSlots - ProbeBatch::Slots + 1);
  Batch.record(Seq++, 8, true); // a partial slot for the drain
  Batch.drain();
  EXPECT_EQ(Probe.Batches.load(std::memory_order_relaxed), FullSlots + 1);
  ASSERT_EQ(Probe.Seen.size(), Seq);
  for (uint64_t I = 0; I < Seq; ++I)
    ASSERT_EQ(Probe.Seen[I], I) << "event " << I << " out of order";
  EXPECT_EQ(Batch.Flushes, FullSlots + 1);
}

TEST(ProbeReplayDrainTest, SecondThreadDrainsWhileOwnerIsBlocked) {
  SlowHierarchy Queued;
  CacheHierarchy Direct;
  ProbeBatch Batch;
  Batch.bind(Queued);
  std::promise<void> Recorded, Released;
  std::future<void> Release = Released.get_future();
  // The owner records 5.5 slots (the partial one left for the reader),
  // then blocks until the reader is done — the quiescence a reader
  // relies on when it drains another thread's queue.
  std::thread Owner([&] {
    StreamGen Gen(StreamKind::Mixed, test::testSeed(90));
    for (unsigned I = 0; I < 5 * 256 + 128; ++I) {
      ProbeEvent E = Gen.next();
      if (Batch.record(E.Addr, E.Bytes, E.IsStore != 0))
        Batch.publish();
    }
    Batch.addCompute(77);
    Recorded.set_value();
    Release.wait();
  });
  StreamGen Gen(StreamKind::Mixed, test::testSeed(90));
  for (unsigned I = 0; I < 5 * 256 + 128; ++I)
    deliver(Direct, Gen.next());
  Direct.onCompute(77);

  Recorded.get_future().wait();
  Batch.drain();
  expectSameCounters(Queued.counters(), Direct.counters(), 0);
  Released.set_value();
  Owner.join();
}

TEST(ProbeReplayTeardownTest, DestroyWithQueuedAndPartialSlots) {
  // Published slots still queued behind a slow probe, plus an
  // unpublished partial slot: the destructor must stop and join the
  // replay thread without touching freed memory (run under ASan).
  SlowHierarchy Probe;
  {
    ProbeBatch Batch;
    Batch.bind(Probe);
    SplitMix64 Rng(test::testSeed(91));
    for (unsigned I = 0; I < 6 * 256 + 100; ++I)
      if (Batch.record(Rng.nextBelow(1 << 24), 8, false))
        Batch.publish();
    Batch.addCompute(5);
  }
  // Every published slot was replayed before the join; the partial one
  // was dropped.
  EXPECT_EQ(Probe.counters().Loads, 6u * 256);
  {
    ProbeBatch Bound; // bound, never published: no replay thread
    Bound.bind(Probe);
    Bound.record(1, 8, false);
  }
  { ProbeBatch Unbound; }
}
