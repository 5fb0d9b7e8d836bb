//===- bench/bench_micro_simcache.cpp - Cache simulator micro-benchmarks -----===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
// Micro-benchmarks of the cache simulator itself (the substitution for
// perf hardware counters) and a demonstration of the locality effect the
// whole reproduction rests on: sequential streams are nearly free under
// the stream prefetcher, random streams pay full miss latency.
//
//===----------------------------------------------------------------------===//

#include "simcache/Hierarchy.h"
#include "simcache/ProbeBatch.h"
#include "support/Random.h"

#include <benchmark/benchmark.h>

#include <vector>

using namespace hcsgc;

static void BM_SeqAccess(benchmark::State &State) {
  CacheHierarchy H;
  uintptr_t Addr = 0;
  for (auto _ : State) {
    H.onLoad(Addr, 8);
    Addr += 32;
  }
  State.counters["l1_miss_rate"] =
      static_cast<double>(H.counters().L1Misses) /
      static_cast<double>(H.counters().Loads);
  State.counters["cycles_per_access"] =
      static_cast<double>(H.counters().Cycles) /
      static_cast<double>(H.counters().Loads);
}
BENCHMARK(BM_SeqAccess);

static void BM_RandomAccess(benchmark::State &State) {
  CacheHierarchy H;
  SplitMix64 Rng(7);
  for (auto _ : State)
    H.onLoad(Rng.nextBelow(64 << 20), 8);
  State.counters["l1_miss_rate"] =
      static_cast<double>(H.counters().L1Misses) /
      static_cast<double>(H.counters().Loads);
  State.counters["cycles_per_access"] =
      static_cast<double>(H.counters().Cycles) /
      static_cast<double>(H.counters().Loads);
}
BENCHMARK(BM_RandomAccess);

namespace {

/// The "Mixed" stream of tests/simcache/SimcacheReferenceTest.cpp:
/// interleaved forward, backward and jittered streams, repeats of the
/// last line, dense and spread random accesses, a quarter of them
/// stores. Unlike the pure cases above it keeps the prefetcher's match
/// path and its victim choice busy.
class MixedStream {
public:
  static constexpr uintptr_t Base = uintptr_t(1) << 36;
  static constexpr uint64_t SpanLines = (64ull << 20) / 64;

  explicit MixedStream(uint64_t Seed) : Rng(Seed) {
    for (uint64_t &C : Cursors)
      C = Rng.nextBelow(SpanLines);
  }

  ProbeEvent next() {
    uint64_t Pick = Rng.nextBelow(16);
    uint64_t Line;
    if (Pick < 3) {
      Line = Cursors[0]++;
    } else if (Pick < 5) {
      Line = Cursors[1]--;
    } else if (Pick < 7) {
      Cursors[2] += Rng.nextBelow(3);
      Line = Cursors[2];
    } else if (Pick < 10) {
      Line = LastLine;
    } else if (Pick < 13) {
      Line = Cursors[3] + Rng.nextBelow(512);
    } else {
      Line = Rng.nextBelow(SpanLines);
    }
    Line %= SpanLines;
    LastLine = Line;
    return {Base + Line * 64 + Rng.nextBelow(56), 8,
            Pick % 4 == 0 ? 1u : 0u};
  }

private:
  SplitMix64 Rng;
  uint64_t Cursors[4];
  uint64_t LastLine = 0;
};

/// The "RepeatHeavy" stream of tests/simcache/SimcacheReferenceTest.cpp:
/// two 32-byte objects per line, three walks (two ascending, one
/// descending) taking turns in runs of 8-40 objects, one access in 16 to
/// a random line, a quarter of the rest stores. Within a run every other
/// access repeats its line, so it times the prefetcher's repeat path.
class RepeatHeavyStream {
public:
  static constexpr uintptr_t Base = uintptr_t(1) << 36;
  static constexpr uint64_t Span = 64ull << 20;

  explicit RepeatHeavyStream(uint64_t Seed) : Rng(Seed) {
    for (uint64_t &C : Cursors)
      C = Rng.nextBelow(Span / 64);
  }

  ProbeEvent next() {
    if (Run == 0) {
      Walk = Rng.nextBelow(3);
      Run = 8 + Rng.nextBelow(33);
    }
    --Run;
    if (Rng.nextBelow(16) == 0)
      return {Base + Rng.nextBelow(Span), 8, 0u};
    uint64_t Step = Objs[Walk]++ * 32;
    uint64_t Off = Cursors[Walk] * 64 + (Walk == 2 ? -Step : Step);
    return {Base + Off % Span + Rng.nextBelow(4) * 8, 8,
            Rng.nextBelow(4) == 0 ? 1u : 0u};
  }

private:
  SplitMix64 Rng;
  uint64_t Cursors[3];
  uint64_t Objs[3] = {};
  uint64_t Walk = 0, Run = 0;
};

/// Feeds \p Gen's events through \p H for the whole benchmark loop and
/// reports the miss and prefetch rates per access.
template <typename Stream>
void accessLoop(benchmark::State &State, CacheHierarchy &H, Stream &Gen) {
  for (auto _ : State) {
    ProbeEvent E = Gen.next();
    if (E.IsStore)
      H.onStore(E.Addr, E.Bytes);
    else
      H.onLoad(E.Addr, E.Bytes);
  }
  uint64_t Accesses = H.counters().Loads + H.counters().Stores;
  State.counters["l1_miss_rate"] =
      static_cast<double>(H.counters().L1Misses) /
      static_cast<double>(Accesses);
  State.counters["prefetches_per_access"] =
      static_cast<double>(H.counters().PrefetchesIssued) /
      static_cast<double>(Accesses);
}

} // namespace

static void BM_MixedAccess(benchmark::State &State) {
  CacheHierarchy H;
  MixedStream Gen(7);
  accessLoop(State, H, Gen);
}
BENCHMARK(BM_MixedAccess);

static void BM_RepeatHeavyAccess(benchmark::State &State) {
  CacheHierarchy H;
  RepeatHeavyStream Gen(7);
  accessLoop(State, H, Gen);
}
BENCHMARK(BM_RepeatHeavyAccess);

/// The MixedStream line sequence through the stream prefetcher alone
/// (default 16-stream table): the share of BM_MixedAccess spent finding
/// the stream a line extends. The lines are generated up front and
/// replayed in a loop, so the generator's cost is not timed.
static void BM_PrefetcherObserve(benchmark::State &State) {
  constexpr size_t NumLines = size_t(1) << 16;
  std::vector<uint64_t> Lines(NumLines);
  MixedStream Gen(7);
  for (uint64_t &L : Lines)
    L = Gen.next().Addr / 64;
  StreamPrefetcher P(CacheHierarchy::StreamTableSize);
  size_t I = 0, Locked = 0;
  for (auto _ : State) {
    Locked += P.observe(Lines[I]) != 0;
    I = (I + 1) & (NumLines - 1);
  }
  State.counters["locked_per_line"] =
      static_cast<double>(Locked) / static_cast<double>(State.iterations());
}
BENCHMARK(BM_PrefetcherObserve);

static void BM_NoPrefetchSeq(benchmark::State &State) {
  CacheConfig Cfg;
  Cfg.PrefetchEnabled = false;
  CacheHierarchy H(Cfg);
  uintptr_t Addr = 0;
  for (auto _ : State) {
    H.onLoad(Addr, 8);
    Addr += 32;
  }
  State.counters["cycles_per_access"] =
      static_cast<double>(H.counters().Cycles) /
      static_cast<double>(H.counters().Loads);
}
BENCHMARK(BM_NoPrefetchSeq);

//===----------------------------------------------------------------------===//
// Probe delivery: per-access virtual dispatch vs. the batched ring
// (INTERNALS §14). The ISSUE-9 acceptance number is the ratio
// BM_ProbePerAccessDirect / BM_ProbeBatchBarrierOnly — the cost the
// *barrier* pays per instrumented access before vs. after batching.
// BM_ProbeBatchFull keeps us honest about conserved work: the full
// simulation still runs, on the batch's replay thread, so it is timed in
// wall time — batching removes only the per-event dispatch, and the win
// on the access path comes from moving the simulation off the recording
// thread.
//===----------------------------------------------------------------------===//

namespace {

/// The shared access pattern: pointer-chasing-style spread over 64 MB,
/// identical in every probe-delivery benchmark below.
inline uintptr_t nextProbeAddr(SplitMix64 &Rng) {
  return Rng.nextBelow(64 << 20);
}

/// Swallows replayed events without simulating them — isolates the
/// barrier-side record cost, which is all the mutator pays at the access
/// site (the simulation runs on the replay thread, off this path).
class NullProbe : public MemoryProbe {
public:
  void onLoad(uintptr_t, uint32_t) override {}
  void onStore(uintptr_t, uint32_t) override {}
  void onCompute(uint64_t) override {}
  void onBatch(const ProbeEvent *, size_t) override {}
};

} // namespace

/// What the pre-batching barrier paid per access: a virtual call into
/// the simulator for every probed load.
static void BM_ProbePerAccessDirect(benchmark::State &State) {
  CacheHierarchy H;
  MemoryProbe &P = H; // force the virtual dispatch the old barrier paid
  SplitMix64 Rng(7);
  for (auto _ : State)
    P.onLoad(nextProbeAddr(Rng), 8);
  State.counters["events"] =
      static_cast<double>(H.counters().Loads);
}
BENCHMARK(BM_ProbePerAccessDirect);

/// What the batched barrier pays per access at the access site: append
/// to the slot + increment, plus the slot hand-off (simulation excluded
/// via NullProbe).
static void BM_ProbeBatchBarrierOnly(benchmark::State &State) {
  NullProbe Sink;
  ProbeBatch Batch;
  Batch.bind(Sink);
  SplitMix64 Rng(7);
  for (auto _ : State)
    if (Batch.record(nextProbeAddr(Rng), 8, /*IsStore=*/false))
      Batch.publish();
  State.counters["events"] = static_cast<double>(Batch.EventsFlushed);
}
BENCHMARK(BM_ProbeBatchBarrierOnly);

/// End-to-end batched cost with the full simulation on the replay
/// thread: same simulated work as the direct path, minus 255/256 of the
/// dispatch. The recording thread blocks once every slot is queued, so
/// the wall time per event is the replay rate.
static void BM_ProbeBatchFull(benchmark::State &State) {
  CacheHierarchy H;
  ProbeBatch Batch;
  Batch.bind(H);
  SplitMix64 Rng(7);
  for (auto _ : State)
    if (Batch.record(nextProbeAddr(Rng), 8, /*IsStore=*/false))
      Batch.publish();
  Batch.drain();
  State.counters["events_simulated"] =
      static_cast<double>(H.counters().Loads);
}
BENCHMARK(BM_ProbeBatchFull)->UseRealTime();

/// Exactness check doubling as a bench: one slot through the replay
/// thread, drained, must leave the same counters as per-access delivery
/// (the determinism contract from ProbeBatch.h). ProbeReplayTest is the
/// oracle that fails loudly; this re-checks it on every bench run.
static void BM_ProbeBatchReplayExactness(benchmark::State &State) {
  CacheHierarchy Direct, Batched;
  ProbeBatch Batch;
  Batch.bind(Batched);
  SplitMix64 RngA(7), RngB(7);
  for (auto _ : State) {
    for (unsigned I = 0; I < ProbeBatch::Capacity; ++I)
      Direct.onLoad(nextProbeAddr(RngA), 8);
    for (unsigned I = 0; I < ProbeBatch::Capacity; ++I)
      if (Batch.record(nextProbeAddr(RngB), 8, false))
        Batch.publish();
    Batch.drain();
    const CacheCounters &A = Direct.counters(), &B = Batched.counters();
    if (A.Loads != B.Loads || A.Stores != B.Stores ||
        A.L1Misses != B.L1Misses || A.L2Misses != B.L2Misses ||
        A.LlcMisses != B.LlcMisses ||
        A.PrefetchesIssued != B.PrefetchesIssued || A.Cycles != B.Cycles)
      State.SkipWithError("batched replay diverged from per-access");
  }
}
BENCHMARK(BM_ProbeBatchReplayExactness);

BENCHMARK_MAIN();
