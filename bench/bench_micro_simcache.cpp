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
// BM_ProbeBatchFull keeps us honest about conserved work: with the
// flush's full simulation included, batching only removes the per-event
// dispatch; the big win on the access path comes from deferring the
// simulation to safepoint-side flushes (and, optionally, sampling).
//===----------------------------------------------------------------------===//

namespace {

/// The shared access pattern: pointer-chasing-style spread over 64 MB,
/// identical in every probe-delivery benchmark below.
inline uintptr_t nextProbeAddr(SplitMix64 &Rng) {
  return Rng.nextBelow(64 << 20);
}

/// Swallows flushed events without simulating them — isolates the
/// barrier-side record cost, which is all the mutator pays at the access
/// site (real flushes run at TLAB refills / safepoints, off this path).
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
/// to the ring + increment (flush cost excluded via NullProbe).
static void BM_ProbeBatchBarrierOnly(benchmark::State &State) {
  ProbeBatch Batch;
  NullProbe Sink;
  SplitMix64 Rng(7);
  for (auto _ : State)
    if (Batch.record(nextProbeAddr(Rng), 8, /*IsStore=*/false))
      Batch.flush(Sink);
  State.counters["events"] = static_cast<double>(Batch.EventsFlushed);
}
BENCHMARK(BM_ProbeBatchBarrierOnly);

/// End-to-end batched cost with the full simulation inside the flush:
/// same simulated work as the direct path, minus 255/256 of the
/// dispatch.
static void BM_ProbeBatchFull(benchmark::State &State) {
  CacheHierarchy H;
  ProbeBatch Batch;
  SplitMix64 Rng(7);
  for (auto _ : State)
    if (Batch.record(nextProbeAddr(Rng), 8, /*IsStore=*/false))
      Batch.flush(H);
  Batch.flush(H);
  State.counters["events_simulated"] =
      static_cast<double>(H.counters().Loads);
}
BENCHMARK(BM_ProbeBatchFull);

/// Exactness check doubling as a bench: replaying one ring through
/// onBatch must produce the same counters as per-access delivery (the
/// determinism contract from ProbeBatch.h).
static void BM_ProbeBatchReplayExactness(benchmark::State &State) {
  SplitMix64 Seq(7);
  for (auto _ : State) {
    State.PauseTiming();
    CacheHierarchy Direct, Batched;
    ProbeBatch Batch;
    SplitMix64 RngA = Seq, RngB = Seq;
    State.ResumeTiming();
    for (unsigned I = 0; I < ProbeBatch::Capacity; ++I)
      Direct.onLoad(nextProbeAddr(RngA), 8);
    for (unsigned I = 0; I < ProbeBatch::Capacity; ++I)
      if (Batch.record(nextProbeAddr(RngB), 8, false))
        Batch.flush(Batched);
    if (Direct.counters().Cycles != Batched.counters().Cycles ||
        Direct.counters().L1Misses != Batched.counters().L1Misses)
      State.SkipWithError("batched replay diverged from per-access");
  }
}
BENCHMARK(BM_ProbeBatchReplayExactness);

BENCHMARK_MAIN();
