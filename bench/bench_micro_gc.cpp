//===- bench/bench_micro_gc.cpp - GC mechanism micro-benchmarks --------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
// Ablation micro-benchmarks for the mechanisms whose costs the paper
// discusses: the load-barrier fast path ("no additional work"), the
// hotmap update on the slow path ("the overhead of updating the hotmap
// which in its current implementation involves a CAS operation", §4.1),
// forwarding-table insertion (the relocation linearization point), and
// allocation throughput.
//
//===----------------------------------------------------------------------===//

#include "heap/Forwarding.h"
#include "runtime/Runtime.h"
#include "support/BitMap.h"

#include <benchmark/benchmark.h>

using namespace hcsgc;

static GcConfig microConfig(bool Hotness) {
  GcConfig Cfg;
  Cfg.Geometry.SmallPageSize = 256 * 1024;
  Cfg.Geometry.MediumPageSize = 4 * 1024 * 1024;
  Cfg.MaxHeapBytes = 64u << 20;
  Cfg.Hotness = Hotness;
  return Cfg;
}

/// Load-barrier fast path: repeated loads of an already-good slot.
static void BM_BarrierFastPath(benchmark::State &State) {
  Runtime RT(microConfig(false));
  ClassId Cls = RT.registerClass("m.Pair", 1, 8);
  auto M = RT.attachMutator();
  {
    Root A(*M), B(*M), Out(*M);
    M->allocate(A, Cls);
    M->allocate(B, Cls);
    M->storeRef(A, 0, B);
    for (auto _ : State) {
      M->loadRef(A, 0, Out);
      benchmark::DoNotOptimize(&Out);
    }
  }
  M.reset();
}
BENCHMARK(BM_BarrierFastPath);

/// Full GC cycle cost over a live list, without vs with hotness
/// tracking (the config-5 overhead of Table 2). Timed in wall time: the
/// cycle runs on the GC threads while this thread only waits.
static void BM_GcCycle(benchmark::State &State) {
  bool Hotness = State.range(0) != 0;
  Runtime RT(microConfig(Hotness));
  ClassId Cls = RT.registerClass("m.Node", 1, 16);
  auto M = RT.attachMutator();
  {
    Root Head(*M), Cur(*M), Tmp(*M);
    M->allocate(Head, Cls);
    M->copyRoot(Head, Cur);
    for (int I = 0; I < 50000; ++I) {
      M->allocate(Tmp, Cls);
      M->storeRef(Cur, 0, Tmp);
      M->copyRoot(Tmp, Cur);
    }
    for (auto _ : State)
      M->requestGcAndWait();
  }
  M.reset();
}
BENCHMARK(BM_GcCycle)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Allocation throughput (TLAB bump path).
static void BM_Allocate32B(benchmark::State &State) {
  Runtime RT(microConfig(false));
  ClassId Cls = RT.registerClass("m.Elem", 0, 24);
  auto M = RT.attachMutator();
  {
    Root Out(*M);
    for (auto _ : State)
      M->allocate(Out, Cls);
  }
  M.reset();
}
BENCHMARK(BM_Allocate32B);

/// Hotmap update: the atomic bit set + hot-bytes accounting.
static void BM_HotmapFlag(benchmark::State &State) {
  Page P(/*Begin=*/1 << 20, /*Size=*/256 * 1024, PageSizeClass::Small,
         /*Seq=*/0);
  uint64_t Addr = (1 << 20);
  for (auto _ : State) {
    benchmark::DoNotOptimize(P.flagHot(Addr, 32));
    Addr = (1 << 20) + ((Addr + 32) & (256 * 1024 - 1));
  }
}
BENCHMARK(BM_HotmapFlag);

/// Forwarding-table insert-or-get (relocation linearization point).
static void BM_ForwardingInsert(benchmark::State &State) {
  ForwardingTable Table(1 << 16, /*PageBytes=*/1 << 18, /*HeapBase=*/0,
                        /*HeapBytes=*/1 << 20);
  uint32_t Off = 0;
  for (auto _ : State) {
    bool Won;
    benchmark::DoNotOptimize(Table.insertOrGet(Off, Off + 64, Won));
    Off = (Off + 8) & ((1u << 18) - 1);
  }
}
BENCHMARK(BM_ForwardingInsert);

/// Forwarding lookup of present entries.
static void BM_ForwardingLookup(benchmark::State &State) {
  ForwardingTable Table(1 << 12, /*PageBytes=*/1 << 15, /*HeapBase=*/0,
                        /*HeapBytes=*/1 << 20);
  for (uint32_t I = 0; I < (1u << 12); ++I) {
    bool Won;
    Table.insertOrGet(I * 8, I * 8 + 16, Won);
  }
  uint32_t Off = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(Table.lookup(Off));
    Off = (Off + 8) & ((1u << 15) - 1);
  }
}
BENCHMARK(BM_ForwardingLookup);

//===----------------------------------------------------------------------===//
// Raw-speed pass (INTERNALS §14): the vectorized metadata walks and the
// prefetched mark drain, benchmarked at the layer where each lives.
//===----------------------------------------------------------------------===//

namespace {

/// A temperature-tracking page with a configurable percentage of its
/// 32-byte slots live (and a third of those hot), the shape the
/// pre-STW1 walk sees.
struct PopulatedPage {
  Page P;
  explicit PopulatedPage(unsigned LivePct)
      : P(/*Begin=*/uintptr_t(1) << 20, /*Size=*/256 * 1024,
          PageSizeClass::Small, /*Seq=*/0, /*TrackTemp=*/true) {
    uintptr_t Begin = uintptr_t(1) << 20;
    // Bump the whole page so used() spans every granule.
    while (P.allocate(32) != 0)
      ;
    unsigned Step = LivePct ? 100 / LivePct : 0;
    for (uintptr_t A = Begin, I = 0; A < Begin + 256 * 1024;
         A += 32, ++I) {
      if (!Step || I % Step != 0)
        continue;
      P.markLive(A, 32);
      if (I % (3 * Step) == 0)
        P.flagHot(A, 32);
    }
  }
};

} // namespace

/// The SWAR nibble-aging walk (one 64-bit word ages 16 granules).
/// Arg = percent of granules live. Steady state: after a few iterations
/// unmarked granules sit at a saturated cold streak, exactly like a
/// long-lived page across cycles.
static void BM_PageAgeTemperature(benchmark::State &State) {
  PopulatedPage PP(static_cast<unsigned>(State.range(0)));
  for (auto _ : State)
    PP.P.ageTemperature();
  State.SetBytesProcessed(State.iterations() * (256 * 1024 / 8 / 16) * 8);
}
BENCHMARK(BM_PageAgeTemperature)->Arg(100)->Arg(25)->Arg(3);

/// The ctz-driven live-object walk feeding tier accounting and the EC
/// selector. Arg = percent of granules live; sparse pages show the
/// word-skip win over the old per-bit findNext restart.
static void BM_PageForEachLiveObject(benchmark::State &State) {
  PopulatedPage PP(static_cast<unsigned>(State.range(0)));
  for (auto _ : State) {
    size_t N = 0;
    PP.P.forEachLiveObject([&N](uintptr_t) { ++N; });
    benchmark::DoNotOptimize(N);
  }
}
BENCHMARK(BM_PageForEachLiveObject)->Arg(100)->Arg(25)->Arg(3);

/// Concurrent livemap marking (the per-object mark CAS).
static void BM_LivemapParSet(benchmark::State &State) {
  BitMap Map(1 << 20);
  size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(Map.parSet(I));
    I = (I + 7) & ((1 << 20) - 1);
  }
}
BENCHMARK(BM_LivemapParSet);

BENCHMARK_MAIN();
