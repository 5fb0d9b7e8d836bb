//===- examples/quickstart.cpp - Hello, HCSGC ----------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
// The smallest useful program: create a runtime, attach a mutator, build
// a linked structure, survive a few GC cycles, and inspect the collector
// statistics. Start here.
//
//   $ ./quickstart
//
//===----------------------------------------------------------------------===//

#include "runtime/Runtime.h"

#include <cstdio>

using namespace hcsgc;

int main() {
  // 1. Configure the collector. These five knobs are the paper's
  //    Table 2 tuning knobs; this is "config 16" (hotness + cold page +
  //    full cold confidence + lazy relocation).
  GcConfig Cfg;
  Cfg.MaxHeapBytes = 64u << 20;
  Cfg.Hotness = true;
  Cfg.ColdPage = true;
  Cfg.ColdConfidence = 1.0;
  Cfg.LazyRelocate = true;
  Cfg.TraceEnabled = true; // record GC events for chrome://tracing
  // Per-object events (hot flags, relocations) are plentiful; give each
  // thread a deeper ring so the demo trace keeps most of them.
  Cfg.TraceBufferEvents = size_t(1) << 17;

  Runtime RT(Cfg);

  // 2. Describe your object shapes: a list node with one reference slot
  //    ("next") and 16 bytes of payload.
  ClassId Node = RT.registerClass("quickstart.Node", /*NumRefs=*/1,
                                  /*PayloadBytes=*/16);

  // 3. Attach the current thread as a mutator. All heap access flows
  //    through it (and through the paper's load barrier).
  auto M = RT.attachMutator();
  {
    // 4. Roots are scoped handles; anything reachable from them
    //    survives collection (and relocation).
    Root Head(*M), Cur(*M), Tmp(*M);
    M->allocate(Head, Node);
    M->storeWord(Head, 0, 0);
    M->copyRoot(Head, Cur);
    const int N = 100000;
    for (int I = 1; I < N; ++I) {
      M->allocate(Tmp, Node);
      M->storeWord(Tmp, 0, I);
      M->storeRef(Cur, 0, Tmp); // Cur->next = Tmp
      M->copyRoot(Tmp, Cur);
    }

    // 5. Force two GC cycles (normally they trigger on heap usage) and
    //    walk the list — every object may have been relocated, yet the
    //    structure is intact.
    M->requestGcAndWait();
    M->requestGcAndWait();

    long Sum = 0;
    M->copyRoot(Head, Cur);
    for (int I = 0; I < N; ++I) {
      Sum += M->loadWord(Cur, 0);
      if (I + 1 < N) {
        M->loadRef(Cur, 0, Tmp);
        M->copyRoot(Tmp, Cur);
      }
    }
    std::printf("sum over %d nodes: %ld (expected %ld)\n", N, Sum,
                static_cast<long>(N) * (N - 1) / 2);
  }
  M.reset(); // detach before the runtime goes away

  // 6. Collector statistics.
  RT.gcStats().forEachCycle([](const CycleRecord &R) {
    std::printf("cycle %llu: EC small pages=%llu, relocated by "
                "mutators=%llu, by GC threads=%llu\n",
                (unsigned long long)R.Cycle,
                (unsigned long long)R.SmallPagesInEc,
                (unsigned long long)R.ObjectsRelocatedByMutators,
                (unsigned long long)R.ObjectsRelocatedByGc);
  });

  // 7. Aggregated metrics (counters the driver publishes every cycle)...
  std::printf("gc.cycles=%llu  gc.reloc.bytes_mutator=%llu  "
              "gc.reloc.bytes_gc=%llu\n",
              (unsigned long long)RT.metrics().counterValue("gc.cycles"),
              (unsigned long long)RT.metrics().counterValue(
                  "gc.reloc.bytes_mutator"),
              (unsigned long long)RT.metrics().counterValue(
                  "gc.reloc.bytes_gc"));

  // ...and the full event trace, viewable in chrome://tracing / Perfetto
  // or summarized with tools/gctrace.
  const char *TracePath = "quickstart_trace.json";
  if (RT.dumpTrace(TracePath))
    std::printf("wrote %s (open in chrome://tracing, or run: gctrace "
                "%s)\n",
                TracePath, TracePath);
  return 0;
}
