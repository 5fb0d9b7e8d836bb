//===- examples/phase_adaptive.cpp - Adapting to phase changes ------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
// Shows HCSGC's headline property (§1, Fig. 5): when a program changes
// its access pattern over the same objects, mutator-driven relocation
// re-lays them out for the *new* pattern — something no static layout
// can do. We run three phases with different random access orders and
// print per-phase cache-miss rates: each phase starts expensive and gets
// cheap once a GC cycle lets the mutator reorder the objects.
//
//   $ ./phase_adaptive [--array=150000] [--rounds=12]
//
//===----------------------------------------------------------------------===//

#include "support/ArgParse.h"
#include "support/Random.h"
#include "runtime/Runtime.h"

#include <cstdio>

using namespace hcsgc;

int main(int Argc, char **Argv) {
  ArgParse Args(Argc, Argv);
  size_t ArraySize = static_cast<size_t>(Args.getInt("array", 100000));
  unsigned Rounds = static_cast<unsigned>(Args.getInt("rounds", 12));
  Args.rejectUnknown();

  GcConfig Cfg;
  Cfg.Geometry.SmallPageSize = 256 * 1024;
  Cfg.Geometry.MediumPageSize = 4 * 1024 * 1024;
  Cfg.MaxHeapBytes = 10u << 20;
  Cfg.TriggerFraction = 0.55;
  Cfg.TriggerHysteresisFraction = 0.05;
  Cfg.EnableProbes = true;
  // Config 18: relocate-all + lazy — maximal mutator participation.
  Cfg.Hotness = true;
  Cfg.ColdPage = true;
  Cfg.RelocateAllSmallPages = true;
  Cfg.LazyRelocate = true;

  Runtime RT(Cfg);
  ClassId Elem = RT.registerClass("phase.Elem", 0, 24);
  ClassId GarbageCls = RT.registerClass("phase.Garbage", 0, 248);
  auto M = RT.attachMutator();
  {
    Root Arr(*M), Tmp(*M), Garbage(*M);
    M->allocateRefArray(Arr, static_cast<uint32_t>(ArraySize));
    for (size_t I = 0; I < ArraySize; ++I) {
      M->allocate(Tmp, Elem);
      M->storeWord(Tmp, 0, static_cast<int64_t>(I));
      M->storeElem(Arr, static_cast<uint32_t>(I), Tmp);
    }

    std::printf("%-6s %-6s %12s %12s %14s\n", "phase", "round", "loads",
                "L1 misses", "miss rate");
    SplitMix64 Rng(0);
    uint64_t Sink = 0;
    for (unsigned Phase = 0; Phase < 3; ++Phase) {
      for (unsigned Round = 0; Round < Rounds; ++Round) {
        CacheCounters Before = M->counters();
        Rng.seed(Phase * 7 + 1); // per-phase stable access order
        for (size_t J = 0; J < ArraySize / 2; ++J) {
          uint32_t Idx =
              static_cast<uint32_t>(Rng.nextBelow(ArraySize));
          M->loadElem(Arr, Idx, Tmp);
          Sink += static_cast<uint64_t>(M->loadWord(Tmp, 0));
          if (J % 8 == 0)
            M->allocate(Garbage, GarbageCls); // churn keeps cycles coming
        }
        CacheCounters After = M->counters();
        uint64_t Loads = After.Loads - Before.Loads;
        uint64_t Miss = After.L1Misses - Before.L1Misses;
        std::printf("%-6u %-6u %12llu %12llu %13.1f%%\n", Phase, Round,
                    (unsigned long long)Loads, (unsigned long long)Miss,
                    100.0 * static_cast<double>(Miss) /
                        static_cast<double>(Loads ? Loads : 1));
      }
      std::printf("-- access pattern changes --\n");
    }
    std::printf("(sink %llu)\n", (unsigned long long)Sink);
  }
  M.reset();
  std::printf("GC cycles: %llu\n",
              (unsigned long long)RT.gcStats().cycleCount());
  return 0;
}
