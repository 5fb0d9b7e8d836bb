//===- examples/memdb.cpp - In-memory database on the managed heap -------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
// Uses the MiniDb managed B-tree as a library: load a table, run point
// queries, range scans and updates, then show how the collector's
// hot-cold segregation classifies the index (hot) versus row versions
// (mostly cold). This is the §4.6 "h2" scenario as an application.
//
//   $ ./memdb [--rows=40000] [--ops=30000]
//
//===----------------------------------------------------------------------===//

#include "support/ArgParse.h"
#include "support/Random.h"
#include "workloads/MiniDb.h"

#include <cstdio>

using namespace hcsgc;

int main(int Argc, char **Argv) {
  ArgParse Args(Argc, Argv);
  unsigned Rows = static_cast<unsigned>(Args.getInt("rows", 40000));
  unsigned Ops = static_cast<unsigned>(Args.getInt("ops", 30000));
  Args.rejectUnknown();

  GcConfig Cfg;
  Cfg.Geometry.SmallPageSize = 256 * 1024;
  Cfg.Geometry.MediumPageSize = 4 * 1024 * 1024;
  Cfg.MaxHeapBytes = 48u << 20;
  Cfg.Hotness = true;
  Cfg.ColdPage = true;
  Cfg.ColdConfidence = 0.5;

  Runtime RT(Cfg);
  auto M = RT.attachMutator();
  {
    MiniDb Db(*M);

    std::printf("loading %u rows...\n", Rows);
    SplitMix64 Rng(99);
    for (unsigned I = 0; I < Rows; ++I) {
      int64_t Key = static_cast<int64_t>(Rng.nextBelow(Rows * 4));
      Db.insert(Key, Key * 3 + 1);
    }
    std::printf("loaded: %llu distinct rows, tree height %u\n",
                (unsigned long long)Db.size(), Db.height());

    uint64_t Hits = 0, ScanSum = 0;
    for (unsigned I = 0; I < Ops; ++I) {
      int64_t Key = static_cast<int64_t>(Rng.nextBelow(Rows * 4));
      switch (Rng.nextBelow(10)) {
      case 0: // update: replaces the row version (old one is garbage)
        Db.insert(Key, static_cast<int64_t>(I));
        break;
      case 1:
      case 2: // range scan
        ScanSum += Db.scan(Key, 32);
        break;
      default: { // point query
        int64_t V;
        if (Db.lookup(Key, V))
          ++Hits;
      }
      }
    }
    std::printf("%u ops done: %llu point hits, scan checksum %llu\n", Ops,
                (unsigned long long)Hits, (unsigned long long)ScanSum);

    M->requestGcAndWait();
  }
  M.reset();

  CycleRecord Last;
  bool HaveCycle = false;
  RT.gcStats().forEachCycle([&](const CycleRecord &R) {
    Last = R;
    HaveCycle = true;
  });
  if (HaveCycle)
    std::printf("\nlast GC cycle: live=%lluKB hot=%lluKB — the B-tree "
                "index and recent rows are the hot fraction the\n"
                "COLDCONFIDENCE knob excavates from otherwise-dense "
                "pages.\n",
                (unsigned long long)(Last.LiveBytesMarked / 1024),
                (unsigned long long)(Last.HotBytesMarked / 1024));
  return 0;
}
