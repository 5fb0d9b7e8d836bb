//===- examples/gcbench.cpp - Boehm's GCBench on HCSGC --------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
// The classic GCBench (Boehm/Ellis/Detlefs): build complete binary trees
// top-down and bottom-up at increasing depths, keeping a long-lived tree
// and array alive throughout. A standard smoke workload for any new
// collector — here it doubles as a demonstration that a *fifth* way of
// exercising the public API works unchanged under every HCSGC knob.
//
//   $ ./gcbench [--max-depth=16] [--config=16]
//
//===----------------------------------------------------------------------===//

#include "harness/Config.h"
#include "runtime/Runtime.h"
#include "support/ArgParse.h"
#include "support/Stopwatch.h"

#include <cstdio>

using namespace hcsgc;

namespace {

ClassId NodeCls;

// Node: ref0 = left, ref1 = right, payload: i, j.
void populate(Mutator &M, int Depth, const Root &ThisNode) {
  if (Depth <= 0)
    return;
  Root Child(M);
  M.allocate(Child, NodeCls);
  M.storeRef(ThisNode, 0, Child);
  populate(M, Depth - 1, Child);
  M.allocate(Child, NodeCls);
  M.storeRef(ThisNode, 1, Child);
  populate(M, Depth - 1, Child);
}

void makeTree(Mutator &M, int Depth, Root &Out) {
  M.allocate(Out, NodeCls);
  if (Depth <= 0)
    return;
  Root L(M), R(M);
  makeTree(M, Depth - 1, L);
  makeTree(M, Depth - 1, R);
  M.storeRef(Out, 0, L);
  M.storeRef(Out, 1, R);
}

int treeDepth(Mutator &M, const Root &Node) {
  if (Node.isNull())
    return 0;
  Root L(M);
  M.loadRef(Node, 0, L);
  int D = 0;
  Root Cur(M), Next(M);
  M.copyRoot(Node, Cur);
  while (!Cur.isNull()) {
    ++D;
    M.loadRef(Cur, 0, Next);
    M.copyRoot(Next, Cur);
  }
  return D;
}

void timeConstruction(Mutator &M, int Depth) {
  int Iterations = 1 << (16 - Depth > 0 ? 16 - Depth : 0);
  if (Iterations < 1)
    Iterations = 1;
  Stopwatch SW;
  {
    Root Temp(M);
    for (int I = 0; I < Iterations; ++I) {
      M.allocate(Temp, NodeCls);
      populate(M, Depth, Temp); // top-down
    }
  }
  double TopDown = SW.elapsedMs();
  SW.restart();
  {
    Root Temp(M);
    for (int I = 0; I < Iterations; ++I)
      makeTree(M, Depth, Temp); // bottom-up
  }
  double BottomUp = SW.elapsedMs();
  std::printf("depth %2d, %6d trees: top-down %8.1f ms, bottom-up "
              "%8.1f ms\n",
              Depth, Iterations, TopDown, BottomUp);
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParse Args(Argc, Argv);
  int MaxDepth = static_cast<int>(Args.getInt("max-depth", 14));
  int64_t Id = Args.getInt("config", 16);
  Args.rejectUnknown();
  if (!isConfigId(Id)) {
    std::fprintf(stderr, "invalid value for --config: %lld (ids are 0-19 "
                 "and 21)\n", static_cast<long long>(Id));
    return 2;
  }
  int ConfigId = static_cast<int>(Id);

  GcConfig Cfg;
  Cfg.Geometry.SmallPageSize = 256 * 1024;
  Cfg.Geometry.MediumPageSize = 4 * 1024 * 1024;
  Cfg.MaxHeapBytes = 24u << 20;
  Cfg = applyKnobs(Cfg, table2Config(ConfigId));

  Runtime RT(Cfg);
  NodeCls = RT.registerClass("gcbench.Node", 2, 16);
  auto M = RT.attachMutator();

  std::printf("GCBench on HCSGC config %d (%s), heap %zu MB\n\n",
              ConfigId, describeConfig(table2Config(ConfigId)).c_str(),
              Cfg.MaxHeapBytes >> 20);
  Stopwatch Total;
  {
    // Long-lived structures stay alive across the whole run.
    Root LongLived(*M), Array(*M), Tmp(*M);
    M->allocate(LongLived, NodeCls);
    populate(*M, MaxDepth, LongLived);
    M->allocateRefArray(Array, 50000);
    for (uint32_t I = 0; I < 50000; ++I) {
      M->allocate(Tmp, NodeCls);
      M->storeWord(Tmp, 0, I);
      M->storeElem(Array, I, Tmp);
    }

    for (int D = 4; D <= MaxDepth; D += 2)
      timeConstruction(*M, D);

    // Long-lived data must still be intact.
    if (treeDepth(*M, LongLived) != MaxDepth + 1)
      std::printf("ERROR: long-lived tree corrupted!\n");
    M->loadElem(Array, 42, Tmp);
    if (M->loadWord(Tmp, 0) != 42)
      std::printf("ERROR: long-lived array corrupted!\n");
  }
  M.reset();

  std::printf("\ntotal %.1f ms, GC cycles %llu\n", Total.elapsedMs(),
              (unsigned long long)RT.gcStats().cycleCount());
  return 0;
}
