//===- bench/bench_table3_graphs.cpp - Table 3 --------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
// Prints Table 3 (graph datasets): the target LAW subgraph sizes and the
// realized sizes of our synthetic stand-in graphs (see DESIGN.md for the
// substitution rationale), plus degree-distribution summaries showing the
// power-law-ish shape.
//
//===----------------------------------------------------------------------===//

#include "support/ArgParse.h"
#include "workloads/GraphGen.h"

#include <algorithm>
#include <cstdio>

using namespace hcsgc;

static void report(const char *Name, const GraphSpec &Spec,
                   size_t HeapMb) {
  CsrGraph G = generateWebGraph(Spec);
  std::vector<size_t> Degs(G.N);
  for (size_t I = 0; I < G.N; ++I)
    Degs[I] = G.degree(I);
  std::sort(Degs.begin(), Degs.end());
  size_t MaxDeg = Degs.empty() ? 0 : Degs.back();
  size_t P99 = Degs.empty() ? 0 : Degs[Degs.size() * 99 / 100];
  double AvgDeg =
      G.N ? 2.0 * static_cast<double>(G.edgeCount()) /
                static_cast<double>(G.N)
          : 0;
  std::printf("%-18s %10zu %12zu %12zu %8.1f %8zu %8zu %10zu\n", Name,
              G.N, Spec.Edges, G.edgeCount(), AvgDeg, P99, MaxDeg,
              HeapMb);
}

int main(int Argc, char **Argv) {
  ArgParse Args(Argc, Argv);
  double Scale = Args.getDouble("scale", 1.0);
  Args.rejectUnknown();

  std::printf("Table 3: graph datasets (synthetic stand-ins for the LAW "
              "subgraphs; scale=%.2f)\n\n",
              Scale);
  std::printf("%-18s %10s %12s %12s %8s %8s %8s %10s\n", "Dataset",
              "Nodes", "EdgesTarget", "EdgesReal", "AvgDeg", "p99Deg",
              "MaxDeg", "Heap(MB)");
  report("uk (CC)", scaleSpec(ukCcSpec(), Scale), 96);
  report("uk (MC)", scaleSpec(ukMcSpec(), Scale), 64);
  report("enwiki (CC)", scaleSpec(enwikiCcSpec(), Scale), 48);
  report("enwiki (MC)", scaleSpec(enwikiMcSpec(), Scale), 64);
  std::printf("\nPaper targets: uk(CC) 28128/900002 @1024MB, uk(MC) "
              "5099/239294 @4096MB,\n               enwiki(CC) "
              "28126/80002 @600MB, enwiki(MC) 43354/170660 @4096MB\n");
  return 0;
}
