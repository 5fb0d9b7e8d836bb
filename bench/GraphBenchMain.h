//===- bench/GraphBenchMain.h - Shared JGraphT-bench driver ----*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared main() body for the four JGraphT figure benches (Figs. 7-10):
/// generate the synthetic LAW-scale graph once, then per run build its
/// managed representation (shuffled allocation order) and execute the
/// algorithm, end-to-end like the paper's minimal driver.
///
/// Flags: --runs --configs --heap-mb --workers --scale --iters (CC) /
///        --budget (MC) --seed
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_BENCH_GRAPHBENCHMAIN_H
#define HCSGC_BENCH_GRAPHBENCHMAIN_H

#include "harness/Report.h"
#include "support/ArgParse.h"
#include "workloads/GraphAlgos.h"

namespace hcsgc {

enum class GraphAlgo { ConnectedComponents, MaximalCliques };

inline int graphBenchMain(int Argc, char **Argv, const char *Name,
                          GraphSpec Spec, GraphAlgo Algo,
                          size_t DefaultHeapMb, double DefaultScale,
                          uint64_t DefaultItersOrBudget) {
  ArgParse Args(Argc, Argv);

  ExperimentSpec Exp;
  Exp.Name = Name;
  Exp.Runs = 3;
  Exp.BaseConfig = benchBaseConfig(DefaultHeapMb);
  // Graph runs allocate in bursts (loader churn, clique sets) against a
  // modest live set; an earlier trigger and a small hysteresis give the
  // paper's "few cycles, concentrated early" behaviour while leaving
  // RELOCATEALLSMALLPAGES enough headroom.
  Exp.BaseConfig.TriggerFraction = 0.45;
  Exp.BaseConfig.TriggerHysteresisFraction = 0.05;
  // The graphs are scaled down from Table 3; scale the simulated cache
  // hierarchy with them so the working set still exceeds the LLC the way
  // the paper's multi-megabyte graphs exceeded a 4 MiB LLC. The clique
  // benchmarks' inner loops live on the (smaller) vertex/neighbor-id set,
  // so their caches scale further.
  bool McAlgo = Algo == GraphAlgo::MaximalCliques;
  Exp.BaseConfig.Cache.L1Size = McAlgo ? 8 * 1024 : 16 * 1024;
  Exp.BaseConfig.Cache.L2Size = McAlgo ? 32 * 1024 : 64 * 1024;
  Exp.BaseConfig.Cache.L3Size = McAlgo ? 256 * 1024 : 512 * 1024;
  applyCommonFlags(Args, Exp);

  double Scale = Args.getDouble("scale", DefaultScale);
  Spec = scaleSpec(Spec, Scale);
  Spec.Seed = static_cast<uint64_t>(Args.getInt("seed", Spec.Seed));
  bool Mc = McAlgo;
  uint64_t Iters = static_cast<uint64_t>(
      Args.getInt(Mc ? "budget" : "iters", DefaultItersOrBudget));
  Args.rejectUnknown();

  CsrGraph Csr = generateWebGraph(Spec);
  std::fprintf(stderr, "%s: graph nodes=%zu edges=%zu (scale %.2f)\n",
               Name, Csr.N, Csr.edgeCount(), Scale);

  Exp.Body = [&Csr, Mc, Iters](Mutator &M, RunMeasurement &) -> uint64_t {
    ManagedGraph G(M, Csr, /*ShuffleSeed=*/0x5eed, /*WithNeighborIds=*/Mc);
    uint64_t Ck = 0;
    if (Mc) {
      // Repeated enumerations under one budget each; the recursion's
      // set allocation provides the paper's periodic GC cycles.
      for (unsigned It = 0; It < 3; ++It) {
        BkResult R = bronKerbosch(M, G, Iters);
        Ck += R.Cliques * 31 + R.MaxSize * 7 + R.Steps;
      }
    } else {
      for (unsigned It = 1; It <= Iters; ++It) {
        CcResult R = connectedComponents(M, G, It);
        Ck += R.Components * 1000003 + R.ArticulationPoints * 31 +
              R.LowSum;
      }
    }
    return Ck;
  };

  ExperimentResult R = runExperiment(Exp);
  printReport(R);
  return 0;
}

} // namespace hcsgc

#endif // HCSGC_BENCH_GRAPHBENCHMAIN_H
