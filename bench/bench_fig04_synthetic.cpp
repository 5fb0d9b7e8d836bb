//===- bench/bench_fig04_synthetic.cpp - Fig. 4 --------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
// Fig. 4: the synthetic single-phase benchmark across all 19 Table 2
// configurations. Expected shape (per the paper): configs 4, 10, 16, 18
// fastest (large EC + LazyRelocate), then 3 and 17, then 7 and 13;
// configs 2, 5, 8, 11, 14 show no improvement because fully-live pages
// are never selected without RELOCATEALLSMALLPAGES or high
// COLDCONFIDENCE. L1/LLC misses drop in the improving configs while
// total loads increase (extra GC work hidden by idle cores).
//
// Flags: --runs=N --configs=a,b,c --heap-mb=N --workers=N --array=N
//        --inner=N --outer=N --compute=N
//
//===----------------------------------------------------------------------===//

#include "harness/Report.h"
#include "support/ArgParse.h"
#include "workloads/Synthetic.h"

using namespace hcsgc;

int main(int Argc, char **Argv) {
  ArgParse Args(Argc, Argv);

  ExperimentSpec Spec;
  Spec.Name = "Fig 4: synthetic single-phase";
  Spec.Runs = 3;
  Spec.BaseConfig = benchBaseConfig(16);
  applyCommonFlags(Args, Spec);

  SyntheticParams P;
  P.ArraySize = static_cast<size_t>(Args.getInt("array", 200000));
  P.InnerIters = static_cast<size_t>(Args.getInt("inner", 80000));
  P.OuterIters = static_cast<unsigned>(Args.getInt("outer", 20));
  P.ComputeCyclesPerOp =
      static_cast<uint64_t>(Args.getInt("compute", 40));
  P.Phases = 1;
  Args.rejectUnknown();

  Spec.Body = [P](Mutator &M, RunMeasurement &) {
    return runSynthetic(M, P).Checksum;
  };

  ExperimentResult R = runExperiment(Spec);
  printReport(R);
  return 0;
}
