//===- bench/bench_fig06_overload.cpp - Fig. 6 ---------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
// Fig. 6: the cost of RELOCATEALLSMALLPAGES when many objects are cold
// and computing resources are constrained. A 10x never-accessed cold
// array is added and the core model charges GC-thread cycles to the same
// (single) core the mutator runs on (the paper used taskset). Expected
// shape: configs 3, 4, 17, 18 show large overhead; 7, 10, 13, 16
// (COLDCONFIDENCE) still improve.
//
//===----------------------------------------------------------------------===//

#include "harness/Report.h"
#include "support/ArgParse.h"
#include "workloads/Synthetic.h"

using namespace hcsgc;

int main(int Argc, char **Argv) {
  ArgParse Args(Argc, Argv);

  ExperimentSpec Spec;
  Spec.Name = "Fig 6: RelocateAllSmallPages overhead (single core, 10x "
              "cold array)";
  Spec.Runs = 3;
  Spec.BaseConfig = benchBaseConfig(48);
  Spec.Model = CoreModel::SingleCore;
  applyCommonFlags(Args, Spec);

  SyntheticParams P;
  P.ArraySize = static_cast<size_t>(Args.getInt("array", 60000));
  P.ColdArraySize = static_cast<size_t>(
      Args.getInt("cold-array", 10 * Args.getInt("array", 60000)));
  P.InnerIters = static_cast<size_t>(Args.getInt("inner", 60000));
  P.OuterIters = static_cast<unsigned>(Args.getInt("outer", 16));
  P.ComputeCyclesPerOp =
      static_cast<uint64_t>(Args.getInt("compute", 40));
  Args.rejectUnknown();

  Spec.Body = [P](Mutator &M, RunMeasurement &) {
    return runSynthetic(M, P).Checksum;
  };

  ExperimentResult R = runExperiment(Spec);
  printReport(R);
  return 0;
}
