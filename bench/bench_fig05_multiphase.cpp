//===- bench/bench_fig05_multiphase.cpp - Fig. 5 --------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
// Fig. 5: the synthetic benchmark going through three phases, each with
// its own access-pattern seed ("rand = new Random(phase)"). HCSGC should
// adapt to each phase change and deliver the same shape as Fig. 4.
//
//===----------------------------------------------------------------------===//

#include "harness/Report.h"
#include "support/ArgParse.h"
#include "workloads/Synthetic.h"

using namespace hcsgc;

int main(int Argc, char **Argv) {
  ArgParse Args(Argc, Argv);

  ExperimentSpec Spec;
  Spec.Name = "Fig 5: synthetic three-phase";
  Spec.Runs = 3;
  Spec.BaseConfig = benchBaseConfig(16);
  applyCommonFlags(Args, Spec);

  SyntheticParams P;
  P.ArraySize = static_cast<size_t>(Args.getInt("array", 200000));
  P.InnerIters = static_cast<size_t>(Args.getInt("inner", 80000));
  // Same total work as Fig 4, split across three phases.
  P.OuterIters = static_cast<unsigned>(Args.getInt("outer", 7));
  P.Phases = static_cast<unsigned>(Args.getInt("phases", 3));
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
