//===- bench/bench_fig13_specjbb.cpp - Fig. 13 -----------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
// Fig. 13: the SPECjbb2015-like ramping-injection workload, reporting a
// throughput score and a latency score per configuration (higher is
// better), plus the Config 0 heap-usage ramp. Expected result: the
// confidence intervals overlap — inconclusive, because only ~1% of
// objects survive a GC cycle.
//
//===----------------------------------------------------------------------===//

#include "harness/Report.h"
#include "support/ArgParse.h"
#include "workloads/JbbSim.h"

using namespace hcsgc;

int main(int Argc, char **Argv) {
  ArgParse Args(Argc, Argv);

  ExperimentSpec Spec;
  Spec.Name = "Fig 13: SPECjbb2015 (jbbsim)";
  Spec.Runs = 3;
  Spec.BaseConfig = benchBaseConfig(32);
  applyCommonFlags(Args, Spec);

  JbbSimParams P;
  P.RampLevels =
      static_cast<unsigned>(Args.getInt("levels", 6));
  P.TxnsPerLevelBase = static_cast<unsigned>(
      Args.getInt("txns-per-level", P.TxnsPerLevelBase));
  Args.rejectUnknown();

  Spec.Body = [P](Mutator &M, RunMeasurement &Meas) {
    JbbSimResult R = runJbbSim(M, P);
    Meas.Aux1 = R.ThroughputScore;
    Meas.Aux2 = R.LatencyScore;
    return R.Checksum;
  };

  ExperimentResult R = runExperiment(Spec);
  printReport(R);
  printScoreReport(R, "throughput", "latency");
  return 0;
}
