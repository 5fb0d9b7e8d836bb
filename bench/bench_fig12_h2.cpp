//===- bench/bench_fig12_h2.cpp - Fig. 12 ----------------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
// Fig. 12: the h2-like workload (minidb): a managed B-tree with hot
// long-lived index nodes and row-version churn. Expected shape: several
// configurations improve ~5-9%; hotness tracking alone (config 5) costs
// under ~2%.
//
//===----------------------------------------------------------------------===//

#include "harness/Report.h"
#include "support/ArgParse.h"
#include "workloads/MiniDb.h"

using namespace hcsgc;

int main(int Argc, char **Argv) {
  ArgParse Args(Argc, Argv);

  ExperimentSpec Spec;
  Spec.Name = "Fig 12: h2 (minidb)";
  Spec.Runs = 3;
  Spec.BaseConfig = benchBaseConfig(10);
  // The database's hot index + row churn regime needs an earlier trigger
  // (h2 runs many cycles in the paper) and, like the graph benches, a
  // cache hierarchy scaled down with the scaled-down table.
  Spec.BaseConfig.TriggerFraction = 0.45;
  Spec.BaseConfig.TriggerHysteresisFraction = 0.05;
  Spec.BaseConfig.Cache.L1Size = 16 * 1024;
  Spec.BaseConfig.Cache.L2Size = 64 * 1024;
  Spec.BaseConfig.Cache.L3Size = 512 * 1024;
  applyCommonFlags(Args, Spec);

  MiniDbParams P;
  P.Rows = static_cast<unsigned>(Args.getInt("rows", 40000));
  P.Ops = static_cast<unsigned>(Args.getInt("ops", 50000));
  Args.rejectUnknown();

  Spec.Body = [P](Mutator &M, RunMeasurement &) {
    MiniDbResult R = runMiniDb(M, P);
    return R.QueryChecksum + R.RowCount;
  };

  ExperimentResult R = runExperiment(Spec);
  printReport(R);
  return 0;
}
