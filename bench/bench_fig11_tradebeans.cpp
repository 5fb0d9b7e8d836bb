//===- bench/bench_fig11_tradebeans.cpp - Fig. 11 -------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
// Fig. 11: the tradebeans-like workload (short-lived-object dominated).
// Expected shape: little to no HCSGC improvement — objects that die
// before surviving a cycle get their locality from allocation order, not
// relocation. DaCapo-style warm-up: one untimed iteration precedes the
// measured one.
//
//===----------------------------------------------------------------------===//

#include "harness/Report.h"
#include "support/ArgParse.h"
#include "workloads/TradeSim.h"

using namespace hcsgc;

int main(int Argc, char **Argv) {
  ArgParse Args(Argc, Argv);

  ExperimentSpec Spec;
  Spec.Name = "Fig 11: tradebeans (tradesim)";
  Spec.Runs = 3;
  Spec.BaseConfig = benchBaseConfig(8);
  applyCommonFlags(Args, Spec);

  TradeSimParams P;
  P.Transactions =
      static_cast<unsigned>(Args.getInt("txns", 40000));
  P.Accounts = static_cast<unsigned>(Args.getInt("accounts", P.Accounts));
  Args.rejectUnknown();

  Spec.Body = [P](Mutator &M, RunMeasurement &) {
    return runTradeSim(M, P).BalanceChecksum;
  };

  ExperimentResult R = runExperiment(Spec);
  printReport(R);
  return 0;
}
