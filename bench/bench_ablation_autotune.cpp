//===- bench/bench_ablation_autotune.cpp - §4.8 auto-tuner ablation ------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
// Ablation for the paper's §4.8 future-work idea, implemented here as the
// AUTOTUNE knob: compare the synthetic benchmark under (a) baseline ZGC,
// (b) fixed COLDCONFIDENCE values 0.5/1.0 (configs 6/7), and (c) the
// feedback-tuned confidence. The tuned run should land near the best
// fixed setting without having been told the workload's hot fraction.
//
//===----------------------------------------------------------------------===//

#include "harness/Report.h"
#include "support/ArgParse.h"
#include "workloads/Synthetic.h"

#include <cstdio>

using namespace hcsgc;

namespace {

struct Variant {
  const char *Name;
  bool Hotness;
  double ColdConfidence;
  bool AutoTune;
};

} // namespace

int main(int Argc, char **Argv) {
  ArgParse Args(Argc, Argv);
  unsigned Runs = static_cast<unsigned>(Args.getInt("runs", 2));

  SyntheticParams P;
  P.ArraySize = static_cast<size_t>(Args.getInt("array", 150000));
  P.InnerIters = static_cast<size_t>(Args.getInt("inner", 60000));
  P.OuterIters = static_cast<unsigned>(Args.getInt("outer", 12));
  Args.rejectUnknown();

  const Variant Variants[] = {
      {"baseline ZGC", false, 0.0, false},
      {"fixed cc=0.5 (config 6)", true, 0.5, false},
      {"fixed cc=1.0 (config 7)", true, 1.0, false},
      {"auto-tuned (§4.8)", true, 0.5, true},
  };

  std::printf("Ablation: fixed vs auto-tuned COLDCONFIDENCE "
              "(synthetic, %u runs each)\n\n",
              Runs);
  std::printf("%-26s %14s %14s %12s %14s\n", "variant", "sim-seconds",
              "L1 misses", "LLC misses", "final conf");

  for (const Variant &V : Variants) {
    double Exec = 0, L1 = 0, Llc = 0, FinalConf = 0;
    for (unsigned R = 0; R < Runs; ++R) {
      GcConfig Cfg = benchBaseConfig(16);
      Cfg.TriggerHysteresisFraction = 0.20;
      Cfg.Hotness = V.Hotness;
      Cfg.ColdConfidence = V.ColdConfidence;
      Cfg.AutoTuneColdConfidence = V.AutoTune;
      Runtime RT(Cfg);
      auto M = RT.attachMutator();
      (void)runSynthetic(*M, P);
      CacheCounters C = M->counters();
      Exec += static_cast<double>(C.Cycles) / 3.0e9 /
              static_cast<double>(Runs);
      FinalConf += RT.heap().effectiveColdConfidence() /
                   static_cast<double>(Runs);
      M.reset();
      RT.driver().shutdown();
      CacheCounters All = RT.mutatorCounters();
      All += RT.gcThreadCounters();
      L1 += static_cast<double>(All.L1Misses) / Runs;
      Llc += static_cast<double>(All.LlcMisses) / Runs;
    }
    std::printf("%-26s %14.3f %14.0f %12.0f %14.2f\n", V.Name, Exec, L1,
                Llc, FinalConf);
  }
  std::printf("\nExpected: the auto-tuned variant converges to the "
              "workload's cold fraction\n(1 - hot/live) without being "
              "told it, tracking the best fixed setting.\n");
  return 0;
}
