//===- tests/harness/RunnerTest.cpp --------------------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "harness/Report.h"
#include "harness/Runner.h"
#include "support/ArgParse.h"

#include <gtest/gtest.h>

using namespace hcsgc;

namespace {

ExperimentSpec tinySpec() {
  ExperimentSpec Spec;
  Spec.Name = "test experiment";
  Spec.Runs = 2;
  Spec.Configs = {0, 16};
  Spec.BaseConfig = benchBaseConfig(8);
  Spec.BaseConfig.Geometry.SmallPageSize = 64 * 1024;
  Spec.BaseConfig.Geometry.MediumPageSize = 1024 * 1024;
  Spec.Body = [](Mutator &M, RunMeasurement &Meas) -> uint64_t {
    ClassId Cls = M.runtime().registerClass("rt.Obj", 0, 24);
    Root Arr(M), Tmp(M);
    M.allocateRefArray(Arr, 2000);
    uint64_t Sum = 0;
    for (uint32_t I = 0; I < 2000; ++I) {
      M.allocate(Tmp, Cls);
      M.storeWord(Tmp, 0, I);
      M.storeElem(Arr, I, Tmp);
    }
    M.requestGcAndWait();
    for (uint32_t I = 0; I < 2000; ++I) {
      M.loadElem(Arr, I, Tmp);
      Sum += static_cast<uint64_t>(M.loadWord(Tmp, 0));
    }
    Meas.Aux1 = 42.0;
    return Sum;
  };
  return Spec;
}

} // namespace

TEST(RunnerTest, CollectsAllConfigsAndRuns) {
  ExperimentResult R = runExperiment(tinySpec());
  ASSERT_EQ(R.Configs.size(), 2u);
  EXPECT_EQ(R.Configs[0].Knobs.Id, 0);
  EXPECT_EQ(R.Configs[1].Knobs.Id, 16);
  for (const ConfigResult &CR : R.Configs) {
    ASSERT_EQ(CR.Runs.size(), 2u);
    for (const RunMeasurement &Run : CR.Runs) {
      EXPECT_EQ(Run.Checksum, 2000ull * 1999 / 2);
      EXPECT_GT(Run.Loads, 0u);
      EXPECT_GT(Run.ExecSeconds, 0.0);
      EXPECT_GE(Run.GcCycles, 1u);
      EXPECT_DOUBLE_EQ(Run.Aux1, 42.0);
    }
  }
  EXPECT_FALSE(R.BaselineHeapSeries.empty());
}

TEST(RunnerTest, SingleCoreModelAddsGcCycles) {
  ExperimentSpec Unloaded = tinySpec();
  Unloaded.Configs = {0};
  Unloaded.Runs = 1;
  ExperimentSpec Loaded = Unloaded;
  Loaded.Model = CoreModel::SingleCore;
  double U = runExperiment(Unloaded)
                 .Configs[0]
                 .Runs[0]
                 .ExecSeconds;
  double L =
      runExperiment(Loaded).Configs[0].Runs[0].ExecSeconds;
  EXPECT_GT(L, U); // GC-thread cycles are charged to the one core
}

TEST(RunnerTest, ReportPrintsWithoutCrashing) {
  ExperimentResult R = runExperiment(tinySpec());
  std::FILE *Null = fopen("/dev/null", "w");
  ASSERT_NE(Null, nullptr);
  printReport(R, Null);
  printScoreReport(R, "aux1", "aux2", nullptr, Null);
  printScoreReport(R, "aux1", "aux2", "aux3", Null);
  fclose(Null);
}

TEST(RunnerTest, ConfigsFlagParsesIds) {
  char Prog[] = "bench", Flag[] = "--configs=0,16,,21";
  char *Argv[] = {Prog, Flag};
  ExperimentSpec Spec;
  applyCommonFlags(ArgParse(2, Argv), Spec);
  EXPECT_EQ(Spec.Configs, (std::vector<int>{0, 16, 21}));
}

TEST(RunnerDeathTest, MalformedConfigIdsAreRejected) {
  auto Apply = [](const char *Flag) {
    char Prog[] = "bench";
    std::string F = Flag;
    char *Argv[] = {Prog, F.data()};
    ExperimentSpec Spec;
    applyCommonFlags(ArgParse(2, Argv), Spec);
  };
  EXPECT_EXIT(Apply("--configs=abc"), ::testing::ExitedWithCode(2),
              "--configs: 'abc'");
  EXPECT_EXIT(Apply("--configs=0,16x"), ::testing::ExitedWithCode(2),
              "--configs: '16x'");
  EXPECT_EXIT(Apply("--configs=23"), ::testing::ExitedWithCode(2),
              "--configs: 23");
  // Retired ids (the removed cold-page madvise pass).
  EXPECT_EXIT(Apply("--configs=19,20"), ::testing::ExitedWithCode(2),
              "--configs: 20");
  EXPECT_EXIT(Apply("--configs=22"), ::testing::ExitedWithCode(2),
              "--configs: 22");
  EXPECT_EXIT(Apply("--heap-mb=abc"), ::testing::ExitedWithCode(2),
              "--heap-mb: 'abc'");
}

TEST(RunnerTest, HeapMbChangesOnlyTheHeapSize) {
  // A bench that tunes its base config (as the graph benches and
  // bench_fig12_h2 do) keeps every field --heap-mb does not derive.
  ExperimentSpec Spec;
  Spec.BaseConfig = benchBaseConfig(10);
  Spec.BaseConfig.TriggerFraction = 0.45;
  Spec.BaseConfig.TriggerHysteresisFraction = 0.05;
  Spec.BaseConfig.Cache.L1Size = 16 * 1024;
  Spec.BaseConfig.Cache.L2Size = 64 * 1024;
  Spec.BaseConfig.Cache.L3Size = 512 * 1024;
  Spec.BaseConfig.GcWorkers = 3;
  const GcConfig Want = Spec.BaseConfig;
  const GcConfig Sized = benchBaseConfig(96);

  char Prog[] = "bench", Flag[] = "--heap-mb=96";
  char *Argv[] = {Prog, Flag};
  applyCommonFlags(ArgParse(2, Argv), Spec);
  const GcConfig &Got = Spec.BaseConfig;
  EXPECT_EQ(Got.MaxHeapBytes, size_t(96) << 20);
  EXPECT_EQ(Got.EvacBudgetPages, Sized.EvacBudgetPages);
  // Every field the spec or benchBaseConfig set (GcConfig has no ==).
  EXPECT_EQ(Got.TriggerFraction, Want.TriggerFraction);
  EXPECT_EQ(Got.TriggerHysteresisFraction, Want.TriggerHysteresisFraction);
  EXPECT_EQ(Got.Cache.L1Size, Want.Cache.L1Size);
  EXPECT_EQ(Got.Cache.L2Size, Want.Cache.L2Size);
  EXPECT_EQ(Got.Cache.L3Size, Want.Cache.L3Size);
  EXPECT_EQ(Got.GcWorkers, Want.GcWorkers);
  EXPECT_EQ(Got.Geometry.SmallPageSize, Want.Geometry.SmallPageSize);
  EXPECT_EQ(Got.Geometry.MediumPageSize, Want.Geometry.MediumPageSize);
  EXPECT_EQ(Got.EnableProbes, Want.EnableProbes);

  // fig04 and KV start from a plain benchBaseConfig: --heap-mb yields
  // exactly the config benchBaseConfig builds for that heap.
  ExperimentSpec Plain;
  Plain.BaseConfig = benchBaseConfig(256);
  applyCommonFlags(ArgParse(2, Argv), Plain);
  EXPECT_EQ(Plain.BaseConfig.MaxHeapBytes, Sized.MaxHeapBytes);
  EXPECT_EQ(Plain.BaseConfig.EvacBudgetPages, Sized.EvacBudgetPages);
  EXPECT_EQ(Plain.BaseConfig.TriggerHysteresisFraction,
            Sized.TriggerHysteresisFraction);
}

TEST(RunnerTest, BenchBaseConfigScalesBudget) {
  GcConfig Small = benchBaseConfig(16);
  GcConfig Big = benchBaseConfig(256);
  EXPECT_TRUE(Small.EnableProbes);
  EXPECT_GT(Big.EvacBudgetPages, Small.EvacBudgetPages);
  EXPECT_EQ(Small.Geometry.SmallPageSize, 256u * 1024);
}
