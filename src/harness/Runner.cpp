//===- harness/Runner.cpp - Experiment runner ---------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "harness/Runner.h"

#include "stats/Descriptive.h"
#include "support/ArgParse.h"
#include "support/Stopwatch.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>

using namespace hcsgc;

/// Nominal clock frequency converting simulated cycles to seconds.
static constexpr double SimHz = 3.0e9;

GcConfig hcsgc::benchBaseConfig(size_t MaxHeapMb) {
  GcConfig Cfg;
  // Pages scale down with the scaled heaps so the page-count dynamics
  // (how many pages exist, how many are selected into EC) stay
  // comparable to the paper's 2 MiB pages on multi-GiB heaps.
  Cfg.Geometry.SmallPageSize = 256 * 1024;
  Cfg.Geometry.MediumPageSize = 4 * 1024 * 1024;
  Cfg.MaxHeapBytes = MaxHeapMb << 20;
  double HeapPages = static_cast<double>(Cfg.MaxHeapBytes) /
                     static_cast<double>(Cfg.Geometry.SmallPageSize);
  // Keep per-cycle evacuation volume proportional to the heap, as ZGC's
  // production heuristics do; the paper's single-page budget is tuned
  // for 2 MiB pages.
  Cfg.EvacBudgetPages = std::max(2.0, HeapPages / 8.0);
  // A generous inter-cycle allocation window: LAZYRELOCATE's benefit
  // comes from what mutators touch between two cycles (§3.2).
  Cfg.TriggerHysteresisFraction = 0.20;
  Cfg.GcWorkers = 1;
  Cfg.EnableProbes = true;
  return Cfg;
}

ExperimentResult hcsgc::runExperiment(const ExperimentSpec &Spec) {
  ExperimentResult Result;
  Result.Spec = Spec;

  std::vector<int> Ids = Spec.Configs;
  if (Ids.empty())
    for (int I = 0; I <= 18; ++I)
      Ids.push_back(I);

  for (int Id : Ids) {
    ConfigResult CR;
    CR.Knobs = table2Config(Id);
    for (unsigned Run = 0; Run < Spec.Runs; ++Run) {
      GcConfig Cfg = applyKnobs(Spec.BaseConfig, CR.Knobs);
      if (!Spec.SnapshotLogBase.empty()) {
        Cfg.SnapshotLogEnabled = true;
        Cfg.SnapshotLogPath = Spec.SnapshotLogBase + ".cfg" +
                              std::to_string(Id) + ".run" +
                              std::to_string(Run) + ".jsonl";
      }
      Runtime RT(Cfg);
      auto M = RT.attachMutator();
      RunMeasurement Meas;

      // Heap-usage sampler for the baseline's first run (the rightmost
      // plot of each paper figure).
      std::atomic<bool> StopSampler{false};
      std::vector<HeapSample> Series;
      std::thread Sampler;
      bool Sampling = Id == 0 && Run == 0;
      if (Sampling) {
        // At least one sample even when the body finishes before this
        // thread is first scheduled.
        Sampler = std::thread([&] {
          Stopwatch SW;
          do {
            Series.push_back(
                {SW.elapsedMs() / 1000.0,
                 static_cast<double>(RT.usedBytes()) /
                     static_cast<double>(RT.maxHeapBytes())});
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          } while (!StopSampler.load(std::memory_order_relaxed));
        });
      }

      Stopwatch Wall;
      Meas.Checksum = Spec.Body(*M, Meas);
      Meas.WallSeconds = Wall.elapsedMs() / 1000.0;
      // Detach before waiting for the driver: an attached mutator that
      // stops polling would deadlock the next STW pause.
      M.reset();
      RT.driver().waitIdle();
      // Shut the driver down before reading statistics: under
      // LAZYRELOCATE the final cycle's record is only published once its
      // deferred relocation set drains (which shutdown forces).
      RT.driver().shutdown();

      if (Sampling) {
        StopSampler.store(true, std::memory_order_relaxed);
        Sampler.join();
        Result.BaselineHeapSeries = std::move(Series);
      }

      CacheCounters Mut = RT.mutatorCounters();
      CacheCounters Gc = RT.gcThreadCounters();
      Meas.Loads = Mut.Loads + Gc.Loads;
      Meas.L1Misses = Mut.L1Misses + Gc.L1Misses;
      Meas.LlcMisses = Mut.LlcMisses + Gc.LlcMisses;
      double Cycles = static_cast<double>(Mut.Cycles);
      if (Spec.Model == CoreModel::SingleCore)
        Cycles += static_cast<double>(Gc.Cycles);
      Meas.ExecSeconds = Cycles / SimHz;

      // Single pass over the cycle records (no snapshot copy).
      std::vector<double> EcCounts;
      double PauseSum = 0;
      size_t Pauses = 0;
      uint64_t LiveBytes = 0, HotBytes = 0;
      RT.gcStats().forEachCycle([&](const CycleRecord &R) {
        EcCounts.push_back(static_cast<double>(R.SmallPagesInEc));
        for (double P : {R.Stw1Ms, R.Stw2Ms, R.Stw3Ms}) {
          PauseSum += P;
          ++Pauses;
          Meas.MaxPauseMs = std::max(Meas.MaxPauseMs, P);
        }
        LiveBytes += R.LiveBytesMarked;
        HotBytes += R.HotBytesMarked;
        Meas.RelocBytesMutator += R.BytesRelocatedByMutators;
        Meas.RelocBytesGc += R.BytesRelocatedByGc;
      });
      Meas.GcCycles = EcCounts.size();
      if (!EcCounts.empty()) {
        Meas.MedianSmallPagesInEc = median(EcCounts);
        Meas.AvgPauseMs = Pauses ? PauseSum / static_cast<double>(Pauses)
                                 : 0;
      }
      if (LiveBytes > 0)
        Meas.HotBytesRatio = static_cast<double>(HotBytes) /
                             static_cast<double>(LiveBytes);
      if (const Histogram *H = RT.metrics().findHistogram("gc.pause_us")) {
        Meas.PauseP50Ms = static_cast<double>(H->percentile(0.5)) / 1000.0;
        Meas.PauseP99Ms =
            static_cast<double>(H->percentile(0.99)) / 1000.0;
      }
      if (const Histogram *H =
              RT.metrics().findHistogram("alloc.stall_us")) {
        if (H->count() > 0) {
          Meas.StallP50Ms =
              static_cast<double>(H->percentile(0.5)) / 1000.0;
          Meas.StallP99Ms =
              static_cast<double>(H->percentile(0.99)) / 1000.0;
        }
      }

      CR.Runs.push_back(Meas);
    }
    Result.Configs.push_back(std::move(CR));
  }
  return Result;
}

void hcsgc::applyCommonFlags(const ArgParse &Args, ExperimentSpec &Spec) {
  if (Args.getBool("list-configs", false)) {
    // Every bench shares this flag, so the config catalog is always one
    // `<bench> --list-configs` away. 0-18 are Table 2; 19 and 21 are the
    // temperature / site-profiling extensions.
    std::printf("%-4s %s\n", "id", "config");
    for (int Id = 0; Id <= MaxConfigId; ++Id)
      if (isConfigId(Id))
        std::printf("%-4d %s\n", Id,
                    describeConfig(table2Config(Id)).c_str());
    std::exit(0);
  }
  Spec.Runs = static_cast<unsigned>(Args.getInt("runs", Spec.Runs));
  std::string Configs = Args.getString("configs", "");
  if (!Configs.empty()) {
    Spec.Configs.clear();
    std::stringstream SS(Configs);
    std::string Tok;
    while (std::getline(SS, Tok, ',')) {
      if (Tok.empty())
        continue;
      int64_t Id = ArgParse::parseInt("configs", Tok);
      if (!isConfigId(Id)) {
        std::fprintf(stderr,
                     "invalid value for --configs: %s (ids are 0-19 and "
                     "21, see --list-configs)\n",
                     Tok.c_str());
        std::exit(2);
      }
      Spec.Configs.push_back(static_cast<int>(Id));
    }
  }
  int64_t HeapMb = Args.getInt("heap-mb", 0);
  if (HeapMb > 0) {
    // Only what benchBaseConfig derives from the heap size changes; the
    // bench's own trigger, caches and workers stay as it set them.
    GcConfig Sized = benchBaseConfig(static_cast<size_t>(HeapMb));
    Spec.BaseConfig.MaxHeapBytes = Sized.MaxHeapBytes;
    Spec.BaseConfig.EvacBudgetPages = Sized.EvacBudgetPages;
  }
  Spec.BaseConfig.GcWorkers = static_cast<unsigned>(
      Args.getInt("workers", Spec.BaseConfig.GcWorkers));
  Spec.BaseConfig.TriggerFraction = Args.getDouble(
      "trigger", Spec.BaseConfig.TriggerFraction);
  Spec.BaseConfig.TriggerHysteresisFraction = Args.getDouble(
      "hysteresis", Spec.BaseConfig.TriggerHysteresisFraction);
  Spec.SnapshotLogBase =
      Args.getString("snapshot-log", Spec.SnapshotLogBase);
}
