//===- harness/Runner.h - Experiment runner --------------------*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one paper experiment: for each selected Table 2 configuration,
/// performs N runs of a workload in a fresh Runtime with probes enabled,
/// collecting the three aspects §4.2 reports — execution time (simulated
/// primary, wall-clock secondary), cache statistics (loads, L1 misses,
/// LLC misses over mutator + GC threads, like whole-process perf), and
/// GC statistics (cycles per run, median small pages in EC per cycle,
/// heap usage over time for Config 0).
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_HARNESS_RUNNER_H
#define HCSGC_HARNESS_RUNNER_H

#include "harness/Config.h"
#include "runtime/Runtime.h"

#include <functional>
#include <string>
#include <vector>

namespace hcsgc {

/// How modeled execution time combines thread clocks.
enum class CoreModel {
  /// Idle cores absorb GC work: time = mutator cycles (the paper's
  /// unloaded-machine scenario).
  Unloaded,
  /// Everything shares one core (taskset in §4.4's overload experiment):
  /// time = mutator + GC-thread cycles.
  SingleCore,
};

/// One run's measurements.
struct RunMeasurement {
  double ExecSeconds = 0; ///< Simulated (cycles / 3 GHz) per CoreModel.
  double WallSeconds = 0;
  uint64_t Loads = 0;
  uint64_t L1Misses = 0;
  uint64_t LlcMisses = 0;
  uint64_t GcCycles = 0;
  double MedianSmallPagesInEc = 0;
  /// STW pause statistics across the run's cycles (all three pauses).
  double AvgPauseMs = 0, MaxPauseMs = 0;
  /// Percentiles from the collector's gc.pause_us histogram (bucket-
  /// interpolated, clamped to observed min/max).
  double PauseP50Ms = 0, PauseP99Ms = 0;
  /// Percentiles of mutator allocation-stall waits (alloc.stall_us); 0
  /// when the run never stalled.
  double StallP50Ms = 0, StallP99Ms = 0;
  /// Marked hot bytes / marked live bytes over the whole run (0 when
  /// HOTNESS is off or nothing was marked).
  double HotBytesRatio = 0;
  /// Relocated bytes attributed to the acting thread kind.
  uint64_t RelocBytesMutator = 0, RelocBytesGc = 0;
  uint64_t Checksum = 0;
  /// Workload-specific scores (SPECjbb throughput/latency, KV
  /// throughput/p50/p99), rendered by printScoreReport.
  double Aux1 = 0, Aux2 = 0, Aux3 = 0;
};

/// Aggregated per-configuration results.
struct ConfigResult {
  KnobConfig Knobs;
  std::vector<RunMeasurement> Runs;
};

/// Heap-usage sample (seconds since run start, used fraction 0-1).
struct HeapSample {
  double Seconds = 0;
  double UsedFraction = 0;
};

/// A full experiment definition.
struct ExperimentSpec {
  std::string Name;        ///< e.g. "Fig 4: synthetic single-phase".
  unsigned Runs = 5;       ///< Runs per configuration.
  std::vector<int> Configs = {}; ///< Table 2 ids; empty = all 19.
  GcConfig BaseConfig;     ///< Heap geometry, sizes, workers, probes.
  CoreModel Model = CoreModel::Unloaded;
  /// When non-empty, every run streams heap snapshots (the locality
  /// observatory) to "<base>.cfg<K>.run<R>.jsonl" for tools/heapscope.
  /// Set by the --snapshot-log=<base> common flag.
  std::string SnapshotLogBase;
  /// The workload body: runs on an attached mutator, returns a checksum.
  /// Aux scores may be written through the measurement pointer.
  std::function<uint64_t(Mutator &, RunMeasurement &)> Body;
};

/// Results of a whole experiment.
struct ExperimentResult {
  ExperimentSpec Spec;
  std::vector<ConfigResult> Configs;
  std::vector<HeapSample> BaselineHeapSeries; ///< Config 0, first run.
};

/// Executes the experiment.
ExperimentResult runExperiment(const ExperimentSpec &Spec);

/// Standard base config for benches: probes on, scaled pages (256 KiB
/// small pages so scaled-down heaps keep realistic page counts), one GC
/// worker.
GcConfig benchBaseConfig(size_t MaxHeapMb);

/// Parses the common bench flags (--runs, --configs=0,1,2, --heap-mb,
/// --workers, --trigger, --hysteresis, --snapshot-log=<base>) into
/// \p Spec. --heap-mb changes only the heap size and the evacuation
/// budget benchBaseConfig derives from it. --list-configs prints the
/// id/label table of every known configuration (0-19, 21) and exits, so
/// any bench doubles as the catalog.
class ArgParse;
void applyCommonFlags(const ArgParse &Args, ExperimentSpec &Spec);

} // namespace hcsgc

#endif // HCSGC_HARNESS_RUNNER_H
