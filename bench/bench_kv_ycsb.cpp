//===- bench/bench_kv_ycsb.cpp - YCSB-style KV-store family -------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
// The "million users" scenario (ROADMAP): a managed KV store whose hot
// working set is buried among cold records, driven with YCSB-style
// mixes. Sweeps the Table 2 configurations like every other family and
// reports throughput (kops/s) plus p99/p50 op latency (us) alongside
// the standard locality/GC tables. Joins --snapshot-log so
// tools/heapscope can audit the EC decisions and show the hot set
// compacting.
//
// Flags (plus the common --runs/--configs/--heap-mb/--workers/
// --snapshot-log/... set):
//   --records=N       base keys loaded up front        [default 100000]
//   --churn=N         churn keyspace (insert/delete)   [default records/8]
//   --ops=N           mixed ops across all threads     [default 500000]
//   --threads=N       mutator worker threads           [default 4]
//   --dist=zipf|hotspot|uniform                        [default zipf]
//   --theta=X         Zipf skew                        [default 0.99]
//   --hot-keys=X      hotspot: hot key fraction        [default 0.2]
//   --hot-ops=X       hotspot: hot op fraction         [default 0.8]
//   --read-pct=N      read share of the mix            [default 95]
//   --update-pct=N    update share (rest is churn)     [default 5]
//   --value-words=N   payload words per record         [default 8]
//   --shards=N        index shards                     [default 16]
//   --compute=N       simulated cycles per op          [default 64]
//   --seed=N          workload seed                    [default 0x5EED]
//   --out=PATH        machine-readable JSON report     [default ""]
//
//===----------------------------------------------------------------------===//

#include "harness/Report.h"
#include "support/ArgParse.h"
#include "workloads/KvWorkload.h"

#include <cstdio>
#include <fstream>
#include <mutex>
#include <vector>

using namespace hcsgc;

namespace {

/// One Body invocation's scores, kept for the JSON report (the harness
/// measurement only carries the Aux slots).
struct KvRunRecord {
  int ConfigId = 0;
  KvWorkloadResult R;
  /// Largest per-cycle census sum of page side tables so far.
  uint64_t SideTableBytesMax = 0;
};

bool writeJson(const std::string &Path, const KvWorkloadParams &P,
               const std::vector<KvRunRecord> &Runs) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "{\n  \"bench\": \"kv_ycsb\",\n";
  Out << "  \"records\": " << P.Records << ",\n";
  Out << "  \"churn_keys\": " << P.ChurnKeys << ",\n";
  Out << "  \"ops\": " << P.Ops << ",\n";
  Out << "  \"threads\": " << P.Threads << ",\n";
  Out << "  \"dist\": \""
      << (P.D == KvKeySpace::Dist::Zipf
              ? "zipf"
              : P.D == KvKeySpace::Dist::Hotspot ? "hotspot" : "uniform")
      << "\",\n";
  Out << "  \"theta\": " << P.Theta << ",\n";
  Out << "  \"read_pct\": " << P.ReadPct << ",\n";
  Out << "  \"update_pct\": " << P.UpdatePct << ",\n  \"runs\": [\n";
  for (size_t I = 0; I < Runs.size(); ++I) {
    const KvRunRecord &RR = Runs[I];
    Out << "    {\"config\": " << RR.ConfigId
        << ", \"throughput_kops\": " << RR.R.ThroughputKops
        << ", \"p50_us\": " << RR.R.OpP50Ns / 1000.0
        << ", \"p99_us\": " << RR.R.OpP99Ns / 1000.0
        << ", \"ops\": " << RR.R.OpsDone
        << ", \"read_misses\": " << RR.R.ReadMisses
        << ", \"consistency_failures\": " << RR.R.ConsistencyFailures
        << ", \"heap_exhausted\": " << RR.R.HeapExhausted
        << ", \"live_records\": " << RR.R.LiveRecords
        << ", \"side_table_bytes_max\": " << RR.SideTableBytesMax
        << ", \"checksum\": " << RR.R.Checksum << "}"
        << (I + 1 < Runs.size() ? "," : "") << "\n";
  }
  Out << "  ]\n}\n";
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParse Args(Argc, Argv);

  ExperimentSpec Spec;
  Spec.Name = "KV: YCSB-style managed key-value store";
  Spec.Runs = 3;
  Spec.BaseConfig = benchBaseConfig(256);
  applyCommonFlags(Args, Spec);

  KvWorkloadParams P;
  P.Records = static_cast<size_t>(Args.getInt("records", 100 * 1000));
  P.ChurnKeys = static_cast<size_t>(
      Args.getInt("churn", static_cast<int64_t>(P.Records / 8)));
  P.Ops = static_cast<uint64_t>(Args.getInt("ops", 500 * 1000));
  P.Threads = static_cast<unsigned>(Args.getInt("threads", 4));
  std::string Dist = Args.getString("dist", "zipf");
  if (Dist == "hotspot")
    P.D = KvKeySpace::Dist::Hotspot;
  else if (Dist == "uniform")
    P.D = KvKeySpace::Dist::Uniform;
  else if (Dist == "zipf")
    P.D = KvKeySpace::Dist::Zipf;
  else {
    std::fprintf(stderr, "bench_kv_ycsb: unknown --dist=%s\n",
                 Dist.c_str());
    return 2;
  }
  P.Theta = Args.getDouble("theta", 0.99);
  P.HotKeyFraction = Args.getDouble("hot-keys", 0.2);
  P.HotOpFraction = Args.getDouble("hot-ops", 0.8);
  P.ReadPct = static_cast<unsigned>(Args.getInt("read-pct", 95));
  P.UpdatePct = static_cast<unsigned>(Args.getInt("update-pct", 5));
  P.ValueWords = static_cast<unsigned>(Args.getInt("value-words", 8));
  P.Shards = static_cast<unsigned>(Args.getInt("shards", 16));
  P.ComputeCyclesPerOp =
      static_cast<uint64_t>(Args.getInt("compute", 64));
  P.Seed = static_cast<uint64_t>(Args.getInt("seed", 0x5EED));
  std::string OutPath = Args.getString("out", "");
  Args.rejectUnknown();
  if (P.ReadPct + P.UpdatePct > 100) {
    std::fprintf(stderr,
                 "bench_kv_ycsb: --read-pct + --update-pct > 100\n");
    return 2;
  }

  std::vector<KvRunRecord> RunLog;
  std::mutex RunLogMu;
  // The runner executes Body once per (config, run); configs currently
  // run sequentially, but guard the shared log anyway.
  Spec.Body = [&](Mutator &M, RunMeasurement &Meas) {
    KvWorkloadResult R = runKvWorkload(M, P);
    Meas.Aux1 = R.ThroughputKops;
    Meas.Aux2 = R.OpP99Ns / 1000.0; // us
    Meas.Aux3 = R.OpP50Ns / 1000.0; // us
    {
      std::lock_guard<std::mutex> G(RunLogMu);
      KvRunRecord RR;
      RR.R = R;
      RR.SideTableBytesMax =
          M.runtime().metrics().findHistogram("heap.side_table_bytes")->max();
      RunLog.push_back(RR);
    }
    if (R.ConsistencyFailures || R.ReadMisses)
      std::fprintf(stderr,
                   "bench_kv_ycsb: CONSISTENCY VIOLATION "
                   "(failures=%llu misses=%llu)\n",
                   (unsigned long long)R.ConsistencyFailures,
                   (unsigned long long)R.ReadMisses);
    return R.Checksum;
  };

  ExperimentResult R = runExperiment(Spec);
  // Backfill config ids (runs execute in config-major order).
  {
    size_t I = 0;
    for (const ConfigResult &CR : R.Configs)
      for (size_t K = 0; K < CR.Runs.size() && I < RunLog.size(); ++K)
        RunLog[I++].ConfigId = CR.Knobs.Id;
  }
  printReport(R);
  printScoreReport(R, "kops/s", "p99(us)", "p50(us)");
  std::printf("\n-- Page side tables (heap.side_table_bytes max) --\n");
  for (const KvRunRecord &RR : RunLog)
    std::printf("cfg %d: %.2f MB\n", RR.ConfigId,
                static_cast<double>(RR.SideTableBytesMax) / (1 << 20));

  uint64_t Violations = 0;
  bool LoadExhausted = false;
  for (const KvRunRecord &RR : RunLog) {
    Violations += RR.R.ConsistencyFailures + RR.R.ReadMisses;
    LoadExhausted |= RR.R.LoadExhausted;
  }

  if (!OutPath.empty()) {
    if (!writeJson(OutPath, P, RunLog)) {
      std::fprintf(stderr, "bench_kv_ycsb: cannot write %s\n",
                   OutPath.c_str());
      return 2;
    }
    std::printf("\nwrote %s\n", OutPath.c_str());
  }
  if (LoadExhausted) {
    std::fprintf(stderr, "bench_kv_ycsb: heap exhausted during load "
                         "(raise --heap-mb or lower --records)\n");
    return 1;
  }
  if (Violations) {
    std::fprintf(stderr, "bench_kv_ycsb: FAILED with %llu violations\n",
                 (unsigned long long)Violations);
    return 1;
  }
  return 0;
}
