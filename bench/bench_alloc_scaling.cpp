//===- bench/bench_alloc_scaling.cpp - mutator allocation scaling --------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
// Multi-mutator allocation throughput sweep for the sharded allocation
// stack (INTERNALS §10). For each mutator count in --list, a fresh
// runtime is created and every mutator thread runs the same churn loop —
// mostly small objects with a retained ring plus an occasional
// medium-class object — and the aggregate allocation rate is reported
// together with the allocator-observability counters (TLAB refills,
// shard-lock acquisitions, cache hits/misses, fallback scans, medium
// refills). With lock striping the rate should grow with the mutator
// count instead of flatlining on a global allocator mutex; the counters
// say why when it does not (fallback scans and cross-shard takes climb
// when shards are starved).
//
// Flags: --ops=N          allocations per mutator      [default 400000]
//        --heap-mb=N      max heap                     [default 256]
//        --shards=N       allocator shards, 0 = auto   [default 0]
//        --list=a,b,c     mutator counts               [default 1,2,4,8]
//        --retain=N       live-ring slots per mutator  [default 512]
//        --out=PATH       write a JSON report          [default ""]
//        --min-single-mops=X  fail (exit 1) if the 1-mutator rate drops
//                             below X Mops/s; 0 disables [default 0]
//        --preset=short   CI smoke sizing (ops=60000, heap=128 MB)
//
//===----------------------------------------------------------------------===//

#include "runtime/Runtime.h"
#include "support/ArgParse.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

using namespace hcsgc;

namespace {

struct SweepPoint {
  unsigned Mutators = 0;
  double Seconds = 0;
  double Mops = 0;
  uint64_t TlabRefills = 0;
  uint64_t MediumRefills = 0;
  uint64_t ShardLocks = 0;
  uint64_t FallbackScans = 0;
  uint64_t CrossShardTakes = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t GcCycles = 0;
};

std::vector<unsigned> parseList(const std::string &S) {
  std::vector<unsigned> Out;
  size_t Pos = 0;
  while (Pos < S.size()) {
    size_t Comma = S.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = S.size();
    Out.push_back(
        static_cast<unsigned>(std::stoul(S.substr(Pos, Comma - Pos))));
    Pos = Comma + 1;
  }
  return Out;
}

/// One mutator's churn: small objects dominate (TLAB bump path), every
/// 64th allocation is a medium-class object (per-thread medium TLAB),
/// and a ring of --retain slots keeps a slice of the heap live so the
/// GC has real work when the trigger fires.
void churn(Mutator &M, ClassId SmallCls, ClassId MediumCls, uint64_t Ops,
           uint32_t RetainSlots) {
  Root Ring(M);
  M.allocateRefArray(Ring, RetainSlots);
  Root Tmp(M);
  for (uint64_t I = 0; I < Ops; ++I) {
    M.allocate(Tmp, (I & 63) == 0 ? MediumCls : SmallCls);
    if ((I & 7) == 0)
      M.storeElem(Ring, static_cast<uint32_t>(I % RetainSlots), Tmp);
  }
}

SweepPoint runPoint(unsigned Mutators, uint64_t OpsPerMutator,
                    size_t HeapMb, unsigned Shards, uint32_t RetainSlots) {
  GcConfig Cfg;
  Cfg.Geometry.SmallPageSize = 64 * 1024;
  Cfg.Geometry.MediumPageSize = 1024 * 1024;
  Cfg.MaxHeapBytes = HeapMb << 20;
  Cfg.AllocatorShards = Shards;
  Cfg.GcWorkers = 2;
  Runtime RT(Cfg);
  ClassId SmallCls = RT.registerClass("scale.Small", 1, 48);
  // 16 KiB payload: above smallObjectMax (8 KiB for 64 KiB pages).
  ClassId MediumCls = RT.registerClass("scale.Medium", 0, 16 * 1024);

  auto Start = std::chrono::steady_clock::now();
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < Mutators; ++T)
    Threads.emplace_back([&] {
      auto M = RT.attachMutator();
      churn(*M, SmallCls, MediumCls, OpsPerMutator, RetainSlots);
    });
  for (auto &T : Threads)
    T.join();
  auto End = std::chrono::steady_clock::now();

  SweepPoint P;
  P.Mutators = Mutators;
  P.Seconds = std::chrono::duration<double>(End - Start).count();
  P.Mops = double(Mutators) * double(OpsPerMutator) / P.Seconds / 1e6;
  MetricsRegistry &MR = RT.metrics();
  P.TlabRefills = MR.counterValue("alloc.tlab.refills");
  P.MediumRefills = MR.counterValue("alloc.tlab.medium_refills");
  P.ShardLocks = MR.counterValue("alloc.shard.lock_acquisitions");
  P.FallbackScans = MR.counterValue("alloc.shard.fallback_scans");
  P.CrossShardTakes = MR.counterValue("alloc.shard.cross_shard_takes");
  P.CacheHits = MR.counterValue("alloc.cache.page_hits");
  P.CacheMisses = MR.counterValue("alloc.cache.page_misses");
  P.GcCycles = RT.gcStats().cycleCount();
  return P;
}

bool writeJson(const std::string &Path, const std::vector<SweepPoint> &Pts,
               uint64_t OpsPerMutator, size_t HeapMb) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "{\n  \"bench\": \"alloc_scaling\",\n";
  Out << "  \"ops_per_mutator\": " << OpsPerMutator << ",\n";
  Out << "  \"cores\": " << std::thread::hardware_concurrency() << ",\n";
  Out << "  \"heap_mb\": " << HeapMb << ",\n  \"points\": [\n";
  for (size_t I = 0; I < Pts.size(); ++I) {
    const SweepPoint &P = Pts[I];
    Out << "    {\"mutators\": " << P.Mutators
        << ", \"seconds\": " << P.Seconds
        << ", \"throughput_mops\": " << P.Mops
        << ", \"gc_cycles\": " << P.GcCycles
        << ", \"tlab_refills\": " << P.TlabRefills
        << ", \"medium_refills\": " << P.MediumRefills
        << ", \"shard_lock_acquisitions\": " << P.ShardLocks
        << ", \"fallback_scans\": " << P.FallbackScans
        << ", \"cross_shard_takes\": " << P.CrossShardTakes
        << ", \"cache_page_hits\": " << P.CacheHits
        << ", \"cache_page_misses\": " << P.CacheMisses << "}"
        << (I + 1 < Pts.size() ? "," : "") << "\n";
  }
  Out << "  ]\n}\n";
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParse Args(Argc, Argv);

  uint64_t Ops = static_cast<uint64_t>(Args.getInt("ops", 400000));
  size_t HeapMb = static_cast<size_t>(Args.getInt("heap-mb", 256));
  unsigned Shards = static_cast<unsigned>(Args.getInt("shards", 0));
  uint32_t Retain = static_cast<uint32_t>(Args.getInt("retain", 512));
  std::string List = Args.getString("list", "1,2,4,8");
  std::string OutPath = Args.getString("out", "");
  double MinSingleMops = Args.getDouble("min-single-mops", 0.0);
  if (Args.getString("preset", "") == "short") {
    Ops = static_cast<uint64_t>(Args.getInt("ops", 60000));
    HeapMb = static_cast<size_t>(Args.getInt("heap-mb", 128));
  }
  Args.rejectUnknown();

  std::vector<unsigned> Counts = parseList(List);
  if (Counts.empty()) {
    std::fprintf(stderr, "bench_alloc_scaling: empty --list\n");
    return 2;
  }

  std::printf("alloc scaling: %" PRIu64 " ops/mutator, %zu MB heap, "
              "shards=%s\n\n",
              Ops, HeapMb, Shards ? std::to_string(Shards).c_str() : "auto");
  std::printf("%8s %9s %10s %8s %12s %10s %10s %9s\n", "mutators", "Mops/s",
              "refills", "medium", "shard-locks", "fallbacks", "cache-hit",
              "gc-cycles");

  std::vector<SweepPoint> Points;
  for (unsigned M : Counts) {
    SweepPoint P = runPoint(M, Ops, HeapMb, Shards, Retain);
    double HitRate =
        P.CacheHits + P.CacheMisses
            ? double(P.CacheHits) / double(P.CacheHits + P.CacheMisses)
            : 0.0;
    std::printf("%8u %9.2f %10" PRIu64 " %8" PRIu64 " %12" PRIu64
                " %10" PRIu64 " %9.1f%% %9" PRIu64 "\n",
                P.Mutators, P.Mops, P.TlabRefills, P.MediumRefills,
                P.ShardLocks, P.FallbackScans, HitRate * 100.0, P.GcCycles);
    Points.push_back(P);
  }

  if (!OutPath.empty()) {
    if (!writeJson(OutPath, Points, Ops, HeapMb)) {
      std::fprintf(stderr, "bench_alloc_scaling: cannot write %s\n",
                   OutPath.c_str());
      return 2;
    }
    std::printf("\nwrote %s\n", OutPath.c_str());
  }

  if (MinSingleMops > 0.0) {
    for (const SweepPoint &P : Points)
      if (P.Mutators == 1 && P.Mops < MinSingleMops) {
        std::fprintf(stderr,
                     "FAIL: single-mutator throughput %.2f Mops/s below "
                     "floor %.2f\n",
                     P.Mops, MinSingleMops);
        return 1;
      }
  }
  return 0;
}
