//===- simcache/Hierarchy.h - Three-level cache hierarchy ------*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A three-level (L1d/L2/LLC) cache hierarchy with a stream prefetcher and
/// a simple cycle model. One instance per thread (no locking); the harness
/// aggregates counters across threads, mirroring how the paper's `perf`
/// counters cover the whole process. Default geometry matches the paper's
/// Intel i7-4600U evaluation machine: 32 KiB L1, 256 KiB L2, 4 MiB L3,
/// 64-byte lines.
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_SIMCACHE_HIERARCHY_H
#define HCSGC_SIMCACHE_HIERARCHY_H

#include "simcache/Cache.h"
#include "simcache/Prefetcher.h"
#include "simcache/Probe.h"

#include <cstdint>

namespace hcsgc {

/// Geometry and latency parameters for the simulated hierarchy.
struct CacheConfig {
  uint32_t LineSize = 64; ///< Power of two.
  uint32_t L1Size = 32 * 1024, L1Ways = 8;
  uint32_t L2Size = 256 * 1024, L2Ways = 8;
  uint32_t L3Size = 4 * 1024 * 1024, L3Ways = 16;
  /// Access latencies in cycles (L1 hit, L2 hit, LLC hit, memory). The
  /// ~10x L1-to-LLC ratio the paper reasons with in §4.4 holds.
  uint32_t L1Lat = 4, L2Lat = 12, L3Lat = 40, MemLat = 200;
  uint32_t PrefetchDegree = 4;
  uint32_t StreamTableSize = 16; ///< At most StreamPrefetcher::MaxStreams.
  bool PrefetchEnabled = true;
};

/// Aggregatable event counters. Field names follow the perf events the
/// paper collects (§4.2): L1-dcache-loads, L1-dcache-load-misses,
/// LLC-load-misses.
struct CacheCounters {
  uint64_t Loads = 0;
  uint64_t Stores = 0;
  uint64_t L1Misses = 0;
  uint64_t L2Misses = 0;
  uint64_t LlcMisses = 0;
  uint64_t PrefetchesIssued = 0;
  uint64_t Cycles = 0; ///< Simulated cycles, memory + modeled compute.

  CacheCounters &operator+=(const CacheCounters &O) {
    Loads += O.Loads;
    Stores += O.Stores;
    L1Misses += O.L1Misses;
    L2Misses += O.L2Misses;
    LlcMisses += O.LlcMisses;
    PrefetchesIssued += O.PrefetchesIssued;
    Cycles += O.Cycles;
    return *this;
  }
};

/// Per-thread cache hierarchy implementing the MemoryProbe interface.
class CacheHierarchy : public MemoryProbe {
public:
  explicit CacheHierarchy(const CacheConfig &Cfg = CacheConfig());

  void onLoad(uintptr_t Addr, uint32_t Bytes) override;
  void onStore(uintptr_t Addr, uint32_t Bytes) override;
  void onCompute(uint64_t N) override { Counters.Cycles += N; }
  /// Batched replay: one virtual dispatch per ProbeBatch flush, then a
  /// direct (non-virtual) simulation loop. Event order is preserved, so
  /// counters match the per-access path exactly.
  void onBatch(const ProbeEvent *Events, size_t N) override;

  /// \returns the accumulated counters.
  const CacheCounters &counters() const { return Counters; }

  /// Resets counters (cache contents are kept).
  void resetCounters() { Counters = CacheCounters(); }

  /// Drops cache contents and stream state.
  void flush();

  const CacheConfig &config() const { return Cfg; }

private:
  void accessLines(uintptr_t Addr, uint32_t Bytes, bool IsStore);
  void demandAccess(uint64_t Line);
  void prefetchFill(uint64_t Line);

  CacheConfig Cfg;
  uint32_t LineShift; ///< log2(Cfg.LineSize)
  SetAssocCache L1, L2, L3;
  StreamPrefetcher Pf;
  CacheCounters Counters;
};

} // namespace hcsgc

#endif // HCSGC_SIMCACHE_HIERARCHY_H
