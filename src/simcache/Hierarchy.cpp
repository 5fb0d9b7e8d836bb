//===- simcache/Hierarchy.cpp - Three-level cache hierarchy ----------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "simcache/Hierarchy.h"

using namespace hcsgc;

MemoryProbe::~MemoryProbe() = default;

void MemoryProbe::onBatch(const ProbeEvent *Events, size_t N) {
  // Generic fallback: per-event dispatch, for probe implementations that
  // predate batching (tests, tracing shims). Hierarchies override this.
  for (size_t I = 0; I < N; ++I) {
    if (Events[I].IsStore)
      onStore(Events[I].Addr, Events[I].Bytes);
    else
      onLoad(Events[I].Addr, Events[I].Bytes);
  }
}

static uint32_t setsFor(uint32_t SizeBytes, uint32_t Ways) {
  uint32_t Sets = SizeBytes / (Ways * CacheHierarchy::LineSize);
  return Sets ? Sets : 1;
}

CacheHierarchy::CacheHierarchy(const CacheConfig &C)
    : Cfg(C), L1(setsFor(C.L1Size, L1Ways), L1Ways),
      L2(setsFor(C.L2Size, L2Ways), L2Ways),
      L3(setsFor(C.L3Size, L3Ways), L3Ways), Pf(StreamTableSize) {}

void CacheHierarchy::flush() {
  L1.clear();
  L2.clear();
  L3.clear();
  Pf.reset();
}

void CacheHierarchy::prefetchFill(uint64_t Line) {
  // Prefetches fill all three levels "for free": the model assumes enough
  // memory parallelism to overlap prefetch latency with execution, which
  // is what makes access-order layouts a win in the paper.
  L1.fill(Line);
  L2.fill(Line);
  L3.fill(Line);
  ++Counters.PrefetchesIssued;
}

void CacheHierarchy::demandAccess(uint64_t Line) {
  if (L1.access(Line)) {
    Counters.Cycles += L1Lat;
  } else {
    ++Counters.L1Misses;
    if (L2.access(Line)) {
      Counters.Cycles += L2Lat;
    } else {
      ++Counters.L2Misses;
      if (L3.access(Line)) {
        Counters.Cycles += L3Lat;
      } else {
        ++Counters.LlcMisses;
        Counters.Cycles += MemLat;
      }
    }
  }

  if (Cfg.PrefetchEnabled) {
    if (int Stride = Pf.observe(Line)) {
      uint64_t T = Line;
      for (uint32_t I = 0; I < PrefetchDegree; ++I) {
        T += static_cast<uint64_t>(Stride); // wraps for Stride = -1
        if (!L1.contains(T))
          prefetchFill(T);
      }
    }
  }
}

void CacheHierarchy::accessLines(uintptr_t Addr, uint32_t Bytes,
                                 bool IsStore) {
  if (IsStore)
    ++Counters.Stores;
  else
    ++Counters.Loads;
  uint64_t First = Addr >> LineShift;
  uint64_t Last = (Addr + (Bytes ? Bytes - 1 : 0)) >> LineShift;
  for (uint64_t Line = First; Line <= Last; ++Line)
    demandAccess(Line);
}

void CacheHierarchy::onLoad(uintptr_t Addr, uint32_t Bytes) {
  accessLines(Addr, Bytes, /*IsStore=*/false);
}

void CacheHierarchy::onStore(uintptr_t Addr, uint32_t Bytes) {
  accessLines(Addr, Bytes, /*IsStore=*/true);
}

void CacheHierarchy::onBatch(const ProbeEvent *Events, size_t N) {
  for (size_t I = 0; I < N; ++I)
    accessLines(Events[I].Addr, Events[I].Bytes, Events[I].IsStore != 0);
}
