//===- gc/GcStats.h - Per-cycle collector statistics -----------*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The GC statistics §4.2 of the paper reports: number of cycles per run
/// and the number of small pages in EC per cycle (from which the harness
/// computes the "average of median small pages relocated per run"), plus
/// relocation attribution (mutator vs GC threads) used by the tests and
/// the ablation benchmarks. The record itself (CycleRecord) is plain data
/// in observe/HeapSnapshot.h, so a cycle's snapshot line can carry it;
/// this is its store.
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_GC_GCSTATS_H
#define HCSGC_GC_GCSTATS_H

#include "observe/HeapSnapshot.h"

#include <cstdint>
#include <mutex>
#include <vector>

namespace hcsgc {

/// Thread-safe accumulator of per-cycle records.
class GcStats {
public:
  void addCycle(const CycleRecord &R) {
    std::lock_guard<std::mutex> G(Lock);
    Cycles.push_back(R);
  }

  /// \returns a copy of all completed-cycle records. Prefer forEachCycle
  /// when a pass over the records suffices; snapshot copies the whole
  /// history on every call.
  std::vector<CycleRecord> snapshot() const {
    std::lock_guard<std::mutex> G(Lock);
    return Cycles;
  }

  /// Visits every completed-cycle record in order under the lock,
  /// without copying the history. \p Fn must not call back into this
  /// GcStats.
  template <typename FnT> void forEachCycle(FnT &&Fn) const {
    std::lock_guard<std::mutex> G(Lock);
    for (const CycleRecord &R : Cycles)
      Fn(R);
  }

  uint64_t cycleCount() const {
    std::lock_guard<std::mutex> G(Lock);
    return Cycles.size();
  }

private:
  mutable std::mutex Lock;
  std::vector<CycleRecord> Cycles;
};

} // namespace hcsgc

#endif // HCSGC_GC_GCSTATS_H
