//===- heap/Forwarding.cpp - Per-page forwarding table ---------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "heap/Forwarding.h"

#include "support/Compiler.h"
#include "support/MathExtras.h"

#include <algorithm>
#include <cassert>

using namespace hcsgc;

ForwardingTable::ForwardingTable(uint32_t ExpectedEntries, size_t PageBytes,
                                 uintptr_t HeapBase, size_t HeapBytes)
    : HeapBase(HeapBase), HeapBytes(HeapBytes) {
  // Every granule index + 1 must fit the key field and every target
  // granule the target field; a geometry that does not fit would alias
  // entries, so refuse it outright.
  if (PageBytes / ObjectAlignment > KeyMask)
    fatalError("forwarding table: page too large for the key field");
  if (HeapBytes / ObjectAlignment > (uint64_t(1) << TargetBits))
    fatalError("forwarding table: heap mapping too large for the target "
               "field");
  // 2x the expected population keeps probe chains short; minimum 16.
  uint64_t Cap = nextPowerOf2(std::max<uint64_t>(ExpectedEntries, 8) * 2);
  Entries = std::vector<std::atomic<uint64_t>>(Cap);
  for (std::atomic<uint64_t> &E : Entries)
    E.store(0, std::memory_order_relaxed);
  Mask = Cap - 1;
}

static uint64_t hashOffset(uint32_t Offset) {
  uint64_t H = Offset;
  H *= 0x9e3779b97f4a7c15ull;
  return H >> 32;
}

uintptr_t ForwardingTable::insertOrGet(uint32_t Offset, uintptr_t NewAddr,
                                       bool &Won) {
  assert(Offset % ObjectAlignment == 0 && "misaligned source offset");
  assert(NewAddr >= HeapBase && NewAddr - HeapBase < HeapBytes &&
         NewAddr % ObjectAlignment == 0 && "target outside the heap");
  uint64_t Key = Offset / ObjectAlignment + 1;
  uint64_t Entry =
      Key | (static_cast<uint64_t>(NewAddr - HeapBase) / ObjectAlignment)
                << KeyBits;
  uint64_t Idx = hashOffset(Offset) & Mask;
  for (uint64_t Probes = 0; Probes <= Mask; ++Probes) {
    uint64_t Cur = Entries[Idx].load(std::memory_order_acquire);
    // The CAS publishes key and target together: the linearization
    // point. Release orders the caller's copy before it.
    if (Cur == 0 &&
        Entries[Idx].compare_exchange_strong(Cur, Entry,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
      Count.fetch_add(1, std::memory_order_relaxed);
      Won = true;
      return NewAddr;
    }
    if ((Cur & KeyMask) == Key) {
      Won = false;
      return targetOf(Cur);
    }
    Idx = (Idx + 1) & Mask;
  }
  fatalError("forwarding table overflow");
}

uintptr_t ForwardingTable::lookup(uint32_t Offset) const {
  uint64_t Key = Offset / ObjectAlignment + 1;
  uint64_t Idx = hashOffset(Offset) & Mask;
  for (uint64_t Probes = 0; Probes <= Mask; ++Probes) {
    uint64_t Cur = Entries[Idx].load(std::memory_order_acquire);
    if (Cur == 0)
      return 0;
    if ((Cur & KeyMask) == Key)
      return targetOf(Cur);
    Idx = (Idx + 1) & Mask;
  }
  return 0;
}
