//===- heap/Forwarding.h - Per-page forwarding table -----------*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-page forwarding table mapping offsets of relocated objects to their
/// new addresses. §2.2 of the paper: "A per-page forwarding table is used
/// to record a map from old addresses to new ... The linearization point
/// is a CAS operation when inserting the corresponding entry into the
/// forwarding table. Whoever succeeds in the CAS will use its local value
/// ... while others will discard their local value."
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_HEAP_FORWARDING_H
#define HCSGC_HEAP_FORWARDING_H

#include "heap/ObjectModel.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hcsgc {

/// Lock-free open-addressed hash table from page offset to new object
/// address. Sized once (from the marking liveness count) before any
/// insertion; never grows.
///
/// Each entry is one 64-bit word, installed by one CAS (INTERNALS §3):
///   bits [0, KeyBits)   source granule index + 1 (0 = empty slot),
///   bits [KeyBits, 64)  target granule offset from the heap base.
/// A reader that sees the key sees the target in the same load, so no
/// reader ever waits for a value to be published.
class ForwardingTable {
public:
  /// Width of the key field: pages of up to 2^KeyBits - 1 granules.
  static constexpr unsigned KeyBits = 24;
  /// Width of the target field: a heap mapping of up to 2^TargetBits
  /// granules.
  static constexpr unsigned TargetBits = 64 - KeyBits;

  /// \param ExpectedEntries upper bound on the number of live objects that
  /// will be forwarded through this table.
  /// \param PageBytes size of the source page (bounds the key field).
  /// \param HeapBase, HeapBytes the heap mapping every target lies in
  /// (bounds the target field). Dies if either does not fit its field.
  ForwardingTable(uint32_t ExpectedEntries, size_t PageBytes,
                  uintptr_t HeapBase, size_t HeapBytes);

  /// Attempts to publish \p NewAddr as the relocation target for the
  /// object at \p Offset. The CAS here is the linearization point of
  /// relocation.
  ///
  /// \returns the winning address: \p NewAddr if this call won the race,
  /// or the previously-published address if another thread won.
  /// \param [out] Won set to true iff this call's CAS succeeded.
  uintptr_t insertOrGet(uint32_t Offset, uintptr_t NewAddr, bool &Won);

  /// \returns the published address for \p Offset, or 0 if the object has
  /// not (yet) been forwarded.
  uintptr_t lookup(uint32_t Offset) const;

  /// \returns the number of published entries (approximate while racing).
  uint32_t size() const {
    return Count.load(std::memory_order_relaxed);
  }

  uint32_t capacity() const {
    return static_cast<uint32_t>(Entries.size());
  }

private:
  uintptr_t targetOf(uint64_t Entry) const {
    return HeapBase + (Entry >> KeyBits) * ObjectAlignment;
  }

  static constexpr uint64_t KeyMask = (uint64_t(1) << KeyBits) - 1;

  std::vector<std::atomic<uint64_t>> Entries;
  std::atomic<uint32_t> Count{0};
  uint64_t Mask;
  uintptr_t HeapBase;
  size_t HeapBytes;
};

} // namespace hcsgc

#endif // HCSGC_HEAP_FORWARDING_H
