//===- simcache/Cache.h - Set-associative cache model ----------*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A single level of set-associative cache with true-LRU replacement,
/// operating on line addresses. Used as the building block of the
/// three-level hierarchy in Hierarchy.h.
///
/// Each set stores its resident line numbers in recency order, most
/// recently used first, 8 bytes per way; empty ways hold EmptyLine and
/// stay at the tail. A hit at way k shifts ways 0..k-1 down by one and
/// puts the line at way 0; a miss shifts the whole set down (dropping the
/// LRU line, or an empty way) and inserts at way 0. Ways hold full line
/// numbers, so a lookup needs no tag (INTERNALS §14.4).
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_SIMCACHE_CACHE_H
#define HCSGC_SIMCACHE_CACHE_H

#include <cstdint>
#include <cstring>
#include <vector>

namespace hcsgc {

/// One cache level. Addresses passed in are *line* numbers (byte address
/// divided by the line size); the cache itself is line-size agnostic.
class SetAssocCache {
public:
  /// Marks an empty way. No line of a user-space address maps to it, and
  /// prefetch targets that wrap below line 0 land near ~0, not here.
  static constexpr uint64_t EmptyLine = uint64_t(1) << 63;

  /// \param NumSets number of sets (power of two).
  /// \param Ways associativity.
  SetAssocCache(uint32_t NumSets, uint32_t Ways);

  /// Looks up \p Line and updates LRU state. On a miss the line is
  /// filled (the LRU way is evicted).
  /// \returns true on hit.
  bool access(uint64_t Line) {
    uint64_t *Set = setFor(Line);
    uint32_t W = 0;
    while (W < Assoc && Set[W] != Line)
      ++W;
    bool Hit = W < Assoc;
    if (!Hit)
      W = Assoc - 1;
    std::memmove(Set + 1, Set, W * sizeof(uint64_t));
    Set[0] = Line;
    return Hit;
  }

  /// Fills \p Line without it counting as a demand access (prefetch).
  /// The line is inserted at most-recently-used position; a line already
  /// present is just promoted.
  void fill(uint64_t Line) { (void)access(Line); }

  /// \returns true if \p Line is currently resident (no LRU update).
  bool contains(uint64_t Line) const {
    const uint64_t *Set = setFor(Line);
    for (uint32_t W = 0; W < Assoc; ++W)
      if (Set[W] == Line)
        return true;
    return false;
  }

  /// Drops all contents.
  void clear();

  uint32_t numSets() const { return static_cast<uint32_t>(SetMask + 1); }
  uint32_t ways() const { return Assoc; }

private:
  uint64_t *setFor(uint64_t Line) { return &Lines[(Line & SetMask) * Assoc]; }
  const uint64_t *setFor(uint64_t Line) const {
    return &Lines[(Line & SetMask) * Assoc];
  }

  uint64_t SetMask;
  uint32_t Assoc;
  /// Sets * Assoc line numbers, each set in MRU-to-LRU order.
  std::vector<uint64_t> Lines;
};

} // namespace hcsgc

#endif // HCSGC_SIMCACHE_CACHE_H
