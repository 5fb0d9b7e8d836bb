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
/// stay at the tail. A hit at way 0 returns at once, since the set is
/// already in order. A hit at way k > 0 shifts ways 0..k-1 down by one and
/// puts the line at way 0; a miss shifts the whole set down (dropping the
/// LRU line, or an empty way) and inserts at way 0. Ways hold full line
/// numbers, so a lookup needs no tag (INTERNALS §14.4).
///
/// Two set kernels do that work, and both leave a set in the same state.
/// The scalar kernel scans the ways in order and shifts with `memmove`;
/// it runs any associativity on any CPU. The AVX-512F kernels run 8- and
/// 16-way sets without a branch: one 512-bit compare per 8 ways gives a
/// hit mask, its lowest set bit (or the LRU way on a miss) is the way k,
/// and a merge-masked lane shift rewrites ways 0..k. Each cache picks
/// its kernel once, in its constructor: the vector one when the CPU has
/// AVX-512F and the set has 8 or 16 ways, else the scalar one (compiled
/// for that fixed associativity when it is 8 or 16). The set array
/// starts on a 64-byte boundary, so an 8-way set is one host cache line
/// and a 16-way set two.
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_SIMCACHE_CACHE_H
#define HCSGC_SIMCACHE_CACHE_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>

namespace hcsgc {

/// The set kernels. Each applies one access (or lookup) of \p Line to a
/// set of \p Ways line numbers in MRU-to-LRU order, and returns true on a
/// hit. The vector kernels ignore \p Ways; they need a 64-byte-aligned
/// set of 8 (`access8`) or 16 (`access16`) ways and a CPU on which
/// vectorAvailable() is true. Tests call them directly to check that the
/// kernels agree.
namespace setkernel {
using AccessFn = bool (*)(uint64_t *Set, uint32_t Ways, uint64_t Line);
using ContainsFn = bool (*)(const uint64_t *Set, uint32_t Ways,
                            uint64_t Line);

bool accessScalar(uint64_t *Set, uint32_t Ways, uint64_t Line);
bool containsScalar(const uint64_t *Set, uint32_t Ways, uint64_t Line);
bool access8(uint64_t *Set, uint32_t Ways, uint64_t Line);
bool contains8(const uint64_t *Set, uint32_t Ways, uint64_t Line);
bool access16(uint64_t *Set, uint32_t Ways, uint64_t Line);
bool contains16(const uint64_t *Set, uint32_t Ways, uint64_t Line);

/// \returns true if this build and CPU can run the AVX-512F kernels.
bool vectorAvailable();
} // namespace setkernel

/// One cache level. Addresses passed in are *line* numbers (byte address
/// divided by the line size); the cache itself is line-size agnostic.
class SetAssocCache {
public:
  /// Marks an empty way. No line of a user-space address maps to it, and
  /// prefetch targets that wrap below line 0 land near ~0, not here.
  static constexpr uint64_t EmptyLine = uint64_t(1) << 63;
  /// Alignment of the set array: one host cache line.
  static constexpr size_t SetAlign = 64;

  /// \param NumSets number of sets (power of two).
  /// \param Ways associativity.
  SetAssocCache(uint32_t NumSets, uint32_t Ways);

  /// Looks up \p Line and updates LRU state. On a miss the line is
  /// filled (the LRU way is evicted).
  /// \returns true on hit.
  bool access(uint64_t Line) {
    uint64_t *Set = mutableSetFor(Line);
    if (Set[0] == Line)
      return true; // MRU hit: the set is already in order
    return AccessK(Set, Assoc, Line);
  }

  /// Fills \p Line without it counting as a demand access (prefetch).
  /// The line is inserted at most-recently-used position; a line already
  /// present is just promoted.
  void fill(uint64_t Line) { (void)access(Line); }

  /// \returns true if \p Line is currently resident (no LRU update).
  bool contains(uint64_t Line) const {
    return ContainsK(setFor(Line), Assoc, Line);
  }

  /// Drops all contents.
  void clear();

  uint32_t numSets() const { return static_cast<uint32_t>(SetMask + 1); }
  uint32_t ways() const { return Assoc; }
  /// \returns "avx512" or "scalar", the kernel this cache runs.
  const char *kernelName() const;

  /// The set \p Line maps to, MRU first.
  const uint64_t *setFor(uint64_t Line) const {
    return &Lines[(Line & SetMask) * Assoc];
  }

private:
  uint64_t *mutableSetFor(uint64_t Line) {
    return &Lines[(Line & SetMask) * Assoc];
  }

  struct AlignedDelete {
    void operator()(uint64_t *P) const {
      ::operator delete[](P, std::align_val_t(SetAlign));
    }
  };

  uint64_t SetMask;
  uint32_t Assoc;
  setkernel::AccessFn AccessK;
  setkernel::ContainsFn ContainsK;
  /// Sets * Assoc line numbers, each set in MRU-to-LRU order.
  std::unique_ptr<uint64_t[], AlignedDelete> Lines;
};

} // namespace hcsgc

#endif // HCSGC_SIMCACHE_CACHE_H
