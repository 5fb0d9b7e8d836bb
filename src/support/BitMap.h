//===- support/BitMap.h - Concurrent bitmap --------------------*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size bitmap with atomic set operations. Pages use two of these:
/// the livemap (ZGC) and the hotmap (HCSGC, adapted from the livemap per
/// §3.1.2 of the paper). Both are written concurrently by mutators and GC
/// workers during marking, hence the atomic parallel-set operation.
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_SUPPORT_BITMAP_H
#define HCSGC_SUPPORT_BITMAP_H

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hcsgc {

/// Fixed-capacity bitmap. Non-atomic reads/writes are available for phases
/// where exclusive access is guaranteed; parSet is safe under concurrency.
class BitMap {
public:
  BitMap() = default;

  /// Creates a bitmap able to hold \p NumBits bits, all clear.
  explicit BitMap(size_t NumBits) { resize(NumBits); }

  /// Resizes to \p NumBits bits. All bits become clear.
  void resize(size_t NumBits);

  /// \returns the number of bits this map can hold.
  size_t size() const { return NumBits; }

  /// \returns true if bit \p Idx is set (relaxed atomic read).
  bool test(size_t Idx) const {
    assert(Idx < NumBits && "bit index out of range");
    return (Words[Idx >> 6].load(std::memory_order_relaxed) >>
            (Idx & 63)) & 1;
  }

  /// Atomically sets bit \p Idx.
  /// \returns true if this call transitioned the bit from clear to set.
  bool parSet(size_t Idx) {
    assert(Idx < NumBits && "bit index out of range");
    uint64_t Mask = uint64_t(1) << (Idx & 63);
    uint64_t Old = Words[Idx >> 6].fetch_or(Mask, std::memory_order_relaxed);
    return (Old & Mask) == 0;
  }

  /// Non-atomically sets bit \p Idx (requires exclusive access).
  void set(size_t Idx) {
    assert(Idx < NumBits && "bit index out of range");
    uint64_t W = Words[Idx >> 6].load(std::memory_order_relaxed);
    Words[Idx >> 6].store(W | (uint64_t(1) << (Idx & 63)),
                          std::memory_order_relaxed);
  }

  /// Clears every bit (requires exclusive access).
  void clearAll();

  /// Frees the backing words; the map holds no bits afterwards.
  void release() {
    Words = std::vector<std::atomic<uint64_t>>();
    NumBits = 0;
  }

  // --- Word-level access (support/Bits.h kernels, INTERNALS §14) --------

  /// \returns backing word \p WordIdx (relaxed read). Word-at-a-time
  /// readers (live-object walks, SWAR nibble aging) combine this with
  /// ctz64/popcount64 instead of testing bit by bit.
  uint64_t word(size_t WordIdx) const {
    assert(WordIdx < Words.size() && "word index out of range");
    return Words[WordIdx].load(std::memory_order_relaxed);
  }

  /// \returns the number of 64-bit backing words.
  size_t numWords() const { return Words.size(); }

  /// \returns the address of the word holding bit \p BitIdx — the
  /// software-prefetch target ahead of a parSet on that bit.
  const void *wordAddr(size_t BitIdx) const {
    assert(BitIdx < NumBits && "bit index out of range");
    return &Words[BitIdx >> 6];
  }

  /// \returns the number of set bits.
  size_t count() const;

  /// \returns the index of the first set bit at or after \p From, or
  /// npos if there is none. Requires no concurrent writers for a stable
  /// answer, but is safe to call concurrently.
  size_t findNext(size_t From) const;

  /// Sentinel returned by findNext when no bit is found.
  static constexpr size_t npos = ~size_t(0);

private:
  std::vector<std::atomic<uint64_t>> Words;
  size_t NumBits = 0;
};

} // namespace hcsgc

#endif // HCSGC_SUPPORT_BITMAP_H
