//===- simcache/Prefetcher.h - Stream prefetcher ---------------*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A hardware-style stream prefetcher. HCSGC's whole point is producing
/// layouts that are "prefetching friendly" (§1, §3): when mutators relocate
/// objects in access order, subsequent passes walk memory near-sequentially
/// and a stream prefetcher hides the remaining misses. This model detects
/// ascending/descending unit-stride line streams and prefetches ahead.
///
/// Matching rule: an access to the line some stream touched last is a
/// repeat; it changes nothing (no confidence, position or recency change)
/// and prefetches nothing, as a hardware streamer allocates no stream for a
/// line it already tracks. Any other access extends the first stream, in
/// table order, whose last line lies within +/-2 lines of it (and, once
/// the stream has a direction, on the same side). An access that extends
/// no stream starts a new one in the least recently used slot. Two side
/// structures make these lookups cheap: a 1024-bucket index from
/// `LastLine & 1023` to a bitmask of streams, and a doubly linked recency
/// list whose tail is the victim (INTERNALS §14.4). The index only proposes
/// candidates; each one is still checked against the exact rule, so its
/// size moves no result.
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_SIMCACHE_PREFETCHER_H
#define HCSGC_SIMCACHE_PREFETCHER_H

#include "support/Bits.h"

#include <cstdint>

namespace hcsgc {

/// Detects line-granularity streams; the caller prefetches along the
/// returned stride.
class StreamPrefetcher {
public:
  /// Upper bound on TableSize: stream sets are 32-bit masks.
  static constexpr uint32_t MaxStreams = 32;

  /// \param TableSize number of concurrently tracked streams, 1..32.
  explicit StreamPrefetcher(uint32_t TableSize = 16);

  /// Observes a demand access to \p Line.
  /// \returns the stride of the stream it extends once that stream has
  /// locked (+1 or -1: prefetch Line + Stride * i), or 0 for no prefetch.
  int observe(uint64_t Line) {
    // A repeat: a stream ending at Line sits in Line's own bucket.
    for (uint32_t Own = Buckets[Line & BucketMask]; Own; Own &= Own - 1)
      if (Table[ctz64(Own)].LastLine == Line)
        return 0;
    uint32_t Candidates = Buckets[(Line - 2) & BucketMask] |
                          Buckets[(Line - 1) & BucketMask] |
                          Buckets[(Line + 1) & BucketMask] |
                          Buckets[(Line + 2) & BucketMask];
    // Ascending index order keeps "first match in table order wins".
    // Delta is never 0: Line's own bucket is not among the four probed.
    for (; Candidates; Candidates &= Candidates - 1) {
      uint32_t I = ctz64(Candidates);
      Stream &S = Table[I];
      int64_t Delta = static_cast<int64_t>(Line - S.LastLine);
      bool Near = Delta >= -2 && Delta <= 2;
      bool WithStream = S.Stride == 0 || (Delta > 0) == (S.Stride > 0);
      if (!Near || !WithStream)
        continue; // a bucket alias, or against the stream's direction
      // Stream continues (we tolerate small jitter from the two-objects-
      // per-line layout the paper's 32-byte objects produce).
      S.Stride = Delta > 0 ? 1 : -1;
      if (S.Confidence < 8)
        ++S.Confidence;
      rebucket(I, Line);
      touch(I);
      return S.Confidence >= 2 ? S.Stride : 0;
    }

    // No stream matched: start training a new one in the LRU slot.
    // Invalid slots form the prefix [0, Invalid) and fill from the top.
    uint32_t V;
    if (Invalid > 0) {
      V = --Invalid;
      Table[V].LastLine = Line;
      Buckets[Line & BucketMask] |= 1u << V;
    } else {
      V = Tail;
      rebucket(V, Line);
    }
    Table[V].Stride = 0;
    Table[V].Confidence = 0;
    touch(V);
    return 0;
  }

  /// Forgets all tracked streams.
  void reset();

private:
  static constexpr uint32_t BucketMask = 1023;
  static constexpr uint8_t Nil = 0xff;

  struct Stream {
    uint64_t LastLine = 0;
    int8_t Stride = 0; ///< +1 / -1 once a direction is seen; 0 while new.
    uint8_t Confidence = 0;
    uint8_t Prev = Nil, Next = Nil; ///< Recency list, Head = MRU.
  };

  /// Moves stream \p I from its LastLine's bucket to \p Line's.
  void rebucket(uint32_t I, uint64_t Line) {
    Buckets[Table[I].LastLine & BucketMask] &= ~(1u << I);
    Buckets[Line & BucketMask] |= 1u << I;
    Table[I].LastLine = Line;
  }

  /// Makes stream \p I the most recently used (linking it if new).
  void touch(uint32_t I) {
    if (Head == I)
      return;
    Stream &S = Table[I];
    if (S.Prev != Nil) { // linked and not the head: unlink first
      Table[S.Prev].Next = S.Next;
      if (S.Next != Nil)
        Table[S.Next].Prev = S.Prev;
      else
        Tail = S.Prev;
    }
    S.Prev = Nil;
    S.Next = Head;
    if (Head != Nil)
      Table[Head].Prev = static_cast<uint8_t>(I);
    else
      Tail = static_cast<uint8_t>(I);
    Head = static_cast<uint8_t>(I);
  }

  Stream Table[MaxStreams];
  uint32_t Buckets[BucketMask + 1];
  uint32_t Size;
  uint32_t Invalid; ///< Slots [0, Invalid) have never held a stream.
  uint8_t Head, Tail;
};

} // namespace hcsgc

#endif // HCSGC_SIMCACHE_PREFETCHER_H
