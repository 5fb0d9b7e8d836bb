//===- simcache/Prefetcher.cpp - Stream prefetcher --------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "simcache/Prefetcher.h"

#include "support/Compiler.h"

using namespace hcsgc;

StreamPrefetcher::StreamPrefetcher(uint32_t TableSize) : Size(TableSize) {
  if (TableSize < 1 || TableSize > MaxStreams)
    fatalError("stream table size must be in [1, 32]");
  reset();
}

void StreamPrefetcher::reset() {
  for (Stream &S : Table)
    S = Stream();
  for (uint32_t &B : Buckets)
    B = 0;
  Invalid = Size;
  Head = Tail = Nil;
}
