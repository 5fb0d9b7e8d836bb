//===- simcache/Cache.cpp - Set-associative cache model --------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "simcache/Cache.h"

#include "support/Compiler.h"
#include "support/MathExtras.h"

#include <algorithm>

using namespace hcsgc;

SetAssocCache::SetAssocCache(uint32_t NumSets, uint32_t Ways)
    : SetMask(NumSets - 1), Assoc(Ways) {
  if (!isPowerOf2(NumSets))
    fatalError("cache set count must be a power of two");
  if (Ways < 1)
    fatalError("cache associativity must be at least 1");
  Lines.assign(static_cast<size_t>(NumSets) * Assoc, EmptyLine);
}

void SetAssocCache::clear() {
  std::fill(Lines.begin(), Lines.end(), EmptyLine);
}
