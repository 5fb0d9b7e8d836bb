//===- heap/ObjectModel.cpp - Object headers and layout --------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "heap/ObjectModel.h"

using namespace hcsgc;

void hcsgc::initializeObject(uintptr_t Addr, uint32_t SizeWords, ClassId Cls,
                             uint8_t NumRefs, uint8_t Flags,
                             uint32_t ArrayLength, SiteId Site) {
  *reinterpret_cast<uint64_t *>(Addr) =
      makeHeader(SizeWords, Cls, NumRefs, Flags, Site);
  if (Flags & OF_RefArray)
    *reinterpret_cast<uint64_t *>(Addr + HeaderBytes) = ArrayLength;
}
