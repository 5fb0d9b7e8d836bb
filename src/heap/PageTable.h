//===- heap/PageTable.h - Address-to-page lookup ---------------*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Maps heap addresses to their owning Page. The heap is one contiguous
/// reservation carved into small-page-sized units, so lookup is a single
/// shift and indexed load — cheap enough to sit on the load-barrier slow
/// path. Multi-unit (medium/large) pages occupy several consecutive slots.
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_HEAP_PAGETABLE_H
#define HCSGC_HEAP_PAGETABLE_H

#include "support/MathExtras.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <vector>

namespace hcsgc {

class Page;

/// Flat page table over the heap reservation.
class PageTable {
public:
  /// \param Base start of the heap reservation.
  /// \param ReservedBytes size of the reservation.
  /// \param UnitBytes small page size (power of two).
  PageTable(uintptr_t Base, size_t ReservedBytes, size_t UnitBytes);

  /// \returns the page owning \p Addr, or nullptr for unmapped units.
  Page *lookup(uintptr_t Addr) const {
    assert(Addr >= Base && Addr < Base + Reserved &&
           "address outside heap reservation");
    return Slots[(Addr - Base) >> UnitShift].load(
        std::memory_order_acquire);
  }

  /// Installs \p P in the \p Units consecutive slots starting at its
  /// begin address.
  void install(Page *P, size_t Units);

  /// Clears the \p Units slots covering \p Begin.
  void remove(uintptr_t Begin, size_t Units);

  bool covers(uintptr_t Addr) const {
    return Addr >= Base && Addr < Base + Reserved;
  }

  /// The reservation this table covers: [base(), base() + reservedBytes()).
  uintptr_t base() const { return Base; }
  size_t reservedBytes() const { return Reserved; }

private:
  uintptr_t Base;
  size_t Reserved;
  unsigned UnitShift;
  std::vector<std::atomic<Page *>> Slots;
};

} // namespace hcsgc

#endif // HCSGC_HEAP_PAGETABLE_H
