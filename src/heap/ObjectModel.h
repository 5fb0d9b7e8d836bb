//===- heap/ObjectModel.h - Object headers and layout ----------*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The managed object model. Every object starts with one 64-bit header
/// word encoding its size, class id, inline reference count and flags.
/// Reference slots are laid out immediately after the header (before any
/// payload) so the collector can trace objects without class metadata.
///
/// Layout of a regular object:          Layout of a reference array:
///   [ header          : 8 bytes ]        [ header          : 8 bytes ]
///   [ ref slot 0..N-1 : 8 each  ]        [ length          : 8 bytes ]
///   [ payload         : rest    ]        [ ref slot 0..L-1 : 8 each  ]
///
/// The paper's synthetic benchmark uses "32-byte objects (including VM
/// metadata)"; here that is one header word plus three payload/ref words.
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_HEAP_OBJECTMODEL_H
#define HCSGC_HEAP_OBJECTMODEL_H

#include <cassert>
#include <cstddef>
#include <cstdint>

namespace hcsgc {

/// A reference as stored in a heap slot or root: an address plus color
/// metadata bits (see gc/ColoredPtr.h). 0 is the null reference.
using Oop = uint64_t;

constexpr Oop NullOop = 0;

/// Heap addresses and object sizes are 8-byte aligned; 8 bytes is also the
/// granule of the livemap/hotmap bitmaps, as in ZGC.
constexpr size_t ObjectAlignment = 8;
constexpr size_t HeaderBytes = 8;

/// Class ids are opaque to the collector; the runtime's ClassRegistry maps
/// them to user types.
using ClassId = uint16_t;

/// Allocation-site identifier (SITEPROFILING, INTERNALS §13), interned
/// by SiteRegistry (src/gc/SiteProfile.h). 0 is the reserved "unknown"
/// site that untagged allocations carry.
using SiteId = uint16_t;
constexpr SiteId UnknownSiteId = 0;

/// Object header flag bits (header bit 56).
enum ObjectFlags : uint8_t {
  OF_None = 0,
  /// The object is a reference array: its first payload word is the
  /// element count and all elements are reference slots.
  OF_RefArray = 1 << 0,
};

/// Header bits 57-63 hold the allocation site.
constexpr unsigned HeaderSiteShift = 57;
constexpr SiteId MaxHeaderSite = (1u << (64 - HeaderSiteShift)) - 1;

/// Packs an object header word:
///   bits  0-31 size in words, 32-47 class id, 48-55 inline ref count,
///   bit  56    OF_RefArray, 57-63 allocation site.
///
/// \param SizeWords total object size in 8-byte words, header included.
/// \param Cls class id from the runtime's registry.
/// \param NumRefs number of inline reference slots (ignored for ref
///        arrays, whose slot count is their length word).
/// \param Site allocation site; ids above MaxHeaderSite store as unknown.
inline uint64_t makeHeader(uint32_t SizeWords, ClassId Cls, uint8_t NumRefs,
                           uint8_t Flags, SiteId Site = UnknownSiteId) {
  assert((Flags & ~OF_RefArray) == 0 && "flag bit would overlap the site");
  if (Site > MaxHeaderSite)
    Site = UnknownSiteId;
  return static_cast<uint64_t>(SizeWords) |
         (static_cast<uint64_t>(Cls) << 32) |
         (static_cast<uint64_t>(NumRefs) << 48) |
         (static_cast<uint64_t>(Flags) << 56) |
         (static_cast<uint64_t>(Site) << HeaderSiteShift);
}

/// A non-owning view of an object at a known-valid address. All accessors
/// are direct memory reads; callers are responsible for holding a safe
/// (good-colored) address.
class ObjectView {
public:
  explicit ObjectView(uintptr_t Addr) : Addr(Addr) {
    assert(Addr % ObjectAlignment == 0 && "misaligned object address");
  }

  uintptr_t address() const { return Addr; }

  uint64_t header() const {
    return *reinterpret_cast<const uint64_t *>(Addr);
  }

  uint32_t sizeWords() const {
    return static_cast<uint32_t>(header());
  }
  size_t sizeBytes() const {
    return static_cast<size_t>(sizeWords()) * 8;
  }
  ClassId classId() const {
    return static_cast<ClassId>(header() >> 32);
  }
  bool isRefArray() const { return (header() >> 56) & OF_RefArray; }
  /// Allocation site stamped at allocation (UnknownSiteId if untagged);
  /// relocation copies the header, so the site moves with the object.
  SiteId site() const {
    return static_cast<SiteId>(header() >> HeaderSiteShift);
  }

  /// \returns the number of reference slots (array length for ref arrays).
  uint32_t numRefs() const {
    if (isRefArray())
      return static_cast<uint32_t>(
          *reinterpret_cast<const uint64_t *>(Addr + HeaderBytes));
    return static_cast<uint8_t>(header() >> 48);
  }

  /// \returns the address of reference slot \p Idx.
  uintptr_t refSlotAddr(uint32_t Idx) const {
    assert(Idx < numRefs() && "ref slot index out of range");
    size_t Base = isRefArray() ? HeaderBytes + 8 : HeaderBytes;
    return Addr + Base + static_cast<size_t>(Idx) * 8;
  }

  /// \returns a pointer to reference slot \p Idx, usable with atomics.
  Oop *refSlot(uint32_t Idx) const {
    return reinterpret_cast<Oop *>(refSlotAddr(Idx));
  }

  /// \returns the address of the first payload byte (after header and
  /// inline ref slots; for ref arrays there is no payload).
  uintptr_t payloadAddr() const {
    assert(!isRefArray() && "ref arrays have no payload");
    return Addr + HeaderBytes + static_cast<size_t>(numRefs()) * 8;
  }

  /// \returns payload size in bytes.
  size_t payloadBytes() const {
    return sizeBytes() - (payloadAddr() - Addr);
  }

private:
  uintptr_t Addr;
};

/// \returns the total size in bytes of a regular object with \p NumRefs
/// reference slots and \p PayloadBytes of payload, including the header
/// and alignment padding.
inline size_t objectSizeFor(uint32_t NumRefs, size_t PayloadBytes) {
  size_t Raw = HeaderBytes + static_cast<size_t>(NumRefs) * 8 + PayloadBytes;
  return (Raw + ObjectAlignment - 1) & ~(ObjectAlignment - 1);
}

/// \returns the total size in bytes of a reference array of \p Length
/// elements.
inline size_t refArraySizeFor(uint32_t Length) {
  return HeaderBytes + 8 + static_cast<size_t>(Length) * 8;
}

/// Writes the header and (for ref arrays) length word of a new object at
/// \p Addr; reference slots must already be zero (allocators hand out
/// zeroed memory).
void initializeObject(uintptr_t Addr, uint32_t SizeWords, ClassId Cls,
                      uint8_t NumRefs, uint8_t Flags, uint32_t ArrayLength,
                      SiteId Site = UnknownSiteId);

} // namespace hcsgc

#endif // HCSGC_HEAP_OBJECTMODEL_H
