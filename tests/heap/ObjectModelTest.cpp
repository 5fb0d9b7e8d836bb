//===- tests/heap/ObjectModelTest.cpp ------------------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "heap/ObjectModel.h"

#include <gtest/gtest.h>

#include <vector>

using namespace hcsgc;

TEST(ObjectModelTest, HeaderRoundTrip) {
  uint64_t H = makeHeader(/*SizeWords=*/12, /*Cls=*/77, /*NumRefs=*/3,
                          OF_None);
  alignas(8) uint64_t Buf[16] = {H};
  ObjectView V(reinterpret_cast<uintptr_t>(Buf));
  EXPECT_EQ(V.sizeWords(), 12u);
  EXPECT_EQ(V.sizeBytes(), 96u);
  EXPECT_EQ(V.classId(), 77);
  EXPECT_EQ(V.numRefs(), 3u);
  EXPECT_FALSE(V.isRefArray());
}

TEST(ObjectModelTest, RefsFirstLayout) {
  alignas(8) uint64_t Buf[8];
  uintptr_t Addr = reinterpret_cast<uintptr_t>(Buf);
  initializeObject(Addr, /*SizeWords=*/6, /*Cls=*/1, /*NumRefs=*/2,
                   OF_None, 0);
  ObjectView V(Addr);
  EXPECT_EQ(V.refSlotAddr(0), Addr + 8);
  EXPECT_EQ(V.refSlotAddr(1), Addr + 16);
  EXPECT_EQ(V.payloadAddr(), Addr + 24);
  EXPECT_EQ(V.payloadBytes(), 24u);
}

TEST(ObjectModelTest, RefArrayLayout) {
  alignas(8) uint64_t Buf[12];
  uintptr_t Addr = reinterpret_cast<uintptr_t>(Buf);
  uint32_t Len = 5;
  size_t Bytes = refArraySizeFor(Len);
  EXPECT_EQ(Bytes, 8u + 8u + 40u);
  initializeObject(Addr, static_cast<uint32_t>(Bytes / 8), /*Cls=*/0, 0,
                   OF_RefArray, Len);
  ObjectView V(Addr);
  EXPECT_TRUE(V.isRefArray());
  EXPECT_EQ(V.numRefs(), Len);
  EXPECT_EQ(V.refSlotAddr(0), Addr + 16); // after header + length word
  EXPECT_EQ(V.refSlotAddr(4), Addr + 48);
}

TEST(ObjectModelTest, ObjectSizeForAlignsUp) {
  EXPECT_EQ(objectSizeFor(0, 0), 8u);   // header only
  EXPECT_EQ(objectSizeFor(0, 1), 16u);  // 1 payload byte rounds to 8
  EXPECT_EQ(objectSizeFor(0, 24), 32u); // the paper's element object
  EXPECT_EQ(objectSizeFor(1, 16), 32u);
  EXPECT_EQ(objectSizeFor(2, 0), 24u);
}

TEST(ObjectModelTest, PaperElementIs32Bytes) {
  // §4.4: "each pointing to a 32-byte object (including VM metadata)".
  EXPECT_EQ(objectSizeFor(/*NumRefs=*/0, /*PayloadBytes=*/24), 32u);
}

TEST(ObjectModelTest, SlotWritesVisibleThroughView) {
  alignas(8) uint64_t Buf[8];
  uintptr_t Addr = reinterpret_cast<uintptr_t>(Buf);
  initializeObject(Addr, 6, 9, 2, OF_None, 0);
  ObjectView V(Addr);
  *V.refSlot(0) = 0xdeadbeef;
  EXPECT_EQ(*reinterpret_cast<uint64_t *>(Addr + 8), 0xdeadbeefull);
}

TEST(ObjectModelTest, MaxFieldValues) {
  // Every field at its maximum round-trips, the site included.
  uint64_t H = makeHeader(0xffffffffu, 0xffff, 0xff, OF_RefArray,
                          MaxHeaderSite);
  EXPECT_EQ(H, ~uint64_t(0)) << "the fields tile the header word";
  alignas(8) uint64_t Buf[2] = {H, 0};
  ObjectView V(reinterpret_cast<uintptr_t>(Buf));
  EXPECT_EQ(V.sizeWords(), 0xffffffffu);
  EXPECT_EQ(V.classId(), 0xffff);
  EXPECT_TRUE(V.isRefArray());
  EXPECT_EQ(V.site(), 127);
  EXPECT_EQ(MaxHeaderSite, 127);
  // A ref array's slot count is its length word; the inline count
  // round-trips on a regular object.
  alignas(8) uint64_t Reg[1] = {
      makeHeader(0xffffffffu, 0xffff, 0xff, OF_None, MaxHeaderSite)};
  ObjectView R(reinterpret_cast<uintptr_t>(Reg));
  EXPECT_EQ(R.numRefs(), 0xffu);
  EXPECT_FALSE(R.isRefArray());
  EXPECT_EQ(R.site(), 127);
}

TEST(ObjectModelTest, SiteBitsLeaveOtherFieldsAlone) {
  // Any site, including the largest, leaves every other field as the
  // site-free header has it.
  for (uint8_t Flags : {uint8_t(OF_None), uint8_t(OF_RefArray)})
    for (SiteId Site : {SiteId(0), SiteId(1), SiteId(64), MaxHeaderSite}) {
      alignas(8) uint64_t Plain[2] = {
          makeHeader(0xffffffffu, 0xffff, 0xff, Flags), 0};
      alignas(8) uint64_t Sited[2] = {
          makeHeader(0xffffffffu, 0xffff, 0xff, Flags, Site), 0};
      ObjectView P(reinterpret_cast<uintptr_t>(Plain));
      ObjectView S(reinterpret_cast<uintptr_t>(Sited));
      EXPECT_EQ(S.site(), Site);
      EXPECT_EQ(P.site(), UnknownSiteId);
      EXPECT_EQ(S.sizeWords(), P.sizeWords());
      EXPECT_EQ(S.classId(), P.classId());
      EXPECT_EQ(S.isRefArray(), P.isRefArray());
      EXPECT_EQ(S.isRefArray(), Flags == OF_RefArray);
      if (!S.isRefArray()) {
        EXPECT_EQ(S.numRefs(), P.numRefs());
      }
    }
}

TEST(ObjectModelTest, SitesPastHeaderCapacityStampUnknown) {
  // The profile table maps these ids to its unknown slot anyway.
  for (SiteId Site : {SiteId(MaxHeaderSite + 1), SiteId(0xffff)}) {
    alignas(8) uint64_t Buf[1];
    initializeObject(reinterpret_cast<uintptr_t>(Buf), 4, 3, 1, OF_None, 0,
                     Site);
    ObjectView V(reinterpret_cast<uintptr_t>(Buf));
    EXPECT_EQ(V.site(), UnknownSiteId);
    EXPECT_EQ(V.sizeWords(), 4u);
    EXPECT_EQ(V.classId(), 3);
    EXPECT_EQ(V.numRefs(), 1u);
  }
}
