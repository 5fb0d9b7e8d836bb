//===- tests/gc/RuntimeApiTest.cpp ---------------------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Runtime.h"

#include <gtest/gtest.h>

using namespace hcsgc;

namespace {

GcConfig testConfig() {
  GcConfig Cfg;
  Cfg.Geometry.SmallPageSize = 64 * 1024;
  Cfg.Geometry.MediumPageSize = 1024 * 1024;
  Cfg.MaxHeapBytes = 32u << 20;
  Cfg.GcWorkers = 1;
  return Cfg;
}

} // namespace

TEST(RuntimeApiTest, AllocateAndAccessPayload) {
  Runtime RT(testConfig());
  ClassId Cls = RT.registerClass("t.Obj", 1, 24);
  auto M = RT.attachMutator();
  {
    Root R(*M);
    M->allocate(R, Cls);
    EXPECT_FALSE(R.isNull());
    EXPECT_EQ(M->classOf(R), Cls);
    EXPECT_EQ(M->numRefs(R), 1u);
    EXPECT_EQ(M->loadWord(R, 0), 0); // zero-initialized
    M->storeWord(R, 0, -77);
    M->storeWord(R, 2, 123456789);
    EXPECT_EQ(M->loadWord(R, 0), -77);
    EXPECT_EQ(M->loadWord(R, 2), 123456789);
  }
  M.reset();
}

TEST(RuntimeApiTest, RefFieldsAndNull) {
  Runtime RT(testConfig());
  ClassId Cls = RT.registerClass("t.Pair", 2, 0);
  auto M = RT.attachMutator();
  {
    Root A(*M), B(*M), Out(*M);
    M->allocate(A, Cls);
    M->allocate(B, Cls);
    M->loadRef(A, 0, Out);
    EXPECT_TRUE(Out.isNull());
    M->storeRef(A, 0, B);
    M->loadRef(A, 0, Out);
    EXPECT_FALSE(Out.isNull());
    EXPECT_TRUE(M->refEquals(Out, B));
    EXPECT_FALSE(M->refEquals(Out, A));
    M->storeNullRef(A, 0);
    M->loadRef(A, 0, Out);
    EXPECT_TRUE(Out.isNull());
  }
  M.reset();
}

TEST(RuntimeApiTest, SelfReference) {
  Runtime RT(testConfig());
  ClassId Cls = RT.registerClass("t.Selfish", 1, 8);
  auto M = RT.attachMutator();
  {
    Root A(*M), Out(*M);
    M->allocate(A, Cls);
    M->storeRef(A, 0, A);
    M->requestGcAndWait();
    M->loadRef(A, 0, Out);
    EXPECT_TRUE(M->refEquals(A, Out));
  }
  M.reset();
}

TEST(RuntimeApiTest, RefArrays) {
  Runtime RT(testConfig());
  ClassId Cls = RT.registerClass("t.Elem", 0, 8);
  auto M = RT.attachMutator();
  {
    Root Arr(*M), E(*M), Out(*M);
    M->allocateRefArray(Arr, 100);
    EXPECT_EQ(M->arrayLength(Arr), 100u);
    for (uint32_t I = 0; I < 100; ++I) {
      M->loadElem(Arr, I, Out);
      EXPECT_TRUE(Out.isNull());
    }
    M->allocate(E, Cls);
    M->storeWord(E, 0, 5);
    M->storeElem(Arr, 42, E);
    M->loadElem(Arr, 42, Out);
    EXPECT_EQ(M->loadWord(Out, 0), 5);
    M->storeElemNull(Arr, 42);
    M->loadElem(Arr, 42, Out);
    EXPECT_TRUE(Out.isNull());
  }
  M.reset();
}

TEST(RuntimeApiTest, ZeroLengthArray) {
  Runtime RT(testConfig());
  auto M = RT.attachMutator();
  {
    Root Arr(*M);
    M->allocateRefArray(Arr, 0);
    EXPECT_EQ(M->arrayLength(Arr), 0u);
    M->requestGcAndWait();
    EXPECT_EQ(M->arrayLength(Arr), 0u);
  }
  M.reset();
}

TEST(RuntimeApiTest, MediumAndLargeObjects) {
  Runtime RT(testConfig());
  auto M = RT.attachMutator();
  const HeapGeometry &Geo = RT.config().Geometry;
  {
    Root Medium(*M), Large(*M);
    // Medium: bigger than smallObjectMax (8K), smaller than medium max.
    size_t MediumPayload = Geo.smallObjectMax() + 1024;
    ClassId MCls = RT.registerClass("t.Medium", 0,
                                    static_cast<uint32_t>(MediumPayload));
    M->allocate(Medium, MCls);
    M->storeWord(Medium, 100, 42);
    // Large: bigger than mediumObjectMax (128K).
    size_t LargePayload = Geo.mediumObjectMax() + 4096;
    M->allocateSized(Large, MCls, 0, LargePayload);
    uint32_t LargeLastWord = static_cast<uint32_t>(LargePayload / 8 - 1);
    M->storeWord(Large, LargeLastWord, 7);
    M->requestGcAndWait();
    M->requestGcAndWait();
    EXPECT_EQ(M->loadWord(Medium, 100), 42);
    EXPECT_EQ(M->loadWord(Large, LargeLastWord), 7);
  }
  M.reset();
}

TEST(RuntimeApiTest, GlobalRoots) {
  Runtime RT(testConfig());
  ClassId Cls = RT.registerClass("t.G", 0, 8);
  GlobalRoot *G = RT.createGlobalRoot();
  auto M = RT.attachMutator();
  {
    Root A(*M), Out(*M);
    M->allocate(A, Cls);
    M->storeWord(A, 0, 99);
    M->storeGlobal(*G, A);
  }
  // The object survives with no mutator-local roots.
  M->requestGcAndWait();
  {
    Root Out(*M);
    M->loadGlobal(*G, Out);
    EXPECT_EQ(M->loadWord(Out, 0), 99);
  }
  M.reset();
  RT.destroyGlobalRoot(G);
}

TEST(RuntimeApiTest, CopyAndClearRoot) {
  Runtime RT(testConfig());
  ClassId Cls = RT.registerClass("t.C", 0, 8);
  auto M = RT.attachMutator();
  {
    Root A(*M), B(*M);
    M->allocate(A, Cls);
    M->copyRoot(A, B);
    EXPECT_TRUE(M->refEquals(A, B));
    M->clearRoot(B);
    EXPECT_TRUE(B.isNull());
    EXPECT_FALSE(A.isNull());
  }
  M.reset();
}

TEST(RuntimeApiTest, MultipleMutators) {
  Runtime RT(testConfig());
  ClassId Cls = RT.registerClass("t.M", 0, 8);
  auto M1 = RT.attachMutator();
  std::thread Other([&] {
    auto M2 = RT.attachMutator();
    {
      // Scoped: the Root must unlink from M2 before M2 is destroyed.
      Root R(*M2);
      for (int I = 0; I < 1000; ++I)
        M2->allocate(R, Cls);
    }
    M2.reset();
  });
  {
    Root R(*M1);
    for (int I = 0; I < 1000; ++I)
      M1->allocate(R, Cls);
  }
  Other.join();
  M1.reset();
}

TEST(RuntimeApiTest, CountersZeroWithoutProbes) {
  Runtime RT(testConfig());
  auto M = RT.attachMutator();
  {
    Root R(*M);
    M->allocateRefArray(R, 10);
  }
  EXPECT_EQ(M->counters().Loads, 0u);
  M.reset();
  EXPECT_EQ(RT.mutatorCounters().Loads, 0u);
}

TEST(RuntimeApiTest, CountersTrackWithProbes) {
  GcConfig Cfg = testConfig();
  Cfg.EnableProbes = true;
  Runtime RT(Cfg);
  ClassId Cls = RT.registerClass("t.P", 1, 8);
  auto M = RT.attachMutator();
  {
    Root A(*M), B(*M);
    M->allocate(A, Cls);
    M->allocate(B, Cls);
    M->storeRef(A, 0, B);
    for (int I = 0; I < 100; ++I)
      M->loadRef(A, 0, B);
  }
  EXPECT_GT(M->counters().Loads, 100u);
  EXPECT_GT(M->counters().Stores, 0u);
  M.reset();
  EXPECT_GT(RT.mutatorCounters().Loads, 100u);
}
