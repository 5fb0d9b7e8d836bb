//===- tests/gc/QuarantineBatchTest.cpp - batched quarantine release -----===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Metrics-backed proof of the ISSUE acceptance criterion: retiring a
/// cycle's quarantined pages acquires each owning shard's lock at most
/// once per shard per cycle. Drives real GC cycles with relocation
/// forced on every small page (so every cycle quarantines the whole
/// evacuated set) and checks the alloc.quarantine.* counters the batched
/// release pass emits: release_locks <= batch_passes * (shards + 1),
/// with many more pages released than locks taken once the page count
/// per cycle exceeds the shard count.
///
//===----------------------------------------------------------------------===//

#include "runtime/Runtime.h"

#include "TestSeeds.h"
#include <gtest/gtest.h>

#include <set>

#include <sys/mman.h>
#include <unistd.h>

using namespace hcsgc;

namespace {

uint64_t metric(Runtime &RT, const char *Name) {
  return RT.metrics().counterValue(Name);
}

/// OS pages of [Begin, Begin + Bytes) that mincore reports resident.
size_t residentOsPages(uintptr_t Begin, size_t Bytes) {
  const size_t Os = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> Vec((Bytes + Os - 1) / Os);
  EXPECT_EQ(mincore(reinterpret_cast<void *>(Begin), Bytes, Vec.data()), 0);
  size_t Resident = 0;
  for (unsigned char V : Vec)
    Resident += V & 1;
  return Resident;
}

/// Checks every quarantined page keeps only what a stale reference can
/// reach: address range, page-table entry and forwarding table.
/// \returns the quarantined pages' begin addresses.
std::set<uintptr_t> expectOnlyForwardingKept(Runtime &RT) {
  PageAllocator &Alloc = RT.heap().allocator();
  std::set<uintptr_t> Begins;
  for (Page *P : Alloc.quarantinedPagesSnapshot()) {
    EXPECT_EQ(P->state(), PageState::Quarantined);
    EXPECT_EQ(RT.heap().pageTable().lookup(P->begin()), P);
    EXPECT_NE(P->forwarding(), nullptr);
    EXPECT_EQ(P->sideTableBytes(), 0u);
    EXPECT_EQ(residentOsPages(P->begin(), P->size()), 0u)
        << "quarantined page at " << std::hex << P->begin()
        << " still holds resident memory";
    Begins.insert(P->begin());
  }
  return Begins;
}

/// Runs one config through a cycle whose drain leaves quarantined pages,
/// then checks what they keep, that stale references into them still
/// resolve, and that their units come back zeroed once released.
void checkQuarantinedPagesKeepOnlyForwarding(bool Lazy) {
  SCOPED_TRACE(Lazy ? "lazy" : "eager");
  GcConfig Cfg;
  Cfg.Geometry.SmallPageSize = 64 * 1024;
  Cfg.Geometry.MediumPageSize = 512 * 1024;
  Cfg.MaxHeapBytes = 16u << 20;
  Cfg.TriggerFraction = 1.0; // only explicit cycles
  Cfg.RelocateAllSmallPages = true;
  Cfg.EvacBudgetFraction = 1.0;
  Cfg.EvacBudgetPages = 1.0;
  // Livemap, hotmap and the temperature plane: every side table exists.
  Cfg.Hotness = true;
  Cfg.Temperature = true;
  Cfg.LazyRelocate = Lazy;
  Runtime RT(Cfg);

  ClassId Cls = RT.registerClass("quar.Obj", 1, 2048 - 64);
  auto M = RT.attachMutator();
  {
    const uint32_t Slots = 128;
    auto Stamp = [](uint32_t I) { return int64_t(I) * 7919 + 1; };
    Root Arr(*M);
    M->allocateRefArray(Arr, Slots);
    Root Tmp(*M);
    for (uint32_t I = 0; I < Slots; ++I) {
      M->allocate(Tmp, Cls);
      M->storeWord(Tmp, 0, Stamp(I));
      M->storeElem(Arr, I, Tmp);
    }
    M->clearRoot(Tmp);

    M->requestGcAndWait();
    if (Lazy) {
      // The deferred set waits for mutators: excavate half of it through
      // the barrier (announced copiers), then let an emergency cycle
      // drain the rest at its start. A deferred set's quarantine ends at
      // the mark of the cycle that drains it, so what stays quarantined
      // afterwards is the emergency cycle's own set, drained at once.
      for (uint32_t I = 0; I < Slots; I += 2) {
        M->loadElem(Arr, I, Tmp);
        EXPECT_EQ(M->loadWord(Tmp, 0), Stamp(I));
      }
      M->clearRoot(Tmp);
      BlockedScope B(RT.safepoints());
      RT.driver().requestEmergencyCycleAndWait();
    }

    std::set<uintptr_t> Quarantined = expectOnlyForwardingKept(RT);
    ASSERT_FALSE(Quarantined.empty()) << "the drain quarantined nothing";

    // Stale references into the quarantined pages still resolve: the
    // array's element slots were not healed since the drain.
    VerifyResult V = RT.verifyHeap();
    EXPECT_TRUE(V.ok()) << (V.Errors.empty() ? "" : V.Errors.front());
    EXPECT_GT(V.StaleRefsResolved, 0u);
    for (uint32_t I = 0; I < Slots; ++I) {
      M->loadElem(Arr, I, Tmp);
      EXPECT_EQ(M->loadWord(Tmp, 0), Stamp(I)) << "element " << I;
    }
    M->clearRoot(Tmp);
    // Resolving went through the forwarding tables only: the quarantined
    // memory was never read back in.
    EXPECT_EQ(expectOnlyForwardingKept(RT), Quarantined);

    // Every element slot is healed now, so retiring the quarantine early
    // is safe (verifyHeap would flag a reference into a released page).
    PageAllocator &Alloc = RT.heap().allocator();
    EXPECT_EQ(Alloc.releaseQuarantinedBefore(UINT64_MAX), Quarantined.size());
    V = RT.verifyHeap();
    EXPECT_TRUE(V.ok()) << (V.Errors.empty() ? "" : V.Errors.front());

    // A released unit refaults on reuse and reads all zeros. Touched-first
    // carving hands the released units out before any fresh one.
    std::vector<Page *> Taken;
    bool Reinstalled = false;
    while (!Reinstalled) {
      Page *P = Alloc.allocatePage(PageSizeClass::Small, 64,
                                   RT.heap().currentCycle());
      ASSERT_NE(P, nullptr) << "no released unit was handed out again";
      Taken.push_back(P);
      if (!Quarantined.count(P->begin()))
        continue;
      Reinstalled = true;
      const uint64_t *W = reinterpret_cast<const uint64_t *>(P->begin());
      size_t NonZero = 0;
      for (size_t I = 0; I < P->size() / sizeof(uint64_t); ++I)
        NonZero += W[I] != 0;
      EXPECT_EQ(NonZero, 0u);
    }
    for (Page *P : Taken)
      Alloc.releasePage(P);

    M->requestGcAndWait();
    V = RT.verifyHeap();
    EXPECT_TRUE(V.ok()) << (V.Errors.empty() ? "" : V.Errors.front());
    for (uint32_t I = 0; I < Slots; ++I) {
      M->loadElem(Arr, I, Tmp);
      EXPECT_EQ(M->loadWord(Tmp, 0), Stamp(I)) << "element " << I;
    }
  }
  M.reset();
}

} // namespace

TEST(QuarantineBatchTest, ReleaseTakesAtMostOneLockPerShardPerCycle) {
  GcConfig Cfg;
  Cfg.Geometry.SmallPageSize = 64 * 1024;
  Cfg.Geometry.MediumPageSize = 512 * 1024;
  Cfg.MaxHeapBytes = 16u << 20;
  Cfg.TriggerFraction = 1.0; // only explicit cycles
  Cfg.AllocatorShards = 4;
  // Evacuate every small page each cycle: maximal quarantine traffic.
  Cfg.RelocateAllSmallPages = true;
  Cfg.EvacBudgetFraction = 1.0;
  Cfg.EvacBudgetPages = 1.0;
  Runtime RT(Cfg);

  ClassId Cls = RT.registerClass("quar.Obj", 1, 2048 - 64);
  auto M = RT.attachMutator();
  {
    // A retained object graph spanning many small pages, so each cycle
    // evacuates (and therefore quarantines) a multi-page EC.
    const uint32_t Slots = 128;
    Root Arr(*M);
    M->allocateRefArray(Arr, Slots);
    Root Tmp(*M);
    for (uint32_t I = 0; I < Slots; ++I) {
      M->allocate(Tmp, Cls);
      M->storeElem(Arr, I, Tmp);
    }

    // Cycle 1 evacuates and quarantines; cycles 2 and 3 retire the
    // previous cycle's quarantined pages through the batched pass.
    for (int C = 0; C < 3; ++C)
      M->requestGcAndWait();

    uint64_t Passes = metric(RT, "alloc.quarantine.batch_passes");
    uint64_t Locks = metric(RT, "alloc.quarantine.release_locks");
    uint64_t Pages = metric(RT, "alloc.quarantine.pages_released");
    unsigned Shards = RT.heap().allocator().shardCount();

    ASSERT_GE(Passes, 3u) << "one batched pass per cycle";
    ASSERT_GE(Pages, Slots * 2048 / (64 * 1024))
        << "relocating the retained graph must quarantine-and-retire "
           "multiple small pages";
    // The criterion: at most one lock per shard (incl. the reserve) per
    // pass — independent of how many pages each shard retires.
    EXPECT_LE(Locks, Passes * (Shards + 1));
    // And the batching is real: strictly fewer locks than pages, which
    // the old per-page releasePage loop could never achieve once a
    // shard retires two or more pages in one cycle.
    EXPECT_LT(Locks, Pages);

    VerifyResult V = RT.verifyHeap();
    EXPECT_TRUE(V.ok()) << (V.Errors.empty() ? "" : V.Errors.front());
  }
  M.reset();
}

TEST(QuarantineBatchTest, QuarantinedPageKeepsOnlyItsForwardingTable) {
  checkQuarantinedPagesKeepOnlyForwarding(/*Lazy=*/false);
  checkQuarantinedPagesKeepOnlyForwarding(/*Lazy=*/true);
}
