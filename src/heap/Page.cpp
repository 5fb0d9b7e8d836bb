//===- heap/Page.cpp - Heap pages with livemap and hotmap ------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "heap/Page.h"

#include "support/MathExtras.h"

#include <thread>

using namespace hcsgc;

Page::Page(uintptr_t Begin, size_t Size, PageSizeClass Cls, uint64_t Seq,
           bool TrackTemp, bool TrackSites)
    : BeginAddr(Begin), PageBytes(Size), Cls(Cls), AllocSeq(Seq),
      Top(Begin), LiveMap(Size / ObjectAlignment),
      HotMap(Size / ObjectAlignment), TrackSites(TrackSites) {
  assert(Begin % ObjectAlignment == 0 && "misaligned page");
  size_t Granules = Size / ObjectAlignment;
  if (TrackTemp) {
    TempWords = std::vector<std::atomic<uint64_t>>(
        (Granules + GranulesPerTempWord - 1) / GranulesPerTempWord);
    for (std::atomic<uint64_t> &W : TempWords)
      W.store(0, std::memory_order_relaxed);
  }
}

uintptr_t Page::allocate(size_t Bytes) {
  Bytes = alignUp(Bytes, ObjectAlignment);
  uintptr_t Cur = Top.load(std::memory_order_relaxed);
  for (;;) {
    if (Cur + Bytes > end())
      return 0;
    if (Top.compare_exchange_weak(Cur, Cur + Bytes,
                                  std::memory_order_relaxed))
      return Cur;
  }
}

bool Page::undoAllocate(uintptr_t Addr, size_t Bytes) {
  Bytes = alignUp(Bytes, ObjectAlignment);
  uintptr_t Expected = Addr + Bytes;
  return Top.compare_exchange_strong(Expected, Addr,
                                     std::memory_order_relaxed);
}

void Page::clearMarkState() {
  assert(hasSideTables() && "side table of a drained page");
  LiveMap.clearAll();
  HotMap.clearAll();
  LiveBytesCtr.store(0, std::memory_order_relaxed);
  HotBytesCtr.store(0, std::memory_order_relaxed);
  LiveObjectsCtr.store(0, std::memory_order_relaxed);
}

bool Page::markLive(uintptr_t Addr, size_t Bytes) {
  if (!LiveMap.parSet(granuleOf(Addr)))
    return false;
  LiveBytesCtr.fetch_add(alignUp(Bytes, ObjectAlignment),
                         std::memory_order_relaxed);
  LiveObjectsCtr.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool Page::flagHot(uintptr_t Addr, size_t Bytes) {
  if (!HotMap.parSet(granuleOf(Addr)))
    return false;
  HotBytesCtr.fetch_add(alignUp(Bytes, ObjectAlignment),
                        std::memory_order_relaxed);
  if (!TempWords.empty())
    bumpTemperature(Addr);
  return true;
}

void Page::transferHot(uintptr_t Addr, size_t Bytes) {
  if (!HotMap.parSet(granuleOf(Addr)))
    return;
  HotBytesCtr.fetch_add(alignUp(Bytes, ObjectAlignment),
                        std::memory_order_relaxed);
}

unsigned Page::temperatureOf(uintptr_t Addr) const {
  assert(hasSideTables() && "side table of a drained page");
  if (TempWords.empty())
    return 0;
  return static_cast<unsigned>(tempNibble(granuleOf(Addr)) & 3);
}

unsigned Page::coldStreakOf(uintptr_t Addr) const {
  assert(hasSideTables() && "side table of a drained page");
  if (TempWords.empty())
    return 0;
  return static_cast<unsigned>((tempNibble(granuleOf(Addr)) >> 2) & 3);
}

void Page::bumpTemperature(uintptr_t Addr) {
  size_t G = granuleOf(Addr);
  std::atomic<uint64_t> &W = TempWords[G / GranulesPerTempWord];
  unsigned Shift = (G % GranulesPerTempWord) * TempNibbleBits;
  uint64_t Cur = W.load(std::memory_order_relaxed);
  for (;;) {
    uint64_t Temp = (Cur >> Shift) & 3;
    uint64_t NewTemp = Temp < MaxTemperature ? Temp + 1 : Temp;
    // New value also clears the streak bits: a touch interrupts any
    // cold streak.
    uint64_t Next =
        (Cur & ~(uint64_t(0xF) << Shift)) | (NewTemp << Shift);
    if (Next == Cur)
      return;
    if (W.compare_exchange_weak(Cur, Next, std::memory_order_relaxed))
      return;
  }
}

void Page::seedTemperature(uintptr_t Addr, unsigned Temp, unsigned Streak) {
  if (TempWords.empty())
    return;
  size_t G = granuleOf(Addr);
  std::atomic<uint64_t> &W = TempWords[G / GranulesPerTempWord];
  unsigned Shift = (G % GranulesPerTempWord) * TempNibbleBits;
  uint64_t Nibble =
      (uint64_t(Temp & 3) | (uint64_t(Streak & 3) << 2)) << Shift;
  // The destination granule's nibble is still zero (fresh target page,
  // and only the forwarding winner gets here), so OR suffices and stays
  // atomic against writers of neighbouring granules.
  W.fetch_or(Nibble, std::memory_order_relaxed);
}

void Page::ageTemperature() {
  assert(hasSideTables() && "side table of a drained page");
  if (TempWords.empty())
    return;
  // Exclusive walk (pre-STW1: mark is inactive, no RelocSource pages
  // exist), but nibble words stay atomic for TSan cleanliness. A granule
  // ages when it was live in the LAST cycle OR already carries a nonzero
  // nibble: relocated-in copies are seeded after marking ended, so they
  // are not yet in this page's livemap — gating on the livemap alone
  // would freeze survivors that move every cycle at their seeded
  // temperature forever, and none would ever prove cold. Dead leftovers
  // (nonzero nibble, never marked again) just decay toward a saturated
  // cold streak; their granules are never reallocated (bump-only pages),
  // so the stale nibbles are unobservable.
  // SWAR rewrite (INTERNALS §14): one pass over each 64-bit nibble word
  // ages all 16 granules at once via swarAgeTempNibbles, whose per-nibble
  // semantics equal the old scalar loop bit-for-bit (scalarAgeTempNibble
  // in support/Bits.h is that loop, kept as the tested specification).
  // The decay-to-zero-starts-streak-at-1 rule and its rationale live in
  // the kernel's doc comment. Livemap/hotmap bits are pulled 16 at a
  // time from the backing words; bits past Limit are masked off, and
  // nibbles past Limit are zero by construction (granules are only ever
  // bumped/seeded below the bump pointer), so untouched lanes stay 0.
  size_t Limit = used() / ObjectAlignment;
  for (size_t WI = 0; WI * GranulesPerTempWord < Limit; ++WI) {
    std::atomic<uint64_t> &W = TempWords[WI];
    uint64_t Cur = W.load(std::memory_order_relaxed);
    size_t Base = WI * GranulesPerTempWord;
    unsigned Shift = static_cast<unsigned>(Base & 63);
    uint16_t Live16 = static_cast<uint16_t>(
        (LiveMap.word(Base >> 6) >> Shift) & 0xFFFF);
    uint16_t Hot16 = static_cast<uint16_t>(
        (HotMap.word(Base >> 6) >> Shift) & 0xFFFF);
    if (size_t Remain = Limit - Base; Remain < GranulesPerTempWord) {
      uint16_t Mask = static_cast<uint16_t>((1u << Remain) - 1);
      Live16 &= Mask;
      Hot16 &= Mask;
    }
    if (Cur == 0 && Live16 == 0)
      continue; // nothing to age, nothing live here
    uint64_t Next = swarAgeTempNibbles(Cur, Live16, Hot16);
    if (Next != Cur)
      W.store(Next, std::memory_order_relaxed);
  }
}

void Page::accumulateTempTierBytes(uint64_t (&Tiers)[TempTiers],
                                   uint64_t &ProvenCold) const {
  for (uint64_t &B : Tiers)
    B = 0;
  ProvenCold = 0;
  assert(hasSideTables() && "side table of a drained page");
  if (TempWords.empty())
    return;
  forEachLiveObject([&](uintptr_t Addr) {
    ObjectView V(Addr);
    uint64_t Bytes = alignUp(V.sizeBytes(), ObjectAlignment);
    unsigned Temp = temperatureOf(Addr);
    Tiers[Temp] += Bytes;
    if (Temp == 0 && coldStreakOf(Addr) >= ProvenColdStreak)
      ProvenCold += Bytes;
  });
}

void Page::forEachLiveObject(
    const std::function<void(uintptr_t)> &Fn) const {
  // Word-at-a-time walk: load each 64-granule livemap word once and
  // extract set bits with ctz + clear-lowest, instead of re-walking the
  // map per bit (findNext restarted from scratch on every object). The
  // pre-STW1 survival walk, tier accumulation and EC-feeding passes all
  // funnel through here (INTERNALS §14).
  assert(hasSideTables() && "side table of a drained page");
  size_t Limit = used() / ObjectAlignment;
  size_t NumWords = (Limit + 63) / 64;
  for (size_t WI = 0; WI < NumWords; ++WI) {
    uint64_t W = LiveMap.word(WI);
    if (WI == NumWords - 1 && (Limit & 63) != 0)
      W &= (uint64_t(1) << (Limit & 63)) - 1; // drop bits past the bump
    while (W != 0) {
      size_t Idx = (WI << 6) + ctz64(W);
      Fn(BeginAddr + Idx * ObjectAlignment);
      W &= W - 1;
    }
  }
}

void Page::beginEvacuation(uintptr_t HeapBase, size_t HeapBytes) {
  assert(state() == PageState::Active && "page already evacuating");
  Fwd = std::make_unique<ForwardingTable>(liveObjects(), PageBytes, HeapBase,
                                          HeapBytes);
  RelocOutGcCtr.store(0, std::memory_order_relaxed);
  RelocOutMutCtr.store(0, std::memory_order_relaxed);
  setState(PageState::RelocSource);
}

void Page::finishDrain() {
  assert(state() == PageState::RelocSource && "finishing an undrained page");
  // Seq_cst on both sides (beginCopy's increment and state load, this
  // store and load): either the copier sees Quarantined, or this sees
  // its announcement and waits for its endCopy.
  State.store(static_cast<uint32_t>(PageState::Quarantined),
              std::memory_order_seq_cst);
  while (Copiers.load(std::memory_order_seq_cst) != 0)
    std::this_thread::yield();
}

void Page::dropSideTables() {
  assert(state() == PageState::Quarantined && "dropping a live page's maps");
  LiveMap.release();
  HotMap.release();
  TempWords = std::vector<std::atomic<uint64_t>>();
}
