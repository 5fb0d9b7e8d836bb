//===- tests/simcache/SimcacheReferenceTest.cpp ---------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Reference-model oracle for the cache simulator. Namespace `ref` below
// holds the original, straightforward model: per-way LRU counters with a
// tag divide, and a stream prefetcher that scans its whole table twice
// per access and returns its targets in a vector. The production model
// (recency-ordered sets, a bucketed stream index and a recency list) must
// produce bit-identical counters on every stream and geometry here.
// The reference keeps the original code as it was; do not optimize it.
//
//===----------------------------------------------------------------------===//

#include "simcache/Hierarchy.h"

#include "support/MathExtras.h"
#include "support/Random.h"

#include "TestSeeds.h"

#include <gtest/gtest.h>

#include <cassert>
#include <string>
#include <vector>

using namespace hcsgc;

namespace hcsgc::ref {

class SetAssocCache {
public:
  SetAssocCache(uint32_t NumSets, uint32_t Ways);
  bool access(uint64_t Line);
  void fill(uint64_t Line);
  bool contains(uint64_t Line) const;
  void clear();

private:
  struct Entry {
    uint64_t Tag = ~uint64_t(0);
    uint32_t Lru = 0; ///< Higher = more recently used.
    bool Valid = false;
  };

  Entry *setFor(uint64_t Line) {
    return &Entries[(Line & (Sets - 1)) * Assoc];
  }
  const Entry *setFor(uint64_t Line) const {
    return &Entries[(Line & (Sets - 1)) * Assoc];
  }
  void touch(Entry *Set, uint32_t Way);

  uint32_t Sets;
  uint32_t Assoc;
  std::vector<Entry> Entries;
};

SetAssocCache::SetAssocCache(uint32_t NumSets, uint32_t Ways)
    : Sets(NumSets), Assoc(Ways) {
  assert(isPowerOf2(NumSets) && "set count must be a power of two");
  assert(Ways >= 1 && "associativity must be at least 1");
  Entries.resize(static_cast<size_t>(Sets) * Assoc);
}

void SetAssocCache::touch(Entry *Set, uint32_t Way) {
  // True LRU via per-entry counters: demote everything more recent than
  // the touched way, then make it the most recent. Assoc is small (<=16),
  // so the linear walk is fine.
  uint32_t Old = Set[Way].Lru;
  for (uint32_t W = 0; W < Assoc; ++W)
    if (Set[W].Valid && Set[W].Lru > Old)
      --Set[W].Lru;
  Set[Way].Lru = Assoc - 1;
}

bool SetAssocCache::access(uint64_t Line) {
  Entry *Set = setFor(Line);
  uint64_t Tag = Line / Sets;
  uint32_t Victim = 0;
  uint32_t VictimLru = ~uint32_t(0);
  for (uint32_t W = 0; W < Assoc; ++W) {
    if (Set[W].Valid && Set[W].Tag == Tag) {
      touch(Set, W);
      return true;
    }
    if (!Set[W].Valid) {
      Victim = W;
      VictimLru = 0;
    } else if (Set[W].Lru < VictimLru) {
      Victim = W;
      VictimLru = Set[W].Lru;
    }
  }
  Set[Victim].Valid = true;
  Set[Victim].Tag = Tag;
  Set[Victim].Lru = 0;
  touch(Set, Victim);
  return false;
}

void SetAssocCache::fill(uint64_t Line) {
  // Same as access but the caller does not treat the result as a demand
  // hit/miss; we simply ensure residency.
  (void)access(Line);
}

bool SetAssocCache::contains(uint64_t Line) const {
  const Entry *Set = setFor(Line);
  uint64_t Tag = Line / Sets;
  for (uint32_t W = 0; W < Assoc; ++W)
    if (Set[W].Valid && Set[W].Tag == Tag)
      return true;
  return false;
}

void SetAssocCache::clear() {
  for (Entry &E : Entries)
    E = Entry();
}

class StreamPrefetcher {
public:
  StreamPrefetcher(uint32_t TableSize = 16, uint32_t Degree = 4);
  void observe(uint64_t Line, std::vector<uint64_t> &Targets);
  void reset();

private:
  struct Stream {
    uint64_t LastLine = 0;
    int64_t Stride = 0; ///< +1 / -1 once locked; 0 while training.
    uint32_t Confidence = 0;
    uint32_t Age = 0;
    bool Valid = false;
  };

  std::vector<Stream> Table;
  uint32_t Degree;
  uint32_t Tick = 0;
};

StreamPrefetcher::StreamPrefetcher(uint32_t TableSize, uint32_t Degree)
    : Table(TableSize), Degree(Degree) {}

void StreamPrefetcher::reset() {
  for (Stream &S : Table)
    S = Stream();
  Tick = 0;
}

void StreamPrefetcher::observe(uint64_t Line, std::vector<uint64_t> &Targets) {
  ++Tick;

  // Try to extend an existing stream: a hit is an access within +/-2 lines
  // of where the stream expects to be heading.
  Stream *Victim = nullptr;
  uint32_t VictimAge = 0;
  for (Stream &S : Table) {
    if (!S.Valid) {
      Victim = &S;
      VictimAge = ~uint32_t(0);
      continue;
    }
    int64_t Delta = static_cast<int64_t>(Line) -
                    static_cast<int64_t>(S.LastLine);
    if (Delta != 0 && Delta >= -2 && Delta <= 2 &&
        (S.Stride == 0 || (Delta > 0) == (S.Stride > 0))) {
      // Stream continues (we tolerate small jitter from the two-objects-
      // per-line layout the paper's 32-byte objects produce).
      S.Stride = Delta > 0 ? 1 : -1;
      if (S.Confidence < 8)
        ++S.Confidence;
      S.LastLine = Line;
      S.Age = Tick;
      if (S.Confidence >= 2) {
        for (uint32_t I = 1; I <= Degree; ++I)
          Targets.push_back(static_cast<uint64_t>(
              static_cast<int64_t>(Line) + S.Stride * static_cast<int64_t>(I)));
      }
      return;
    }
    uint32_t Age = Tick - S.Age;
    if (!Victim || Age > VictimAge) {
      Victim = &S;
      VictimAge = Age;
    }
  }

  // No stream matched: start training a new one in the LRU slot.
  Victim->Valid = true;
  Victim->LastLine = Line;
  Victim->Stride = 0;
  Victim->Confidence = 0;
  Victim->Age = Tick;
}

class CacheHierarchy : public MemoryProbe {
public:
  explicit CacheHierarchy(const CacheConfig &Cfg = CacheConfig());

  void onLoad(uintptr_t Addr, uint32_t Bytes) override;
  void onStore(uintptr_t Addr, uint32_t Bytes) override;
  void onCompute(uint64_t N) override { Counters.Cycles += N; }
  void onBatch(const ProbeEvent *Events, size_t N) override;

  const CacheCounters &counters() const { return Counters; }
  void resetCounters() { Counters = CacheCounters(); }
  void flush();

private:
  void accessLines(uintptr_t Addr, uint32_t Bytes, bool IsStore);
  void demandAccess(uint64_t Line);
  void prefetchFill(uint64_t Line);

  CacheConfig Cfg;
  SetAssocCache L1, L2, L3;
  StreamPrefetcher Pf;
  CacheCounters Counters;
  std::vector<uint64_t> PfTargets; // scratch, avoids per-access allocation
};

static uint32_t setsFor(uint32_t SizeBytes, uint32_t Ways, uint32_t Line) {
  uint32_t Sets = SizeBytes / (Ways * Line);
  return Sets ? Sets : 1;
}

CacheHierarchy::CacheHierarchy(const CacheConfig &C)
    : Cfg(C), L1(setsFor(C.L1Size, C.L1Ways, C.LineSize), C.L1Ways),
      L2(setsFor(C.L2Size, C.L2Ways, C.LineSize), C.L2Ways),
      L3(setsFor(C.L3Size, C.L3Ways, C.LineSize), C.L3Ways),
      Pf(C.StreamTableSize, C.PrefetchDegree) {
  PfTargets.reserve(C.PrefetchDegree);
}

void CacheHierarchy::flush() {
  L1.clear();
  L2.clear();
  L3.clear();
  Pf.reset();
}

void CacheHierarchy::prefetchFill(uint64_t Line) {
  // Prefetches fill L1 and L2 "for free": the model assumes enough memory
  // parallelism to overlap prefetch latency with execution, which is what
  // makes access-order layouts a win in the paper.
  L1.fill(Line);
  L2.fill(Line);
  L3.fill(Line);
  ++Counters.PrefetchesIssued;
}

void CacheHierarchy::demandAccess(uint64_t Line) {
  if (L1.access(Line)) {
    Counters.Cycles += Cfg.L1Lat;
  } else {
    ++Counters.L1Misses;
    if (L2.access(Line)) {
      Counters.Cycles += Cfg.L2Lat;
    } else {
      ++Counters.L2Misses;
      if (L3.access(Line)) {
        Counters.Cycles += Cfg.L3Lat;
      } else {
        ++Counters.LlcMisses;
        Counters.Cycles += Cfg.MemLat;
      }
    }
  }

  if (Cfg.PrefetchEnabled) {
    PfTargets.clear();
    Pf.observe(Line, PfTargets);
    for (uint64_t T : PfTargets)
      if (!L1.contains(T))
        prefetchFill(T);
  }
}

void CacheHierarchy::accessLines(uintptr_t Addr, uint32_t Bytes,
                                 bool IsStore) {
  if (IsStore)
    ++Counters.Stores;
  else
    ++Counters.Loads;
  uint64_t First = Addr / Cfg.LineSize;
  uint64_t Last = (Addr + (Bytes ? Bytes - 1 : 0)) / Cfg.LineSize;
  for (uint64_t Line = First; Line <= Last; ++Line)
    demandAccess(Line);
}

void CacheHierarchy::onLoad(uintptr_t Addr, uint32_t Bytes) {
  accessLines(Addr, Bytes, /*IsStore=*/false);
}

void CacheHierarchy::onStore(uintptr_t Addr, uint32_t Bytes) {
  accessLines(Addr, Bytes, /*IsStore=*/true);
}

void CacheHierarchy::onBatch(const ProbeEvent *Events, size_t N) {
  for (size_t I = 0; I < N; ++I)
    accessLines(Events[I].Addr, Events[I].Bytes, Events[I].IsStore != 0);
}

} // namespace hcsgc::ref

namespace {

enum class StreamKind {
  Random,
  Sequential,
  Backward,
  Jittered,
  LineCrossing,
  StoreHeavy,
  Mixed
};

/// Seeded access-stream generator. Addresses sit in a 64 MiB window well
/// above 0, like a heap reservation.
class StreamGen {
public:
  static constexpr uintptr_t Base = uintptr_t(1) << 36;
  static constexpr uint64_t Span = 64ull << 20;

  StreamGen(StreamKind K, uint64_t Seed) : Kind(K), Rng(Seed) {
    for (uint64_t &C : Cursors)
      C = Rng.nextBelow(Span / 64);
  }

  ProbeEvent next() {
    ++N;
    switch (Kind) {
    case StreamKind::Random:
      return load(Rng.nextBelow(Span), 8);
    case StreamKind::Sequential:
      return load(N * 32 % Span, 8);
    case StreamKind::Backward:
      return load(Span - 8 - N * 32 % Span, 8);
    case StreamKind::Jittered: {
      // Mostly ascending line walk, each access off by up to 2 lines.
      uint64_t Line = N / 2 + Rng.nextBelow(5) - 2 + 16;
      return load(Line * 64 + Rng.nextBelow(64 - 8), 8);
    }
    case StreamKind::LineCrossing:
      // 200-byte accesses at a 150-byte stride: every one spans 4 lines.
      return event(N * 150 % Span, 200, Rng.nextBelow(4) == 0);
    case StreamKind::StoreHeavy:
      return event(Rng.nextBelow(2) ? N * 24 % Span : Rng.nextBelow(Span),
                   16, Rng.nextBelow(10) < 7);
    case StreamKind::Mixed:
      return mixed();
    }
    return load(0, 8);
  }

private:
  static ProbeEvent event(uint64_t Off, uint32_t Bytes, bool IsStore) {
    return {Base + Off, Bytes, IsStore ? 1u : 0u};
  }
  static ProbeEvent load(uint64_t Off, uint32_t Bytes) {
    return event(Off, Bytes, false);
  }

  /// Interleaved forward, backward and jittered streams, repeats of the
  /// last line, and random accesses — both spread out and dense (the
  /// dense ones alias in the prefetcher's bucket index and often match
  /// several streams at once).
  ProbeEvent mixed() {
    uint64_t Pick = Rng.nextBelow(16);
    uint64_t Line;
    if (Pick < 3) {
      Line = Cursors[0]++;
    } else if (Pick < 5) {
      Line = Cursors[1]--;
    } else if (Pick < 7) {
      Cursors[2] += Rng.nextBelow(3);
      Line = Cursors[2];
    } else if (Pick < 10) {
      Line = LastLine;
    } else if (Pick < 13) {
      Line = Cursors[3] + Rng.nextBelow(512);
    } else {
      Line = Rng.nextBelow(Span / 64);
    }
    Line %= Span / 64;
    LastLine = Line;
    return event(Line * 64 + Rng.nextBelow(56), 8, Pick % 4 == 0);
  }

  StreamKind Kind;
  SplitMix64 Rng;
  uint64_t N = 0;
  uint64_t Cursors[4];
  uint64_t LastLine = 0;
};

enum class Geometry { Default, GraphCc, PrefetchOff, SmallStreams };

CacheConfig configFor(Geometry G) {
  CacheConfig Cfg;
  switch (G) {
  case Geometry::Default:
    break;
  case Geometry::GraphCc: // the graph benches' scaled-down hierarchy
    Cfg.L1Size = 16 * 1024;
    Cfg.L2Size = 64 * 1024;
    Cfg.L3Size = 512 * 1024;
    break;
  case Geometry::PrefetchOff:
    Cfg.PrefetchEnabled = false;
    break;
  case Geometry::SmallStreams: // full 32-stream table, tiny 2-way L1
    Cfg.L1Size = 4 * 1024;
    Cfg.L1Ways = 2;
    Cfg.StreamTableSize = 32;
    Cfg.PrefetchDegree = 2;
    break;
  }
  return Cfg;
}

void expectSameCounters(const CacheCounters &A, const CacheCounters &B,
                        size_t Batch) {
  ASSERT_EQ(A.Loads, B.Loads) << "batch " << Batch;
  ASSERT_EQ(A.Stores, B.Stores) << "batch " << Batch;
  ASSERT_EQ(A.L1Misses, B.L1Misses) << "batch " << Batch;
  ASSERT_EQ(A.L2Misses, B.L2Misses) << "batch " << Batch;
  ASSERT_EQ(A.LlcMisses, B.LlcMisses) << "batch " << Batch;
  ASSERT_EQ(A.PrefetchesIssued, B.PrefetchesIssued) << "batch " << Batch;
  ASSERT_EQ(A.Cycles, B.Cycles) << "batch " << Batch;
}

using Param = std::tuple<StreamKind, Geometry>;

class SimcacheReferenceTest : public ::testing::TestWithParam<Param> {};

TEST_P(SimcacheReferenceTest, CountersMatchReferenceModel) {
  auto [Kind, Geo] = GetParam();
  CacheConfig Cfg = configFor(Geo);
  CacheHierarchy Fast(Cfg);
  ref::CacheHierarchy Ref(Cfg);
  StreamGen Gen(Kind, test::testSeed(32 + static_cast<uint64_t>(Kind)));

  constexpr size_t Batches = 400;
  constexpr size_t BatchSize = 256;
  ProbeEvent Events[BatchSize];
  for (size_t B = 0; B < Batches; ++B) {
    for (ProbeEvent &E : Events)
      E = Gen.next();
    // The production model gets the batched path, the reference the
    // per-access one, so this also re-checks batching exactness.
    Fast.onBatch(Events, BatchSize);
    for (const ProbeEvent &E : Events) {
      if (E.IsStore)
        Ref.onStore(E.Addr, E.Bytes);
      else
        Ref.onLoad(E.Addr, E.Bytes);
    }
    Fast.onCompute(B);
    Ref.onCompute(B);
    expectSameCounters(Fast.counters(), Ref.counters(), B);
    if (HasFatalFailure())
      return;
    if (B % 150 == 149) {
      Fast.flush();
      Ref.flush();
    }
    if (B % 100 == 99) {
      Fast.resetCounters();
      Ref.resetCounters();
    }
  }
}

std::string paramName(const ::testing::TestParamInfo<Param> &Info) {
  static const char *Kinds[] = {"Random",       "Sequential", "Backward",
                                "Jittered",     "LineCrossing",
                                "StoreHeavy",   "Mixed"};
  static const char *Geos[] = {"Default", "GraphCc", "PrefetchOff",
                               "SmallStreams"};
  return std::string(Kinds[static_cast<int>(std::get<0>(Info.param))]) +
         "_" + Geos[static_cast<int>(std::get<1>(Info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    Streams, SimcacheReferenceTest,
    ::testing::Combine(
        ::testing::Values(StreamKind::Random, StreamKind::Sequential,
                          StreamKind::Backward, StreamKind::Jittered,
                          StreamKind::LineCrossing, StreamKind::StoreHeavy,
                          StreamKind::Mixed),
        ::testing::Values(Geometry::Default, Geometry::GraphCc,
                          Geometry::PrefetchOff, Geometry::SmallStreams)),
    paramName);

TEST(SimcacheReferenceDeathTest, LineSizeMustBeAPowerOfTwo) {
  CacheConfig Cfg;
  Cfg.LineSize = 48;
  EXPECT_DEATH(CacheHierarchy H(Cfg), "line size must be a power of two");
}

TEST(SimcacheReferenceDeathTest, StreamTableIsAtMost32) {
  CacheConfig Cfg;
  Cfg.StreamTableSize = 33;
  EXPECT_DEATH(CacheHierarchy H(Cfg), "stream table size");
}

} // namespace
