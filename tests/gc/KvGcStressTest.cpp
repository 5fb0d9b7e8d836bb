//===- tests/gc/KvGcStressTest.cpp ---------------------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
// The KV workload as a GC stress vehicle (this suite runs under TSan in
// CI):
//
//  - a seeded fault-injection matrix in the gc_torture style: tiny
//    geometries, denied TLAB refills / page allocations / relocation
//    targets, stretched phase and safepoint boundaries — the concurrent
//    read/update/churn mix must finish with zero consistency violations
//    and an intact heap;
//  - the snapshot invariants under the KV access pattern: the
//    offline §3.1.3 replay reproduces the collector's accept set
//    byte-for-byte, and once ColdConfidence weighting has relocation
//    compacting the Zipf working set, the hot-byte fraction of the pages
//    holding hot bytes trends upward across cycles.
//
//===----------------------------------------------------------------------===//

#include "inject/FaultInject.h"
#include "workloads/KvWorkload.h"

#include "TestSeeds.h"
#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

using namespace hcsgc;
using hcsgc::test::testSeed;

namespace {

/// Seed-bit-driven config in the gc_torture style, but with enough
/// headroom over the KV live set (~0.5 MiB at these params) that the
/// load phase cannot legitimately exhaust: every HeapExhausted the
/// workload reports then comes from injected faults and must have been
/// absorbed without losing a committed record.
GcConfig kvTortureConfig(uint64_t Bits) {
  GcConfig Cfg;
  Cfg.Geometry.SmallPageSize = 64 * 1024;
  Cfg.Geometry.MediumPageSize = 512 * 1024;
  Cfg.MaxHeapBytes = (size_t(16) + 4 * (Bits % 3)) << 20; // 16/20/24 MiB
  if (Bits & 1)
    Cfg.ReservedBytes = 2 * Cfg.MaxHeapBytes; // tight reservation
  Cfg.Hotness = (Bits >> 1) & 1;
  Cfg.ColdPage = Cfg.Hotness && ((Bits >> 2) & 1);
  Cfg.ColdConfidence = Cfg.Hotness ? 0.5 : 0.0;
  Cfg.RelocateAllSmallPages = (Bits >> 3) & 1;
  Cfg.LazyRelocate = (Bits >> 4) & 1;
  Cfg.GcWorkers = 1 + ((Bits >> 5) & 1);
  Cfg.TriggerFraction = 0.6;
  return Cfg;
}

/// gc_torture's probabilities with shorter delay bounds (unit-test
/// budget; the delays only stretch windows, they don't change coverage).
FaultPlan kvFaultPlan(uint64_t Seed) {
  FaultPlan Plan(Seed);
  Plan.set(FailPoint::TlabRefill, {0.05, 0, UINT64_MAX, 0});
  Plan.set(FailPoint::PageAlloc, {0.003, 0, UINT64_MAX, 0});
  Plan.set(FailPoint::RelocTargetAlloc, {0.02, 0, UINT64_MAX, 0});
  Plan.set(FailPoint::PhaseDelay, {0.25, 0, UINT64_MAX, 200});
  Plan.set(FailPoint::SafepointDelay, {0.25, 0, UINT64_MAX, 100});
  return Plan;
}

} // namespace

TEST(KvGcStressTest, FaultInjectionSeedMatrix) {
  for (uint64_t I = 0; I < 4; ++I) {
    uint64_t Seed = testSeed(0x4B60 + I);
    SCOPED_TRACE("kv torture seed " + std::to_string(I));
    GcConfig Cfg = kvTortureConfig(Seed);
    Runtime RT(Cfg);
    auto M = RT.attachMutator();

    KvWorkloadParams P;
    P.Records = 2500;
    P.ChurnKeys = 500;
    P.Ops = 16000;
    P.Threads = 3;
    P.Shards = 4;
    P.ValueWords = 4;
    P.ReadPct = 70; // heavier write mix than the bench: more GC traffic
    P.UpdatePct = 15;
    P.ComputeCyclesPerOp = 0;
    P.Seed = Seed;

    KvWorkloadResult R;
    {
      ScopedFaultPlan Armed(kvFaultPlan(Seed));
      R = runKvWorkload(*M, P);
    } // disarm before verification

    EXPECT_EQ(R.OpsDone, P.Ops);
    EXPECT_EQ(R.ConsistencyFailures, 0u)
        << "corrupt record observed under fault injection";
    EXPECT_EQ(R.ReadMisses, 0u) << "committed base record lost";
    EXPECT_GE(R.LiveRecords, P.Records);

    M.reset(); // detach before verifyHeap (it waits for driver idle)
    VerifyResult V = RT.verifyHeap();
    EXPECT_TRUE(V.ok()) << (V.Errors.empty() ? "" : V.Errors.front());
  }
}

TEST(KvGcStressTest, ChecksumStableUnderFaultInjection) {
  // The schedule-invariance contract must survive injected faults too:
  // denied refills and stretched phases change every interleaving, but
  // not the final (key, version) multiset.
  KvWorkloadParams P;
  P.Records = 1500;
  P.ChurnKeys = 300;
  P.Ops = 10000;
  P.Threads = 3;
  P.Shards = 4;
  P.ValueWords = 4;
  P.ComputeCyclesPerOp = 0;
  P.Seed = testSeed(0x4B70);

  uint64_t First = 0;
  for (int Round = 0; Round < 2; ++Round) {
    Runtime RT(kvTortureConfig(testSeed(0x4B71 + Round)));
    auto M = RT.attachMutator();
    ScopedFaultPlan Armed(kvFaultPlan(testSeed(0x4B75 + Round)));
    KvWorkloadResult R = runKvWorkload(*M, P);
    EXPECT_EQ(R.ConsistencyFailures, 0u);
    EXPECT_EQ(R.ReadMisses, 0u);
    if (Round == 0)
      First = R.Checksum;
    else
      EXPECT_EQ(R.Checksum, First)
          << "fault schedule leaked into the checksum";
    M.reset();
  }
}

namespace {

/// One round of YCSB-ish traffic against \p Store: Zipf reads flag the
/// working set hot (accounted at the next cycle via R-colored slots),
/// updates create the garbage that gives EC selection real choices.
void kvRound(Mutator &M, KvStore &Store, const KvKeySpace &Keys,
             SplitMix64 &Rng, uint64_t Ops) {
  for (uint64_t Op = 0; Op < Ops; ++Op) {
    uint64_t K = Keys.pick(Rng);
    if (Rng.nextBelow(100) < 90)
      ASSERT_EQ(Store.get(M, K), KvReadStatus::Hit) << "key " << K;
    else
      Store.put(M, K);
  }
}

} // namespace

TEST(KvGcStressTest, SnapshotAuditReplaysAndHotSetCompacts) {
  GcConfig Cfg;
  Cfg.Geometry.SmallPageSize = 64 * 1024;
  Cfg.Geometry.MediumPageSize = 1024 * 1024;
  Cfg.MaxHeapBytes = 32u << 20;
  Cfg.Hotness = true;
  Cfg.ColdPage = true;      // GC threads split cold survivors out (§3.1.2)
  Cfg.ColdConfidence = 1.0; // full §3.1.3 cold-byte discount
  // The stock budget (~1 page of weighted live per cycle) would compact
  // a 25-page store too slowly to observe; give EC room to accept the
  // mixed pages whose cold bytes the confidence discount exposes.
  Cfg.EvacBudgetPages = 16.0;
  Cfg.SnapshotLogEnabled = true;
  Runtime RT(Cfg);
  auto M = RT.attachMutator();
  {
    KvStoreParams SP;
    SP.Capacity = 24 * 1024;
    SP.Shards = 4;
    SP.ValueWords = 4;
    KvStore Store(*M, SP);
    const uint64_t N = 20000;
    for (uint64_t K = 0; K < N; ++K)
      Store.put(*M, K);

    KvKeySpace::Params KP;
    KP.Keys = N;
    KP.D = KvKeySpace::Dist::Zipf;
    KP.Theta = 0.99;
    KP.Seed = testSeed(0x4B80);
    KvKeySpace Keys(KP);
    SplitMix64 Rng(testSeed(0x4B81));

    // Touch-then-collect rounds: accesses leave R-colored slots, the
    // next cycle's marker scans them into the hotmap, and COLDPAGE
    // relocation separates the survivors it drains into hot and cold
    // destination pages.
    for (int Round = 0; Round < 10; ++Round) {
      kvRound(*M, Store, Keys, Rng, 15000);
      M->requestGcAndWait();
    }
    KvScanResult Scan = Store.scanAll(*M);
    EXPECT_EQ(Scan.Corrupt, 0u);
    EXPECT_EQ(Scan.Live, N);
  }
  M.reset();

  std::vector<CycleSnapshot> Log = RT.collectSnapshots();
  ASSERT_GE(Log.size(), 8u) << "too few snapshots captured";

  // (a) The recorded EC decisions replay byte-exactly offline — the
  // in-process equivalent of `heapscope --replay` exiting 0.
  size_t Audited = 0, SelectedTotal = 0;
  for (const CycleSnapshot &S : Log) {
    ++Audited;
    std::vector<uint64_t> Recorded = selectedPages(S);
    EXPECT_EQ(replayEcSelection(S), Recorded)
        << "cycle " << S.Cycle << ": offline replay diverged";
    SelectedTotal += Recorded.size();
  }
  EXPECT_GE(Audited, 4u);
  EXPECT_GT(SelectedTotal, 0u)
      << "EC never selected a page; the KV config has no relocation";

  // (b) Hot-set compaction: the hot-byte-weighted purity
  // sum(Hot_p * Hot_p/Live_p) / sum(Hot_p) asks "when I look at a hot
  // byte, how hot is the rest of its page?". A scattered working set
  // scores the global hot/live ratio (~0.26 here); COLDPAGE relocation
  // packing hot survivors together drives it toward 1. (A plain
  // sum(Hot)/sum(Live) over hot pages would NOT work: with >=1 hot byte
  // on every page it degenerates to the layout-invariant global ratio.)
  // Cycle 1 is an artifact (every slot is still R-colored from the
  // build phase, so everything looks hot) and cycle 2's window starts
  // clean but its layout predates any hotness-guided relocation — the
  // trend is cycle 2 onward.
  std::vector<std::pair<uint64_t, double>> Trend;
  for (const CycleSnapshot &S : Log) {
    if (!S.Hotness || S.Cycle < 2)
      continue;
    double HotSum = 0, Weighted = 0;
    for (const PageRecord &P : S.Pages) {
      if (P.HotBytes == 0 || P.LiveBytes == 0)
        continue;
      double Hot = static_cast<double>(P.HotBytes);
      Weighted += Hot * (Hot / static_cast<double>(P.LiveBytes));
      HotSum += Hot;
    }
    if (HotSum == 0)
      continue;
    Trend.emplace_back(S.Cycle, Weighted / HotSum);
  }
  // Relocation actually ran (the trend below would be vacuous without
  // it): with this budget EC accepts most mixed pages every cycle.
  EXPECT_GT(RT.metrics().counterValue("gc.reloc.bytes_gc"), 0u);

  ASSERT_GE(Trend.size(), 4u) << "need several hot cycles for a trend";
  for (const auto &[Cycle, Frac] : Trend)
    std::printf("[kv-hot-trend] cycle %llu: weighted hot purity %.3f\n",
                (unsigned long long)Cycle, Frac);
  // Compare the settled tail (mean of the last two cycles) against the
  // pre-compaction start. Observed locally: 0.35 -> ~0.42 against a
  // scattered baseline of ~0.26; require a rise well above noise.
  double Early = Trend.front().second;
  double Late = (Trend[Trend.size() - 1].second +
                 Trend[Trend.size() - 2].second) /
                2.0;
  EXPECT_GT(Late, Early + 0.02)
      << "hot working set never compacted: weighted purity stayed flat";
}

namespace {

/// One KV run for the temperature-vs-binary comparison below. Identical
/// store, key distribution, traffic, and seeds for both modes — the only
/// degree of freedom is whether relocation is guided by the 1-bit hotmap
/// or the 2-bit temperature plane.
struct KvPurityRun {
  double EarlyPurity = 0;
  double LatePurity = 0;
  uint64_t ColdPagesAllocated = 0;
  uint64_t ColdRelocatedBytes = 0;
  uint64_t ColdResidentMax = 0;
  std::vector<CycleSnapshot> Log;
};

KvPurityRun runKvPurityWorkload(bool Temperature) {
  GcConfig Cfg;
  Cfg.Geometry.SmallPageSize = 64 * 1024;
  Cfg.Geometry.MediumPageSize = 1024 * 1024;
  Cfg.MaxHeapBytes = 32u << 20;
  Cfg.Hotness = true;
  Cfg.ColdPage = true;
  Cfg.ColdConfidence = 1.0;
  Cfg.EvacBudgetPages = 16.0;
  Cfg.SnapshotLogEnabled = true;
  Cfg.Temperature = Temperature;
  Runtime RT(Cfg);
  auto M = RT.attachMutator();
  {
    KvStoreParams SP;
    SP.Capacity = 24 * 1024;
    SP.Shards = 4;
    SP.ValueWords = 4;
    KvStore Store(*M, SP);
    const uint64_t N = 20000;
    for (uint64_t K = 0; K < N; ++K)
      Store.put(*M, K);

    KvKeySpace::Params KP;
    KP.Keys = N;
    KP.D = KvKeySpace::Dist::Zipf;
    KP.Theta = 0.99;
    KP.Seed = testSeed(0x4B90);
    KvKeySpace Keys(KP);
    SplitMix64 Rng(testSeed(0x4B91));
    for (int Round = 0; Round < 12; ++Round) {
      kvRound(*M, Store, Keys, Rng, 15000);
      M->requestGcAndWait();
    }
    KvScanResult Scan = Store.scanAll(*M);
    EXPECT_EQ(Scan.Corrupt, 0u);
    EXPECT_EQ(Scan.Live, N);
  }
  M.reset();

  KvPurityRun R;
  MetricsRegistry &MR = RT.metrics();
  R.ColdPagesAllocated = MR.counterValue("coldpage.pages_allocated");
  R.ColdRelocatedBytes = MR.counterValue("coldpage.relocated_bytes");
  if (const Histogram *H = MR.findHistogram("coldpage.resident_bytes"))
    if (H->count() > 0)
      R.ColdResidentMax = static_cast<uint64_t>(H->max());
  R.Log = RT.collectSnapshots();

  // Same hot-byte-weighted purity as SnapshotAuditReplaysAndHotSetCompacts
  // (see the rationale there); both modes are scored on the SAME 1-bit
  // hotmap, so the comparison isolates the placement policy.
  std::vector<double> Trend;
  for (const CycleSnapshot &S : R.Log) {
    if (!S.Hotness || S.Cycle < 2)
      continue;
    double HotSum = 0, Weighted = 0;
    for (const PageRecord &P : S.Pages) {
      if (P.HotBytes == 0 || P.LiveBytes == 0)
        continue;
      double Hot = static_cast<double>(P.HotBytes);
      Weighted += Hot * (Hot / static_cast<double>(P.LiveBytes));
      HotSum += Hot;
    }
    if (HotSum > 0)
      Trend.push_back(Weighted / HotSum);
  }
  EXPECT_GE(Trend.size(), 4u);
  if (Trend.size() >= 4) {
    R.EarlyPurity = Trend.front();
    R.LatePurity = (Trend[Trend.size() - 1] + Trend[Trend.size() - 2]) / 2.0;
  }
  return R;
}

} // namespace

TEST(KvGcStressTest, TemperatureBeatsBinaryHotnessOnHotPagePurity) {
  // The paper's 1-bit hotmap forgets everything each cycle: an object in
  // the Zipf body that missed this cycle's sample is "cold" and gets
  // evicted from the hot pages it shares with the head, only to be
  // touched and moved back next cycle. The 2-bit temperature keeps such
  // warm objects (temp 1..2) off both the hot and the cold tier, so the
  // hot pages converge to the actual head of the distribution — measured
  // here as hot-byte-weighted purity on the identical workload.
  KvPurityRun Binary = runKvPurityWorkload(/*Temperature=*/false);
  KvPurityRun Temp = runKvPurityWorkload(/*Temperature=*/true);
  std::printf("[kv-purity] binary: early %.3f late %.3f | temp: early %.3f "
              "late %.3f\n",
              Binary.EarlyPurity, Binary.LatePurity, Temp.EarlyPurity,
              Temp.LatePurity);
  EXPECT_GT(Temp.LatePurity, Binary.LatePurity)
      << "temperature-guided placement should beat the 1-bit baseline";

  // Binary mode must not touch the temperature-only machinery...
  EXPECT_EQ(Binary.ColdPagesAllocated, 0u);
  // ...while the temperature run proves survivors cold, segregates them,
  // and reports their pages as cold-resident RSS.
  EXPECT_GE(Temp.ColdPagesAllocated, 1u);
  EXPECT_GE(Temp.ColdResidentMax, 64u * 1024u)
      << "cold-resident RSS never covered a full page";

  // Cold pages stay cold under churn: in every settled temperature
  // snapshot, pages adopted into or filled under the cold tier hold a
  // live population that is overwhelmingly tier-0 — hot traffic against
  // the Zipf head never lands on them. (Tolerate a sliver of re-heated
  // bytes: the drifting sample can clip a cold page's neighbour keys.)
  size_t ColdPageSightings = 0;
  for (const CycleSnapshot &S : Temp.Log) {
    if (!S.Temperature)
      continue;
    for (const PageRecord &P : S.Pages) {
      if (P.Tier != static_cast<uint8_t>(SnapPageTier::Cold) ||
          P.LiveBytes == 0)
        continue;
      ++ColdPageSightings;
      uint64_t Warmish = P.TempBytes[2] + P.TempBytes[3];
      EXPECT_LE(Warmish * 10, P.LiveBytes)
          << "cycle " << S.Cycle << " page 0x" << std::hex << P.PageBegin
          << std::dec << ": cold page re-heated";
    }
  }
  EXPECT_GE(ColdPageSightings, 2u)
      << "cold tier never visible in the snapshot log";
}

namespace {

/// One KV run for the pretenuring comparison below: the PR 7 temperature
/// config (19-style), optionally plus SITEPROFILING. Identical store,
/// key distribution, traffic and seeds in both modes — the only degree
/// of freedom is whether cold allocation sites are routed through the
/// pretenure TLAB at birth or sorted out by relocation afterwards.
struct KvPretenureRun {
  double LatePurity = 0;
  uint64_t RelocatedBytes = 0;  ///< gc.reloc.bytes_{gc,mutator} total.
  uint64_t PretenuredBytes = 0; ///< site.pretenured_bytes.
};

KvPretenureRun runKvPretenureWorkload(bool SiteProfile) {
  GcConfig Cfg;
  Cfg.Geometry.SmallPageSize = 64 * 1024;
  Cfg.Geometry.MediumPageSize = 1024 * 1024;
  Cfg.MaxHeapBytes = 48u << 20;
  Cfg.Hotness = true;
  Cfg.ColdPage = true;
  Cfg.ColdConfidence = 1.0;
  Cfg.EvacBudgetPages = 16.0;
  Cfg.SnapshotLogEnabled = true;
  Cfg.Temperature = true;
  Cfg.SiteProfiling = SiteProfile;
  Runtime RT(Cfg);
  auto M = RT.attachMutator();
  {
    KvStoreParams SP;
    SP.Capacity = 96 * 1024; // base records + the growing archive
    SP.Shards = 4;
    SP.ValueWords = 4;
    KvStore Store(*M, SP);
    const uint64_t N = 20000;
    for (uint64_t K = 0; K < N; ++K)
      Store.put(*M, K);

    KvKeySpace::Params KP;
    KP.Keys = N;
    KP.D = KvKeySpace::Dist::Zipf;
    KP.Theta = 0.99;
    KP.Seed = testSeed(0x4BA0);
    KvKeySpace Keys(KP);
    SplitMix64 Rng(testSeed(0x4BA1));
    // Zipf traffic with archive inserts woven into the op stream: fresh
    // keys that are written once and never read again, one per 16 hot
    // ops. The interleave matters — a clustered burst would already be
    // spatially separated by sequential TLAB bump, leaving pretenuring
    // nothing to win. Fine-grained mixing is the adversarial case: every
    // nursery page is born hot/cold salted, and only a site route can
    // keep the archive bytes off the Zipf head's pages.
    uint64_t Archive = uint64_t(1) << 40;
    uint64_t Archived = 0;
    for (int Round = 0; Round < 16; ++Round) {
      for (uint64_t Op = 0; Op < 15000; ++Op) {
        uint64_t K = Keys.pick(Rng);
        if (Rng.nextBelow(100) < 90)
          EXPECT_EQ(Store.get(*M, K), KvReadStatus::Hit) << "key " << K;
        else
          Store.put(*M, K);
        if (Op % 4 == 0)
          Store.put(*M, Archive + Archived++);
      }
      M->requestGcAndWait();
    }
    KvScanResult Scan = Store.scanAll(*M);
    EXPECT_EQ(Scan.Corrupt, 0u);
    EXPECT_EQ(Scan.Live, N + Archived);
    // The profile must have actually learned the archive stream: the
    // insert site carries every never-updated base record plus all
    // archives, so its hot fraction settles well under the warm
    // threshold and the route leaves Hot.
    if (SiteProfileTable *Prof = RT.heap().siteProfile())
      for (const SiteStats &St : Prof->snapshot())
        if (St.Name == "kv.record_insert")
          EXPECT_NE(St.Route, SiteRoute::Hot)
              << "insert site never earned a non-hot route (ewma "
              << St.HotEwma << ")";
  }
  M.reset();

  KvPretenureRun R;
  MetricsRegistry &MR = RT.metrics();
  R.RelocatedBytes = MR.counterValue("gc.reloc.bytes_gc") +
                     MR.counterValue("gc.reloc.bytes_mutator");
  R.PretenuredBytes = MR.counterValue("site.pretenured_bytes");

  // Hot-byte-weighted page purity, with "hot" read from the temperature
  // plane (tier >= 2: bytes touched across multiple aging windows)
  // rather than the 1-bit hotmap. The hotmap cannot tell the archive
  // stream from the working set here — a put's probe chain touches the
  // record it just wrote plus its bucket neighbours, so every archive
  // byte looks hot for exactly one cycle after birth, wherever it was
  // placed. Multi-cycle temperature is immune to that birth-touch noise
  // and measures the thing pretenuring is supposed to buy: the
  // persistently-hot working set not sharing pages with cold bytes.
  std::vector<double> Trend;
  for (const CycleSnapshot &S : RT.collectSnapshots()) {
    if (!S.Hotness || S.Cycle < 2)
      continue;
    double HotSum = 0, Weighted = 0;
    for (const PageRecord &P : S.Pages) {
      uint64_t HotB = P.TempBytes[2] + P.TempBytes[3];
      if (HotB == 0 || P.LiveBytes == 0)
        continue;
      double Hot = static_cast<double>(HotB);
      Weighted += Hot * (Hot / static_cast<double>(P.LiveBytes));
      HotSum += Hot;
    }
    if (HotSum > 0)
      Trend.push_back(Weighted / HotSum);
  }
  // Steady-state purity: the mean over the back half of the trend. The
  // site route only flips once ProfileCycles of evidence are in, so the
  // early cycles are identical by construction; a wide late window keeps
  // the comparison out of single-cycle EC-timing noise.
  EXPECT_GE(Trend.size(), 8u);
  if (Trend.size() >= 8) {
    double Sum = 0;
    for (size_t I = Trend.size() / 2; I < Trend.size(); ++I)
      Sum += Trend[I];
    R.LatePurity = Sum / static_cast<double>(Trend.size() - Trend.size() / 2);
  }
  return R;
}

} // namespace

TEST(KvGcStressTest, PretenuringBeatsTemperatureBaselineOnColdInserts) {
  // PR 7's temperature plane can only fix a bad placement after the
  // fact: archive records are born on hot nursery pages, proven cold
  // over Page::ProvenColdStreak cycles, then paid for again as
  // relocation bandwidth.
  // Site profiling cuts the loop at birth — kv.record_insert earns a
  // non-hot route and the archive burst never lands among the Zipf head
  // — so the same traffic must score higher hot-page purity with less
  // total relocation.
  KvPretenureRun Base = runKvPretenureWorkload(/*SiteProfile=*/false);
  KvPretenureRun Pre = runKvPretenureWorkload(/*SiteProfile=*/true);
  std::printf("[kv-pretenure] base: purity %.3f reloc %.1f MB | "
              "site: purity %.3f reloc %.1f MB pretenured %.1f KB\n",
              Base.LatePurity,
              static_cast<double>(Base.RelocatedBytes) / (1024.0 * 1024.0),
              Pre.LatePurity,
              static_cast<double>(Pre.RelocatedBytes) / (1024.0 * 1024.0),
              static_cast<double>(Pre.PretenuredBytes) / 1024.0);

  // The knob actually engaged (and only where enabled).
  EXPECT_EQ(Base.PretenuredBytes, 0u);
  EXPECT_GT(Pre.PretenuredBytes, 0u)
      << "no allocation ever took the pretenure TLAB";

  // Acceptance: better placement at birth shows up as strictly higher
  // hot-byte-weighted purity, above the 0.420 the temperature baseline
  // settles at on this workload, and as less relocation traffic.
  EXPECT_GT(Pre.LatePurity, 0.420);
  EXPECT_GT(Pre.LatePurity, Base.LatePurity)
      << "pretenured run should beat the temperature-only baseline";
  EXPECT_LT(Pre.RelocatedBytes, Base.RelocatedBytes)
      << "pretenuring should reduce total relocated bytes";
}
