//===- tools/gc_torture.cpp - Seeded fault-injection torture runner ----------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs seeded mutator/GC schedules under tiny-heap geometries with the
/// fault-point registry armed: TLAB refills and page allocations are
/// denied probabilistically, relocation-target allocation is pushed onto
/// the reserve pool, and phase/safepoint boundaries are stretched by
/// bounded random delays. Every object carries a self-validating
/// checksum, heap exhaustion must surface as the typed error (never an
/// abort), and each seed ends with a full heap verification.
///
/// Usage:
///   gc_torture [--seeds=32] [--seed-base=N] [--ops=30000] [--threads=4]
///              [--kv-seeds=0] [--seconds=0] [--trace-dir=DIR] [--verbose]
///
/// --seconds=N is soak mode: instead of --seeds seeds, consecutive seeds
/// from --seed-base keep running (each with its full heap verification)
/// until N seconds have passed.
///
/// --kv-seeds=N additionally runs N seeds of the YCSB-style KV workload
/// (src/workloads/KvWorkload.h) under the same fault plans and seed-bit
/// configs: self-validating records, concurrent read/update/churn mix,
/// zero consistency violations required.
///
/// Exit code 0 iff every seed completes with an intact heap.
///
//===----------------------------------------------------------------------===//

#include "inject/FaultInject.h"
#include "runtime/Runtime.h"
#include "support/ArgParse.h"
#include "support/Random.h"
#include "support/Stopwatch.h"
#include "workloads/KvWorkload.h"

#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace hcsgc;

namespace {

struct Options {
  uint64_t Seeds = 32;
  uint64_t KvSeeds = 0;
  uint64_t SeedBase = 0xC0FFEE5EEDull;
  uint64_t OpsPerThread = 30000;
  unsigned Threads = 4;
  std::string TraceDir;
  bool Verbose = false;
};

/// SplitMix64 finalizer used to derive checksums and per-seed streams.
uint64_t mix64(uint64_t Z) {
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

/// Classes shared by every torture thread (registered once per runtime).
struct TortureClasses {
  ClassId Small;  ///< 0 refs, 24-byte payload.
  ClassId Node;   ///< 2 refs, 16-byte payload (graph edges).
  ClassId Medium; ///< 0 refs, payload sized for the medium class.
  ClassId Large;  ///< 0 refs, payload sized for a large page.
};

/// Allocation sites of the small and node allocations, so seed bit 8
/// (SiteProfiling) stamps headers that relocation must carry along.
struct TortureSites {
  SiteId Small = HCSGC_ALLOC_SITE("torture.small");
  SiteId Node = HCSGC_ALLOC_SITE("torture.node");
  SiteId Shared = HCSGC_ALLOC_SITE("torture.shared");
};

/// Stamps the self-validating checksum: payload word 0 is a tag whose top
/// 16 bits record the object's allocation site, word 1 its SplitMix64
/// image. Any misdirected relocation, lost update or premature reclaim
/// shows up as a mismatch.
void stampObject(Mutator &M, Root &Obj, uint64_t Tag,
                 SiteId Site = UnknownSiteId) {
  Tag = (Tag & ~(uint64_t(0xFFFF) << 48)) | (uint64_t(Site) << 48);
  M.storeWord(Obj, 0, static_cast<int64_t>(Tag));
  M.storeWord(Obj, 1, static_cast<int64_t>(mix64(Tag)));
}

/// \returns an error, or nullptr when the checksum holds and the header
/// carries the recorded site (with site stamping armed; unknown without).
const char *validateObject(Mutator &M, Root &Obj, bool Stamps) {
  uint64_t Tag = static_cast<uint64_t>(M.loadWord(Obj, 0));
  uint64_t Img = static_cast<uint64_t>(M.loadWord(Obj, 1));
  if (Img != mix64(Tag))
    return "checksum mismatch";
  SiteId Expected = Stamps ? static_cast<SiteId>(Tag >> 48) : UnknownSiteId;
  return M.siteOf(Obj) == Expected ? nullptr : "site mismatch";
}

struct ThreadResult {
  uint64_t Ops = 0;
  uint64_t Exhausted = 0;
  uint64_t Validated = 0;
  std::string Error;
};

constexpr uint32_t OwnSlots = 192;
constexpr uint32_t SharedSlots = 128;

void tortureThread(Runtime &RT, const TortureClasses &Cls,
                   GlobalRoot *Shared, uint64_t Seed, uint64_t Ops,
                   ThreadResult &Res) {
  auto M = RT.attachMutator();
  SplitMix64 Rng(Seed);
  Root Arr(*M), SharedArr(*M), Tmp(*M), Ref(*M);
  const TortureSites Sites;
  const bool Stamps = RT.heap().siteProfile() != nullptr;
  auto Validate = [&](const char *Slot) {
    ++Res.Validated;
    if (const char *Err = validateObject(*M, Tmp, Stamps))
      Res.Error = std::string(Slot) + "-slot " + Err;
  };

  // Own array: this thread's private root set. On the tiniest
  // geometries a starting thread can lose the allocation race to its
  // churning siblings through a whole stall budget — the typed error is
  // correct there, so keep retrying boundedly (each attempt already
  // stalls through GC-assisted backoff internally).
  bool Started = false;
  for (unsigned Try = 0; Try < 16 && !Started; ++Try) {
    try {
      M->allocateRefArray(Arr, OwnSlots);
      Started = true;
    } catch (const HeapExhaustedError &) {
      ++Res.Exhausted;
    }
  }
  if (!Started) {
    Res.Error = "startup allocation failed 16 times";
    return;
  }

  // Drops references so a later allocation can succeed; exercised after
  // every HeapExhausted to prove the error is recoverable.
  auto Relieve = [&] {
    for (uint32_t I = 0; I < OwnSlots; I += 2)
      M->storeElemNull(Arr, I);
  };

  for (uint64_t Op = 0; Op < Ops && Res.Error.empty(); ++Op) {
    uint64_t Dice = Rng.nextBelow(100);
    uint64_t Tag = (Seed << 20) ^ Op;
    try {
      if (Dice < 40) {
        // Small validated object into a random own slot.
        M->allocate(Tmp, Cls.Small, Sites.Small);
        stampObject(*M, Tmp, Tag, Sites.Small);
        M->storeElem(Arr, static_cast<uint32_t>(Rng.nextBelow(OwnSlots)),
                     Tmp);
      } else if (Dice < 50) {
        // Graph node: validated payload plus two edges into the own
        // array, so marking and relocation chase real pointers.
        M->allocate(Tmp, Cls.Node, Sites.Node);
        stampObject(*M, Tmp, Tag, Sites.Node);
        for (uint32_t E = 0; E < 2; ++E) {
          M->loadElem(Arr, static_cast<uint32_t>(Rng.nextBelow(OwnSlots)),
                      Ref);
          if (!Ref.isNull())
            M->storeRef(Tmp, E, Ref);
        }
        M->storeElem(Arr, static_cast<uint32_t>(Rng.nextBelow(OwnSlots)),
                     Tmp);
      } else if (Dice < 58) {
        // Publish to / read from the cross-thread shared array.
        M->loadGlobal(*Shared, SharedArr);
        uint32_t Idx = static_cast<uint32_t>(Rng.nextBelow(SharedSlots));
        if (Dice < 54) {
          M->allocate(Tmp, Cls.Small, Sites.Shared);
          stampObject(*M, Tmp, Tag, Sites.Shared);
          M->storeElem(SharedArr, Idx, Tmp);
        } else {
          M->loadElem(SharedArr, Idx, Tmp);
          if (!Tmp.isNull())
            Validate("shared");
        }
      } else if (Dice < 72) {
        // Validate a random own slot.
        M->loadElem(Arr, static_cast<uint32_t>(Rng.nextBelow(OwnSlots)),
                    Tmp);
        if (!Tmp.isNull())
          Validate("own");
      } else if (Dice < 82) {
        // Make garbage.
        M->storeElemNull(Arr,
                         static_cast<uint32_t>(Rng.nextBelow(OwnSlots)));
      } else if (Dice < 88) {
        // Medium object (per-thread medium TLAB path).
        M->allocate(Tmp, Cls.Medium);
        stampObject(*M, Tmp, Tag);
        M->storeElem(Arr, static_cast<uint32_t>(Rng.nextBelow(OwnSlots)),
                     Tmp);
      } else if (Dice < 90) {
        // Large object (dedicated page path).
        M->allocate(Tmp, Cls.Large);
        stampObject(*M, Tmp, Tag);
        M->storeElem(Arr, static_cast<uint32_t>(Rng.nextBelow(OwnSlots)),
                     Tmp);
      } else if (Dice < 95) {
        // Non-throwing API coverage.
        if (M->tryAllocate(Tmp, Cls.Small, Sites.Small) ==
            AllocStatus::HeapExhausted) {
          ++Res.Exhausted;
          Relieve();
        } else {
          stampObject(*M, Tmp, Tag, Sites.Small);
          M->storeElem(Arr,
                       static_cast<uint32_t>(Rng.nextBelow(OwnSlots)),
                       Tmp);
        }
      } else {
        M->simulateWork(50);
        M->poll();
      }
    } catch (const HeapExhaustedError &) {
      // The typed error is the contract under test: recover by dropping
      // references and keep going.
      ++Res.Exhausted;
      Relieve();
    }
    ++Res.Ops;
  }
}

GcConfig configForSeed(uint64_t Bits, const Options &Opt) {
  GcConfig Cfg;
  Cfg.Geometry.SmallPageSize = 64 * 1024;
  Cfg.Geometry.MediumPageSize = 512 * 1024;
  Cfg.MaxHeapBytes = (size_t(8) + 4 * (Bits % 3)) << 20; // 8/12/16 MiB
  // Half the seeds run with a tight reservation (2x instead of the 3x
  // default) so quarantine pressure reaches the relocation reserve.
  if (Bits & 1)
    Cfg.ReservedBytes = 2 * Cfg.MaxHeapBytes;
  Cfg.Hotness = (Bits >> 1) & 1;
  Cfg.ColdPage = Cfg.Hotness && ((Bits >> 2) & 1);
  Cfg.ColdConfidence = Cfg.Hotness ? 0.5 : 0.0;
  Cfg.RelocateAllSmallPages = (Bits >> 3) & 1;
  Cfg.LazyRelocate = (Bits >> 4) & 1;
  Cfg.GcWorkers = 1 + ((Bits >> 5) & 1);
  Cfg.Temperature = Cfg.Hotness && ((Bits >> 6) & 1);
  Cfg.SiteProfiling = Cfg.Hotness && ((Bits >> 8) & 1);
  Cfg.TriggerFraction = 0.6;
  Cfg.TraceEnabled = !Opt.TraceDir.empty();
  return Cfg;
}

FaultPlan planForSeed(uint64_t Seed) {
  FaultPlan Plan(Seed);
  Plan.set(FailPoint::TlabRefill, {0.05, 0, UINT64_MAX, 0});
  Plan.set(FailPoint::PageAlloc, {0.003, 0, UINT64_MAX, 0});
  Plan.set(FailPoint::RelocTargetAlloc, {0.02, 0, UINT64_MAX, 0});
  Plan.set(FailPoint::PhaseDelay, {0.25, 0, UINT64_MAX, 300});
  Plan.set(FailPoint::SafepointDelay, {0.25, 0, UINT64_MAX, 150});
  return Plan;
}

bool runSeed(uint64_t Index, const Options &Opt) {
  uint64_t Seed = mix64(Opt.SeedBase + Index);
  GcConfig Cfg = configForSeed(Seed, Opt);
  Runtime RT(Cfg);

  TortureClasses Cls;
  Cls.Small = RT.registerClass("torture.Small", 0, 24);
  Cls.Node = RT.registerClass("torture.Node", 2, 16);
  Cls.Medium = RT.registerClass(
      "torture.Medium", 0,
      static_cast<uint32_t>(Cfg.Geometry.smallObjectMax() + 4096));
  Cls.Large = RT.registerClass(
      "torture.Large", 0,
      static_cast<uint32_t>(Cfg.Geometry.mediumObjectMax() + 8192));

  GlobalRoot *Shared = RT.createGlobalRoot();
  {
    auto M = RT.attachMutator();
    Root Arr(*M);
    M->allocateRefArray(Arr, SharedSlots);
    M->storeGlobal(*Shared, Arr);
  }

  std::vector<ThreadResult> Results(Opt.Threads);
  {
    ScopedFaultPlan Armed(planForSeed(Seed));
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T < Opt.Threads; ++T)
      Threads.emplace_back([&, T] {
        tortureThread(RT, Cls, Shared, Seed ^ mix64(T + 1),
                      Opt.OpsPerThread, Results[T]);
      });
    for (std::thread &T : Threads)
      T.join();
  } // disarm before verification

  ThreadResult Sum;
  bool Failed = false;
  for (const ThreadResult &R : Results) {
    Sum.Ops += R.Ops;
    Sum.Exhausted += R.Exhausted;
    Sum.Validated += R.Validated;
    if (!R.Error.empty()) {
      Failed = true;
      std::fprintf(stderr, "[torture] seed=%" PRIu64 " FAILED: %s\n",
                   Index, R.Error.c_str());
    }
  }

  VerifyResult V = RT.verifyHeap();
  if (!V.ok()) {
    Failed = true;
    for (const std::string &E : V.Errors)
      std::fprintf(stderr, "[torture] seed=%" PRIu64 " verifier: %s\n",
                   Index, E.c_str());
  }

  FaultRegistry &FR = FaultRegistry::instance();
  if (Opt.Verbose || Failed)
    std::fprintf(
        stderr,
        "[torture] seed=%" PRIu64 " (0x%" PRIx64 ") heap=%zuM lazy=%d "
        "hot=%d ops=%" PRIu64 " exhausted=%" PRIu64 " validated=%" PRIu64
        " reserve_pages=%" PRIu64 " faults{tlab=%" PRIu64 " page=%" PRIu64
        " reloc=%" PRIu64 "} objects=%" PRIu64 " %s\n",
        Index, Seed, Cfg.MaxHeapBytes >> 20, Cfg.LazyRelocate ? 1 : 0,
        Cfg.Hotness ? 1 : 0, Sum.Ops, Sum.Exhausted, Sum.Validated,
        RT.heap().allocator().relocReservePagesUsed(),
        FR.fires(FailPoint::TlabRefill), FR.fires(FailPoint::PageAlloc),
        FR.fires(FailPoint::RelocTargetAlloc), V.ObjectsVisited,
        Failed ? "FAIL" : "ok");

  if (Failed && !Opt.TraceDir.empty()) {
    std::string Path =
        Opt.TraceDir + "/torture-seed-" + std::to_string(Index) + ".json";
    if (RT.dumpTrace(Path))
      std::fprintf(stderr, "[torture] trace dumped to %s\n", Path.c_str());
  }
  return !Failed;
}

/// One KV-workload seed under the same fault plan: the managed KV store
/// replaces the raw object soup, so the denied refills and stretched
/// windows hit a lock-free reader / sharded-writer index instead.
/// Committed records must never be lost or corrupted.
bool runKvSeed(uint64_t Index, const Options &Opt) {
  uint64_t Seed = mix64(Opt.SeedBase + 0x4B56ull * (Index + 1));
  GcConfig Cfg = configForSeed(Seed, Opt);
  // Headroom over the KV live set (~0.5 MiB): the load phase commits
  // base records unconditionally, so genuine exhaustion there would be
  // a test-geometry artifact rather than a collector bug.
  Cfg.MaxHeapBytes += size_t(8) << 20;

  Runtime RT(Cfg);
  auto M = RT.attachMutator();

  KvWorkloadParams P;
  P.Records = 2500;
  P.ChurnKeys = 500;
  P.Ops = Opt.OpsPerThread * Opt.Threads;
  P.Threads = Opt.Threads;
  P.Shards = 4;
  P.ValueWords = 4;
  P.ReadPct = 70;
  P.UpdatePct = 15;
  P.ComputeCyclesPerOp = 0;
  P.Seed = Seed;

  bool Failed = false;
  KvWorkloadResult R;
  {
    ScopedFaultPlan Armed(planForSeed(Seed));
    try {
      R = runKvWorkload(*M, P);
    } catch (const std::exception &E) {
      std::fprintf(stderr, "[torture-kv] seed=%" PRIu64 " FAILED: %s\n",
                   Index, E.what());
      Failed = true;
    }
  } // disarm before verification

  if (!Failed && (R.ConsistencyFailures || R.ReadMisses)) {
    Failed = true;
    std::fprintf(stderr,
                 "[torture-kv] seed=%" PRIu64
                 " FAILED: failures=%" PRIu64 " misses=%" PRIu64 "\n",
                 Index, R.ConsistencyFailures, R.ReadMisses);
  }

  M.reset(); // detach before verifyHeap (it waits for driver idle)
  VerifyResult V = RT.verifyHeap();
  if (!V.ok()) {
    Failed = true;
    for (const std::string &E : V.Errors)
      std::fprintf(stderr, "[torture-kv] seed=%" PRIu64 " verifier: %s\n",
                   Index, E.c_str());
  }

  if (Opt.Verbose || Failed)
    std::fprintf(stderr,
                 "[torture-kv] seed=%" PRIu64 " (0x%" PRIx64
                 ") heap=%zuM ops=%" PRIu64 " exhausted=%" PRIu64
                 " live=%" PRIu64 " checksum=0x%" PRIx64 " %s\n",
                 Index, Seed, Cfg.MaxHeapBytes >> 20, R.OpsDone,
                 R.HeapExhausted, R.LiveRecords, R.Checksum,
                 Failed ? "FAIL" : "ok");
  return !Failed;
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParse Args(Argc, Argv);
  Options Opt;
  Opt.Seeds = static_cast<uint64_t>(Args.getInt("seeds", 32));
  Opt.KvSeeds = static_cast<uint64_t>(Args.getInt("kv-seeds", 0));
  Opt.SeedBase = static_cast<uint64_t>(
      Args.getInt("seed-base", static_cast<int64_t>(Opt.SeedBase)));
  Opt.OpsPerThread = static_cast<uint64_t>(Args.getInt("ops", 30000));
  Opt.Threads =
      static_cast<unsigned>(Args.getInt("threads", 4));
  Opt.TraceDir = Args.getString("trace-dir", "");
  Opt.Verbose = Args.getBool("verbose", false);
  const double Seconds = Args.getDouble("seconds", 0);
  Args.rejectUnknown();

  Stopwatch Soak;
  auto MoreSeeds = [&](uint64_t I) {
    if (Seconds > 0)
      return I == 0 || Soak.elapsedMs() < Seconds * 1000.0;
    return I < Opt.Seeds;
  };
  uint64_t Seeds = 0, Failures = 0;
  for (; MoreSeeds(Seeds); ++Seeds)
    if (!runSeed(Seeds, Opt))
      ++Failures;
  for (uint64_t I = 0; I < Opt.KvSeeds; ++I)
    if (!runKvSeed(I, Opt))
      ++Failures;

  std::fprintf(stderr, "[torture] %" PRIu64 "/%" PRIu64 " seeds clean\n",
               Seeds + Opt.KvSeeds - Failures, Seeds + Opt.KvSeeds);
  return Failures ? 1 : 0;
}
