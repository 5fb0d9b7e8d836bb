//===- workloads/KvWorkload.cpp - YCSB-style KV workload -----------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/KvWorkload.h"

#include "support/Compiler.h"
#include "support/Stopwatch.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <thread>

using namespace hcsgc;

namespace {

uint64_t mix64(uint64_t Z) {
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

} // namespace

KvKeySpace::KvKeySpace(const Params &Params) : P(Params) {
  assert(P.Keys > 0 && "empty keyspace");
  // Perm stores 32-bit keys; a larger keyspace would silently truncate
  // during the iota fill below. Fail loudly instead.
  if (P.Keys > UINT32_MAX)
    fatalError("KV keyspace exceeds 2^32 keys (Perm is uint32_t)");
  double HotF = std::min(1.0, std::max(0.0, P.HotKeyFraction));
  HotN = static_cast<size_t>(
      std::max<double>(1.0, std::round(HotF * double(P.Keys))));
  HotN = std::min(HotN, P.Keys);
  if (P.D == Dist::Zipf) {
    Z = std::make_unique<ZipfSampler>(P.Keys, P.Theta);
    // The sampler's CDF build already computed the harmonic sum; reuse it
    // instead of a second O(Keys) pow loop.
    ZipfNorm = Z->normalizer();
  }
  // Scatter permutation: hot ranks land on keys spread across the whole
  // load order, so hot records are buried among cold ones on the heap.
  Perm.resize(P.Keys);
  std::iota(Perm.begin(), Perm.end(), 0u);
  SplitMix64 Rng(mix64(P.Seed ^ 0x5CA77E12ull));
  shuffle(Perm, Rng);
}

uint64_t KvKeySpace::pickRank(SplitMix64 &Rng) const {
  switch (P.D) {
  case Dist::Zipf:
    return Z->sample(Rng);
  case Dist::Hotspot:
    if (HotN >= P.Keys || Rng.nextDouble() < P.HotOpFraction)
      return Rng.nextBelow(HotN);
    return HotN + Rng.nextBelow(P.Keys - HotN);
  case Dist::Uniform:
    return Rng.nextBelow(P.Keys);
  }
  return 0;
}

double KvKeySpace::pmf(uint64_t Rank) const {
  assert(Rank < P.Keys);
  switch (P.D) {
  case Dist::Zipf:
    return (1.0 / std::pow(double(Rank + 1), P.Theta)) / ZipfNorm;
  case Dist::Hotspot: {
    if (HotN >= P.Keys)
      return 1.0 / double(P.Keys);
    if (Rank < HotN)
      return P.HotOpFraction / double(HotN);
    return (1.0 - P.HotOpFraction) / double(P.Keys - HotN);
  }
  case Dist::Uniform:
    return 1.0 / double(P.Keys);
  }
  return 0;
}

namespace {

/// One worker's tally; merged single-threaded after the join.
struct WorkerOut {
  uint64_t Ops = 0;
  uint64_t Reads = 0, Updates = 0, Inserts = 0, Removes = 0;
  uint64_t Misses = 0, Failures = 0, Exhausted = 0;
  Histogram Lat; ///< Per-thread: recorded uncontended, merged at end.
};

/// The mixed phase of one worker. Every decision depends only on
/// (Seed, W, op ordinal): the key chooser stream, the op dice, and the
/// worker-owned churn segment cursor.
void kvWorker(Mutator &M, KvStore &Store, const KvKeySpace &Keys,
              const KvWorkloadParams &P, unsigned W, uint64_t Ops,
              uint64_t ChurnLo, uint64_t ChurnHi, WorkerOut &Out) {
  SplitMix64 Rng(mix64(P.Seed ^ (0xB16B00B5ull + W)));
  std::vector<bool> ChurnPresent(ChurnHi - ChurnLo, false);
  uint64_t ChurnCursor = 0;
  Stopwatch SW;
  for (uint64_t Op = 0; Op < Ops; ++Op) {
    uint64_t Dice = Rng.nextBelow(100);
    uint64_t T0 = SW.elapsedNs();
    try {
      if (Dice < P.ReadPct) {
        uint64_t Key = Keys.pick(Rng);
        KvReadStatus St = Store.get(M, Key);
        ++Out.Reads;
        if (St == KvReadStatus::Miss) {
          ++Out.Misses; // Base keys are never removed: a miss is a bug.
          ++Out.Failures;
        } else if (St == KvReadStatus::Corrupt) {
          ++Out.Failures;
        }
      } else if (Dice < P.ReadPct + P.UpdatePct || ChurnLo == ChurnHi) {
        uint64_t Key = Keys.pick(Rng);
        Store.put(M, Key);
        ++Out.Updates;
      } else {
        // Churn: round-robin toggle over this worker's own segment.
        uint64_t Key = ChurnLo + ChurnCursor;
        bool Present = ChurnPresent[ChurnCursor];
        ChurnCursor = (ChurnCursor + 1) % (ChurnHi - ChurnLo);
        if (Present) {
          if (!Store.remove(M, Key))
            ++Out.Failures; // We inserted it; it must be there.
          ChurnPresent[Key - ChurnLo] = false;
          ++Out.Removes;
        } else {
          Store.put(M, Key);
          ChurnPresent[Key - ChurnLo] = true;
          ++Out.Inserts;
        }
      }
    } catch (const HeapExhaustedError &) {
      // Recoverable by contract; the op simply did not happen. (Churn
      // presence is only flipped after success, so the tally stays
      // consistent.)
      ++Out.Exhausted;
    }
    Out.Lat.record(SW.elapsedNs() - T0);
    M.simulateWork(P.ComputeCyclesPerOp);
    ++Out.Ops;
  }
}

} // namespace

KvWorkloadResult hcsgc::runKvWorkload(Mutator &M,
                                      const KvWorkloadParams &P) {
  Runtime &RT = M.runtime();
  MetricsRegistry &MR = RT.metrics();
  // Create the whole kv.* family up front so the metrics catalog sees
  // it even on degenerate configs.
  Counter &ReadCtr = MR.counter("kv.ops.read");
  Counter &UpdateCtr = MR.counter("kv.ops.update");
  Counter &InsertCtr = MR.counter("kv.ops.insert");
  Counter &RemoveCtr = MR.counter("kv.ops.remove");
  Counter &MissCtr = MR.counter("kv.read.misses");
  Counter &FailCtr = MR.counter("kv.consistency.failures");
  Histogram &LatHist = MR.histogram("kv.op_latency_ns");

  KvStoreParams SP;
  SP.Capacity = P.Records + P.ChurnKeys;
  SP.Shards = P.Shards;
  SP.ValueWords = P.ValueWords;

  // Load phase: base keys in key order. The scatter permutation makes
  // rank order (access skew) unrelated to this allocation order. A heap
  // too small for the index or the base records ends the run here,
  // counted in HeapExhausted, before any mixed op runs.
  KvWorkloadResult Res;
  std::optional<KvStore> Store;
  try {
    Store.emplace(M, SP);
    for (uint64_t K = 0; K < P.Records; ++K)
      Store->put(M, K);
  } catch (const HeapExhaustedError &) {
    ++Res.HeapExhausted;
    Res.LoadExhausted = true;
    return Res;
  }

  KvKeySpace::Params KP;
  KP.Keys = P.Records;
  KP.D = P.D;
  KP.Theta = P.Theta;
  KP.HotKeyFraction = P.HotKeyFraction;
  KP.HotOpFraction = P.HotOpFraction;
  KP.Seed = P.Seed;
  KvKeySpace Keys(KP);

  unsigned T = std::max(1u, P.Threads);
  std::vector<WorkerOut> Outs(T);
  auto OpsOf = [&](unsigned W) {
    return P.Ops / T + (W < P.Ops % T ? 1 : 0);
  };
  auto ChurnLoOf = [&](unsigned W) {
    return P.Records + W * P.ChurnKeys / T;
  };
  auto ChurnHiOf = [&](unsigned W) {
    return P.Records + (W + 1) * P.ChurnKeys / T;
  };

  Stopwatch Mix;
  {
    std::vector<std::thread> Threads;
    for (unsigned W = 1; W < T; ++W)
      Threads.emplace_back([&, W] {
        auto WM = RT.attachMutator();
        kvWorker(*WM, *Store, Keys, P, W, OpsOf(W), ChurnLoOf(W),
                 ChurnHiOf(W), Outs[W]);
      });
    kvWorker(M, *Store, Keys, P, 0, OpsOf(0), ChurnLoOf(0), ChurnHiOf(0),
             Outs[0]);
    // Joining must not stall a GC pause: wait as a blocked mutator.
    BlockedScope B(RT.safepoints());
    for (std::thread &Th : Threads)
      Th.join();
  }
  double MixSec = double(Mix.elapsedNs()) / 1e9;

  Histogram AllLat;
  for (const WorkerOut &O : Outs) {
    Res.OpsDone += O.Ops;
    Res.Reads += O.Reads;
    Res.Updates += O.Updates;
    Res.Inserts += O.Inserts;
    Res.Removes += O.Removes;
    Res.ReadMisses += O.Misses;
    Res.ConsistencyFailures += O.Failures;
    Res.HeapExhausted += O.Exhausted;
    AllLat.merge(O.Lat);
  }
  ReadCtr.add(Res.Reads);
  UpdateCtr.add(Res.Updates);
  InsertCtr.add(Res.Inserts);
  RemoveCtr.add(Res.Removes);
  MissCtr.add(Res.ReadMisses);
  FailCtr.add(Res.ConsistencyFailures);
  LatHist.merge(AllLat);

  // Quiescent validation sweep: every surviving record must still
  // self-validate, and its (key, version) multiset is the same on every
  // schedule and every GC configuration.
  KvScanResult Scan = Store->scanAll(M);
  Res.ConsistencyFailures += Scan.Corrupt;
  FailCtr.add(Scan.Corrupt);
  Res.LiveRecords = Scan.Live;
  Res.MixSeconds = MixSec;
  Res.ThroughputKops =
      MixSec > 0 ? double(Res.OpsDone) / MixSec / 1e3 : 0;
  Res.OpP50Ns = double(AllLat.percentile(0.5));
  Res.OpP99Ns = double(AllLat.percentile(0.99));

  uint64_t C = 0x4B56C0DEull;
  C = mix64(C ^ Scan.Checksum);
  C = mix64(C ^ Scan.Live);
  C = mix64(C ^ Res.OpsDone);
  C = mix64(C ^ Res.Reads);
  C = mix64(C ^ Res.Updates);
  C = mix64(C ^ Res.Inserts);
  C = mix64(C ^ Res.Removes);
  C = mix64(C ^ (Res.ConsistencyFailures * 0xBADC0DEull));
  C = mix64(C ^ Res.HeapExhausted);
  Res.Checksum = C;
  return Res;
}
