//===- workloads/KvWorkload.h - YCSB-style KV workload ---------*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// YCSB-style driver over the managed KvStore: a deterministic keyspace
/// with Zipf(θ), hotspot (defaults: 20% of keys take 80% of ops) or
/// uniform key choosers, worker threads running a configurable
/// read/update mix plus an insert/delete churn knob, and per-thread op
/// latency histograms merged into the runtime's MetricsRegistry at the
/// end of the run.
///
/// Determinism contract: every op a worker performs is a pure function
/// of (workload seed, worker index, op ordinal). Reads never fold
/// observed versions into the checksum (those depend on interleaving);
/// instead the run ends with a single-threaded full-store scan whose
/// (key, version) multiset IS schedule-invariant — each base key's final
/// version is 1 + the number of updates that targeted it, and churn keys
/// are owned by exactly one worker — so the reported checksum is
/// identical across GC configurations, which the harness report
/// enforces.
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_WORKLOADS_KVWORKLOAD_H
#define HCSGC_WORKLOADS_KVWORKLOAD_H

#include "support/Random.h"
#include "workloads/KvStore.h"

#include <memory>

namespace hcsgc {

/// Deterministic key chooser over [0, Keys): ranks are drawn from the
/// configured distribution, then mapped through a seeded shuffle so the
/// hot ranks scatter across the keyspace (hot records end up buried
/// among cold ones in allocation order — the regime ColdConfidence
/// weighting is built for).
class KvKeySpace {
public:
  enum class Dist { Uniform, Zipf, Hotspot };

  struct Params {
    size_t Keys = 100 * 1000;
    Dist D = Dist::Zipf;
    double Theta = 0.99;         ///< Zipf skew.
    double HotKeyFraction = 0.2; ///< Hotspot: share of keys that are hot.
    double HotOpFraction = 0.8;  ///< Hotspot: share of ops on hot keys.
    uint64_t Seed = 0x5EED;      ///< Shuffle seed (not the op stream).
  };

  explicit KvKeySpace(const Params &P);

  size_t size() const { return P.Keys; }
  size_t hotCount() const { return HotN; }

  /// Draws a rank in [0, Keys) from the distribution.
  uint64_t pickRank(SplitMix64 &Rng) const;

  /// Draws a key (rank mapped through the scatter permutation).
  uint64_t pick(SplitMix64 &Rng) const { return Perm[pickRank(Rng)]; }

  /// Key of \p Rank under the scatter permutation.
  uint64_t keyOfRank(uint64_t Rank) const { return Perm[Rank]; }

  /// Analytic probability of \p Rank — the chi-square reference.
  double pmf(uint64_t Rank) const;

  /// True when \p Rank belongs to the hot set (hotspot mode: the first
  /// HotN ranks; Zipf: the head of the distribution).
  bool hotRank(uint64_t Rank) const { return Rank < HotN; }

private:
  Params P;
  size_t HotN;
  double ZipfNorm = 0; ///< Generalized harmonic number H_{N,theta}.
  std::unique_ptr<ZipfSampler> Z;
  std::vector<uint32_t> Perm; ///< rank -> key.
};

/// Full workload configuration. Defaults give the YCSB-B-like 95/5 mix.
struct KvWorkloadParams {
  size_t Records = 100 * 1000; ///< Base keys, loaded up front, never removed.
  size_t ChurnKeys = 12 * 1000; ///< Extra keyspace toggled by churn ops.
  uint64_t Ops = 500 * 1000;   ///< Total mixed ops across all workers.
  unsigned Threads = 4;        ///< Worker count (thread 0 = caller).
  KvKeySpace::Dist D = KvKeySpace::Dist::Zipf;
  double Theta = 0.99;
  double HotKeyFraction = 0.2;
  double HotOpFraction = 0.8;
  unsigned ReadPct = 95;
  unsigned UpdatePct = 5; ///< Remainder of 100 = churn toggles.
  unsigned ValueWords = 8;
  unsigned Shards = 16;
  uint64_t Seed = 0x5EED;
  uint64_t ComputeCyclesPerOp = 64; ///< Simulated think time.
};

/// Aggregated outcome of one run.
struct KvWorkloadResult {
  uint64_t Checksum = 0; ///< Schedule-invariant (see file comment).
  uint64_t OpsDone = 0;
  uint64_t Reads = 0, Updates = 0, Inserts = 0, Removes = 0;
  uint64_t ReadMisses = 0;  ///< Base-key misses; any nonzero is a bug.
  uint64_t ConsistencyFailures = 0; ///< Corrupt reads + scan corruption.
  uint64_t HeapExhausted = 0; ///< Ops abandoned to HeapExhaustedError.
  /// The load phase ran out of heap: the store never held every base
  /// record, so no mixed op ran and the other fields are zero.
  bool LoadExhausted = false;
  uint64_t LiveRecords = 0;   ///< Final store size.
  double MixSeconds = 0;      ///< Wall time of the mixed phase.
  double ThroughputKops = 0;  ///< OpsDone / MixSeconds / 1e3.
  double OpP50Ns = 0, OpP99Ns = 0; ///< Merged op-latency percentiles.
};

/// Loads the base records, runs the mixed phase on \p P.Threads workers
/// (the calling mutator is worker 0; the rest attach their own), then
/// scans and validates the final store. A heap exhausted during the load
/// returns at once with LoadExhausted set instead of throwing. Registers kv.* metrics in the
/// runtime's MetricsRegistry.
KvWorkloadResult runKvWorkload(Mutator &M, const KvWorkloadParams &P);

} // namespace hcsgc

#endif // HCSGC_WORKLOADS_KVWORKLOAD_H
