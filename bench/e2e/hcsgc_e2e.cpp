//===- bench/e2e/hcsgc_e2e.cpp - End-to-end benchmark driver ------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
// One process runs one workload and prints one JSON object, the last
// line of stdout, with its metrics and correctness verdict. run.py in
// this directory builds and invokes it; README.md describes the
// workloads and every metric.
//
//   hcsgc_e2e --workload=<name> --seed=N --seconds=S [--traced=<file>]
//
// Untraced: sets the workload up five times (reporting the median set-up
// time), then measures the last set-up for S seconds.
// Traced: three passes of S seconds, each on a fresh set-up: an untraced
// reference, a traced pass (GC trace events plus the driver's own spans,
// written to <file> as Chrome trace_event JSON), and a pass with the
// cache-simulator probes flipped. Together they give the per-layer
// metrics, the tracing overhead and the simulator overhead.
//
//===----------------------------------------------------------------------===//

#include "LatencyHistogram.h"

#include "harness/Config.h"
#include "harness/Runner.h"
#include "observe/TraceJson.h"
#include "stats/Descriptive.h"
#include "workloads/GraphAlgos.h"
#include "workloads/KvWorkload.h"
#include "workloads/Synthetic.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace hcsgc;
using hcsgc::e2e::LatencyHistogram;

namespace {

/// The harness's nominal clock for converting simulated cycles.
constexpr double SimHz = 3.0e9;
/// Traced pass: a request at least this slow always keeps its span...
constexpr uint64_t TailKeepNs = 100 * 1000;
/// ...and otherwise one request in this many does.
constexpr uint32_t SampleEvery = 256;
constexpr size_t SpanCapacity = size_t(1) << 17; ///< Per thread.
constexpr size_t MaxFailedOps = size_t(1) << 16; ///< Per thread.
/// Set-ups per untraced run; setup_s is their median.
constexpr int SetupRuns = 5;
/// An open loop this far behind its schedule has lost its meaning.
constexpr uint64_t GiveUpLagNs = uint64_t(10) * 1000 * 1000 * 1000;

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t mix64(uint64_t Z) {
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

// --- Workloads ---------------------------------------------------------------

enum class Kind { Synthetic, GraphCc, KvOpen, KvClosed };

struct Workload {
  const char *Name;
  Kind K;
  int ConfigId;
  const char *Label; ///< describeConfig(ConfigId), checked at start-up.
  size_t HeapMb;
  bool Probes; ///< Cache-simulator probes in the timed pass.
};

// README.md gives the reason for each choice.
constexpr Workload Workloads[] = {
    {"synthetic-hot", Kind::Synthetic, 16, "H1 CP1 CC1.0 RA0 LZ1", 32, true},
    {"graph-cc", Kind::GraphCc, 0, "ZGC", 32, true},
    {"kv-read-open", Kind::KvOpen, 21, "H1 CP1 CC1.0 RA0 LZ1 T1 SP1", 128,
     false},
    {"kv-write-closed", Kind::KvClosed, 21, "H1 CP1 CC1.0 RA0 LZ1 T1 SP1",
     384, false},
};

GcConfig makeConfig(const Workload &W, bool Probes, bool Traced) {
  GcConfig Cfg =
      applyKnobs(benchBaseConfig(W.HeapMb), table2Config(W.ConfigId));
  if (W.K == Kind::GraphCc) {
    // bench_fig07_cc_uk's trigger and scaled cache hierarchy.
    Cfg.TriggerFraction = 0.45;
    Cfg.TriggerHysteresisFraction = 0.05;
    Cfg.Cache.L1Size = 16 * 1024;
    Cfg.Cache.L2Size = 64 * 1024;
    Cfg.Cache.L3Size = 512 * 1024;
  }
  Cfg.EnableProbes = Probes;
  Cfg.TraceEnabled = Traced;
  // Room for every coordinator event of a pass; per-object events from
  // the other threads overflow and are counted as dropped.
  Cfg.TraceBufferEvents = size_t(1) << 16;
  return Cfg;
}

// --- Per-thread recording ----------------------------------------------------

enum OpName : uint32_t {
  OpSyntheticPass,
  OpCcPass,
  OpKvGet,
  OpKvUpdate,
  OpKvInsert,
  OpKvRemove,
};

const char *const OpNames[] = {
    "workloads.synthetic.pass", "workloads.graph.cc_pass",
    "workloads.kv.get",         "workloads.kv.update",
    "workloads.kv.insert",      "workloads.kv.remove",
};

/// One kept request: scheduled -> started -> done. The request's self
/// time (scheduled -> started) is its queue wait; started -> done is the
/// call into the workload.
struct Span {
  uint64_t SchedNs, StartNs, DoneNs;
  uint32_t Op;
  uint32_t Weight; ///< Requests this span stands for.
};

/// One thread's measurements. Everything the timed loop writes is sized
/// before the loop starts, so recording never allocates.
struct ThreadLog {
  /// Response time from the scheduled send in an open loop; service time
  /// in a closed loop, whose next request is scheduled when the
  /// previous one completes.
  LatencyHistogram Latency;
  LatencyHistogram Service;
  LatencyHistogram Queue;
  uint64_t Ops = 0;    ///< Requests executed.
  uint64_t Failed = 0; ///< Requests that did not complete (heap exhausted).
  uint64_t Wrong = 0;  ///< Requests that returned a wrong result.
  uint64_t Units = 0;  ///< Work units completed (see README.md).
  uint64_t LastDoneNs = 0;
  uint64_t LastLagNs = 0;
  uint64_t DroppedSpans = 0;
  std::vector<uint64_t> FailedOps; ///< Ordinals, for the KV model replay.
  bool FailedOpsOverflow = false;
  std::vector<Span> Spans;
  std::string Error; ///< An exception that ended the thread's loop.

  void prepare(bool Traced) {
    FailedOps.reserve(MaxFailedOps);
    if (Traced)
      Spans.reserve(SpanCapacity);
  }

  void note(bool Open, bool Traced, uint64_t Ordinal, uint64_t Sched,
            uint64_t Start, uint64_t Done, uint32_t Op) {
    uint64_t Lat = Open ? Done - Sched : Done - Start;
    Latency.record(Lat);
    Service.record(Done - Start);
    Queue.record(Start - Sched);
    LastLagNs = Start - Sched;
    LastDoneNs = Done;
    ++Ops;
    if (!Traced)
      return;
    bool Slow = Lat >= TailKeepNs;
    if (!Slow && Ordinal % SampleEvery != 0)
      return;
    if (Spans.size() < Spans.capacity())
      Spans.push_back({Sched, Start, Done, Op, Slow ? 1u : SampleEvery});
    else
      ++DroppedSpans;
  }

  void noteFailed(uint64_t Ordinal) {
    ++Failed;
    if (FailedOps.size() < FailedOps.capacity())
      FailedOps.push_back(Ordinal);
    else
      FailedOpsOverflow = true;
  }
};

struct PassPlan {
  uint64_t StartNs = 0, EndNs = 0;
  bool Open = false;   ///< Poisson arrivals instead of a closed loop.
  bool Traced = false; ///< Keep spans.
};

/// Spins until \p T, polling so a pause never waits for this thread.
void waitUntil(Mutator &M, uint64_t T) {
  while (nowNs() < T)
    M.poll();
}

/// A workload's data on the heap plus its request loop and output check.
/// Destroy it before detaching the mutator that built it (its Roots are
/// on that mutator).
class Program {
public:
  virtual ~Program() = default;
  /// Builds the workload's data: the timed part of set-up.
  virtual void load(Mutator &M) = 0;
  /// Issues requests from Plan.StartNs until Plan.EndNs.
  virtual void run(Mutator &M, const PassPlan &Plan,
                   std::vector<ThreadLog> &Logs) = 0;
  /// Checks the program's outputs after run(); appends each failure.
  virtual void validate(Mutator &M, const std::vector<ThreadLog> &Logs,
                        std::vector<std::string> &Errors) = 0;
  virtual const char *loadName() const = 0;
  virtual unsigned threads() const { return 1; }
};

// --- synthetic-hot -----------------------------------------------------------

/// The §4.4 synthetic benchmark as a request loop: one request is one
/// outer iteration (InnerIters reads in the paper's fixed pseudo-random
/// order, a garbage object every 10th read). This mirrors
/// runSynthetic's loop, which runs a fixed iteration count and so cannot
/// stop at a deadline. The order is the paper's (seed 0 every pass), so
/// --seed does not change this workload.
class SyntheticProgram final : public Program {
public:
  explicit SyntheticProgram(Mutator &M) : Arr(M), Elem(M), Garbage(M) {
    P.ArraySize = 200 * 1000;
    P.InnerIters = 80 * 1000;
    P.OuterIters = 1;
    Expected = expectedSyntheticChecksum(P);
  }

  const char *loadName() const override {
    return "workloads.synthetic.populate";
  }

  void load(Mutator &M) override {
    Runtime &RT = M.runtime();
    // runSynthetic's shapes: 32-byte elements, 256-byte garbage.
    ElemCls = RT.registerClass("synthetic.Element", 0, 24);
    GarbageCls = RT.registerClass(
        "synthetic.Garbage", 0, static_cast<uint32_t>(P.GarbagePayloadBytes));
    M.allocateRefArray(Arr, static_cast<uint32_t>(P.ArraySize));
    for (size_t I = 0; I < P.ArraySize; ++I) {
      M.allocate(Elem, ElemCls);
      M.storeWord(Elem, 0, static_cast<int64_t>(I));
      M.storeElem(Arr, static_cast<uint32_t>(I), Elem);
    }
  }

  void run(Mutator &M, const PassPlan &Plan,
           std::vector<ThreadLog> &Logs) override {
    ThreadLog &L = Logs[0];
    waitUntil(M, Plan.StartNs);
    uint64_t Prev = Plan.StartNs;
    for (uint64_t Pass = 0; Prev < Plan.EndNs; ++Pass) {
      uint64_t Start = nowNs();
      uint64_t Sum = 0;
      bool Exhausted = false;
      try {
        Sum = onePass(M);
      } catch (const HeapExhaustedError &) {
        Exhausted = true;
      }
      uint64_t Done = nowNs();
      L.note(false, Plan.Traced, Pass, Prev, Start, Done, OpSyntheticPass);
      if (Exhausted)
        L.noteFailed(Pass);
      else if (Sum != Expected)
        ++L.Wrong;
      else
        L.Units += P.InnerIters;
      Prev = Done;
    }
  }

  void validate(Mutator &M, const std::vector<ThreadLog> &Logs,
                std::vector<std::string> &Errors) override {
    if (Logs[0].Wrong)
      Errors.push_back(std::to_string(Logs[0].Wrong) +
                       " synthetic passes returned a checksum other than "
                       "expectedSyntheticChecksum");
    for (size_t I = 0; I < P.ArraySize; ++I) {
      M.loadElem(Arr, static_cast<uint32_t>(I), Elem);
      if (M.loadWord(Elem, 0) != static_cast<int64_t>(I)) {
        Errors.push_back("synthetic element " + std::to_string(I) +
                         " lost its payload");
        return;
      }
    }
  }

private:
  uint64_t onePass(Mutator &M) {
    SplitMix64 Rng(0);
    uint64_t Sum = 0;
    for (size_t J = 0; J < P.InnerIters; ++J) {
      auto Idx = static_cast<uint32_t>(Rng.nextBelow(P.ArraySize));
      M.loadElem(Arr, Idx, Elem);
      Sum += static_cast<uint64_t>(M.loadWord(Elem, 0));
      M.simulateWork(P.ComputeCyclesPerOp);
      if (++Reads % P.GarbageEvery == 0) {
        M.allocate(Garbage, GarbageCls);
        M.storeWord(Garbage, 0, static_cast<int64_t>(Reads));
      }
    }
    return Sum;
  }

  SyntheticParams P;
  uint64_t Expected = 0;
  uint64_t Reads = 0;
  ClassId ElemCls = 0, GarbageCls = 0;
  Root Arr, Elem, Garbage;
};

// --- graph-cc ----------------------------------------------------------------

/// connectedComponents computed in plain memory: the same DFS (start
/// vertices in id order, neighbours in ascending id order, as
/// ManagedGraph lays out adjacency) so even the order-dependent LowSum
/// must match the managed run exactly.
CcResult referenceCc(const CsrGraph &G) {
  size_t N = G.N;
  std::vector<std::vector<uint32_t>> Adj(N);
  for (size_t V = 0; V < N; ++V) {
    Adj[V].assign(G.Adj.begin() + G.Offsets[V],
                  G.Adj.begin() + G.Offsets[V + 1]);
    std::sort(Adj[V].begin(), Adj[V].end());
  }
  std::vector<int64_t> Disc(N, 0), Low(N, 0), Parent(N, -1);
  std::vector<size_t> Cursor(N, 0);
  std::vector<bool> Art(N, false);
  std::vector<uint32_t> Stack;
  CcResult R;
  int64_t DiscCounter = 1;
  for (uint32_t S = 0; S < N; ++S) {
    if (Disc[S])
      continue;
    ++R.Components;
    int64_t RootChildren = 0;
    Disc[S] = Low[S] = DiscCounter++;
    Stack.assign(1, S);
    while (!Stack.empty()) {
      uint32_t V = Stack.back();
      if (Cursor[V] < Adj[V].size()) {
        uint32_t W = Adj[V][Cursor[V]++];
        ++R.EdgesVisited;
        if (!Disc[W]) {
          Disc[W] = Low[W] = DiscCounter++;
          Parent[W] = V;
          Stack.push_back(W);
        } else if (W != Parent[V]) {
          Low[V] = std::min(Low[V], Disc[W]);
        }
        continue;
      }
      Stack.pop_back();
      R.LowSum += static_cast<uint64_t>(Low[V]);
      if (Parent[V] < 0)
        continue;
      auto P = static_cast<uint32_t>(Parent[V]);
      Low[P] = std::min(Low[P], Low[V]);
      if (Parent[P] < 0) {
        ++RootChildren;
      } else if (Low[V] >= Disc[P] && !Art[P]) {
        Art[P] = true;
        ++R.ArticulationPoints;
      }
    }
    if (RootChildren >= 2)
      ++R.ArticulationPoints;
  }
  return R;
}

bool sameCc(const CcResult &A, const CcResult &B) {
  return A.Components == B.Components &&
         A.ArticulationPoints == B.ArticulationPoints &&
         A.LowSum == B.LowSum && A.EdgesVisited == B.EdgesVisited;
}

/// Fig. 7's CC on the uk spec at scale 0.2: the graph and its shuffled
/// allocation order come from --seed; one request is one full pass.
class GraphProgram final : public Program {
public:
  explicit GraphProgram(uint64_t Seed) {
    Spec = scaleSpec(ukCcSpec(), 0.2);
    Spec.Seed = Seed;
    ShuffleSeed = mix64(Seed ^ 0x6A09E667F3BCC909ull) | 1;
  }

  const char *loadName() const override { return "workloads.graph.build"; }

  void load(Mutator &M) override {
    Csr = generateWebGraph(Spec);
    G = std::make_unique<ManagedGraph>(M, Csr, ShuffleSeed,
                                       /*WithNeighborIds=*/false);
  }

  void run(Mutator &M, const PassPlan &Plan,
           std::vector<ThreadLog> &Logs) override {
    ThreadLog &L = Logs[0];
    waitUntil(M, Plan.StartNs);
    uint64_t Prev = Plan.StartNs;
    for (uint64_t Pass = 0; Prev < Plan.EndNs; ++Pass) {
      uint64_t Start = nowNs();
      CcResult R;
      bool Exhausted = false;
      try {
        R = connectedComponents(M, *G, ++Epoch);
      } catch (const HeapExhaustedError &) {
        Exhausted = true;
      }
      uint64_t Done = nowNs();
      L.note(false, Plan.Traced, Pass, Prev, Start, Done, OpCcPass);
      if (Exhausted) {
        L.noteFailed(Pass);
      } else {
        if (!HaveFirst) {
          First = R;
          HaveFirst = true;
        }
        if (sameCc(R, First))
          L.Units += R.EdgesVisited;
        else
          ++L.Wrong;
      }
      Prev = Done;
    }
  }

  void validate(Mutator &, const std::vector<ThreadLog> &Logs,
                std::vector<std::string> &Errors) override {
    if (Logs[0].Wrong)
      Errors.push_back(std::to_string(Logs[0].Wrong) +
                       " CC passes disagreed with the first pass");
    if (HaveFirst && !sameCc(First, referenceCc(Csr)))
      Errors.push_back("CC result differs from the plain-memory reference");
  }

private:
  GraphSpec Spec;
  uint64_t ShuffleSeed;
  CsrGraph Csr;
  std::unique_ptr<ManagedGraph> G;
  int64_t Epoch = 0;
  CcResult First;
  bool HaveFirst = false;
};

// --- kv-read-open, kv-write-closed --------------------------------------------

struct KvMix {
  size_t Records;
  size_t ChurnKeys; ///< Insert/delete keyspace above the base keys.
  KvKeySpace::Dist D;
  double Theta;
  unsigned ReadPct, UpdatePct; ///< The rest of 100 is churn.
  double OpsPerSec;            ///< Open-loop arrival rate, all workers.
};

constexpr KvMix KvReadMix = {500 * 1000, 0, KvKeySpace::Dist::Zipf, 0.99,
                             90, 10, 800e3};
constexpr KvMix KvWriteMix = {1000 * 1000, 125 * 1000,
                              KvKeySpace::Dist::Uniform, 0.0, 50, 30, 0};

/// The managed KV store under two mutator workers. Every request is a
/// pure function of (seed, worker, ordinal), so validate() can replay
/// the executed streams in plain memory and check every key's final
/// version through KvStore::get.
class KvProgram final : public Program {
public:
  static constexpr unsigned Workers = 2;
  /// bench_kv_ycsb's simulated think time per request.
  static constexpr uint64_t ComputeCyclesPerOp = 64;

  KvProgram(const KvMix &Mix, uint64_t Seed) : Mix(Mix), Seed(Seed) {}

  const char *loadName() const override { return "workloads.kv.load"; }
  unsigned threads() const override { return Workers; }

  void load(Mutator &M) override {
    KvKeySpace::Params KP;
    KP.Keys = Mix.Records;
    KP.D = Mix.D;
    KP.Theta = Mix.Theta;
    KP.Seed = Seed;
    Keys = std::make_unique<KvKeySpace>(KP);
    KvStoreParams SP;
    SP.Capacity = Mix.Records + Mix.ChurnKeys;
    SP.Shards = 16;
    SP.ValueWords = 8;
    Store = std::make_unique<KvStore>(M, SP);
    for (uint64_t K = 0; K < Mix.Records; ++K)
      Store->put(M, K);
  }

  void run(Mutator &M, const PassPlan &Plan,
           std::vector<ThreadLog> &Logs) override {
    Runtime &RT = M.runtime();
    std::thread Helper([&] {
      auto WM = RT.attachMutator();
      worker(*WM, 1, Plan, Logs[1]);
    });
    worker(M, 0, Plan, Logs[0]);
    // Joining must not hold up a pause: wait as a blocked mutator.
    BlockedScope B(RT.safepoints());
    Helper.join();
  }

  void validate(Mutator &M, const std::vector<ThreadLog> &Logs,
                std::vector<std::string> &Errors) override {
    uint64_t Misses = 0;
    for (const ThreadLog &L : Logs) {
      Misses += L.Wrong;
      if (L.FailedOpsOverflow) {
        Errors.push_back("too many failed KV requests to replay");
        return;
      }
    }
    if (Misses)
      Errors.push_back(std::to_string(Misses) +
                       " KV requests saw a missing or corrupt record");

    std::vector<uint64_t> Version(Mix.Records, 1);
    std::vector<uint8_t> Present(Mix.ChurnKeys, 0);
    for (unsigned W = 0; W < Workers; ++W)
      replay(W, Logs[W], Version, Present);

    uint64_t Bad = 0, ExpectLive = Mix.Records;
    auto Check = [&](uint64_t Key, bool Want, uint64_t WantVersion) {
      uint64_t V = 0;
      KvReadStatus St = Store->get(M, Key, &V);
      bool Ok = Want ? St == KvReadStatus::Hit && V == WantVersion
                     : St == KvReadStatus::Miss;
      if (!Ok && Bad++ < 3)
        Errors.push_back("KV key " + std::to_string(Key) +
                         " disagrees with the replayed request stream");
    };
    for (uint64_t K = 0; K < Mix.Records; ++K)
      Check(K, true, Version[K]);
    for (uint64_t I = 0; I < Mix.ChurnKeys; ++I) {
      Check(Mix.Records + I, Present[I] != 0, 1);
      ExpectLive += Present[I];
    }
    KvScanResult Scan = Store->scanAll(M);
    if (Scan.Corrupt)
      Errors.push_back(std::to_string(Scan.Corrupt) +
                       " KV records failed self-validation");
    if (Scan.Live != ExpectLive)
      Errors.push_back("KV store holds " + std::to_string(Scan.Live) +
                       " records, expected " + std::to_string(ExpectLive));
  }

private:
  SplitMix64 opRng(unsigned W) const {
    return SplitMix64(mix64(Seed ^ (0xB16B00B5ull + W)));
  }
  uint64_t churnLo(unsigned W) const {
    return Mix.Records + W * Mix.ChurnKeys / Workers;
  }
  uint64_t churnHi(unsigned W) const {
    return Mix.Records + (W + 1) * Mix.ChurnKeys / Workers;
  }

  void worker(Mutator &M, unsigned W, const PassPlan &Plan, ThreadLog &L) {
    try {
      workerLoop(M, W, Plan, L);
    } catch (const std::exception &E) {
      L.Error = E.what();
    }
  }

  void workerLoop(Mutator &M, unsigned W, const PassPlan &Plan,
                  ThreadLog &L) {
    SplitMix64 Rng = opRng(W);
    SplitMix64 Arrivals(mix64(Seed ^ (0xA4417A15ull + W)));
    const uint64_t Lo = churnLo(W), Hi = churnHi(W);
    std::vector<uint8_t> Present(Hi - Lo, 0);
    uint64_t Cursor = 0;
    const double MeanGapNs = Plan.Open ? 1e9 * Workers / Mix.OpsPerSec : 0;
    const auto Window = double(Plan.EndNs - Plan.StartNs);
    double SchedRel = 0;
    uint64_t Prev = Plan.StartNs;
    waitUntil(M, Plan.StartNs);
    for (uint64_t Op = 0;; ++Op) {
      uint64_t Sched;
      if (Plan.Open) {
        SchedRel += -std::log1p(-Arrivals.nextDouble()) * MeanGapNs;
        if (SchedRel >= Window)
          break;
        Sched = Plan.StartNs + static_cast<uint64_t>(SchedRel);
        if (nowNs() > Sched + GiveUpLagNs) {
          L.Error = "open loop fell more than 10 s behind its schedule";
          return;
        }
        waitUntil(M, Sched);
      } else {
        if (Prev >= Plan.EndNs)
          break;
        Sched = Prev;
      }
      uint64_t Dice = Rng.nextBelow(100);
      uint32_t Name = OpKvGet;
      uint64_t Start = nowNs();
      bool Exhausted = false;
      try {
        if (Dice < Mix.ReadPct) {
          Name = OpKvGet;
          if (Store->get(M, Keys->pick(Rng)) != KvReadStatus::Hit)
            ++L.Wrong; // Base keys are never removed.
        } else if (Dice < Mix.ReadPct + Mix.UpdatePct || Lo == Hi) {
          Name = OpKvUpdate;
          Store->put(M, Keys->pick(Rng));
        } else {
          // Churn: toggle this worker's own keys round-robin; presence
          // flips only once the request succeeded.
          uint64_t I = Cursor;
          Cursor = (Cursor + 1) % (Hi - Lo);
          if (Present[I]) {
            Name = OpKvRemove;
            if (!Store->remove(M, Lo + I))
              ++L.Wrong;
            Present[I] = 0;
          } else {
            Name = OpKvInsert;
            Store->put(M, Lo + I);
            Present[I] = 1;
          }
        }
      } catch (const HeapExhaustedError &) {
        Exhausted = true;
      }
      uint64_t Done = nowNs();
      M.simulateWork(ComputeCyclesPerOp);
      L.note(Plan.Open, Plan.Traced, Op, Sched, Start, Done, Name);
      if (Exhausted)
        L.noteFailed(Op);
      else
        ++L.Units;
      Prev = Done;
    }
  }

  /// Replays worker \p W's executed requests in plain memory.
  void replay(unsigned W, const ThreadLog &L, std::vector<uint64_t> &Version,
              std::vector<uint8_t> &Present) const {
    SplitMix64 Rng = opRng(W);
    const uint64_t Lo = churnLo(W), Hi = churnHi(W);
    uint64_t Cursor = 0;
    size_t NextFailed = 0;
    for (uint64_t Op = 0; Op < L.Ops; ++Op) {
      bool Failed = NextFailed < L.FailedOps.size() &&
                    L.FailedOps[NextFailed] == Op;
      NextFailed += Failed;
      uint64_t Dice = Rng.nextBelow(100);
      if (Dice < Mix.ReadPct) {
        (void)Keys->pick(Rng);
      } else if (Dice < Mix.ReadPct + Mix.UpdatePct || Lo == Hi) {
        uint64_t Key = Keys->pick(Rng);
        Version[Key] += !Failed;
      } else {
        uint64_t I = Cursor;
        Cursor = (Cursor + 1) % (Hi - Lo);
        Present[Lo + I - Mix.Records] ^= !Failed;
      }
    }
  }

  KvMix Mix;
  uint64_t Seed;
  std::unique_ptr<KvKeySpace> Keys;
  std::unique_ptr<KvStore> Store;
};

std::unique_ptr<Program> makeProgram(const Workload &W, uint64_t Seed,
                                     Mutator &M) {
  switch (W.K) {
  case Kind::Synthetic:
    return std::make_unique<SyntheticProgram>(M);
  case Kind::GraphCc:
    return std::make_unique<GraphProgram>(Seed);
  case Kind::KvOpen:
    return std::make_unique<KvProgram>(KvReadMix, Seed);
  case Kind::KvClosed:
    return std::make_unique<KvProgram>(KvWriteMix, Seed);
  }
  return nullptr;
}

// --- Metrics ----------------------------------------------------------------

struct Metric {
  double Value;
  const char *Unit;
  uint64_t N; ///< Samples behind the value.
};
using MetricMap = std::map<std::string, Metric>;

/// Total and self time of one span name over a pass.
struct SelfTime {
  double TotalMs = 0, SelfMs = 0, Count = 0;
};
using SelfTimeMap = std::map<std::string, SelfTime>;

/// Runtime state read before and after the timed loop.
struct Reading {
  std::map<std::string, uint64_t> Counters;
  uint64_t Stalls = 0;
  uint64_t Cycle = 0;
  CacheCounters Mut;

  uint64_t counter(const std::string &Name) const {
    auto It = Counters.find(Name);
    return It == Counters.end() ? 0 : It->second;
  }
};

Reading readRuntime(Runtime &RT) {
  Reading R;
  for (auto &[Name, V] : RT.metrics().counterSnapshot())
    R.Counters[Name] = V;
  if (const Histogram *H = RT.metrics().findHistogram("alloc.stall_us"))
    R.Stalls = H->count();
  R.Cycle = RT.heap().currentCycle();
  R.Mut = RT.mutatorCounters();
  return R;
}

CacheCounters minus(const CacheCounters &A, const CacheCounters &B) {
  CacheCounters D;
  D.Loads = A.Loads - B.Loads;
  D.Stores = A.Stores - B.Stores;
  D.L1Misses = A.L1Misses - B.L1Misses;
  D.L2Misses = A.L2Misses - B.L2Misses;
  D.LlcMisses = A.LlcMisses - B.LlcMisses;
  D.PrefetchesIssued = A.PrefetchesIssued - B.PrefetchesIssued;
  D.Cycles = A.Cycles - B.Cycles;
  return D;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

// --- CPU placement -----------------------------------------------------------

/// GC threads on the first two allowed CPUs, mutators on the next two.
/// The runtime's collector threads inherit the main thread's affinity, so
/// the main thread pins itself to the GC pair while it constructs the
/// Runtime and to the mutator pair afterwards. With fewer than four
/// allowed CPUs nothing is pinned.
struct CpuPlan {
  bool Pinned = false;
  cpu_set_t Gc, Mut;
};

CpuPlan planCpus() {
  CpuPlan P;
  cpu_set_t All;
  CPU_ZERO(&All);
  if (sched_getaffinity(0, sizeof(All), &All) != 0)
    return P;
  std::vector<int> Ids;
  for (int C = 0; C < CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &All))
      Ids.push_back(C);
  if (Ids.size() < 4)
    return P;
  CPU_ZERO(&P.Gc);
  CPU_ZERO(&P.Mut);
  CPU_SET(Ids[0], &P.Gc);
  CPU_SET(Ids[1], &P.Gc);
  CPU_SET(Ids[2], &P.Mut);
  CPU_SET(Ids[3], &P.Mut);
  P.Pinned = true;
  return P;
}

void pinSelf(const CpuPlan &P, const cpu_set_t &Set) {
  if (P.Pinned)
    sched_setaffinity(0, sizeof(Set), &Set);
}

// --- Traced pass -------------------------------------------------------------

using Interval = std::pair<uint64_t, uint64_t>; ///< [begin, end) in ns.

/// gc.cycle spans with phase and pause children, rebuilt from the
/// coordinator's cycle/phase/pause events on the driver's clock.
struct GcTimeline {
  std::vector<Interval> Pauses, Cycles; ///< Sorted, disjoint.
  SelfTimeMap Self;                     ///< Cycles that began in the pass.
  uint64_t PassCycles = 0;
  double CycleMs = 0, EcSelectMs = 0, UnattributedMs = 0; ///< Sums.
};

GcTimeline gcTimeline(const CollectedTrace &T, uint64_t OffsetNs,
                      uint64_t FromNs, uint64_t ToNs) {
  struct Frame {
    std::string Name;
    uint64_t Begin;
    uint64_t ChildNs;
  };
  GcTimeline TL;
  std::vector<Frame> Stack;
  for (const TraceEvent &E : T.Events) {
    bool Begin;
    std::string Name;
    switch (E.Kind) {
    case TraceEventKind::CycleBegin:
    case TraceEventKind::CycleEnd:
      Begin = E.Kind == TraceEventKind::CycleBegin;
      Name = "gc.cycle";
      break;
    case TraceEventKind::PhaseBegin:
    case TraceEventKind::PhaseEnd:
    case TraceEventKind::PauseBegin:
    case TraceEventKind::PauseEnd: {
      Begin = E.Kind == TraceEventKind::PhaseBegin ||
              E.Kind == TraceEventKind::PauseBegin;
      Name = std::string("gc.") + gcPhaseName(static_cast<GcPhase>(E.A));
      std::transform(Name.begin(), Name.end(), Name.begin(),
                     [](unsigned char C) { return std::tolower(C); });
      break;
    }
    default:
      continue;
    }
    uint64_t At = E.TimeNs + OffsetNs;
    if (Begin) {
      Stack.push_back({Name, At, 0});
      continue;
    }
    if (Stack.empty() || Stack.back().Name != Name) {
      Stack.clear(); // A dropped event broke the nesting; resynchronize.
      continue;
    }
    Frame F = Stack.back();
    Stack.pop_back();
    uint64_t Dur = At - F.Begin;
    if (!Stack.empty())
      Stack.back().ChildNs += Dur;
    bool Pause = E.Kind == TraceEventKind::PauseEnd;
    if (Pause)
      TL.Pauses.push_back({F.Begin, At});
    if (Name == "gc.cycle")
      TL.Cycles.push_back({F.Begin, At});
    if (F.Begin < FromNs || F.Begin >= ToNs)
      continue;
    SelfTime &S = TL.Self[Name];
    S.TotalMs += double(Dur) * 1e-6;
    S.SelfMs += double(Dur - F.ChildNs) * 1e-6;
    S.Count += 1;
    if (Name == "gc.cycle") {
      ++TL.PassCycles;
      TL.CycleMs += double(Dur) * 1e-6;
      TL.UnattributedMs += double(Dur - F.ChildNs) * 1e-6;
    } else if (Name == "gc.ec_select") {
      TL.EcSelectMs += double(Dur) * 1e-6;
    }
  }
  return TL;
}

bool overlaps(const std::vector<Interval> &Sorted, uint64_t Begin,
              uint64_t End) {
  // The last interval starting before End is the only candidate: earlier
  // ones end no later than it starts.
  auto It = std::lower_bound(
      Sorted.begin(), Sorted.end(), End,
      [](const Interval &I, uint64_t V) { return I.first < V; });
  return It != Sorted.begin() && std::prev(It)->second > Begin;
}

/// Share (%) of requests at or above \p TailNs whose interval overlapped
/// a pause / a GC cycle, weighting sampled spans by their sample rate.
void tailShares(const std::vector<ThreadLog> &Logs, bool Open, double TailNs,
                const GcTimeline &TL, double &InPausePct, double &InGcPct) {
  double All = 0, InPause = 0, InGc = 0;
  for (const ThreadLog &L : Logs)
    for (const Span &S : L.Spans) {
      uint64_t Begin = Open ? S.SchedNs : S.StartNs;
      if (double(S.DoneNs - Begin) < TailNs)
        continue;
      All += S.Weight;
      InPause += overlaps(TL.Pauses, Begin, S.DoneNs) ? S.Weight : 0;
      InGc += overlaps(TL.Cycles, Begin, S.DoneNs) ? S.Weight : 0;
    }
  InPausePct = 100 * ratio(InPause, All);
  InGcPct = 100 * ratio(InGc, All);
}

void spanSelfTimes(const std::vector<ThreadLog> &Logs, SelfTimeMap &Self) {
  for (const ThreadLog &L : Logs)
    for (const Span &S : L.Spans) {
      SelfTime &Req = Self["bench.request"];
      Req.TotalMs += double(S.Weight) * double(S.DoneNs - S.SchedNs) * 1e-6;
      Req.SelfMs += double(S.Weight) * double(S.StartNs - S.SchedNs) * 1e-6;
      Req.Count += S.Weight;
      SelfTime &Op = Self[OpNames[S.Op]];
      double Ms = double(S.Weight) * double(S.DoneNs - S.StartNs) * 1e-6;
      Op.TotalMs += Ms;
      Op.SelfMs += Ms;
      Op.Count += S.Weight;
    }
}

void appendF(std::string &Out, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));
void appendF(std::string &Out, const char *Fmt, ...) {
  char Buf[512];
  va_list Ap;
  va_start(Ap, Fmt);
  int N = std::vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);
  if (N > 0)
    Out.append(Buf, std::min<size_t>(size_t(N), sizeof(Buf) - 1));
}

/// Writes the runtime's trace (observe/TraceJson's format, which
/// tools/gctrace reads) with the driver's spans appended as complete
/// ("X") events on thread ids 1000 + worker; gctrace skips those.
bool writeTrace(const std::string &Path, const CollectedTrace &T,
                const std::vector<ThreadLog> &Logs, uint64_t OffsetNs,
                const char *LoadName, Interval Load) {
  std::string Doc = chromeTraceToString(T);
  if (Doc.size() < 2 || Doc.compare(Doc.size() - 2, 2, "]}") != 0)
    return false;
  Doc.resize(Doc.size() - 2);
  auto Event = [&](const char *Name, unsigned Tid, uint64_t Begin,
                   uint64_t End, uint32_t Weight) {
    if (Doc.back() != '[')
      Doc += ',';
    appendF(Doc,
            "{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\",\"ts\":%.3f,"
            "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"weight\":%u}}",
            Name, double(Begin - OffsetNs) / 1e3, double(End - Begin) / 1e3,
            Tid, Weight);
  };
  for (unsigned W = 0; W < Logs.size(); ++W) {
    if (Doc.back() != '[')
      Doc += ',';
    appendF(Doc,
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
            "\"args\":{\"name\":\"bench-worker-%u\"}}",
            1000 + W, W);
  }
  Event(LoadName, 1000, Load.first, Load.second, 1);
  for (unsigned W = 0; W < Logs.size(); ++W)
    for (const Span &S : Logs[W].Spans) {
      Event("bench.request", 1000 + W, S.SchedNs, S.DoneNs, S.Weight);
      Event(OpNames[S.Op], 1000 + W, S.StartNs, S.DoneNs, S.Weight);
    }
  Doc += "]}\n";
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  bool Ok = std::fwrite(Doc.data(), 1, Doc.size(), F) == Doc.size();
  return std::fclose(F) == 0 && Ok;
}

// --- One pass ---------------------------------------------------------------

enum class PassKind {
  Plain,   ///< The workload's own probe setting, untraced.
  Traced,  ///< Plain plus GC tracing and the driver's spans.
  Flipped, ///< Probes flipped, untraced; KV runs closed-loop.
};

struct PassOutcome {
  double SetupS = 0, LoadS = 0;
  double WindowS = 0; ///< Start of the timed loop to the last completion.
  uint64_t Ops = 0, Failed = 0, Wrong = 0, Units = 0;
  uint64_t FinalLagNs = 0;
  LatencyHistogram Latency, Service, Queue;
  std::vector<std::string> Errors;
  bool Probes = false;
  CacheCounters Mut, Gc; ///< Mutators over the loop; GC threads overall.
  uint64_t BatchEvents = 0;
  MetricMap Layer; ///< Traced pass only.
  SelfTimeMap Self;
};

/// The traced pass's per-layer metrics (README.md lists their meaning).
void layerMetrics(Runtime &RT, const Reading &Before, const Reading &After,
                  const std::vector<double> &ForcedMs, PassOutcome &Out) {
  MetricMap &M = Out.Layer;
  auto Delta = [&](const char *Name) {
    return double(After.counter(Name) - Before.counter(Name));
  };
  constexpr double MiB = 1024.0 * 1024.0;

  M["runtime.alloc_stalls"] = {double(After.Stalls - Before.Stalls), "count",
                               1};
  M["runtime.tlab_refills"] = {Delta("alloc.tlab.refills"), "count", 1};
  M["runtime.pretenure_refills"] = {Delta("alloc.tlab.pretenure_refills"),
                                    "count", 1};
  double Hits = Delta("alloc.cache.page_hits");
  double Misses = Delta("alloc.cache.page_misses");
  M["heap.page_cache_hit_ratio"] = {ratio(Hits, Hits + Misses), "ratio",
                                    uint64_t(Hits + Misses)};
  M["heap.shard_locks"] = {Delta("alloc.shard.lock_acquisitions"), "count",
                           1};
  M["heap.quarantine_pages_released"] = {
      Delta("alloc.quarantine.pages_released"), "count", 1};
  M["gc.pretenured_mb"] = {Delta("site.pretenured_bytes") / MiB, "MB", 1};
  M["gc.site_route_flips"] = {Delta("site.route_flips"), "count", 1};
  M["workloads.kv_index_rebuilds"] = {Delta("kv.index.rebuilds"), "count",
                                      1};

  // Cycles whose STW1 fell inside the timed loop.
  uint64_t N = 0, Live = 0, Hot = 0;
  double PauseMax = 0, Stw[3] = {0, 0, 0}, MarkMs = 0, RelocMs = 0;
  double MutRelocB = 0, GcRelocB = 0, UsedMax = 0;
  std::vector<double> EcPages;
  RT.gcStats().forEachCycle([&](const CycleRecord &R) {
    if (R.Cycle <= Before.Cycle || R.Cycle > After.Cycle)
      return;
    ++N;
    double P[3] = {R.Stw1Ms, R.Stw2Ms, R.Stw3Ms};
    for (int I = 0; I < 3; ++I) {
      Stw[I] += P[I];
      PauseMax = std::max(PauseMax, P[I]);
    }
    MarkMs += R.MarkMs;
    RelocMs += R.RelocMs;
    MutRelocB += double(R.BytesRelocatedByMutators);
    GcRelocB += double(R.BytesRelocatedByGc);
    UsedMax = std::max(UsedMax, double(R.UsedAfterBytes));
    Live += R.LiveBytesMarked;
    Hot += R.HotBytesMarked;
    EcPages.push_back(double(R.SmallPagesInEc));
  });
  double Cycles = double(N);
  M["gc.cycles"] = {Cycles, "count", 1};
  M["gc.pause_ms_max"] = {PauseMax, "ms", 3 * N};
  M["gc.stw1_ms"] = {ratio(Stw[0], Cycles), "ms", N};
  M["gc.stw2_ms"] = {ratio(Stw[1], Cycles), "ms", N};
  M["gc.stw3_ms"] = {ratio(Stw[2], Cycles), "ms", N};
  M["gc.mark_ms"] = {ratio(MarkMs, Cycles), "ms", N};
  M["gc.reloc_ms"] = {ratio(RelocMs, Cycles), "ms", N};
  M["gc.gc_reloc_mb"] = {GcRelocB / MiB, "MB", N};
  M["runtime.mutator_reloc_mb"] = {MutRelocB / MiB, "MB", N};
  M["heap.used_after_gc_mb_max"] = {UsedMax / MiB, "MB", N};
  M["gc.ec_small_pages"] = {median(EcPages), "pages", N};
  M["gc.hot_ratio"] = {ratio(double(Hot), double(Live)), "ratio", N};
  M["gc.forced_cycle_ms"] = {median(ForcedMs), "ms", ForcedMs.size()};
}

std::unique_ptr<PassOutcome> runPass(const Workload &W, uint64_t Seed,
                                     double Seconds, const CpuPlan &Cpus,
                                     PassKind PK, bool SetupOnly,
                                     const std::string &TracePath = "") {
  auto Out = std::make_unique<PassOutcome>();
  const bool Traced = PK == PassKind::Traced;
  Out->Probes = (PK == PassKind::Flipped) != W.Probes;

  pinSelf(Cpus, Cpus.Gc);
  uint64_t T0 = nowNs();
  auto RT = std::make_unique<Runtime>(makeConfig(W, Out->Probes, Traced));
  pinSelf(Cpus, Cpus.Mut);
  auto M = RT->attachMutator();
  std::unique_ptr<Program> Prog = makeProgram(W, Seed, *M);
  const char *LoadName = Prog->loadName();
  Interval Load{nowNs(), 0};
  Prog->load(*M);
  Load.second = nowNs();
  Out->SetupS = double(Load.second - T0) * 1e-9;
  Out->LoadS = double(Load.second - Load.first) * 1e-9;

  std::vector<ThreadLog> Logs;
  Reading Before, After;
  PassPlan Plan;
  uint64_t OffsetNs = 0;
  std::vector<double> ForcedMs;
  if (!SetupOnly) {
    Logs.resize(Prog->threads());
    for (ThreadLog &L : Logs)
      L.prepare(Traced);
    Before = readRuntime(*RT);
    OffsetNs = nowNs() - RT->heap().traceSession().nowNs();
    Plan.Open = W.K == Kind::KvOpen && PK != PassKind::Flipped;
    Plan.Traced = Traced;
    Plan.StartNs = nowNs() + 2 * 1000 * 1000;
    Plan.EndNs = Plan.StartNs + static_cast<uint64_t>(Seconds * 1e9);
    Prog->run(*M, Plan, Logs);
    After = readRuntime(*RT);
    if (Traced)
      for (int I = 0; I < 3; ++I) {
        uint64_t F0 = nowNs();
        M->requestGcAndWait();
        ForcedMs.push_back(double(nowNs() - F0) * 1e-6);
      }
    Prog->validate(*M, Logs, Out->Errors);
  }
  // Detach before waiting for the driver: an attached mutator that stops
  // polling would stall the next pause. Shutting down publishes the
  // record of a cycle whose relocation LAZYRELOCATE deferred.
  Prog.reset();
  M.reset();
  RT->driver().waitIdle();
  RT->driver().shutdown();
  if (SetupOnly)
    return Out;

  uint64_t LastDone = Plan.StartNs;
  for (const ThreadLog &L : Logs) {
    Out->Ops += L.Ops;
    Out->Failed += L.Failed;
    Out->Wrong += L.Wrong;
    Out->Units += L.Units;
    Out->FinalLagNs = std::max(Out->FinalLagNs, L.LastLagNs);
    LastDone = std::max(LastDone, L.LastDoneNs);
    Out->Latency.merge(L.Latency);
    Out->Service.merge(L.Service);
    Out->Queue.merge(L.Queue);
    if (!L.Error.empty())
      Out->Errors.push_back("worker: " + L.Error);
  }
  Out->WindowS = double(LastDone - Plan.StartNs) * 1e-9;

  if (Out->Probes) {
    Out->Mut = minus(After.Mut, Before.Mut);
    Out->Gc = RT->gcThreadCounters();
    Out->BatchEvents = After.counter("simcache.batch_events") -
                       Before.counter("simcache.batch_events");
  }
  if (!Traced)
    return Out;

  layerMetrics(*RT, Before, After, ForcedMs, *Out);
  CollectedTrace T = RT->collectTrace();
  GcTimeline TL = gcTimeline(T, OffsetNs, Plan.StartNs, LastDone + 1);
  double Cycles = double(TL.PassCycles);
  MetricMap &LM = Out->Layer;
  LM["gc.cycle_ms"] = {ratio(TL.CycleMs, Cycles), "ms", TL.PassCycles};
  LM["gc.ec_select_ms"] = {ratio(TL.EcSelectMs, Cycles), "ms",
                           TL.PassCycles};
  LM["gc.unattributed_ms"] = {ratio(TL.UnattributedMs, Cycles), "ms",
                              TL.PassCycles};
  double InPause = 0, InGc = 0;
  tailShares(Logs, Plan.Open, Out->Latency.percentile(0.99), TL, InPause,
             InGc);
  LM["bench.tail_in_pause_pct"] = {InPause, "%", Out->Ops / 100};
  LM["bench.tail_in_gc_pct"] = {InGc, "%", Out->Ops / 100};
  uint64_t Dropped = T.DroppedTotal;
  for (const ThreadLog &L : Logs)
    Dropped += L.DroppedSpans;
  LM["bench.trace_dropped_events"] = {double(Dropped), "count", 1};
  LM["workloads.load_s"] = {Out->LoadS, "s", 1};
  LM["workloads.op_us_p50"] = {Out->Service.percentile(0.5) / 1e3, "us",
                               Out->Ops};
  LM["workloads.op_us_p99"] = {Out->Service.percentile(0.99) / 1e3, "us",
                               Out->Ops};

  Out->Self = TL.Self;
  spanSelfTimes(Logs, Out->Self);
  Out->Self[LoadName] = {Out->LoadS * 1e3, Out->LoadS * 1e3, 1};
  if (!writeTrace(TracePath, T, Logs, OffsetNs, LoadName, Load))
    Out->Errors.push_back("cannot write trace " + TracePath);
  return Out;
}

// --- Driver -----------------------------------------------------------------

struct Options {
  const Workload *W = nullptr;
  uint64_t Seed = 0;
  double Seconds = 0;
  std::string TracePath;
};

bool parseUnsigned(const std::string &S, uint64_t &Out) {
  if (S.empty() || S.find_first_not_of("0123456789") != std::string::npos)
    return false;
  errno = 0;
  Out = std::strtoull(S.c_str(), nullptr, 10);
  return errno == 0;
}

/// Accepts exactly --workload, --seed, --seconds and --traced, each as
/// --name=value; anything else is an error.
bool parseArgs(int Argc, char **Argv, Options &O, std::string &Err) {
  bool HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    size_t Eq = Arg.find('=');
    if (Arg.rfind("--", 0) != 0 || Eq == std::string::npos) {
      Err = "malformed argument '" + Arg + "' (want --name=value)";
      return false;
    }
    std::string Name = Arg.substr(2, Eq - 2), Value = Arg.substr(Eq + 1);
    uint64_t U = 0;
    if (Name == "workload") {
      for (const Workload &W : Workloads)
        if (Value == W.Name)
          O.W = &W;
      if (!O.W) {
        Err = "unknown workload '" + Value + "'";
        return false;
      }
    } else if (Name == "seed") {
      if (!parseUnsigned(Value, O.Seed)) {
        Err = "--seed wants an unsigned integer";
        return false;
      }
      HaveSeed = true;
    } else if (Name == "seconds") {
      if (!parseUnsigned(Value, U) || U < 1 || U > 600) {
        Err = "--seconds wants an integer in 1..600";
        return false;
      }
      O.Seconds = double(U);
    } else if (Name == "traced") {
      if (Value.empty()) {
        Err = "--traced wants a file name";
        return false;
      }
      O.TracePath = Value;
    } else {
      Err = "unknown flag --" + Name;
      return false;
    }
  }
  if (!O.W || !HaveSeed || O.Seconds == 0) {
    Err = "--workload, --seed and --seconds are required";
    return false;
  }
  return true;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      appendF(Out, "\\u%04x", C);
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

double maxRssMb() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

/// The end-to-end metrics of an untraced run.
void endToEnd(const Options &O, const CpuPlan &Cpus, MetricMap &M,
              std::vector<std::unique_ptr<PassOutcome>> &Passes) {
  std::vector<double> Setups;
  for (int I = 1; I < SetupRuns; ++I)
    Setups.push_back(
        runPass(*O.W, O.Seed, O.Seconds, Cpus, PassKind::Plain, true)
            ->SetupS);
  Passes.push_back(
      runPass(*O.W, O.Seed, O.Seconds, Cpus, PassKind::Plain, false));
  const PassOutcome &P = *Passes.back();
  Setups.push_back(P.SetupS);
  uint64_t N = P.Latency.count();
  M["setup_s"] = {median(Setups), "s", Setups.size()};
  M["throughput_kops"] = {ratio(double(P.Units), P.WindowS) / 1e3, "kops/s",
                          P.Units};
  M["latency_p50_us"] = {P.Latency.percentile(0.5) / 1e3, "us", N};
  M["max_rss_mb"] = {maxRssMb(), "MB", 1};
}

/// The per-layer metrics of a traced run.
void perLayer(const Options &O, const CpuPlan &Cpus, MetricMap &M,
              SelfTimeMap &Self,
              std::vector<std::unique_ptr<PassOutcome>> &Passes) {
  auto Run = [&](PassKind PK) {
    Passes.push_back(runPass(*O.W, O.Seed, O.Seconds, Cpus, PK, false,
                             O.TracePath));
    return Passes.back().get();
  };
  const PassOutcome &Ref = *Run(PassKind::Plain);
  const PassOutcome &Tr = *Run(PassKind::Traced);
  const PassOutcome &Fl = *Run(PassKind::Flipped);
  M = Tr.Layer;
  Self = Tr.Self;

  // Tails and schedule lag come from the untraced reference pass.
  uint64_t N = Ref.Latency.count();
  M["bench.latency_p99_us"] = {Ref.Latency.percentile(0.99) / 1e3, "us", N};
  M["bench.latency_p999_us"] = {Ref.Latency.percentile(0.999) / 1e3, "us",
                                N};
  M["bench.queue_wait_us_p99"] = {Ref.Queue.percentile(0.99) / 1e3, "us", N};
  M["bench.final_lag_ms"] = {double(Ref.FinalLagNs) * 1e-6, "ms", 1};
  M["bench.trace_overhead_pct"] = {
      100 * (ratio(Tr.Service.mean(), Ref.Service.mean()) - 1), "%",
      Tr.Ops};

  // The cache simulator: whichever of the timed and flipped passes had
  // probes on.
  const PassOutcome &On = Ref.Probes ? Tr : Fl;
  const PassOutcome &Off = Ref.Probes ? Fl : Ref;
  const CacheCounters &Mut = On.Mut;
  double Loads = double(Mut.Loads);
  M["simcache.exec_ns_per_op"] = {
      ratio(double(Mut.Cycles) / SimHz * 1e9, double(On.Units)), "ns",
      On.Units};
  M["simcache.mut_l1_miss_per_kload"] = {
      1e3 * ratio(double(Mut.L1Misses), Loads), "1/kload", Mut.Loads};
  M["simcache.mut_llc_miss_per_kload"] = {
      1e3 * ratio(double(Mut.LlcMisses), Loads), "1/kload", Mut.Loads};
  M["simcache.mut_loads_m"] = {Loads / 1e6, "million", 1};
  M["simcache.gc_llc_misses_m"] = {double(On.Gc.LlcMisses) / 1e6, "million",
                                   1};
  M["simcache.batch_events_m"] = {double(On.BatchEvents) / 1e6, "million",
                                  1};
  M["gc.sim_mcycles"] = {double(On.Gc.Cycles) / 1e6, "Mcycles", 1};
  M["simcache.overhead_pct"] = {
      100 * (ratio(On.Service.mean(), Off.Service.mean()) - 1), "%",
      On.Ops};
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  std::string Err;
  if (!parseArgs(Argc, Argv, O, Err)) {
    std::fprintf(stderr,
                 "hcsgc_e2e: %s\nusage: hcsgc_e2e --workload=<name> "
                 "--seed=N --seconds=S [--traced=<file>]\n",
                 Err.c_str());
    return 2;
  }
  std::string Label = describeConfig(table2Config(O.W->ConfigId));
  if (Label != O.W->Label) {
    std::fprintf(stderr,
                 "hcsgc_e2e: config %d is now '%s', the workload was "
                 "defined on '%s'\n",
                 O.W->ConfigId, Label.c_str(), O.W->Label);
    return 2;
  }

  CpuPlan Cpus = planCpus();
  MetricMap Metrics;
  SelfTimeMap Self;
  std::vector<std::unique_ptr<PassOutcome>> Passes;
  std::vector<std::string> Errors;
  try {
    if (O.TracePath.empty())
      endToEnd(O, Cpus, Metrics, Passes);
    else
      perLayer(O, Cpus, Metrics, Self, Passes);
  } catch (const std::exception &E) {
    Errors.push_back(std::string("aborted: ") + E.what());
  }
  uint64_t Attempted = 0, Failed = 0;
  for (const auto &P : Passes) {
    Attempted += P->Ops;
    Failed += P->Failed + P->Wrong;
    Errors.insert(Errors.end(), P->Errors.begin(), P->Errors.end());
  }
  for (auto &[Name, V] : Metrics)
    if (!std::isfinite(V.Value))
      Errors.push_back("metric " + Name + " is not finite");

  std::string Out;
  appendF(Out,
          "{\"workload\":\"%s\",\"config\":%s,\"seed\":%" PRIu64
          ",\"seconds\":%g,\"traced\":%s,\"pinned\":%s,\"correct\":%s,"
          "\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64 ",\"errors\":[",
          O.W->Name, jsonString(Label).c_str(), O.Seed, O.Seconds,
          O.TracePath.empty() ? "false" : "true",
          Cpus.Pinned ? "true" : "false", Errors.empty() ? "true" : "false",
          Attempted, Failed);
  for (size_t I = 0; I < Errors.size(); ++I) {
    if (I)
      Out += ',';
    Out += jsonString(Errors[I]);
  }
  Out += "],\"metrics\":{";
  bool First = true;
  for (auto &[Name, V] : Metrics) {
    appendF(Out, "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"n\":%" PRIu64 "}",
            First ? "" : ",", Name.c_str(),
            std::isfinite(V.Value) ? V.Value : 0.0, V.Unit, V.N);
    First = false;
  }
  Out += "},\"self_times\":{";
  First = true;
  for (auto &[Name, S] : Self) {
    appendF(Out,
            "%s\"%s\":{\"total_ms\":%.6f,\"self_ms\":%.6f,\"count\":%.0f}",
            First ? "" : ",", Name.c_str(), S.TotalMs, S.SelfMs, S.Count);
    First = false;
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  return Errors.empty() && Failed == 0 ? 0 : 1;
}
