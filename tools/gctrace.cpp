//===- tools/gctrace.cpp - GC trace file summarizer --------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
// Loads a Chrome trace_event JSON file produced by Runtime::dumpTrace (or
// the trace exporter directly) and prints a per-cycle summary: pause and
// phase durations, hotness flags and relocation attribution. The same
// file loads in chrome://tracing or Perfetto for a visual timeline; this
// tool answers the quantitative questions. EC's per-page decisions are in
// the snapshot log (heapscope --audit), not the trace.
//
//   $ gctrace trace.json              # per-cycle summary
//   $ gctrace trace.json --threads    # add the per-thread table (events,
//                                     # ring drops)
//   $ gctrace trace.json --events=20  # also dump the first 20 raw events
//   $ gctrace trace.json --cycles=3..7  # restrict to cycles 3-7 inclusive
//
//===----------------------------------------------------------------------===//

#include "observe/SnapshotLog.h"
#include "observe/TraceJson.h"
#include "support/ArgParse.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>

using namespace hcsgc;

namespace {

/// Everything the summary reports about one GC cycle.
struct CycleSummary {
  double PhaseUs[6] = {}; ///< Indexed by GcPhase, pauses included.
  uint64_t HotFlags = 0;
  uint64_t HotFlagBytes = 0;
  uint64_t RelocMut = 0, RelocGc = 0;
  uint64_t RelocMutBytes = 0, RelocGcBytes = 0;
};

void printEvent(const TraceEvent &E) {
  std::printf("  %12.3fus tid=%-3u cycle=%-4" PRIu64 " %-18s",
              static_cast<double>(E.TimeNs) / 1000.0,
              static_cast<unsigned>(E.Tid), E.Cycle,
              traceEventKindName(E.Kind));
  switch (E.Kind) {
  case TraceEventKind::PhaseBegin:
  case TraceEventKind::PhaseEnd:
  case TraceEventKind::PauseBegin:
  case TraceEventKind::PauseEnd:
    std::printf(" %s", gcPhaseName(static_cast<GcPhase>(E.A)));
    break;
  case TraceEventKind::HotFlag:
    std::printf(" addr=0x%" PRIx64 " bytes=%" PRIu64, E.A, E.B);
    break;
  case TraceEventKind::Relocation:
    std::printf(" 0x%" PRIx64 " -> 0x%" PRIx64 " bytes=%" PRIu64
                " by=%s",
                E.A, E.B, E.C, E.GcThread ? "gc" : "mutator");
    break;
  default:
    break;
  }
  std::printf("\n");
}

} // namespace

int main(int Argc, char **Argv) {
  const char *Path = nullptr;
  bool ShowThreads = false;
  long DumpEvents = 0;
  uint64_t CycleLo = 0, CycleHi = UINT64_MAX;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--threads") == 0) {
      ShowThreads = true;
    } else if (std::strncmp(Argv[I], "--events=", 9) == 0) {
      DumpEvents = ArgParse::parseInt("events", Argv[I] + 9);
    } else if (std::strncmp(Argv[I], "--cycles=", 9) == 0) {
      // A..B (inclusive), or a single cycle number; same parser as
      // heapscope, so trailing garbage is rejected.
      if (!parseCycleRange(Argv[I] + 9, CycleLo, CycleHi)) {
        std::fprintf(stderr, "bad --cycles range: %s\n", Argv[I] + 9);
        return 2;
      }
    } else if (Argv[I][0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", Argv[I]);
      return 2;
    } else if (!Path) {
      Path = Argv[I];
    } else {
      std::fprintf(stderr, "extra argument: %s\n", Argv[I]);
      return 2;
    }
  }
  if (!Path) {
    std::fprintf(stderr, "usage: gctrace <trace.json> [--threads] "
                         "[--events=N] [--cycles=A..B]\n");
    return 2;
  }

  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    std::fprintf(stderr, "gctrace: cannot open %s\n", Path);
    return 1;
  }
  std::ostringstream SS;
  SS << In.rdbuf();

  CollectedTrace T;
  std::string Error;
  if (!readChromeTrace(SS.str(), T, Error)) {
    std::fprintf(stderr, "gctrace: %s: %s\n", Path, Error.c_str());
    return 1;
  }

  if (CycleLo != 0 || CycleHi != UINT64_MAX) {
    size_t Before = T.Events.size();
    T.Events.erase(std::remove_if(T.Events.begin(), T.Events.end(),
                                  [&](const TraceEvent &E) {
                                    return E.Cycle < CycleLo ||
                                           E.Cycle > CycleHi;
                                  }),
                   T.Events.end());
    std::printf("cycles %" PRIu64 "..%" PRIu64 ": %zu of %zu events\n",
                CycleLo, CycleHi, T.Events.size(), Before);
  }

  double SpanMs = 0;
  if (!T.Events.empty())
    SpanMs = static_cast<double>(T.Events.back().TimeNs -
                                 T.Events.front().TimeNs) /
             1e6;
  std::printf("%s: %zu events, %zu threads, %.3f ms span, %" PRIu64
              " dropped\n",
              Path, T.Events.size(), T.Threads.size(), SpanMs,
              T.DroppedTotal);

  if (ShowThreads) {
    std::printf("\n-- threads --\n");
    for (const TraceThreadInfo &Info : T.Threads)
      std::printf("  tid=%-3u %-8s %8" PRIu64 " events %8" PRIu64
                  " dropped\n",
                  static_cast<unsigned>(Info.Tid),
                  Info.GcThread ? "gc" : "mutator", Info.Events,
                  Info.Dropped);
  }

  // Fold the stream into per-cycle summaries. Begin/End pairs are matched
  // per (cycle, phase); the coordinator emits them single-threadedly, so
  // a single open-timestamp slot per pair suffices.
  std::map<uint64_t, CycleSummary> Cycles;
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> OpenBegin;
  for (const TraceEvent &E : T.Events) {
    CycleSummary &C = Cycles[E.Cycle];
    switch (E.Kind) {
    case TraceEventKind::PauseBegin:
    case TraceEventKind::PhaseBegin:
      OpenBegin[{E.Cycle, E.A}] = E.TimeNs;
      break;
    case TraceEventKind::PauseEnd:
    case TraceEventKind::PhaseEnd: {
      auto It = OpenBegin.find({E.Cycle, E.A});
      if (It == OpenBegin.end())
        break;
      double Us =
          static_cast<double>(E.TimeNs - It->second) / 1000.0;
      OpenBegin.erase(It);
      if (E.A < std::size(C.PhaseUs))
        C.PhaseUs[E.A] += Us;
      break;
    }
    case TraceEventKind::HotFlag:
      ++C.HotFlags;
      C.HotFlagBytes += E.B;
      break;
    case TraceEventKind::Relocation:
      if (E.GcThread) {
        ++C.RelocGc;
        C.RelocGcBytes += E.C;
      } else {
        ++C.RelocMut;
        C.RelocMutBytes += E.C;
      }
      break;
    default:
      break;
    }
  }
  // Cycle 0 only exists for events recorded before the first STW1
  // (relocations of a drained EC carry their EC's cycle); drop the
  // artificial empty entry if nothing landed there.
  if (!Cycles.empty() && Cycles.begin()->first == 0) {
    const CycleSummary &C0 = Cycles.begin()->second;
    if (C0.RelocMut + C0.RelocGc + C0.HotFlags == 0)
      Cycles.erase(Cycles.begin());
  }

  std::printf("\n-- per-cycle --\n");
  std::printf("%5s %9s %9s %9s %9s %9s | %8s | %9s %9s\n", "cycle",
              "stw1(us)", "stw2(us)", "stw3(us)", "mark(us)", "reloc(us)",
              "hotflag", "mutKB", "gcKB");
  for (const auto &[Cycle, C] : Cycles)
    std::printf("%5" PRIu64 " %9.1f %9.1f %9.1f %9.1f %9.1f | %8" PRIu64
                " | %9.1f %9.1f\n",
                Cycle, C.PhaseUs[int(GcPhase::Stw1)],
                C.PhaseUs[int(GcPhase::Stw2)], C.PhaseUs[int(GcPhase::Stw3)],
                C.PhaseUs[int(GcPhase::Mark)],
                C.PhaseUs[int(GcPhase::Relocate)], C.HotFlags,
                static_cast<double>(C.RelocMutBytes) / 1024.0,
                static_cast<double>(C.RelocGcBytes) / 1024.0);

  uint64_t RelocMut = 0, RelocGc = 0, MutBytes = 0, GcBytes = 0,
           HotFlags = 0;
  for (const auto &[Cycle, C] : Cycles) {
    RelocMut += C.RelocMut;
    RelocGc += C.RelocGc;
    MutBytes += C.RelocMutBytes;
    GcBytes += C.RelocGcBytes;
    HotFlags += C.HotFlags;
  }
  std::printf("\ntotals: %zu cycles, %" PRIu64 " hot flags, relocations "
              "mutator=%" PRIu64 " (%.1f KB) gc=%" PRIu64 " (%.1f KB)\n",
              Cycles.size(), HotFlags, RelocMut,
              static_cast<double>(MutBytes) / 1024.0, RelocGc,
              static_cast<double>(GcBytes) / 1024.0);

  if (DumpEvents > 0) {
    std::printf("\n-- first %ld events --\n", DumpEvents);
    long N = 0;
    for (const TraceEvent &E : T.Events) {
      if (N++ >= DumpEvents)
        break;
      printEvent(E);
    }
  }
  return 0;
}
