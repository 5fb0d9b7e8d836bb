//===- tools/heapscope.cpp - Heap snapshot log explorer -----------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
// Reads a JSONL heap-snapshot log (GcConfig::SnapshotLogPath or the
// harness's --snapshot-log flag), one line per GC cycle, and renders the
// locality observatory offline:
//
//   $ heapscope snap.jsonl                    # per-cycle summary table:
//                                             # census, phase times (ms),
//                                             # relocation by actor
//   $ heapscope snap.jsonl --map              # ASCII heat strip per cycle
//   $ heapscope snap.jsonl --map=7            #   ... cycle 7 only
//   $ heapscope snap.jsonl --trends           # locality trend lines
//   $ heapscope snap.jsonl --sites            # top allocation sites
//   $ heapscope snap.jsonl --sites=5          #   ... top 5 only
//   $ heapscope snap.jsonl --audit            # EC decision audit dump
//   $ heapscope snap.jsonl --audit=7          #   ... cycle 7 only
//   $ heapscope snap.jsonl --replay           # re-run EC selection from the
//                                             # page rows; exit 1 on a
//                                             # mismatch or no judged cycle
//   $ heapscope snap.jsonl --diff=other.jsonl # compare two runs per cycle
//   $ heapscope snap.jsonl --cycles=3..7      # restrict any mode to 3-7
//
//===----------------------------------------------------------------------===//

#include "observe/HeapSnapshot.h"
#include "observe/SnapshotLog.h"
#include "support/ArgParse.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace hcsgc;

namespace {

/// Loads \p Path and keeps the cycles in [\p Lo, \p Hi].
bool loadLog(const char *Path, uint64_t Lo, uint64_t Hi,
             std::vector<CycleSnapshot> &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    std::fprintf(stderr, "heapscope: cannot open %s\n", Path);
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string Error;
  if (!readSnapshotLog(SS.str(), Out, Error)) {
    std::fprintf(stderr, "heapscope: %s: %s\n", Path, Error.c_str());
    return false;
  }
  Out.erase(std::remove_if(Out.begin(), Out.end(),
                           [&](const CycleSnapshot &S) {
                             return S.Cycle < Lo || S.Cycle > Hi;
                           }),
            Out.end());
  return true;
}

/// Pages EC released as dead: present in the census, gone once the
/// cycle's selection ran.
bool reclaimed(const PageRecord &P) {
  return P.Verdict == EcVerdict::DeadReclaimed;
}

bool selected(const PageRecord &P) {
  return P.Verdict == EcVerdict::Selected;
}

/// \returns \p Field summed over the cycle's pages, in KB.
double sumKB(const CycleSnapshot &S, uint64_t PageRecord::*Field) {
  uint64_t N = 0;
  for (const PageRecord &P : S.Pages)
    N += P.*Field;
  return static_cast<double>(N) / 1024.0;
}

size_t countIf(const CycleSnapshot &S, bool (*Pred)(const PageRecord &)) {
  return static_cast<size_t>(
      std::count_if(S.Pages.begin(), S.Pages.end(), Pred));
}

void printSummary(const std::vector<CycleSnapshot> &Log) {
  // The census as marking left it: dead pages count toward pages and
  // used bytes; "ec" and "dead" are EC's verdicts on them. Then the
  // cycle's record: its wall time and the phase times (ms) that
  // partition it, and its relocated bytes split by actor.
  std::printf("%5s %6s %10s %10s %10s %5s %5s %8s %9s", "cycle", "pages",
              "used(KB)", "live(KB)", "hot(KB)", "ec", "dead", "cc",
              "wall(ms)");
  for (const CyclePhase &Ph : CyclePhases)
    std::printf(" %9s", Ph.Name);
  std::printf(" %9s %9s\n", "mutKB", "gcKB");
  for (const CycleSnapshot &S : Log) {
    const CycleRecord &R = S.Record;
    std::printf("%5" PRIu64 " %6zu %10.1f %10.1f %10.1f %5zu %5zu %8.3f "
                "%9.3f",
                S.Cycle, S.Pages.size(), sumKB(S, &PageRecord::UsedBytes),
                sumKB(S, &PageRecord::LiveBytes),
                sumKB(S, &PageRecord::HotBytes), countIf(S, selected),
                countIf(S, reclaimed),
                S.ColdConfidence, R.WallMs);
    for (const CyclePhase &Ph : CyclePhases)
      std::printf(" %9.3f", R.*Ph.Ms);
    std::printf(" %9.1f %9.1f\n",
                static_cast<double>(R.BytesRelocatedByMutators) / 1024.0,
                static_cast<double>(R.BytesRelocatedByGc) / 1024.0);
  }
}

/// One shade character per page, by hot fraction of live bytes.
char shadeOf(const PageRecord &P) {
  static const char Shades[] = " .:-=+*#%@";
  if (P.LiveBytes == 0)
    return ' ';
  double Frac = static_cast<double>(P.HotBytes) /
                static_cast<double>(P.LiveBytes);
  int Idx = static_cast<int>(Frac * 9.0);
  return Shades[std::min(9, std::max(0, Idx))];
}

void printMap(const CycleSnapshot &S) {
  std::printf("cycle %" PRIu64 ": %zu pages (hot-fraction shade "
              "' .:-=+*#%%@', '^' = EC-selected)\n",
              S.Cycle, S.Pages.size());
  constexpr size_t Width = 64;
  for (size_t Row = 0; Row < S.Pages.size(); Row += Width) {
    size_t End = std::min(S.Pages.size(), Row + Width);
    std::printf("  [%4zu] |", Row);
    for (size_t I = Row; I < End; ++I)
      std::fputc(shadeOf(S.Pages[I]), stdout);
    std::printf("|\n         |");
    for (size_t I = Row; I < End; ++I)
      std::fputc(selected(S.Pages[I]) ? '^' : ' ', stdout);
    std::printf("|\n");
  }
}

void printTrends(const std::vector<CycleSnapshot> &Log) {
  // One line per cycle, over the pages left once EC released the dead
  // ones: how much of the live set is hot, how fragmented the surviving
  // (unselected) pages are, and what fraction of pages entered the
  // relocation set — the observable the paper's locality argument is
  // about (hot objects packed onto few pages).
  // Temperature columns (zero without TEMPERATURE): the byte fraction of
  // the live set at each 2-bit tier, plus resident bytes on cold-tier
  // pages — the reclaimable-RSS figure the cold backend reports.
  // The pret% column (zero without SITEPROFILING) is the cumulative
  // share of tagged allocation bytes placed through the pretenure TLAB.
  std::printf("%5s %12s %12s %12s %12s %8s %7s %7s %7s %7s %10s %6s\n",
              "cycle", "hot/live", "surv hot/lv", "frag", "ec pages%",
              "pages", "t0%", "t1%", "t2%", "t3%", "cold(KB)", "pret%");
  for (const CycleSnapshot &S : Log) {
    uint64_t Live = 0, Hot = 0, SurvLive = 0, SurvHot = 0, Used = 0;
    uint64_t Temp[SnapTempTiers] = {0, 0, 0, 0};
    uint64_t ColdResident = 0;
    size_t Pages = 0, Selected = 0;
    for (const PageRecord &P : S.Pages) {
      if (reclaimed(P))
        continue;
      ++Pages;
      Live += P.LiveBytes;
      Hot += P.HotBytes;
      Used += P.UsedBytes;
      for (unsigned T = 0; T < SnapTempTiers; ++T)
        Temp[T] += P.TempBytes[T];
      if (P.Tier == static_cast<uint8_t>(SnapPageTier::Cold))
        ColdResident += P.UsedBytes;
      if (selected(P)) {
        ++Selected;
      } else {
        SurvLive += P.LiveBytes;
        SurvHot += P.HotBytes;
      }
    }
    double HotFrac = Live ? static_cast<double>(Hot) / Live : 0.0;
    double SurvFrac =
        SurvLive ? static_cast<double>(SurvHot) / SurvLive : 0.0;
    // Fragmentation: allocated-but-dead fraction across active pages.
    double Frag = Used ? 1.0 - static_cast<double>(Live) / Used : 0.0;
    double EcPct =
        Pages ? 100.0 * static_cast<double>(Selected) / Pages : 0.0;
    uint64_t TempTotal = Temp[0] + Temp[1] + Temp[2] + Temp[3];
    auto TempPct = [&](unsigned T) {
      return TempTotal ? 100.0 * static_cast<double>(Temp[T]) /
                             static_cast<double>(TempTotal)
                       : 0.0;
    };
    uint64_t SiteAlloc = 0, SitePret = 0;
    for (const SiteRecord &R : S.Sites) {
      SiteAlloc += R.AllocatedBytes;
      SitePret += R.PretenuredBytes;
    }
    double PretPct = SiteAlloc ? 100.0 * static_cast<double>(SitePret) /
                                     static_cast<double>(SiteAlloc)
                               : 0.0;
    std::printf("%5" PRIu64 " %12.3f %12.3f %12.3f %11.1f%% %8zu "
                "%6.1f%% %6.1f%% %6.1f%% %6.1f%% %10.1f %5.1f%%\n",
                S.Cycle, HotFrac, SurvFrac, Frag, EcPct, Pages,
                TempPct(0), TempPct(1), TempPct(2), TempPct(3),
                static_cast<double>(ColdResident) / 1024.0, PretPct);
  }
}

void printSites(const std::vector<CycleSnapshot> &Log, long TopN) {
  // Site rows are cumulative, so the latest capture carrying them is the
  // whole story; rank by allocation volume.
  const CycleSnapshot *Last = nullptr;
  for (const CycleSnapshot &S : Log)
    if (!S.Sites.empty())
      Last = &S;
  if (!Last) {
    std::printf("no site records in this log (SITEPROFILING off?)\n");
    return;
  }
  std::vector<SiteRecord> Sites = Last->Sites;
  std::sort(Sites.begin(), Sites.end(),
            [](const SiteRecord &A, const SiteRecord &B) {
              return A.AllocatedBytes > B.AllocatedBytes;
            });
  if (TopN > 0 && Sites.size() > static_cast<size_t>(TopN))
    Sites.resize(static_cast<size_t>(TopN));
  std::printf("allocation sites as of cycle %" PRIu64 ", by allocated "
              "bytes:\n",
              Last->Cycle);
  std::printf("%4s %-20s %10s %10s %10s %10s %10s %7s %-5s\n", "id",
              "site", "alloc(KB)", "surv(KB)", "hot(KB)", "reloc(KB)",
              "pret(KB)", "ewma", "route");
  for (const SiteRecord &R : Sites)
    std::printf("%4" PRIu64 " %-20s %10.1f %10.1f %10.1f %10.1f %10.1f "
                "%7.3f %-5s\n",
                R.SiteIdNum, R.Name.c_str(),
                static_cast<double>(R.AllocatedBytes) / 1024.0,
                static_cast<double>(R.SurvivedBytes) / 1024.0,
                static_cast<double>(R.HotBytes) / 1024.0,
                static_cast<double>(R.RelocatedBytes) / 1024.0,
                static_cast<double>(R.PretenuredBytes) / 1024.0,
                R.HotEwma, snapSiteRouteName(R.Route));
}

void printAudit(const CycleSnapshot &S) {
  std::printf("cycle %" PRIu64 " audit: cc=%.3f threshold=%.3f "
              "budget_small=%.1f budget_medium=%.1f required_free=%.1f "
              "hotness=%d relocate_all=%d temperature=%d\n",
              S.Cycle, S.ColdConfidence, S.EvacLiveThreshold,
              S.BudgetSmall, S.BudgetMedium, S.RequiredFree,
              static_cast<int>(S.Hotness), static_cast<int>(S.RelocateAll),
              static_cast<int>(S.Temperature));
  std::printf("  %-14s %6s %10s %10s %12s %-6s %-18s", "page", "size",
              "live", "hot", "weight", "class", "verdict");
  if (S.Temperature)
    std::printf(" %8s %8s %8s %8s", "t0", "t1", "t2", "t3");
  std::printf("\n");
  for (const PageRecord &P : S.Pages) {
    if (P.Verdict == EcVerdict::NotJudged)
      continue;
    std::printf("  0x%-12" PRIx64 " %6" PRIu64 " %10" PRIu64 " %10" PRIu64
                " %12.1f %-6s %-18s",
                P.PageBegin, P.PageSize, P.LiveBytes, P.HotBytes, P.Weight,
                snapSizeClassName(P.SizeClass), ecVerdictName(P.Verdict));
    if (S.Temperature)
      std::printf(" %8" PRIu64 " %8" PRIu64 " %8" PRIu64 " %8" PRIu64,
                  P.TempBytes[0], P.TempBytes[1], P.TempBytes[2],
                  P.TempBytes[3]);
    std::printf("\n");
  }
}

/// Re-runs EC selection for every cycle and compares with the verdicts
/// the live selector recorded. \returns false on any mismatch, and on a
/// log in which no cycle judged a page: a run that collected nothing
/// proves nothing.
bool replayAll(const std::vector<CycleSnapshot> &Log) {
  int Mismatches = 0;
  size_t Judged = 0;
  for (const CycleSnapshot &S : Log) {
    if (std::none_of(S.Pages.begin(), S.Pages.end(),
                     [](const PageRecord &P) {
                       return P.Verdict != EcVerdict::NotJudged;
                     }))
      continue;
    ++Judged;
    std::vector<uint64_t> Replayed = replayEcSelection(S);
    std::vector<uint64_t> Recorded = selectedPages(S);
    if (Replayed == Recorded) {
      std::printf("cycle %" PRIu64 ": replay OK (%zu selected)\n",
                  S.Cycle, Recorded.size());
      continue;
    }
    ++Mismatches;
    std::printf("cycle %" PRIu64 ": REPLAY MISMATCH (replayed %zu, "
                "recorded %zu)\n",
                S.Cycle, Replayed.size(), Recorded.size());
    for (uint64_t B : Replayed)
      if (!std::binary_search(Recorded.begin(), Recorded.end(), B))
        std::printf("  replay selected 0x%" PRIx64
                    " but the collector did not\n",
                    B);
    for (uint64_t B : Recorded)
      if (!std::binary_search(Replayed.begin(), Replayed.end(), B))
        std::printf("  collector selected 0x%" PRIx64
                    " but the replay did not\n",
                    B);
  }
  std::printf("replay: %zu judged cycles, %d mismatches\n", Judged,
              Mismatches);
  if (Judged == 0)
    std::fprintf(stderr, "heapscope: --replay: no cycle in the log judged "
                         "a page, nothing was checked\n");
  return Judged > 0 && Mismatches == 0;
}

void printDiff(const std::vector<CycleSnapshot> &A,
               const std::vector<CycleSnapshot> &B) {
  // Index cycles on both sides; compare where both runs have the cycle
  // and note one-sided cycles. Dead pages hold no live or hot bytes, so
  // the sums need not skip them.
  auto index = [](const std::vector<CycleSnapshot> &Log) {
    std::map<uint64_t, const CycleSnapshot *> M;
    for (const CycleSnapshot &S : Log)
      M[S.Cycle] = &S;
    return M;
  };
  auto MA = index(A), MB = index(B);
  std::printf("%5s %10s %10s | %10s %10s | %7s %7s\n", "cycle",
              "liveA(KB)", "liveB(KB)", "hotA(KB)", "hotB(KB)", "ecA",
              "ecB");
  for (const auto &[Cycle, SA] : MA) {
    auto It = MB.find(Cycle);
    if (It == MB.end()) {
      std::printf("%5" PRIu64 "  (only in first run)\n", Cycle);
      continue;
    }
    const CycleSnapshot *SB = It->second;
    std::printf("%5" PRIu64 " %10.1f %10.1f | %10.1f %10.1f | %7zu "
                "%7zu\n",
                Cycle, sumKB(*SA, &PageRecord::LiveBytes),
                sumKB(*SB, &PageRecord::LiveBytes),
                sumKB(*SA, &PageRecord::HotBytes),
                sumKB(*SB, &PageRecord::HotBytes), countIf(*SA, selected),
                countIf(*SB, selected));
  }
  for (const auto &[Cycle, SB] : MB)
    if (!MA.count(Cycle))
      std::printf("%5" PRIu64 "  (only in second run)\n", Cycle);
}

} // namespace

int main(int Argc, char **Argv) {
  const char *Path = nullptr;
  const char *DiffPath = nullptr;
  bool Summary = false, Map = false, Trends = false, Audit = false,
       Replay = false, Sites = false;
  long MapCycle = -1, AuditCycle = -1, SitesTop = 20;
  uint64_t CycleLo = 0, CycleHi = UINT64_MAX;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--summary") == 0) {
      Summary = true;
    } else if (std::strcmp(Argv[I], "--map") == 0) {
      Map = true;
    } else if (std::strncmp(Argv[I], "--map=", 6) == 0) {
      Map = true;
      MapCycle = ArgParse::parseInt("map", Argv[I] + 6);
    } else if (std::strcmp(Argv[I], "--trends") == 0) {
      Trends = true;
    } else if (std::strcmp(Argv[I], "--sites") == 0) {
      Sites = true;
    } else if (std::strncmp(Argv[I], "--sites=", 8) == 0) {
      Sites = true;
      SitesTop = ArgParse::parseInt("sites", Argv[I] + 8);
    } else if (std::strcmp(Argv[I], "--audit") == 0) {
      Audit = true;
    } else if (std::strncmp(Argv[I], "--audit=", 8) == 0) {
      Audit = true;
      AuditCycle = ArgParse::parseInt("audit", Argv[I] + 8);
    } else if (std::strcmp(Argv[I], "--replay") == 0) {
      Replay = true;
    } else if (std::strncmp(Argv[I], "--diff=", 7) == 0) {
      DiffPath = Argv[I] + 7;
    } else if (std::strncmp(Argv[I], "--cycles=", 9) == 0) {
      // parseCycleRange rejects trailing garbage ("3..7junk") and
      // inverted ranges; "--cycles=N" means N..N.
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
    std::fprintf(
        stderr,
        "usage: heapscope <snap.jsonl> [--summary] [--map[=CYCLE]] "
        "[--trends] [--sites[=N]] [--audit[=CYCLE]] [--replay] "
        "[--diff=other.jsonl] [--cycles=A..B]\n");
    return 2;
  }
  if (!Summary && !Map && !Trends && !Sites && !Audit && !Replay &&
      !DiffPath)
    Summary = true;

  std::vector<CycleSnapshot> Log;
  if (!loadLog(Path, CycleLo, CycleHi, Log))
    return 1;
  std::printf("%s: %zu cycles\n", Path, Log.size());

  if (Summary)
    printSummary(Log);
  if (Map)
    for (const CycleSnapshot &S : Log)
      if (MapCycle < 0 || S.Cycle == static_cast<uint64_t>(MapCycle))
        printMap(S);
  if (Trends)
    printTrends(Log);
  if (Sites)
    printSites(Log, SitesTop);
  if (Audit)
    for (const CycleSnapshot &S : Log)
      if (AuditCycle < 0 || S.Cycle == static_cast<uint64_t>(AuditCycle))
        printAudit(S);
  if (DiffPath) {
    std::vector<CycleSnapshot> Other;
    if (!loadLog(DiffPath, CycleLo, CycleHi, Other))
      return 1;
    printDiff(Log, Other);
  }
  if (Replay)
    return replayAll(Log) ? 0 : 1;
  return 0;
}
