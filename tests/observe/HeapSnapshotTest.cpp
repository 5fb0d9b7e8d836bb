//===- tests/observe/HeapSnapshotTest.cpp -------------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Pure observe-layer tests for the heap locality observatory: the shared
// WLB formula's boundary behavior, the offline EC replay (filter, sort,
// budget/required-free prefix, RELOCATEALLSMALLPAGES, pinned/dead/unjudged
// skips), ring-capacity drop accounting, the JSONL round trip (including
// bit-exact doubles via %.17g and the cycle record) and the strict
// reader's rejections.
//
//===----------------------------------------------------------------------===//

#include "observe/HeapSnapshot.h"
#include "observe/SnapshotLog.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace hcsgc;

namespace {

/// Convenience builder for replay-test page rows: a small page that
/// predates cycle 1 (the cycle replayCycle() stamps).
PageRecord smallEntry(uint64_t Begin, uint64_t Live, uint64_t Hot,
                      double Weight, EcVerdict V) {
  PageRecord E;
  E.PageBegin = Begin;
  E.PageSize = 64 * 1024;
  E.UsedBytes = Live;
  E.LiveBytes = Live;
  E.HotBytes = Hot;
  E.Weight = Weight;
  E.SizeClass = SnapSizeClass::Small;
  E.Verdict = V;
  return E;
}

/// An empty cycle 1 whose pages smallEntry rows (AllocSeq 0) predate.
CycleSnapshot replayCycle() {
  CycleSnapshot S;
  S.Cycle = 1;
  return S;
}

} // namespace

TEST(WlbFormulaTest, Boundaries) {
  // Hotness off: WLB is plain live bytes regardless of hot/confidence.
  EXPECT_EQ(wlbFormula(1000, 400, false, 0.7), 1000.0);
  // Hot == 0: all bytes are cold, WLB == live at every confidence.
  EXPECT_EQ(wlbFormula(1000, 0, true, 0.0), 1000.0);
  EXPECT_EQ(wlbFormula(1000, 0, true, 1.0), 1000.0);
  // Confidence 0: cold bytes count fully, WLB == live.
  EXPECT_EQ(wlbFormula(1000, 400, true, 0.0), 1000.0);
  // Confidence 1: cold bytes vanish, WLB == hot.
  EXPECT_EQ(wlbFormula(1000, 400, true, 1.0), 400.0);
  // Midpoint: hot + cold/2.
  EXPECT_EQ(wlbFormula(1000, 400, true, 0.5), 400.0 + 300.0);
  // Defensive: hot > live clamps cold to zero rather than going negative.
  EXPECT_EQ(wlbFormula(100, 400, true, 0.5), 400.0);
}

TEST(EcReplayTest, BudgetPrefixTakesLightestPages) {
  CycleSnapshot A = replayCycle();
  A.BudgetSmall = 300.0;
  A.EvacLiveThreshold = 1.0; // Admit everything; test the budget alone.
  A.Hotness = 1;
  // Weights 100, 200, 400 at addresses 0x3000, 0x1000, 0x2000: the sort
  // is (weight, address), the prefix stops once the budget is full.
  A.Pages.push_back(smallEntry(0x3000, 100, 0, 100.0,
                               EcVerdict::Selected));
  A.Pages.push_back(smallEntry(0x1000, 200, 0, 200.0,
                               EcVerdict::Selected));
  A.Pages.push_back(smallEntry(0x2000, 400, 0, 400.0,
                               EcVerdict::RejectedBudget));
  std::vector<uint64_t> Sel = replayEcSelection(A);
  EXPECT_EQ(Sel, (std::vector<uint64_t>{0x1000, 0x3000}));
  EXPECT_EQ(Sel, selectedPages(A));
}

TEST(EcReplayTest, RequiredFreeExtendsPastBudget) {
  CycleSnapshot A = replayCycle();
  A.BudgetSmall = 50.0; // Budget admits nothing on its own...
  // ...but reclamation demand forces the prefix onward until the freed
  // bytes (size - live) cover it.
  A.RequiredFree = 100 * 1024.0;
  A.EvacLiveThreshold = 1.0;
  A.Hotness = 1;
  A.Pages.push_back(smallEntry(0x1000, 1000, 0, 1000.0,
                               EcVerdict::Selected));
  A.Pages.push_back(smallEntry(0x2000, 2000, 0, 2000.0,
                               EcVerdict::Selected));
  A.Pages.push_back(smallEntry(0x3000, 3000, 0, 3000.0,
                               EcVerdict::RejectedBudget));
  // Page 1 frees ~63KB < 100KB, page 2 pushes past it, page 3 is out.
  std::vector<uint64_t> Sel = replayEcSelection(A);
  EXPECT_EQ(Sel, (std::vector<uint64_t>{0x1000, 0x2000}));
  EXPECT_EQ(Sel, selectedPages(A));
}

TEST(EcReplayTest, ThresholdDeadAndPinnedAreFilteredOut) {
  CycleSnapshot A = replayCycle();
  A.BudgetSmall = 1e9;
  A.EvacLiveThreshold = 0.5; // 60000/64K > 0.5 > 100/64K.
  A.Hotness = 1;
  // A threshold rejection never re-enters the candidate pool on replay.
  A.Pages.push_back(smallEntry(0x1000, 60000, 0, 60000.0,
                               EcVerdict::RejectedThreshold));
  // Dead and pinned pages are not candidates at all.
  A.Pages.push_back(smallEntry(0x2000, 0, 0, 0.0,
                               EcVerdict::DeadReclaimed));
  PageRecord Pinned = smallEntry(0x3000, 100, 0, 0.0,
                                 EcVerdict::PinnedSkipped);
  Pinned.Pinned = 1;
  A.Pages.push_back(Pinned);
  // Nor is a page allocated during the cycle: its liveness is not final.
  PageRecord Young = smallEntry(0x5000, 100, 0, 0.0, EcVerdict::NotJudged);
  Young.AllocSeq = A.Cycle;
  A.Pages.push_back(Young);
  A.Pages.push_back(smallEntry(0x4000, 100, 0, 100.0,
                               EcVerdict::Selected));
  std::vector<uint64_t> Sel = replayEcSelection(A);
  EXPECT_EQ(Sel, (std::vector<uint64_t>{0x4000}));
  EXPECT_EQ(Sel, selectedPages(A));
}

TEST(EcReplayTest, RelocateAllSelectsEverySmallCandidate) {
  CycleSnapshot A = replayCycle();
  A.RelocateAll = 1;
  A.BudgetSmall = 0.0; // RELOCATEALLSMALLPAGES ignores the budget.
  A.Hotness = 1;
  A.Pages.push_back(smallEntry(0x2000, 60000, 0, 0.0,
                               EcVerdict::Selected));
  A.Pages.push_back(smallEntry(0x1000, 100, 0, 0.0,
                               EcVerdict::Selected));
  A.Pages.push_back(smallEntry(0x3000, 0, 0, 0.0,
                               EcVerdict::DeadReclaimed));
  std::vector<uint64_t> Sel = replayEcSelection(A);
  EXPECT_EQ(Sel, (std::vector<uint64_t>{0x1000, 0x2000}));
  EXPECT_EQ(Sel, selectedPages(A));
}

TEST(EcReplayTest, MediumPagesUseOwnBudget) {
  CycleSnapshot A = replayCycle();
  A.BudgetSmall = 1e9;
  A.BudgetMedium = 5000.0;
  A.EvacLiveThreshold = 0.5;
  A.Hotness = 1;
  PageRecord M1 = smallEntry(0x100000, 4000, 0, 4000.0,
                             EcVerdict::Selected);
  M1.SizeClass = SnapSizeClass::Medium;
  M1.PageSize = 1024 * 1024;
  PageRecord M2 = smallEntry(0x200000, 40000, 0, 40000.0,
                             EcVerdict::RejectedBudget);
  M2.SizeClass = SnapSizeClass::Medium;
  M2.PageSize = 1024 * 1024;
  PageRecord L = smallEntry(0x300000, 123, 0, 123.0,
                            EcVerdict::LargeIgnored);
  L.SizeClass = SnapSizeClass::Large;
  A.Pages.push_back(M1);
  A.Pages.push_back(M2);
  A.Pages.push_back(L);
  std::vector<uint64_t> Sel = replayEcSelection(A);
  EXPECT_EQ(Sel, (std::vector<uint64_t>{0x100000}));
  EXPECT_EQ(Sel, selectedPages(A));
}

TEST(SnapshotRingTest, DropsOldestPastCapacity) {
  SnapshotRing Ring(2);
  auto MakeSnap = [](uint64_t Cycle, size_t NPages) {
    CycleSnapshot S;
    S.Cycle = Cycle;
    S.Pages.resize(NPages);
    return S;
  };
  EXPECT_EQ(Ring.push(MakeSnap(1, 3)), 0u);
  EXPECT_EQ(Ring.push(MakeSnap(2, 5)), 0u);
  // Third push evicts cycle 1 and reports its 3 page records dropped.
  EXPECT_EQ(Ring.push(MakeSnap(3, 7)), 3u);
  std::vector<CycleSnapshot> H = Ring.history();
  ASSERT_EQ(H.size(), 2u);
  EXPECT_EQ(H[0].Cycle, 2u);
  EXPECT_EQ(H[1].Cycle, 3u);
}

TEST(SnapshotLogTest, JsonlRoundTripIsExact) {
  CycleSnapshot S;
  S.Cycle = 42;
  S.TimeNs = 123456789;
  S.ColdConfidence = 1.0 / 3.0; // Not representable in few digits.
  S.EvacLiveThreshold = 0.1;
  S.BudgetSmall = 98765.4321;
  S.BudgetMedium = 0.125;
  S.RequiredFree = 4096.0;
  S.Hotness = 1;
  // The record rides the line with every field set, its times to values
  // that need all 17 digits.
  CycleRecord &Rec = S.Record;
  Rec.Cycle = S.Cycle;
  Rec.SmallPagesInEc = 3;
  Rec.MediumPagesInEc = 1;
  Rec.EmptyPagesReclaimed = 2;
  Rec.LiveBytesMarked = 50000;
  Rec.HotBytesMarked = 12345;
  Rec.ObjectsRelocatedByMutators = 7;
  Rec.ObjectsRelocatedByGc = 11;
  Rec.BytesRelocatedByMutators = 700;
  Rec.BytesRelocatedByGc = 1100;
  Rec.BytesRelocated = 1800;
  Rec.UsedAfterBytes = 1u << 20;
  Rec.ColdRelocatedBytes = 96;
  Rec.TempHotBytes = 3;
  Rec.TempWarmBytes = 2;
  Rec.TempColdBytes = 1;
  double T = 0.1;
  for (const CyclePhase &Ph : CyclePhases)
    Rec.*Ph.Ms = (T += 1.0 / 7.0);
  Rec.Stw2Ms = 1.0 / 9.0;
  Rec.WallMs = 12.0 / 7.0;

  PageRecord P;
  P.PageBegin = 0xdeadbeef0000ull;
  P.PageSize = 64 * 1024;
  P.UsedBytes = 60000;
  P.LiveBytes = 50000;
  P.HotBytes = 12345;
  P.AllocSeq = 7;
  P.RelocOutBytesGc = 100;
  P.RelocOutBytesMutator = 200;
  P.Wlb = wlbFormula(P.LiveBytes, P.HotBytes, true, S.ColdConfidence);
  P.Weight = P.Wlb;
  P.SizeClass = SnapSizeClass::Small;
  P.State = SnapPageState::Active;
  P.Pinned = 0;
  P.Verdict = EcVerdict::Selected;
  S.Pages.push_back(P);

  std::string Line = snapshotToJson(S);
  CycleSnapshot R;
  std::string Error;
  ASSERT_TRUE(parseSnapshotLine(Line, R, Error)) << Error;

  EXPECT_EQ(R.Cycle, S.Cycle);
  EXPECT_EQ(R.TimeNs, S.TimeNs);
  EXPECT_EQ(R.ColdConfidence, S.ColdConfidence); // Bit-exact via %.17g.
  EXPECT_EQ(R.EvacLiveThreshold, S.EvacLiveThreshold);
  EXPECT_EQ(R.BudgetSmall, S.BudgetSmall);
  EXPECT_EQ(R.BudgetMedium, S.BudgetMedium);
  EXPECT_EQ(R.RequiredFree, S.RequiredFree);
  EXPECT_EQ(R.Hotness, S.Hotness);
  EXPECT_EQ(R.RelocateAll, S.RelocateAll);
  // Field for field, doubles bit-exact; the cycle comes from the line.
  EXPECT_TRUE(R.Record == S.Record);
  ASSERT_EQ(R.Pages.size(), 1u);
  const PageRecord &Q = R.Pages[0];
  EXPECT_EQ(Q.PageBegin, P.PageBegin);
  EXPECT_EQ(Q.PageSize, P.PageSize);
  EXPECT_EQ(Q.UsedBytes, P.UsedBytes);
  EXPECT_EQ(Q.LiveBytes, P.LiveBytes);
  EXPECT_EQ(Q.HotBytes, P.HotBytes);
  EXPECT_EQ(Q.AllocSeq, P.AllocSeq);
  EXPECT_EQ(Q.RelocOutBytesGc, P.RelocOutBytesGc);
  EXPECT_EQ(Q.RelocOutBytesMutator, P.RelocOutBytesMutator);
  EXPECT_EQ(Q.Wlb, P.Wlb);
  EXPECT_EQ(Q.Weight, P.Weight);
  EXPECT_EQ(Q.SizeClass, P.SizeClass);
  EXPECT_EQ(Q.State, P.State);
  EXPECT_EQ(Q.Pinned, P.Pinned);
  EXPECT_EQ(Q.Verdict, EcVerdict::Selected);

  // Replay works identically on the round-tripped cycle.
  EXPECT_EQ(replayEcSelection(R), replayEcSelection(S));
}

// 1e15 is exact in a double, so it survives the parser. With every
// integer at that width one page or site record formats to more than 128
// bytes in a single printf call; the writer must grow its output rather
// than truncate it or read past a fixed-size buffer.
TEST(SnapshotLogTest, WideIntegerFieldsRoundTrip) {
  constexpr uint64_t Big = 1000000000000000ull;
  CycleSnapshot S;
  S.Cycle = Big;
  S.TimeNs = Big;
  S.Record.Cycle = Big;
  for (const CycleCount &C : CycleCounts)
    S.Record.*C.Member = Big;

  PageRecord P;
  P.PageBegin = 0x7f0000000000ull;
  P.PageSize = P.UsedBytes = P.LiveBytes = P.HotBytes = Big;
  P.AllocSeq = P.RelocOutBytesGc = P.RelocOutBytesMutator = Big;
  for (uint64_t &T : P.TempBytes)
    T = Big;
  P.Wlb = static_cast<double>(Big);
  S.Pages.push_back(P);

  SiteRecord St;
  St.SiteIdNum = Big;
  St.Name = "snap.wide.site";
  St.AllocatedBytes = St.SurvivedBytes = St.HotBytes = Big;
  St.RelocatedBytes = St.PretenuredBytes = Big;
  St.HotEwma = 0.25;
  St.Route = 2;
  S.Sites.push_back(St);

  CycleSnapshot R;
  std::string Error;
  ASSERT_TRUE(parseSnapshotLine(snapshotToJson(S), R, Error)) << Error;
  EXPECT_EQ(R.Cycle, Big);
  EXPECT_EQ(R.TimeNs, Big);
  EXPECT_TRUE(R.Record == S.Record);
  ASSERT_EQ(R.Pages.size(), 1u);
  const PageRecord &Q = R.Pages[0];
  EXPECT_EQ(Q.PageBegin, P.PageBegin);
  EXPECT_EQ(Q.PageSize, Big);
  EXPECT_EQ(Q.UsedBytes, Big);
  EXPECT_EQ(Q.LiveBytes, Big);
  EXPECT_EQ(Q.HotBytes, Big);
  EXPECT_EQ(Q.AllocSeq, Big);
  EXPECT_EQ(Q.RelocOutBytesGc, Big);
  EXPECT_EQ(Q.RelocOutBytesMutator, Big);
  for (unsigned T = 0; T < SnapTempTiers; ++T)
    EXPECT_EQ(Q.TempBytes[T], Big);
  EXPECT_EQ(Q.Wlb, P.Wlb);
  ASSERT_EQ(R.Sites.size(), 1u);
  const SiteRecord &Rs = R.Sites[0];
  EXPECT_EQ(Rs.SiteIdNum, Big);
  EXPECT_EQ(Rs.Name, St.Name);
  EXPECT_EQ(Rs.AllocatedBytes, Big);
  EXPECT_EQ(Rs.SurvivedBytes, Big);
  EXPECT_EQ(Rs.HotBytes, Big);
  EXPECT_EQ(Rs.RelocatedBytes, Big);
  EXPECT_EQ(Rs.PretenuredBytes, Big);
  EXPECT_EQ(Rs.HotEwma, St.HotEwma);
  EXPECT_EQ(Rs.Route, St.Route);
}

TEST(SnapshotLogTest, ReadLogSkipsBlanksAndReportsLineNumbers) {
  CycleSnapshot A, B;
  A.Cycle = 1;
  B.Cycle = 2;
  std::string Text =
      snapshotToJson(A) + "\n\n" + snapshotToJson(B) + "\n";
  std::vector<CycleSnapshot> Out;
  std::string Error;
  ASSERT_TRUE(readSnapshotLog(Text, Out, Error)) << Error;
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_EQ(Out[0].Cycle, 1u);
  EXPECT_EQ(Out[1].Cycle, 2u);

  // A corrupt third line fails and names its line number.
  Text += "{not json\n";
  Out.clear();
  EXPECT_FALSE(readSnapshotLog(Text, Out, Error));
  EXPECT_NE(Error.find("4"), std::string::npos) << Error;
}

TEST(WlbTempFormulaTest, Boundaries) {
  // Hotness off: plain live bytes, whatever the tiers say.
  {
    uint64_t TB[SnapTempTiers] = {100, 200, 300, 400};
    EXPECT_EQ(wlbTempFormula(1000, TB, false, 0.7), 1000.0);
  }
  // Nothing above tier 0: all bytes are cold candidates with no hot
  // object to excavate toward — WLB stays at live (mirrors wlbFormula's
  // Hot == 0 branch).
  {
    uint64_t TB[SnapTempTiers] = {1000, 0, 0, 0};
    EXPECT_EQ(wlbTempFormula(1000, TB, true, 1.0), 1000.0);
  }
  // Confidence 0: every tier weighs 1, WLB == live.
  {
    uint64_t TB[SnapTempTiers] = {100, 200, 300, 400};
    EXPECT_EQ(wlbTempFormula(1000, TB, true, 0.0), 1000.0);
  }
  // Confidence 1: w(t) = t/3 — tier 0 vanishes, tier 3 counts fully,
  // the middle tiers interpolate.
  {
    uint64_t TB[SnapTempTiers] = {100, 300, 300, 400};
    EXPECT_DOUBLE_EQ(wlbTempFormula(1100, TB, true, 1.0),
                     300.0 / 3.0 + 300.0 * 2.0 / 3.0 + 400.0);
  }
}

TEST(WlbTempFormulaTest, BinaryReductionIsBitExact) {
  // With only tiers {0, 3} populated (what a 1-bit temperature would
  // produce), the generalized formula must reduce BIT-EXACTLY to the
  // paper's binary formula — heapscope replays mixed-era logs with
  // operator== on the weights, so "close" is not good enough. Sweep
  // awkward confidences (1/3 and friends are not exactly
  // representable) against awkward byte counts.
  const double Confs[] = {0.0,      0.1,           1.0 / 3.0, 0.5,
                          2.0 / 3.0, 0.1 + 0.2,    0.7,       0.875,
                          0.9999999999999999, 1.0};
  const uint64_t Lives[] = {1,      4096,        60000,
                            123457, (1ull << 33) + 7};
  for (double CC : Confs)
    for (uint64_t Live : Lives)
      for (uint64_t Hot : {uint64_t(0), Live / 3, Live - 1, Live}) {
        uint64_t TB[SnapTempTiers] = {Live - Hot, 0, 0, Hot};
        EXPECT_EQ(wlbTempFormula(Live, TB, true, CC),
                  wlbFormula(Live, Hot, true, CC))
            << "cc=" << CC << " live=" << Live << " hot=" << Hot;
      }
}

TEST(EcReplayTest, TemperatureWeightsDriveReplay) {
  // The cycle says TEMPERATURE was on, so the replay must recompute
  // weights from the per-tier bytes — NOT from the binary hot bytes.
  // Page 0x1000 is a trap for a binary replay: its hotmap says 100 hot
  // bytes (WLB 100 at full confidence, ratio ~0 -> would be selected)
  // but its temperature plane says everything sat at tier 0 (WLB ==
  // live, ratio 0.92 -> rejected by threshold).
  CycleSnapshot A = replayCycle();
  A.BudgetSmall = 1e9;
  A.EvacLiveThreshold = 0.75;
  A.ColdConfidence = 1.0;
  A.Hotness = 1;
  A.Temperature = 1;

  PageRecord Trap = smallEntry(0x1000, 60000, 100, 0.0,
                               EcVerdict::RejectedThreshold);
  Trap.TempBytes[0] = 60000;
  Trap.Weight = wlbTempFormula(Trap.LiveBytes, Trap.TempBytes, true,
                               A.ColdConfidence);

  PageRecord Mixed = smallEntry(0x2000, 60000, 0, 0.0,
                                EcVerdict::Selected);
  Mixed.TempBytes[0] = 50000;
  Mixed.TempBytes[1] = 6000;
  Mixed.TempBytes[2] = 3000;
  Mixed.TempBytes[3] = 1000;
  Mixed.Weight = wlbTempFormula(Mixed.LiveBytes, Mixed.TempBytes, true,
                                A.ColdConfidence);

  A.Pages.push_back(Trap);
  A.Pages.push_back(Mixed);
  std::vector<uint64_t> Sel = replayEcSelection(A);
  EXPECT_EQ(Sel, (std::vector<uint64_t>{0x2000}));
  EXPECT_EQ(Sel, selectedPages(A));
}

TEST(SnapshotLogTest, TemperatureRoundTripIsExact) {
  CycleSnapshot S;
  S.Cycle = 9;
  S.ColdConfidence = 2.0 / 3.0;
  S.EvacLiveThreshold = 0.75;
  S.BudgetSmall = 1e6;
  S.Hotness = 1;
  S.Temperature = 1;

  PageRecord P;
  P.PageBegin = 0xabcd0000ull;
  P.PageSize = 64 * 1024;
  P.UsedBytes = 40000;
  P.LiveBytes = 40000;
  P.TempBytes[0] = 10000;
  P.TempBytes[1] = 10000;
  P.TempBytes[2] = 10000;
  P.TempBytes[3] = 10000;
  P.Wlb = wlbTempFormula(P.LiveBytes, P.TempBytes, true,
                         S.ColdConfidence);
  P.Weight = P.Wlb;
  P.SizeClass = SnapSizeClass::Small;
  P.Tier = static_cast<uint8_t>(SnapPageTier::Cold);
  P.Verdict = EcVerdict::Selected;
  S.Pages.push_back(P);

  CycleSnapshot R;
  std::string Error;
  ASSERT_TRUE(parseSnapshotLine(snapshotToJson(S), R, Error)) << Error;
  EXPECT_EQ(R.Temperature, 1);
  ASSERT_EQ(R.Pages.size(), 1u);
  for (unsigned T = 0; T < SnapTempTiers; ++T)
    EXPECT_EQ(R.Pages[0].TempBytes[T], P.TempBytes[T]);
  EXPECT_EQ(R.Pages[0].Wlb, P.Wlb); // Bit-exact via %.17g.
  EXPECT_EQ(R.Pages[0].Weight, P.Wlb);
  EXPECT_EQ(R.Pages[0].Tier, static_cast<uint8_t>(SnapPageTier::Cold));
  EXPECT_EQ(replayEcSelection(R), replayEcSelection(S));
  EXPECT_EQ(replayEcSelection(R), selectedPages(R));
}

namespace {

/// A well-formed one-page, one-site line, as the collector writes it.
std::string validLine() {
  CycleSnapshot S;
  S.Cycle = 3;
  PageRecord P;
  P.PageBegin = 0x1000;
  P.PageSize = 65536;
  P.UsedBytes = P.LiveBytes = 100;
  P.Verdict = EcVerdict::RejectedThreshold;
  S.Pages.push_back(P);
  SiteRecord St;
  St.Name = "snap.site";
  S.Sites.push_back(St);
  return snapshotToJson(S);
}

/// The record's times as the line names them: each CyclePhases entry as
/// <name>_ms, then stw2_ms and wall_ms. Its counters are the CycleCounts
/// keys. The record heads the line, so each name's first match is the
/// record's.
std::vector<std::string> recordTimeKeys() {
  std::vector<std::string> Keys;
  for (const CyclePhase &Ph : CyclePhases)
    Keys.push_back(std::string(Ph.Name) + "_ms");
  Keys.push_back("stw2_ms");
  Keys.push_back("wall_ms"); // Last: no comma follows it.
  return Keys;
}

/// \returns validLine() with the first \p From replaced by \p To.
std::string edited(const std::string &From, const std::string &To) {
  std::string Line = validLine();
  size_t Pos = Line.find(From);
  EXPECT_NE(Pos, std::string::npos) << From;
  return Pos == std::string::npos ? Line
                                  : Line.replace(Pos, From.size(), To);
}

/// Expects \p Line to be rejected with an error containing \p Want.
void expectRejected(const std::string &Line, const std::string &Want) {
  CycleSnapshot R;
  std::string Error;
  EXPECT_FALSE(parseSnapshotLine(Line, R, Error)) << Line;
  EXPECT_NE(Error.find(Want), std::string::npos)
      << "error \"" << Error << "\" does not name \"" << Want << "\"";
}

} // namespace

TEST(SnapshotLogTest, RejectsMissingField) {
  CycleSnapshot R;
  std::string Error;
  ASSERT_TRUE(parseSnapshotLine(validLine(), R, Error)) << Error;
  // Absent, not zero: a dropped field must not read as 0.
  expectRejected(edited("\"live\":100,", ""), "page 0: missing live");
  expectRejected(edited("\"budget_small\":0,", ""),
                 "missing budget_small");
  expectRejected(edited(",\"sites\":[", ",\"other\":["), "missing sites");
  expectRejected(edited("\"alloc\":0,", ""), "site 0: missing alloc");
  // The record, whole and member by member.
  expectRejected(edited("\"record\":", "\"other\":"), "missing record");
  for (const CycleCount &C : CycleCounts)
    expectRejected(edited("\"" + std::string(C.Key) + "\":0,", ""),
                   "record: missing " + std::string(C.Key));
  for (const std::string &Key : recordTimeKeys())
    expectRejected(Key == "wall_ms" ? edited(",\"wall_ms\":0", "")
                                    : edited("\"" + Key + "\":0,", ""),
                   "record: missing " + Key);
}

TEST(SnapshotLogTest, RejectsMalformedHexBegin) {
  expectRejected(edited("\"0x1000\"", "\"0xzz\""),
                 "page 0: bad begin: \"0xzz\" is not a hex address");
  expectRejected(edited("\"0x1000\"", "\"0x10zz\""), "bad begin");
  expectRejected(edited("\"0x1000\"", "\"1000\""), "bad begin");
  expectRejected(edited("\"0x1000\"", "\"0x\""), "bad begin");
  expectRejected(edited("\"0x1000\"", "\"0x10000000000000000\""),
                 "bad begin");
}

TEST(SnapshotLogTest, RejectsNegativeOrFractionalByteCount) {
  expectRejected(edited("\"used\":100", "\"used\":-100"),
                 "page 0: bad used: not a non-negative integer");
  expectRejected(edited("\"used\":100", "\"used\":100.5"),
                 "page 0: bad used: not a non-negative integer");
  expectRejected(edited("\"size\":65536", "\"size\":\"65536\""),
                 "page 0: bad size");
  // The record: its counters, its times, and the object itself.
  for (const CycleCount &C : CycleCounts) {
    std::string K = "\"" + std::string(C.Key) + "\":";
    std::string Want =
        "record: bad " + std::string(C.Key) + ": not a non-negative integer";
    expectRejected(edited(K + "0", K + "-1"), Want);
    expectRejected(edited(K + "0", K + "0.5"), Want);
  }
  for (const std::string &Key : recordTimeKeys())
    expectRejected(edited("\"" + Key + "\":0", "\"" + Key + "\":\"0\""),
                   "record: bad " + Key + ": not a number");
  expectRejected(edited("\"record\":{", "\"record\":7,\"x\":{"),
                 "bad record: not an object");
}

TEST(SnapshotLogTest, RejectsUnknownRoute) {
  expectRejected(edited("\"route\":\"hot\"", "\"route\":\"lukewarm\""),
                 "site 0: bad route: unknown value \"lukewarm\"");
}

TEST(SnapshotLogTest, RejectsUnknownVerdict) {
  expectRejected(
      edited("\"verdict\":\"rejected_threshold\"", "\"verdict\":\"maybe\""),
      "page 0: bad verdict: unknown value \"maybe\"");
}

TEST(SnapshotLogTest, TwoLineSchemaFailsOnFirstPage) {
  // A line of the older two-captures-per-cycle schema (an after_mark
  // capture, with an "ec" flag per page and no verdict) is not this
  // schema, and is rejected at its first page rather than replayed.
  const std::string Old =
      "{\"cycle\":3,\"point\":\"after_mark\",\"time_ns\":1,"
      "\"cold_confidence\":0.5,\"hotness\":true,\"temperature\":false,"
      "\"pages\":[{\"begin\":\"0x1000\",\"size\":65536,\"used\":100,"
      "\"live\":100,\"hot\":50,\"alloc_seq\":1,\"reloc_gc\":0,"
      "\"reloc_mut\":0,\"wlb\":75,\"t0\":0,\"t1\":0,\"t2\":0,\"t3\":0,"
      "\"class\":\"small\",\"state\":\"active\",\"pinned\":false,"
      "\"ec\":false,\"tier\":\"none\"}]}";
  expectRejected(Old, "page 0: missing verdict");
}

TEST(CycleRangeTest, SingleNumberMeansDegenerateRange) {
  uint64_t Lo = 77, Hi = 88;
  ASSERT_TRUE(parseCycleRange("5", Lo, Hi));
  EXPECT_EQ(Lo, 5u);
  EXPECT_EQ(Hi, 5u);
  ASSERT_TRUE(parseCycleRange("2..9", Lo, Hi));
  EXPECT_EQ(Lo, 2u);
  EXPECT_EQ(Hi, 9u);
  ASSERT_TRUE(parseCycleRange("4..4", Lo, Hi));
  EXPECT_EQ(Lo, 4u);
  EXPECT_EQ(Hi, 4u);
}

TEST(CycleRangeTest, RejectsMalformedSpecsAndLeavesOutputsAlone) {
  const char *Bad[] = {"",     "x",     "5x",    "3..",   "..4",
                       "9..2", "3..7junk", "..",  "5..x", nullptr};
  for (const char **S = Bad; *S || S == &Bad[9]; ++S) {
    if (S == &Bad[9])
      break;
    uint64_t Lo = 123, Hi = 456;
    EXPECT_FALSE(parseCycleRange(*S, Lo, Hi)) << "spec: " << *S;
    EXPECT_EQ(Lo, 123u) << "Lo clobbered by: " << *S;
    EXPECT_EQ(Hi, 456u) << "Hi clobbered by: " << *S;
  }
  uint64_t Lo = 1, Hi = 2;
  EXPECT_FALSE(parseCycleRange(nullptr, Lo, Hi));
}
