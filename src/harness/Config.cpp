//===- harness/Config.cpp - Table 2 configurations ----------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "harness/Config.h"

#include "support/Compiler.h"

#include <cstdio>

using namespace hcsgc;

KnobConfig hcsgc::table2Config(int Id) {
  // Table 2, verbatim. Columns: Hotness / ColdPage / ColdConfidence /
  // RelocateAllSmallPages / LazyRelocate.
  static const struct {
    int H, CP;
    double CC;
    int RA, LZ;
  } Rows[19] = {
      {0, 0, 0.0, 0, 0}, // 0: unmodified ZGC (baseline)
      {0, 0, 0.0, 0, 0}, // 1: HCSGC, all knobs off
      {0, 0, 0.0, 0, 1}, // 2
      {0, 0, 0.0, 1, 0}, // 3
      {0, 0, 0.0, 1, 1}, // 4
      {1, 0, 0.0, 0, 0}, // 5: hotness tracked but unused
      {1, 0, 0.5, 0, 0}, // 6
      {1, 0, 1.0, 0, 0}, // 7
      {1, 0, 0.0, 0, 1}, // 8
      {1, 0, 0.5, 0, 1}, // 9
      {1, 0, 1.0, 0, 1}, // 10
      {1, 1, 0.0, 0, 0}, // 11
      {1, 1, 0.5, 0, 0}, // 12
      {1, 1, 1.0, 0, 0}, // 13
      {1, 1, 0.0, 0, 1}, // 14
      {1, 1, 0.5, 0, 1}, // 15
      {1, 1, 1.0, 0, 1}, // 16
      {1, 1, 0.0, 1, 0}, // 17
      {1, 1, 0.0, 1, 1}, // 18
  };
  // Extensions beyond the paper's table: 19 = config 16 with the 2-bit
  // temperature counters on, 21 = 19 plus allocation-site profiling with
  // pretenuring.
  if (Id == 19 || Id == 21) {
    KnobConfig K = table2Config(16);
    K.Id = Id;
    K.Temperature = true;
    K.SiteProfile = Id == 21;
    return K;
  }
  if (!isConfigId(Id))
    fatalError("Table 2 config id out of range (0-19, 21)");
  KnobConfig K;
  K.Id = Id;
  K.Hotness = Rows[Id].H;
  K.ColdPage = Rows[Id].CP;
  K.ColdConfidence = Rows[Id].CC;
  K.RelocateAllSmallPages = Rows[Id].RA;
  K.LazyRelocate = Rows[Id].LZ;
  return K;
}

std::vector<KnobConfig> hcsgc::allTable2Configs() {
  std::vector<KnobConfig> All;
  for (int I = 0; I <= 18; ++I)
    All.push_back(table2Config(I));
  return All;
}

GcConfig hcsgc::applyKnobs(GcConfig Base, const KnobConfig &Knobs) {
  Base.Hotness = Knobs.Hotness;
  Base.ColdPage = Knobs.ColdPage;
  Base.ColdConfidence = Knobs.ColdConfidence;
  Base.RelocateAllSmallPages = Knobs.RelocateAllSmallPages;
  Base.LazyRelocate = Knobs.LazyRelocate;
  Base.Temperature = Knobs.Temperature;
  Base.SiteProfiling = Knobs.SiteProfile;
  return Base;
}

std::string hcsgc::describeConfig(const KnobConfig &Knobs) {
  if (Knobs.Id == 0)
    return "ZGC";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "H%d CP%d CC%.1f RA%d LZ%d",
                Knobs.Hotness ? 1 : 0, Knobs.ColdPage ? 1 : 0,
                Knobs.ColdConfidence, Knobs.RelocateAllSmallPages ? 1 : 0,
                Knobs.LazyRelocate ? 1 : 0);
  std::string S = Buf;
  // Extension suffixes — only the new ids carry them, so the paper
  // configs keep their exact Table 2 labels.
  if (Knobs.Temperature)
    S += " T1";
  if (Knobs.SiteProfile)
    S += " SP1";
  return S;
}
