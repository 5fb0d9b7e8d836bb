//===- tests/workloads/TradeSimTest.cpp ----------------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/TradeSim.h"

#include "harness/Config.h"

#include <gtest/gtest.h>

using namespace hcsgc;

namespace {

GcConfig tsConfig() {
  GcConfig Cfg;
  Cfg.Geometry.SmallPageSize = 64 * 1024;
  Cfg.Geometry.MediumPageSize = 1024 * 1024;
  Cfg.MaxHeapBytes = 24u << 20;
  return Cfg;
}

TradeSimParams tinyParams() {
  TradeSimParams P;
  P.Accounts = 200;
  P.Instruments = 20;
  P.Transactions = 5000;
  return P;
}

} // namespace

TEST(TradeSimTest, Deterministic) {
  TradeSimParams P = tinyParams();
  uint64_t First = 0;
  for (int Round = 0; Round < 2; ++Round) {
    Runtime RT(tsConfig());
    auto M = RT.attachMutator();
    TradeSimResult R = runTradeSim(*M, P);
    EXPECT_EQ(R.TradesExecuted, P.Transactions);
    if (Round == 0)
      First = R.BalanceChecksum;
    else
      EXPECT_EQ(R.BalanceChecksum, First);
    M.reset();
  }
}

TEST(TradeSimTest, ChecksumStableUnderAggressiveGc) {
  TradeSimParams P = tinyParams();
  Runtime Base(tsConfig());
  uint64_t Expected;
  {
    auto M = Base.attachMutator();
    Expected = runTradeSim(*M, P).BalanceChecksum;
    M.reset();
  }
  for (int Id : {4, 16, 18}) {
    GcConfig Cfg = applyKnobs(tsConfig(), table2Config(Id));
    Cfg.MaxHeapBytes = 2u << 20; // force cycles mid-run
    Cfg.TriggerFraction = 0.5;
    Cfg.TriggerHysteresisFraction = 0.02;
    Runtime RT(Cfg);
    auto M = RT.attachMutator();
    TradeSimResult R = runTradeSim(*M, P);
    EXPECT_EQ(R.BalanceChecksum, Expected) << "config " << Id;
    M.reset();
    RT.driver().shutdown(); // publish any deferred (lazy) cycle record
    EXPECT_GE(RT.gcStats().cycleCount(), 1u);
  }
}

TEST(TradeSimTest, MostAllocationIsShortLived) {
  // The tradebeans regime: heavy allocation with a small retained core.
  TradeSimParams P = tinyParams();
  P.Transactions = 20000;
  GcConfig Cfg = tsConfig();
  Cfg.MaxHeapBytes = 2u << 20;
  Cfg.TriggerFraction = 0.5;
  Cfg.TriggerHysteresisFraction = 0.02;
  Runtime RT(Cfg);
  auto M = RT.attachMutator();
  TradeSimResult R = runTradeSim(*M, P);
  EXPECT_GT(R.TradesExecuted, 0u);
  // The allocation trigger alone must have collected repeatedly.
  EXPECT_GE(RT.gcStats().cycleCount(), 2u);
  // At detach the heap holds whatever the triggered cycles had not yet
  // caught up with; collect explicitly so the bound judges survivors,
  // not collector lag. A deferred relocation set frees its pages only
  // when the next cycle drains it.
  M->requestGcAndWait();
  if (Cfg.LazyRelocate)
    M->requestGcAndWait();
  M.reset();
  // Survivor set stays small relative to total allocation.
  EXPECT_LT(RT.usedBytes(), RT.maxHeapBytes());
}
