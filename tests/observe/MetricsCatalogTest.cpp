//===- tests/observe/MetricsCatalogTest.cpp - docs/METRICS.md vs runtime -===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Keeps docs/METRICS.md honest, in both directions: every counter,
/// histogram and trace-event name the runtime registers must have a row
/// in the catalog, and every catalogued name must still exist in code.
/// Boots a full Runtime, drives one relocating cycle so every metric
/// family (alloc TLAB, alloc shard/cache/quarantine, gc.*) is bound,
/// then diffs the registry and the trace-event name table against the
/// backtick-quoted first-column names parsed from the markdown. The
/// catalog path is baked in via the HCSGC_SOURCE_DIR compile definition.
///
//===----------------------------------------------------------------------===//

#include "observe/TraceEvent.h"
#include "runtime/Runtime.h"
#include "workloads/KvWorkload.h"

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

using namespace hcsgc;

namespace {

std::string catalogPath() {
  return std::string(HCSGC_SOURCE_DIR) + "/docs/METRICS.md";
}

/// Names from table rows: the backtick-quoted word opening a `| ... |`
/// line. Section membership is irrelevant — all names share one space.
std::set<std::string> parseCatalogNames() {
  std::ifstream In(catalogPath());
  EXPECT_TRUE(In.good()) << "cannot open " << catalogPath();
  std::set<std::string> Names;
  std::regex RowRe(R"(^\|\s*`([^`]+)`\s*\|)");
  std::string Line;
  while (std::getline(In, Line)) {
    std::smatch M;
    if (std::regex_search(Line, M, RowRe) && M[1] != "Name")
      Names.insert(M[1]);
  }
  return Names;
}

/// Registers every runtime metric by exercising all emitting subsystems:
/// small + medium allocation, a relocating GC cycle (quarantine + ec +
/// reloc counters), then returns the populated runtime.
std::unique_ptr<Runtime> bootAllMetrics() {
  GcConfig Cfg;
  Cfg.Geometry.SmallPageSize = 64 * 1024;
  Cfg.Geometry.MediumPageSize = 512 * 1024;
  Cfg.MaxHeapBytes = 16u << 20;
  Cfg.TriggerFraction = 1.0;
  Cfg.RelocateAllSmallPages = true;
  Cfg.SnapshotLogEnabled = true; // Exercise the snapshot.* family too.
  auto RT = std::make_unique<Runtime>(Cfg);
  ClassId Small = RT->registerClass("cat.Small", 1, 1024);
  ClassId Medium = RT->registerClass("cat.Medium", 0, 16 * 1024);
  auto M = RT->attachMutator();
  {
    Root Keep(*M);
    M->allocate(Keep, Small);
    Root Tmp(*M);
    M->allocate(Tmp, Medium);
    M->requestGcAndWait();
    M->requestGcAndWait();

    // A tiny KV run binds the kv.* workload family (counters plus the
    // merged op-latency histogram).
    KvWorkloadParams P;
    P.Records = 200;
    P.ChurnKeys = 64;
    P.Ops = 1500;
    P.Threads = 2;
    P.Shards = 2;
    P.ValueWords = 2;
    P.ReadPct = 60; // leave a churn share so kv.ops.insert/remove bind
    P.UpdatePct = 20;
    P.ComputeCyclesPerOp = 0;
    runKvWorkload(*M, P);
  }
  M.reset();
  return RT;
}

} // namespace

TEST(MetricsCatalogTest, RuntimeNamesAllCatalogued) {
  std::set<std::string> Catalog = parseCatalogNames();
  ASSERT_FALSE(Catalog.empty());
  auto RT = bootAllMetrics();

  for (const auto &[Name, Value] : RT->metrics().counterSnapshot())
    EXPECT_TRUE(Catalog.count(Name))
        << "counter \"" << Name
        << "\" is registered at runtime but missing from docs/METRICS.md";
  for (const std::string &Name : RT->metrics().histogramNames())
    EXPECT_TRUE(Catalog.count(Name))
        << "histogram \"" << Name
        << "\" is registered at runtime but missing from docs/METRICS.md";
  for (unsigned K = 0;
       K <= static_cast<unsigned>(TraceEventKind::EmergencyCycle); ++K)
    EXPECT_TRUE(Catalog.count(
        traceEventKindName(static_cast<TraceEventKind>(K))))
        << "trace event \""
        << traceEventKindName(static_cast<TraceEventKind>(K))
        << "\" is missing from docs/METRICS.md";
}

TEST(MetricsCatalogTest, CataloguedNamesAllExist) {
  std::set<std::string> Catalog = parseCatalogNames();
  ASSERT_FALSE(Catalog.empty());
  auto RT = bootAllMetrics();

  std::set<std::string> Live;
  for (const auto &[Name, Value] : RT->metrics().counterSnapshot())
    Live.insert(Name);
  for (const std::string &Name : RT->metrics().histogramNames())
    Live.insert(Name);
  for (unsigned K = 0;
       K <= static_cast<unsigned>(TraceEventKind::EmergencyCycle); ++K)
    Live.insert(traceEventKindName(static_cast<TraceEventKind>(K)));

  for (const std::string &Name : Catalog)
    EXPECT_TRUE(Live.count(Name))
        << "docs/METRICS.md lists \"" << Name
        << "\" but the runtime no longer registers it — update the doc";
}

TEST(MetricsCatalogTest, EveryMetricFamilyIsExercised) {
  // Guard the booter itself: if a future refactor stops the boot
  // workload from touching a family, the two tests above would silently
  // compare against a shrunken live set.
  auto RT = bootAllMetrics();
  EXPECT_GT(RT->metrics().counterValue("alloc.tlab.refills"), 0u);
  EXPECT_GT(RT->metrics().counterValue("alloc.tlab.medium_refills"), 0u);
  EXPECT_GT(RT->metrics().counterValue("alloc.cache.page_misses"), 0u);
  EXPECT_GT(RT->metrics().counterValue("alloc.quarantine.batch_passes"),
            0u);
  EXPECT_GT(RT->metrics().counterValue("gc.cycles"), 0u);
  EXPECT_GT(RT->metrics().counterValue("snapshot.captures"), 0u);
  EXPECT_GT(RT->metrics().counterValue("snapshot.pages_recorded"), 0u);
  EXPECT_GT(RT->metrics().counterValue("kv.ops.read"), 0u);
  EXPECT_GT(RT->metrics().counterValue("kv.ops.insert"), 0u);
  EXPECT_NE(RT->metrics().findHistogram("kv.op_latency_ns"), nullptr);

  // The site.* family must be registered even with SITEPROFILING off
  // (the boot config runs without hotness): the names are created
  // unconditionally so the catalog diff is config-independent.
  std::set<std::string> Names;
  for (const auto &[Name, Value] : RT->metrics().counterSnapshot())
    Names.insert(Name);
  for (const char *N :
       {"site.tagged_bytes", "site.survived_bytes", "site.relocated_bytes",
        "site.pretenured_bytes", "site.route_flips", "site.profile_cycles",
        "alloc.tlab.pretenure_refills"})
    EXPECT_TRUE(Names.count(N)) << N;

  // Likewise the raw-speed counters (INTERNALS §14): registered even
  // when probes are off, so the catalog diff never depends on the boot
  // config.
  for (const char *N :
       {"simcache.batch_flushes", "simcache.batch_events",
        "mark.prefetch_issued", "mark.prefetch_drains"})
    EXPECT_TRUE(Names.count(N)) << N;
  // The boot workload marks, so the mark path must actually account its
  // prefetches.
  EXPECT_GT(RT->metrics().counterValue("mark.prefetch_issued"), 0u);
}
