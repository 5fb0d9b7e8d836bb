//===- harness/Config.h - Table 2 configurations ---------------*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The 19 benchmark configurations of Table 2. Config 0 is unmodified
/// ZGC (the baseline); Config 1 is HCSGC with every knob off (expected
/// to behave identically); Configs 2-18 enumerate the knob combinations.
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_HARNESS_CONFIG_H
#define HCSGC_HARNESS_CONFIG_H

#include "gc/GcConfig.h"

#include <cstdint>
#include <string>
#include <vector>

namespace hcsgc {

/// One Table 2 column (Temperature / SiteProfile are extensions beyond
/// the paper's table — ids 19 and 21 below).
struct KnobConfig {
  int Id = 0;
  bool Hotness = false;
  bool ColdPage = false;
  double ColdConfidence = 0.0;
  bool RelocateAllSmallPages = false;
  bool LazyRelocate = false;
  bool Temperature = false;
  bool SiteProfile = false;
};

/// Highest id table2Config accepts (19 and 21 are the extensions).
constexpr int MaxConfigId = 21;

/// \returns true if table2Config accepts \p Id. Ids 20 and 22 are
/// retired: they were 19 and 21 plus a cold-page madvise pass with no
/// observable effect, since removed. 21 keeps its number so existing
/// logs and workload labels stay valid.
constexpr bool isConfigId(int64_t Id) {
  return Id >= 0 && Id <= MaxConfigId && Id != 20;
}

/// \returns the Table 2 configuration with the given \p Id (0-18), or
/// one of the extensions: 19 is config 16 plus the 2-bit temperature
/// counters, 21 adds allocation-site profiling with pretenuring on top
/// of 19.
KnobConfig table2Config(int Id);

/// \returns all 19 configurations in order.
std::vector<KnobConfig> allTable2Configs();

/// Applies \p Knobs onto a base collector configuration.
GcConfig applyKnobs(GcConfig Base, const KnobConfig &Knobs);

/// \returns a short label like "H1 CP0 CC0.5 RA0 LZ1" (or "ZGC" for 0).
std::string describeConfig(const KnobConfig &Knobs);

} // namespace hcsgc

#endif // HCSGC_HARNESS_CONFIG_H
