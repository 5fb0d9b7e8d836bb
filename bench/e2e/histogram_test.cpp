//===- bench/e2e/histogram_test.cpp - LatencyHistogram accuracy check -----===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
// Checks LatencyHistogram's percentiles against exact nearest-rank
// percentiles of a sorted, seeded sample (log-uniform over 1 ns .. 10 s,
// plus a dense low range and repeated values), and that merging
// per-thread histograms equals recording everything into one. Exits
// nonzero on the first mismatch.
//
//===----------------------------------------------------------------------===//

#include "LatencyHistogram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

using hcsgc::e2e::LatencyHistogram;

namespace {

uint64_t splitmix(uint64_t &State) {
  uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

double exactPercentile(const std::vector<uint64_t> &Sorted, double P) {
  auto Rank = static_cast<size_t>(std::ceil(P * double(Sorted.size())));
  Rank = std::clamp<size_t>(Rank, 1, Sorted.size());
  return double(Sorted[Rank - 1]);
}

int Failures = 0;

void expect(bool Ok, const char *What, double Got, double Want) {
  if (Ok)
    return;
  ++Failures;
  std::fprintf(stderr, "FAIL %s: got %.3f want %.3f\n", What, Got, Want);
}

} // namespace

int main() {
  uint64_t Seed = 20200615;
  std::vector<uint64_t> Sample;
  for (int I = 0; I < 300000; ++I) {
    double U = double(splitmix(Seed) >> 11) * 0x1.0p-53;
    Sample.push_back(static_cast<uint64_t>(std::pow(10.0, U * 10.0)));
  }
  for (int I = 0; I < 50000; ++I)
    Sample.push_back(splitmix(Seed) % 600);
  for (int I = 0; I < 20000; ++I)
    Sample.push_back(1234567);

  auto Whole = std::make_unique<LatencyHistogram>();
  auto PartA = std::make_unique<LatencyHistogram>();
  auto PartB = std::make_unique<LatencyHistogram>();
  for (size_t I = 0; I < Sample.size(); ++I) {
    Whole->record(Sample[I]);
    (I % 3 ? *PartA : *PartB).record(Sample[I]);
  }
  PartA->merge(*PartB);

  std::vector<uint64_t> Sorted = Sample;
  std::sort(Sorted.begin(), Sorted.end());
  for (double P : {0.001, 0.1, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0}) {
    double Want = exactPercentile(Sorted, P);
    double Got = Whole->percentile(P);
    // Half a bucket: under 1/256 of the value, or 0.5 in the exact range.
    double Tol = std::max(0.5, Want / 256.0);
    char What[64];
    std::snprintf(What, sizeof(What), "p%g", P * 100);
    expect(std::fabs(Got - Want) <= Tol, What, Got, Want);
    expect(PartA->percentile(P) == Got, "merged percentile", PartA->percentile(P),
           Got);
  }
  expect(Whole->count() == Sorted.size(), "count", double(Whole->count()),
         double(Sorted.size()));
  expect(Whole->max() == Sorted.back(), "max", double(Whole->max()),
         double(Sorted.back()));
  double ExactMean = 0;
  for (uint64_t V : Sorted)
    ExactMean += double(V);
  ExactMean /= double(Sorted.size());
  expect(std::fabs(Whole->mean() - ExactMean) <= 1e-9 * ExactMean, "mean",
         Whole->mean(), ExactMean);

  // Bucket geometry: contiguous, and no bucket wider than 1% of its start.
  for (size_t I = 1; I < LatencyHistogram::NumBuckets; ++I) {
    uint64_t Lo = LatencyHistogram::lowerBound(I);
    expect(LatencyHistogram::lowerBound(I - 1) +
                   LatencyHistogram::width(I - 1) ==
               Lo,
           "contiguous buckets", double(I), 0);
    expect(double(LatencyHistogram::width(I)) <= 0.01 * double(Lo) ||
               LatencyHistogram::width(I) == 1,
           "bucket width <= 1%", double(LatencyHistogram::width(I)),
           double(Lo));
    expect(LatencyHistogram::indexOf(Lo) == I, "index of lower bound",
           double(LatencyHistogram::indexOf(Lo)), double(I));
  }
  expect(LatencyHistogram::indexOf(UINT64_MAX) ==
             LatencyHistogram::NumBuckets - 1,
         "last bucket", double(LatencyHistogram::indexOf(UINT64_MAX)),
         double(LatencyHistogram::NumBuckets - 1));

  if (Failures) {
    std::fprintf(stderr, "histogram_test: %d failures\n", Failures);
    return 1;
  }
  std::printf("histogram_test: ok (%zu samples)\n", Sorted.size());
  return 0;
}
