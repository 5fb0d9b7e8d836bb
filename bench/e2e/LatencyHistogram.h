//===- bench/e2e/LatencyHistogram.h - Log-linear latency histogram -*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own latency recorder. Values below 256 are counted
/// exactly; above that every power of two is split into 128 equal
/// sub-buckets, so a bucket is never wider than 1/128 (< 0.8%) of its
/// lower bound and a reported percentile is within 0.4% of the exact
/// nearest-rank value. observe/Metrics.h's power-of-two histogram is too
/// coarse for tails: its interpolated p99 moves in steps of up to 2x.
///
/// Recording is a few integer operations into a fixed array: nothing
/// allocates, so a histogram can sit inside a measured loop. Instances
/// are single-writer; merge per-thread histograms after the threads join.
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_BENCH_E2E_LATENCYHISTOGRAM_H
#define HCSGC_BENCH_E2E_LATENCYHISTOGRAM_H

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

namespace hcsgc::e2e {

class LatencyHistogram {
public:
  static constexpr unsigned SubBits = 7;
  static constexpr uint64_t SubCount = uint64_t(1) << SubBits;
  /// Values below this are their own bucket.
  static constexpr uint64_t ExactLimit = SubCount * 2;
  static constexpr size_t NumBuckets =
      ExactLimit + (64 - SubBits - 1) * SubCount;

  void record(uint64_t V) {
    ++Buckets[indexOf(V)];
    ++Count;
    Sum += V;
    Min = std::min(Min, V);
    Max = std::max(Max, V);
  }

  void merge(const LatencyHistogram &O) {
    for (size_t I = 0; I < NumBuckets; ++I)
      Buckets[I] += O.Buckets[I];
    Count += O.Count;
    Sum += O.Sum;
    Min = std::min(Min, O.Min);
    Max = std::max(Max, O.Max);
  }

  uint64_t count() const { return Count; }
  uint64_t sum() const { return Sum; }
  uint64_t max() const { return Max; }
  double mean() const { return Count ? double(Sum) / double(Count) : 0; }

  /// Nearest-rank percentile (0 < P <= 1): the midpoint of the bucket
  /// holding the ceil(P * count)-th smallest sample, clamped to the
  /// observed range. 0 when empty.
  double percentile(double P) const {
    if (!Count)
      return 0;
    uint64_t Rank = static_cast<uint64_t>(std::ceil(P * double(Count)));
    Rank = std::clamp<uint64_t>(Rank, 1, Count);
    uint64_t Seen = 0;
    for (size_t I = 0; I < NumBuckets; ++I) {
      Seen += Buckets[I];
      if (Seen >= Rank) {
        double Mid = double(lowerBound(I)) + double(width(I) - 1) / 2;
        return std::clamp(Mid, double(Min), double(Max));
      }
    }
    return double(Max);
  }

  static size_t indexOf(uint64_t V) {
    if (V < ExactLimit)
      return static_cast<size_t>(V);
    unsigned Msb = 63 - static_cast<unsigned>(__builtin_clzll(V));
    unsigned Shift = Msb - SubBits;
    uint64_t Sub = (V >> Shift) - SubCount;
    return static_cast<size_t>(ExactLimit + (Msb - SubBits - 1) * SubCount +
                               Sub);
  }

  static uint64_t lowerBound(size_t I) {
    if (I < ExactLimit)
      return I;
    size_t K = I - ExactLimit;
    unsigned Shift = static_cast<unsigned>(K / SubCount) + 1;
    return (SubCount + K % SubCount) << Shift;
  }

  static uint64_t width(size_t I) {
    if (I < ExactLimit)
      return 1;
    return uint64_t(1) << ((I - ExactLimit) / SubCount + 1);
  }

private:
  std::array<uint64_t, NumBuckets> Buckets{};
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Min = UINT64_MAX;
  uint64_t Max = 0;
};

} // namespace hcsgc::e2e

#endif // HCSGC_BENCH_E2E_LATENCYHISTOGRAM_H
