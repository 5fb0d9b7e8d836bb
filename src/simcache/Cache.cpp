//===- simcache/Cache.cpp - Set-associative cache model --------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "simcache/Cache.h"

#include "support/Compiler.h"
#include "support/MathExtras.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HCSGC_AVX512_KERNELS 1
#include <immintrin.h>
#endif

using namespace hcsgc;

bool setkernel::accessScalar(uint64_t *Set, uint32_t Ways, uint64_t Line) {
  uint32_t W = 0;
  while (W < Ways && Set[W] != Line)
    ++W;
  bool Hit = W < Ways;
  if (!Hit)
    W = Ways - 1;
  std::memmove(Set + 1, Set, W * sizeof(uint64_t));
  Set[0] = Line;
  return Hit;
}

bool setkernel::containsScalar(const uint64_t *Set, uint32_t Ways,
                               uint64_t Line) {
  for (uint32_t W = 0; W < Ways; ++W)
    if (Set[W] == Line)
      return true;
  return false;
}

namespace {
// The scalar kernels compiled for a fixed 8 or 16 ways, which a CPU
// without AVX-512F runs for such sets. With the bound a constant the scan
// unrolls; the generic kernel called through the pointer replays 10-13%
// slower on captured streams (INTERNALS §14.4, "Vector set kernels").
template <uint32_t Ways>
bool accessScalarFixed(uint64_t *Set, uint32_t, uint64_t Line) {
  return setkernel::accessScalar(Set, Ways, Line);
}
template <uint32_t Ways>
bool containsScalarFixed(const uint64_t *Set, uint32_t, uint64_t Line) {
  return setkernel::containsScalar(Set, Ways, Line);
}
} // namespace

#ifdef HCSGC_AVX512_KERNELS

// In both access kernels K is the hit way, or the LRU way on a miss (the
// top bit ORed into the mask), and ways 0..K take the set shifted down by
// one lane with the line in lane 0: valignq over (S:L) by 7 lanes yields
// {L, S[0], ..., S[6]}, and its merge mask keeps the ways above K.

__attribute__((target("avx512f"))) bool
setkernel::access8(uint64_t *Set, uint32_t, uint64_t Line) {
  __m512i L = _mm512_set1_epi64(static_cast<long long>(Line));
  __m512i S = _mm512_load_si512(Set);
  unsigned Hit = _mm512_cmpeq_epi64_mask(S, L);
  unsigned K = __builtin_ctz(Hit | 0x80u);
  __mmask8 Move = static_cast<__mmask8>((2u << K) - 1);
  _mm512_store_si512(Set, _mm512_mask_alignr_epi64(S, Move, S, L, 7));
  return Hit != 0;
}

__attribute__((target("avx512f"))) bool
setkernel::contains8(const uint64_t *Set, uint32_t, uint64_t Line) {
  __m512i L = _mm512_set1_epi64(static_cast<long long>(Line));
  return _mm512_cmpeq_epi64_mask(_mm512_load_si512(Set), L) != 0;
}

__attribute__((target("avx512f"))) bool
setkernel::access16(uint64_t *Set, uint32_t, uint64_t Line) {
  __m512i L = _mm512_set1_epi64(static_cast<long long>(Line));
  __m512i Lo = _mm512_load_si512(Set);
  __m512i Hi = _mm512_load_si512(Set + 8);
  unsigned Hit = _mm512_cmpeq_epi64_mask(Lo, L) |
                 unsigned(_mm512_cmpeq_epi64_mask(Hi, L)) << 8;
  unsigned K = __builtin_ctz(Hit | 0x8000u);
  unsigned Move = (2u << K) - 1;
  // The high half shifts in the low half's last way: {Lo[7], Hi[0..6]}.
  _mm512_store_si512(Set, _mm512_mask_alignr_epi64(
                              Lo, static_cast<__mmask8>(Move), Lo, L, 7));
  _mm512_store_si512(Set + 8,
                     _mm512_mask_alignr_epi64(
                         Hi, static_cast<__mmask8>(Move >> 8), Hi, Lo, 7));
  return Hit != 0;
}

__attribute__((target("avx512f"))) bool
setkernel::contains16(const uint64_t *Set, uint32_t, uint64_t Line) {
  __m512i L = _mm512_set1_epi64(static_cast<long long>(Line));
  return (_mm512_cmpeq_epi64_mask(_mm512_load_si512(Set), L) |
          _mm512_cmpeq_epi64_mask(_mm512_load_si512(Set + 8), L)) != 0;
}

bool setkernel::vectorAvailable() {
  static const bool Available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0;
  }();
  return Available;
}

#else

// No AVX-512 kernels in this build: the vector entry points fall back to
// the scalar loop so that they stay callable, and are never chosen.
bool setkernel::access8(uint64_t *Set, uint32_t, uint64_t Line) {
  return accessScalar(Set, 8, Line);
}
bool setkernel::contains8(const uint64_t *Set, uint32_t, uint64_t Line) {
  return containsScalar(Set, 8, Line);
}
bool setkernel::access16(uint64_t *Set, uint32_t, uint64_t Line) {
  return accessScalar(Set, 16, Line);
}
bool setkernel::contains16(const uint64_t *Set, uint32_t, uint64_t Line) {
  return containsScalar(Set, 16, Line);
}
bool setkernel::vectorAvailable() { return false; }

#endif

SetAssocCache::SetAssocCache(uint32_t NumSets, uint32_t Ways)
    : SetMask(NumSets - 1), Assoc(Ways), AccessK(setkernel::accessScalar),
      ContainsK(setkernel::containsScalar) {
  if (!isPowerOf2(NumSets))
    fatalError("cache set count must be a power of two");
  if (Ways < 1)
    fatalError("cache associativity must be at least 1");
  bool Vector = setkernel::vectorAvailable();
  if (Ways == 8) {
    AccessK = Vector ? setkernel::access8 : accessScalarFixed<8>;
    ContainsK = Vector ? setkernel::contains8 : containsScalarFixed<8>;
  } else if (Ways == 16) {
    AccessK = Vector ? setkernel::access16 : accessScalarFixed<16>;
    ContainsK = Vector ? setkernel::contains16 : containsScalarFixed<16>;
  }
  size_t Count = static_cast<size_t>(NumSets) * Assoc;
  Lines.reset(static_cast<uint64_t *>(::operator new[](
      Count * sizeof(uint64_t), std::align_val_t(SetAlign))));
  std::fill_n(Lines.get(), Count, EmptyLine);
}

void SetAssocCache::clear() {
  std::fill_n(Lines.get(), static_cast<size_t>(numSets()) * Assoc, EmptyLine);
}

const char *SetAssocCache::kernelName() const {
  bool Vector =
      AccessK == setkernel::access8 || AccessK == setkernel::access16;
  return Vector ? "avx512" : "scalar";
}
