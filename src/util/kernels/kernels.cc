// The exceedance scan's two bodies and the cpuid choice between them
// (util/kernels/kernels.h). The AVX2 bodies carry their ISA in a
// function-level target attribute, so no file is built with -mavx2 and
// the rest of the binary stays runnable on baseline x86-64.

#include "util/kernels/kernels.h"

#if defined(__x86_64__)
#include <immintrin.h>

#include <array>
#include <cstdint>
#endif

namespace doppler::kernels {

namespace scalar {

std::size_t CountAbove(const double* values, std::size_t n, double limit) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) count += values[i] > limit;
  return count;
}

std::size_t CountBelow(const double* values, std::size_t n, double limit) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) count += values[i] < limit;
  return count;
}

std::size_t MarkAbove(const double* values, std::size_t n, double limit,
                      unsigned char* marks) {
  std::size_t newly = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!marks[i] && values[i] > limit) {
      marks[i] = 1;
      ++newly;
    }
  }
  return newly;
}

std::size_t MarkBelow(const double* values, std::size_t n, double limit,
                      unsigned char* marks) {
  std::size_t newly = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!marks[i] && values[i] < limit) {
      marks[i] = 1;
      ++newly;
    }
  }
  return newly;
}

}  // namespace scalar

#if defined(__x86_64__)

bool CpuHasAvx2() {
  static const bool kHasAvx2 = __builtin_cpu_supports("avx2") &&
                               __builtin_cpu_supports("popcnt");
  return kHasAvx2;
}

namespace avx2 {

namespace {

// 4-bit comparison mask -> 4 bytes of 0/1, little-endian: byte b is 1 iff
// mask bit b is set. The masked scan's throttled-row scratch stores one
// 0/1 byte per row, so expanding the VMOVMSKPD bits to bytes lets eight
// marks merge with one 64-bit OR.
constexpr std::array<std::uint32_t, 16> MakeExpand4() {
  std::array<std::uint32_t, 16> table{};
  for (unsigned mask = 0; mask < 16; ++mask) {
    std::uint32_t bytes = 0;
    for (unsigned b = 0; b < 4; ++b) {
      if ((mask >> b) & 1u) bytes |= std::uint32_t{1} << (8 * b);
    }
    table[mask] = bytes;
  }
  return table;
}
constexpr std::array<std::uint32_t, 16> kExpand4 = MakeExpand4();

template <int Predicate>
[[gnu::target("avx2,popcnt")]] std::size_t CountCmp(const double* values,
                                                    std::size_t n,
                                                    double limit) {
  const __m256d bound = _mm256_set1_pd(limit);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(values + i);
    const __m256d mask = _mm256_cmp_pd(x, bound, Predicate);
    count += static_cast<std::size_t>(
        __builtin_popcount(static_cast<unsigned>(_mm256_movemask_pd(mask))));
  }
  for (; i < n; ++i) {
    count += Predicate == _CMP_GT_OQ ? values[i] > limit : values[i] < limit;
  }
  return count;
}

// Blocks of eight rows with no hit skip the mark word entirely; the
// curve's columns are mostly sparse at catalog capacities, which is where
// this body beats a branch-free loop (DESIGN.md §15).
template <int Predicate>
[[gnu::target("avx2,popcnt")]] std::size_t MarkCmp(const double* values,
                                                   std::size_t n,
                                                   double limit,
                                                   unsigned char* marks) {
  const __m256d bound = _mm256_set1_pd(limit);
  std::size_t newly = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d lo = _mm256_loadu_pd(values + i);
    const __m256d hi = _mm256_loadu_pd(values + i + 4);
    const unsigned mask =
        static_cast<unsigned>(_mm256_movemask_pd(
            _mm256_cmp_pd(lo, bound, Predicate))) |
        (static_cast<unsigned>(_mm256_movemask_pd(
             _mm256_cmp_pd(hi, bound, Predicate)))
         << 4);
    if (mask == 0) continue;
    std::uint64_t current;
    __builtin_memcpy(&current, marks + i, sizeof(current));
    const std::uint64_t wanted =
        static_cast<std::uint64_t>(kExpand4[mask & 15u]) |
        (static_cast<std::uint64_t>(kExpand4[mask >> 4]) << 32);
    // Marks are 0/1 bytes, so the raw word doubles as its own "already
    // marked" byte mask.
    const std::uint64_t fresh = wanted & ~current;
    if (fresh == 0) continue;
    current |= fresh;
    __builtin_memcpy(marks + i, &current, sizeof(current));
    newly += static_cast<std::size_t>(__builtin_popcountll(fresh));
  }
  for (; i < n; ++i) {
    const bool hit =
        Predicate == _CMP_GT_OQ ? values[i] > limit : values[i] < limit;
    if (hit && !marks[i]) {
      marks[i] = 1;
      ++newly;
    }
  }
  return newly;
}

}  // namespace

[[gnu::target("avx2,popcnt")]] std::size_t CountAbove(const double* values,
                                                      std::size_t n,
                                                      double limit) {
  return CountCmp<_CMP_GT_OQ>(values, n, limit);
}

[[gnu::target("avx2,popcnt")]] std::size_t CountBelow(const double* values,
                                                      std::size_t n,
                                                      double limit) {
  return CountCmp<_CMP_LT_OQ>(values, n, limit);
}

[[gnu::target("avx2,popcnt")]] std::size_t MarkAbove(const double* values,
                                                     std::size_t n,
                                                     double limit,
                                                     unsigned char* marks) {
  return MarkCmp<_CMP_GT_OQ>(values, n, limit, marks);
}

[[gnu::target("avx2,popcnt")]] std::size_t MarkBelow(const double* values,
                                                     std::size_t n,
                                                     double limit,
                                                     unsigned char* marks) {
  return MarkCmp<_CMP_LT_OQ>(values, n, limit, marks);
}

}  // namespace avx2

#endif  // defined(__x86_64__)

std::size_t CountAbove(const double* values, std::size_t n, double limit) {
#if defined(__x86_64__)
  if (CpuHasAvx2()) return avx2::CountAbove(values, n, limit);
#endif
  return scalar::CountAbove(values, n, limit);
}

std::size_t CountBelow(const double* values, std::size_t n, double limit) {
#if defined(__x86_64__)
  if (CpuHasAvx2()) return avx2::CountBelow(values, n, limit);
#endif
  return scalar::CountBelow(values, n, limit);
}

std::size_t MarkAbove(const double* values, std::size_t n, double limit,
                      unsigned char* marks) {
#if defined(__x86_64__)
  if (CpuHasAvx2()) return avx2::MarkAbove(values, n, limit, marks);
#endif
  return scalar::MarkAbove(values, n, limit, marks);
}

std::size_t MarkBelow(const double* values, std::size_t n, double limit,
                      unsigned char* marks) {
#if defined(__x86_64__)
  if (CpuHasAvx2()) return avx2::MarkBelow(values, n, limit, marks);
#endif
  return scalar::MarkBelow(values, n, limit, marks);
}

}  // namespace doppler::kernels
