#ifndef DOPPLER_UTIL_KERNELS_KERNELS_H_
#define DOPPLER_UTIL_KERNELS_KERNELS_H_

#include <cstddef>

namespace doppler::kernels {

/// The exceedance scan behind paper Eq. 1 (DESIGN.md §15): the one loop
/// of the curve that pays for a hand-written SIMD body.
///
/// Each operation has two bodies — a scalar reference and, on x86-64, an
/// AVX2 body compiled with a function-level target attribute so the rest
/// of the binary stays baseline x86-64. The entry points below take the
/// AVX2 body when the running CPU reports AVX2 (checked once per process
/// with __builtin_cpu_supports) and the scalar one otherwise. There is no
/// override: the choice follows the hardware.
///
/// Both bodies return the same integer on every input. A count is exact
/// integer arithmetic over exact IEEE comparisons (VCMPPD with the
/// ordered-quiet predicates, so NaN compares false exactly like the scalar
/// `>`/`<`), and lane width cannot change it. tests/kernel_test.cc holds
/// the AVX2 body to the scalar one on NaN, ±inf, -0.0, ties at the limit,
/// pre-marked rows and every tail length.

/// Rows of `values[0, n)` strictly above / below `limit`: a one-column
/// throttled-row count.
std::size_t CountAbove(const double* values, std::size_t n, double limit);
std::size_t CountBelow(const double* values, std::size_t n, double limit);

/// Sets marks[i] = 1 for every row with values[i] strictly above / below
/// `limit` and returns how many marks were NEWLY set. `marks` bytes must
/// be 0 or 1 (the columnar scan's throttled-row scratch); a row already
/// marked is never counted again, so summing the returns across columns
/// gives the union cardinality.
std::size_t MarkAbove(const double* values, std::size_t n, double limit,
                      unsigned char* marks);
std::size_t MarkBelow(const double* values, std::size_t n, double limit,
                      unsigned char* marks);

/// The scalar reference bodies: the fallback on CPUs without AVX2 and the
/// oracle the AVX2 bodies are tested against.
namespace scalar {
std::size_t CountAbove(const double* values, std::size_t n, double limit);
std::size_t CountBelow(const double* values, std::size_t n, double limit);
std::size_t MarkAbove(const double* values, std::size_t n, double limit,
                      unsigned char* marks);
std::size_t MarkBelow(const double* values, std::size_t n, double limit,
                      unsigned char* marks);
}  // namespace scalar

#if defined(__x86_64__)
/// True when the running CPU supports AVX2, i.e. when the entry points
/// above take the avx2:: bodies.
bool CpuHasAvx2();

/// The AVX2 bodies. Call them only when CpuHasAvx2() is true.
namespace avx2 {
std::size_t CountAbove(const double* values, std::size_t n, double limit);
std::size_t CountBelow(const double* values, std::size_t n, double limit);
std::size_t MarkAbove(const double* values, std::size_t n, double limit,
                      unsigned char* marks);
std::size_t MarkBelow(const double* values, std::size_t n, double limit,
                      unsigned char* marks);
}  // namespace avx2
#endif  // defined(__x86_64__)

}  // namespace doppler::kernels

#endif  // DOPPLER_UTIL_KERNELS_KERNELS_H_
