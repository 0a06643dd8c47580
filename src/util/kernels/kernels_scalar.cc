// Scalar reference implementation of the kernel table — the oracle every
// SIMD variant is held bit-identical to (tests/kernel_test.cc), and the
// fallback the dispatcher selects when no vector unit is available or
// DOPPLER_KERNEL=scalar forces it. The loops are written exactly like the
// hot paths they were hoisted out of (stream/stream_index.cc,
// core/throttling.cc, stats/kde.cc), so routing a caller through the
// table on a scalar-only host changes nothing but the call.

#include <bit>
#include <cmath>

#include "util/kernels/kernels_impl.h"

namespace doppler::kernels::internal {

namespace {

constexpr double kInvSqrt2 = 0.7071067811865476;

std::size_t UnionCount(std::uint64_t* acc, const std::uint64_t* src,
                       std::size_t num_words) {
  std::size_t count = 0;
  for (std::size_t w = 0; w < num_words; ++w) {
    const std::uint64_t prev = acc[w];
    // A saturated word cannot gain bits; skipping it saves the OR and the
    // store on the all-throttled prefixes dense unions converge to.
    if (prev == ~std::uint64_t{0}) continue;
    const std::uint64_t merged = prev | src[w];
    if (merged != prev) {
      count += static_cast<std::size_t>(std::popcount(merged ^ prev));
      acc[w] = merged;
    }
  }
  return count;
}

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

double KdeCdfSum(const double* sample, std::size_t n, double x,
                 double bandwidth) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double z = (x - sample[i]) / bandwidth;
    sum += 0.5 * (1.0 + std::erf(z * kInvSqrt2));
  }
  return sum;
}

double KdeDensitySum(const double* sample, std::size_t n, double x,
                     double bandwidth) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double z = (x - sample[i]) / bandwidth;
    sum += std::exp(-0.5 * z * z);
  }
  return sum;
}

constexpr KernelOps kScalarOps = {
    "scalar",  UnionCount, CountAbove, CountBelow,
    MarkAbove, MarkBelow,  KdeCdfSum,  KdeDensitySum,
};

}  // namespace

const KernelOps& ScalarOps() { return kScalarOps; }

}  // namespace doppler::kernels::internal
