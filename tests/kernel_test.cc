// Differential harness for the exceedance scan (DESIGN.md §15): the AVX2
// bodies are held to EXACT equality with the scalar reference — the same
// count, the same marks — on columns full of NaN, ±inf, -0.0 and ties at
// the limit, with pre-marked rows, at every tail length of the 4- and
// 8-row blocks. The dispatched entry points are held to it too, so the
// suite checks the body the CPU actually runs; the AVX2 body is skipped
// only on CPUs without AVX2.

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "util/kernels/kernels.h"
#include "util/random.h"

namespace doppler::kernels {
namespace {

using CountFn = std::size_t (*)(const double*, std::size_t, double);
using MarkFn = std::size_t (*)(const double*, std::size_t, double,
                               unsigned char*);

// The bodies held to the scalar reference: the dispatched entry point on
// every host, plus the AVX2 body itself wherever the CPU can run it.
struct Body {
  const char* name;
  CountFn count_above, count_below;
  MarkFn mark_above, mark_below;
};

std::vector<Body> BodiesUnderTest() {
  std::vector<Body> bodies = {
      {"dispatched", CountAbove, CountBelow, MarkAbove, MarkBelow}};
#if defined(__x86_64__)
  if (CpuHasAvx2()) {
    bodies.push_back({"avx2", avx2::CountAbove, avx2::CountBelow,
                      avx2::MarkAbove, avx2::MarkBelow});
  }
#endif
  return bodies;
}

// Row counts covering every tail alignment of the 4- and 8-wide blocks.
const std::size_t kRowCounts[] = {0,  1,  2,  3,  4,   5,   6,   7,  8,
                                  9,  15, 16, 17, 31,  63,  64,  65, 100,
                                  127, 128, 129, 200, 255, 256, 257};

// Columns probing strict-comparison edges: exact ties everywhere, NaNs
// (compare false both ways), infinities, and negative zero (== 0.0).
std::vector<double> MakeColumn(Rng& rng, std::size_t n) {
  std::vector<double> column(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.UniformInt(8)) {
      case 0:
        column[i] = 5.0;  // tie with the probed limit
        break;
      case 1:
        column[i] = std::numeric_limits<double>::quiet_NaN();
        break;
      case 2:
        column[i] = std::numeric_limits<double>::infinity();
        break;
      case 3:
        column[i] = -std::numeric_limits<double>::infinity();
        break;
      case 4:
        column[i] = -0.0;
        break;
      default:
        column[i] = (static_cast<double>(rng.UniformInt(2000)) - 1000.0) /
                    100.0;
        break;
    }
  }
  return column;
}

const double kLimits[] = {5.0, 0.0, -3.33, 1e12, -1e12,
                          std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()};

TEST(KernelLayerTest, CountKernelsMatchScalarIncludingNaNAndTies) {
  for (const Body& body : BodiesUnderTest()) {
    Rng rng(7);
    for (std::size_t n : kRowCounts) {
      const std::vector<double> column = MakeColumn(rng, n);
      for (double limit : kLimits) {
        EXPECT_EQ(body.count_above(column.data(), n, limit),
                  scalar::CountAbove(column.data(), n, limit))
            << body.name << " n=" << n << " limit=" << limit;
        EXPECT_EQ(body.count_below(column.data(), n, limit),
                  scalar::CountBelow(column.data(), n, limit))
            << body.name << " n=" << n << " limit=" << limit;
      }
    }
  }
}

TEST(KernelLayerTest, MarkKernelsMatchScalarAndOnlyCountFreshRows) {
  for (const Body& body : BodiesUnderTest()) {
    Rng rng(99);
    for (std::size_t n : kRowCounts) {
      const std::vector<double> column = MakeColumn(rng, n);
      for (double limit : kLimits) {
        // Pre-marked rows exercise the fresh-only counting: a random
        // subset is already 1, as after a previous column's scan.
        std::vector<unsigned char> marks_ref(n), marks_body(n);
        for (std::size_t i = 0; i < n; ++i) {
          marks_ref[i] = static_cast<unsigned char>(rng.UniformInt(3) == 0);
          marks_body[i] = marks_ref[i];
        }
        EXPECT_EQ(body.mark_above(column.data(), n, limit, marks_body.data()),
                  scalar::MarkAbove(column.data(), n, limit, marks_ref.data()))
            << body.name << " n=" << n << " limit=" << limit;
        EXPECT_EQ(marks_body, marks_ref)
            << body.name << " n=" << n << " limit=" << limit;

        EXPECT_EQ(body.mark_below(column.data(), n, limit, marks_body.data()),
                  scalar::MarkBelow(column.data(), n, limit, marks_ref.data()))
            << body.name << " n=" << n << " limit=" << limit;
        EXPECT_EQ(marks_body, marks_ref)
            << body.name << " n=" << n << " limit=" << limit;
      }
    }
  }
}

}  // namespace
}  // namespace doppler::kernels
