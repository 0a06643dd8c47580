// Differential harness for the SIMD kernel layer (DESIGN.md §15): every
// compiled-in implementation of every kernel is held to EXACT equality —
// integer-exact for the counting kernels, bit-for-bit for the KDE sums —
// against the scalar reference, across word counts 0–257, every tail
// alignment, all-saturated/all-zero words, and tie-heavy capacity values.
// The dispatch shim itself is swept over every DOPPLER_KERNEL override
// value, and the bitset arena's alignment/zeroing contract is pinned.

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "util/aligned.h"
#include "util/kernels/bitset_arena.h"
#include "util/kernels/kernels.h"
#include "util/random.h"

namespace doppler::kernels {
namespace {

// Every implementation compiled into this binary AND runnable on this CPU,
// scalar first (the reference).
std::vector<const KernelOps*> AvailableImpls() {
  std::vector<const KernelOps*> impls;
  for (KernelIsa isa :
       {KernelIsa::kScalar, KernelIsa::kAvx2, KernelIsa::kNeon}) {
    const KernelOps* ops = KernelOpsFor(isa);
    if (ops != nullptr) impls.push_back(ops);
  }
  return impls;
}

const KernelOps& Scalar() { return *KernelOpsFor(KernelIsa::kScalar); }

// Word counts covering the vector-block boundaries of every lane width in
// play (AVX2 unions run 4 words per block, NEON 2) plus long runs.
const std::size_t kWordCounts[] = {0, 1, 2, 3,  4,  5,  7,  8,   9,
                                   15, 16, 17, 31, 63, 64, 65, 127, 257};

// Row counts covering every tail alignment of the 4- and 8-wide double
// kernels and the 64-row bitset words.
const std::size_t kRowCounts[] = {0,  1,  2,  3,  4,   5,   6,   7,  8,
                                  9,  15, 16, 17, 31,  63,  64,  65, 100,
                                  127, 128, 129, 200, 255, 256, 257};

struct WordPattern {
  const char* name;
  std::uint64_t (*make)(Rng& rng, std::size_t w);
};

const WordPattern kWordPatterns[] = {
    {"random", [](Rng& rng, std::size_t) {
       return rng.NextUint64();
     }},
    {"all_zero", [](Rng&, std::size_t) { return std::uint64_t{0}; }},
    {"all_saturated", [](Rng&, std::size_t) { return ~std::uint64_t{0}; }},
    {"alternating", [](Rng&, std::size_t w) {
       return w % 2 == 0 ? std::uint64_t{0xAAAAAAAAAAAAAAAA}
                         : ~std::uint64_t{0};
     }},
    {"sparse", [](Rng& rng, std::size_t) {
       return std::uint64_t{1} << (rng.UniformInt(64));
     }},
};

TEST(KernelLayerTest, ScalarAlwaysAvailable) {
  ASSERT_NE(KernelOpsFor(KernelIsa::kScalar), nullptr);
  EXPECT_STREQ(KernelOpsFor(KernelIsa::kScalar)->name, "scalar");
}

TEST(KernelLayerTest, UnionCountMatchesScalarOnEveryPattern) {
  for (const KernelOps* impl : AvailableImpls()) {
    Rng rng(2026);
    for (std::size_t num_words : kWordCounts) {
      for (const WordPattern& acc_pattern : kWordPatterns) {
        for (const WordPattern& src_pattern : kWordPatterns) {
          AlignedVector<std::uint64_t> acc_ref(num_words), src(num_words);
          for (std::size_t w = 0; w < num_words; ++w) {
            acc_ref[w] = acc_pattern.make(rng, w);
            src[w] = src_pattern.make(rng, w);
          }
          AlignedVector<std::uint64_t> acc_impl = acc_ref;
          const std::size_t expected = Scalar().union_count(
              acc_ref.data(), src.data(), num_words);
          const std::size_t got =
              impl->union_count(acc_impl.data(), src.data(), num_words);
          EXPECT_EQ(got, expected)
              << impl->name << " words=" << num_words << " acc="
              << acc_pattern.name << " src=" << src_pattern.name;
          EXPECT_EQ(acc_impl, acc_ref)
              << impl->name << " words=" << num_words << " acc="
              << acc_pattern.name << " src=" << src_pattern.name;
        }
      }
    }
  }
}

// Columns probing strict-comparison edges: exact ties everywhere, NaNs
// (compare false both ways), infinities, and negative zero (== 0.0).
AlignedVector<double> MakeColumn(Rng& rng, std::size_t n) {
  AlignedVector<double> column(n);
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
  for (const KernelOps* impl : AvailableImpls()) {
    Rng rng(7);
    for (std::size_t n : kRowCounts) {
      const AlignedVector<double> column = MakeColumn(rng, n);
      for (double limit : kLimits) {
        EXPECT_EQ(impl->count_above(column.data(), n, limit),
                  Scalar().count_above(column.data(), n, limit))
            << impl->name << " n=" << n << " limit=" << limit;
        EXPECT_EQ(impl->count_below(column.data(), n, limit),
                  Scalar().count_below(column.data(), n, limit))
            << impl->name << " n=" << n << " limit=" << limit;
      }
    }
  }
}

TEST(KernelLayerTest, MarkKernelsMatchScalarAndOnlyCountFreshRows) {
  for (const KernelOps* impl : AvailableImpls()) {
    Rng rng(99);
    for (std::size_t n : kRowCounts) {
      const AlignedVector<double> column = MakeColumn(rng, n);
      for (double limit : kLimits) {
        // Pre-marked rows exercise the fresh-only counting: a random
        // subset is already 1, as after a previous column's scan.
        AlignedVector<unsigned char> marks_ref(n), marks_impl(n);
        for (std::size_t i = 0; i < n; ++i) {
          marks_ref[i] = static_cast<unsigned char>(rng.UniformInt(3) == 0);
          marks_impl[i] = marks_ref[i];
        }
        const std::size_t expected_above = Scalar().mark_above(
            column.data(), n, limit, marks_ref.data());
        const std::size_t got_above = impl->mark_above(
            column.data(), n, limit, marks_impl.data());
        EXPECT_EQ(got_above, expected_above)
            << impl->name << " n=" << n << " limit=" << limit;
        EXPECT_EQ(marks_impl, marks_ref)
            << impl->name << " n=" << n << " limit=" << limit;

        const std::size_t expected_below = Scalar().mark_below(
            column.data(), n, limit, marks_ref.data());
        const std::size_t got_below = impl->mark_below(
            column.data(), n, limit, marks_impl.data());
        EXPECT_EQ(got_below, expected_below)
            << impl->name << " n=" << n << " limit=" << limit;
        EXPECT_EQ(marks_impl, marks_ref)
            << impl->name << " n=" << n << " limit=" << limit;
      }
    }
  }
}

TEST(KernelLayerTest, KdeKernelsAreBitIdenticalToScalar) {
  for (const KernelOps* impl : AvailableImpls()) {
    Rng rng(555);
    for (std::size_t n : kRowCounts) {
      AlignedVector<double> sample(n);
      for (std::size_t i = 0; i < n; ++i) {
        sample[i] = (static_cast<double>(rng.UniformInt(10000)) - 5000.0) /
                    250.0;
      }
      for (double x : {-7.5, 0.0, 0.3, 12.0}) {
        for (double bandwidth : {0.25, 1.0, 3.7}) {
          // Exact equality, not EXPECT_NEAR: the contract is bit-identity.
          const double cdf_ref =
              Scalar().kde_cdf_sum(sample.data(), n, x, bandwidth);
          const double cdf_got =
              impl->kde_cdf_sum(sample.data(), n, x, bandwidth);
          EXPECT_EQ(std::memcmp(&cdf_ref, &cdf_got, sizeof(double)), 0)
              << impl->name << " n=" << n << " x=" << x << " bw=" << bandwidth
              << " ref=" << cdf_ref << " got=" << cdf_got;
          const double density_ref =
              Scalar().kde_density_sum(sample.data(), n, x, bandwidth);
          const double density_got =
              impl->kde_density_sum(sample.data(), n, x, bandwidth);
          EXPECT_EQ(std::memcmp(&density_ref, &density_got, sizeof(double)),
                    0)
              << impl->name << " n=" << n << " x=" << x << " bw=" << bandwidth
              << " ref=" << density_ref << " got=" << density_got;
        }
      }
    }
  }
}

TEST(KernelDispatchTest, ParseRecognisesExactlyTheThreeVariants) {
  KernelIsa isa;
  EXPECT_TRUE(ParseKernelIsa("scalar", &isa));
  EXPECT_EQ(isa, KernelIsa::kScalar);
  EXPECT_TRUE(ParseKernelIsa("avx2", &isa));
  EXPECT_EQ(isa, KernelIsa::kAvx2);
  EXPECT_TRUE(ParseKernelIsa("neon", &isa));
  EXPECT_EQ(isa, KernelIsa::kNeon);
  EXPECT_FALSE(ParseKernelIsa("", &isa));
  EXPECT_FALSE(ParseKernelIsa("AVX2", &isa));
  EXPECT_FALSE(ParseKernelIsa("sse", &isa));
}

TEST(KernelDispatchTest, SelectSweepsEveryOverrideValue) {
  // No override: the best available variant.
  const KernelOps& best = SelectKernels(nullptr);
  EXPECT_EQ(&SelectKernels(""), &best);

  // Explicit scalar always honoured.
  EXPECT_STREQ(SelectKernels("scalar").name, "scalar");

  // A recognised but unavailable variant falls back to scalar; an
  // available one is honoured.
  for (const char* name : {"avx2", "neon"}) {
    KernelIsa isa;
    ASSERT_TRUE(ParseKernelIsa(name, &isa));
    const KernelOps& selected = SelectKernels(name);
    if (KernelOpsFor(isa) != nullptr) {
      EXPECT_STREQ(selected.name, name);
    } else {
      EXPECT_STREQ(selected.name, "scalar");
    }
  }

  // Unrecognised values warn and pick the best.
  EXPECT_EQ(&SelectKernels("bogus"), &best);
}

TEST(KernelDispatchTest, ScopedOverrideSwapsAndRestoresActiveTable) {
  const KernelOps& before = ActiveKernels();
  {
    ScopedKernelOverride to_scalar(KernelIsa::kScalar);
    EXPECT_STREQ(ActiveKernels().name, "scalar");
    {
      // Overrides nest; a null table falls back to scalar rather than
      // clearing the resolved state.
      ScopedKernelOverride to_null(nullptr);
      EXPECT_STREQ(ActiveKernels().name, "scalar");
    }
    EXPECT_STREQ(ActiveKernels().name, "scalar");
  }
  EXPECT_EQ(&ActiveKernels(), &before);
}

TEST(KernelPaddingTest, PaddingBitsAreZeroCatchesEveryStrayBit) {
  // 100 rows in 2 words: bits 100..127 are padding.
  std::array<std::uint64_t, 2> words = {~std::uint64_t{0},
                                        (std::uint64_t{1} << 36) - 1};
  EXPECT_TRUE(PaddingBitsAreZero(words.data(), words.size(), 100));
  for (std::size_t bit = 36; bit < 64; ++bit) {
    auto corrupted = words;
    corrupted[1] |= std::uint64_t{1} << bit;
    EXPECT_FALSE(PaddingBitsAreZero(corrupted.data(), corrupted.size(), 100))
        << "stray padding bit " << bit << " not detected";
  }
  // Row counts on a word boundary have no padding in the last row word,
  // but wholly-padding words past it must be zero.
  std::array<std::uint64_t, 3> exact = {~std::uint64_t{0}, ~std::uint64_t{0},
                                        0};
  EXPECT_TRUE(PaddingBitsAreZero(exact.data(), exact.size(), 128));
  exact[2] = 1;
  EXPECT_FALSE(PaddingBitsAreZero(exact.data(), exact.size(), 128));
  EXPECT_TRUE(PaddingBitsAreZero(nullptr, 0, 0));
}

TEST(BitsetArenaTest, SpansAreCacheAlignedZeroedAndStable) {
  BitsetArena arena;
  std::vector<std::uint64_t*> spans;
  std::vector<std::size_t> sizes;
  Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    const std::size_t num_words = rng.UniformInt(70);
    std::uint64_t* span = arena.Allocate(num_words);
    ASSERT_NE(span, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(span) % 64, 0u)
        << "allocation " << i << " not cache-line aligned";
    for (std::size_t w = 0; w < num_words; ++w) {
      ASSERT_EQ(span[w], 0u) << "allocation " << i << " word " << w
                             << " not zeroed";
    }
    // Stamp the span; later allocations must never overlap it.
    for (std::size_t w = 0; w < num_words; ++w) {
      span[w] = 0x1111111111111111ull * static_cast<std::uint64_t>(i + 1);
    }
    spans.push_back(span);
    sizes.push_back(num_words);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    for (std::size_t w = 0; w < sizes[i]; ++w) {
      ASSERT_EQ(spans[i][w],
                0x1111111111111111ull * static_cast<std::uint64_t>(i + 1))
          << "span " << i << " clobbered at word " << w;
    }
  }
}

TEST(BitsetArenaTest, ResetReusesMemoryAndRezeroes) {
  BitsetArena arena;
  std::uint64_t* first = arena.Allocate(64);
  for (std::size_t w = 0; w < 64; ++w) first[w] = ~std::uint64_t{0};
  const std::size_t capacity_before = arena.capacity_words();
  ASSERT_GT(arena.allocated_words(), 0u);

  arena.Reset();
  EXPECT_EQ(arena.allocated_words(), 0u);
  EXPECT_EQ(arena.capacity_words(), capacity_before);

  // Steady state: the same memory comes back, zeroed despite the previous
  // generation's bits.
  std::uint64_t* second = arena.Allocate(64);
  EXPECT_EQ(second, first);
  for (std::size_t w = 0; w < 64; ++w) {
    ASSERT_EQ(second[w], 0u) << "word " << w << " not re-zeroed after Reset";
  }
  EXPECT_EQ(arena.capacity_words(), capacity_before);
}

TEST(BitsetArenaTest, ZeroWordAllocationIsNonNullAndDisjoint) {
  BitsetArena arena;
  std::uint64_t* a = arena.Allocate(0);
  std::uint64_t* b = arena.Allocate(0);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace doppler::kernels
