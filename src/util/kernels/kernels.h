#ifndef DOPPLER_UTIL_KERNELS_KERNELS_H_
#define DOPPLER_UTIL_KERNELS_KERNELS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>

namespace doppler::kernels {

/// SIMD kernel layer for the exceedance/union hot path (DESIGN.md §15).
///
/// The four inner loops the assessment engine spends its time in — bitset
/// union with popcount, exceedance counting over a demand column, the
/// masked early-exit union scan, and Gaussian-kernel evaluation — are
/// implemented once per instruction set behind this function-pointer
/// table. The implementation is selected once per process (cpuid-style
/// feature detection, overridable with DOPPLER_KERNEL=scalar|avx2|neon)
/// and every call site reads the table through ActiveKernels().
///
/// Correctness contract: every operation is BIT-IDENTICAL across
/// implementations. The counting kernels are exact integer arithmetic
/// over exact IEEE comparisons (a comparison is a predicate, not an
/// approximation, so lane width cannot change a count), and the KDE
/// kernels perform the same IEEE operations in the same order as the
/// scalar reference (vectorised subtract/divide/multiply are per-lane
/// identical to their scalar counterparts; the transcendental and the
/// accumulation stay scalar and in sample order). The property tests and
/// the differential harness in tests/kernel_test.cc hold every variant to
/// exact equality against the scalar reference.
///
/// Alignment contract: kernels use unaligned vector loads, so they accept
/// any pointer — but the hot callers allocate their operands cache-line
/// aligned (util/kernels/bitset_arena.h pools, util/aligned.h rows) so
/// the loads never straddle a line. Bitset operands must have their
/// padding bits (past the last row in the final word) zero; the arena
/// zeroes them at allocation and PaddingBitsAreZero verifies the
/// invariant in debug builds, so no kernel carries tail masking logic.
struct KernelOps {
  /// Implementation name ("scalar", "avx2", "neon") — surfaced by the
  /// dispatch log line and the kernel.dispatch_isa gauge.
  const char* name;

  /// (a) Bitset union step: ORs `src` into `acc` over `num_words` words
  /// and returns the number of bits newly set (popcount of src & ~acc).
  /// The exceedance-union callers accumulate this as the running union
  /// cardinality, so no final popcount pass is needed.
  std::size_t (*union_count)(std::uint64_t* acc, const std::uint64_t* src,
                             std::size_t num_words);

  /// (b) Branch-free exceedance counting: the number of values strictly
  /// above / below `limit`. Applied to a sorted column this is the
  /// suffix/prefix run length (== the binary-search boundary); applied to
  /// a raw column it is the single-dimension throttled-row count. NaNs
  /// compare false, exactly like the scalar `v > limit` / `v < limit`.
  std::size_t (*count_above)(const double* values, std::size_t n,
                             double limit);
  std::size_t (*count_below)(const double* values, std::size_t n,
                             double limit);

  /// (c) Masked early-exit union scan step: marks[i] <- 1 for every i with
  /// values[i] strictly above/below `limit`, returning how many marks were
  /// NEWLY set. `marks` bytes must be 0 or 1 (the columnar scan's
  /// throttled-row scratch); rows already marked are never re-counted, so
  /// summing the return values across columns yields the union cardinality.
  std::size_t (*mark_above)(const double* values, std::size_t n, double limit,
                            unsigned char* marks);
  std::size_t (*mark_below)(const double* values, std::size_t n, double limit,
                            unsigned char* marks);

  /// (d) Batched Gaussian-kernel evaluation over one sample array.
  /// kde_cdf_sum returns sum_i 0.5 * (1 + erf(((x - s_i) / bandwidth) *
  /// (1/sqrt 2))); kde_density_sum returns sum_i exp(-0.5 * z_i * z_i)
  /// with z_i = (x - s_i) / bandwidth. Callers apply the 1/n (and
  /// normal-constant) scaling. Accumulation is in sample order in every
  /// implementation, so results are bit-identical across them.
  double (*kde_cdf_sum)(const double* sample, std::size_t n, double x,
                        double bandwidth);
  double (*kde_density_sum)(const double* sample, std::size_t n, double x,
                            double bandwidth);
};

/// The instruction-set variants a build may carry. Values are stable: the
/// kernel.dispatch_isa gauge exports them numerically.
enum class KernelIsa { kScalar = 0, kAvx2 = 1, kNeon = 2 };

/// The table for one variant, or nullptr when the variant was not compiled
/// into this binary or the running CPU lacks the feature (checked via
/// cpuid). kScalar never returns nullptr.
const KernelOps* KernelOpsFor(KernelIsa isa);

/// Parses a DOPPLER_KERNEL value ("scalar" | "avx2" | "neon"); returns
/// false on anything else.
bool ParseKernelIsa(const std::string& name, KernelIsa* isa);

/// Resolves the table an override string selects: nullptr/empty picks the
/// best variant the CPU supports; a recognised name picks that variant,
/// falling back to scalar (with a warning log) when it is unavailable; an
/// unrecognised name warns and picks the best. Pure apart from logging —
/// the differential harness sweeps it over every override value.
const KernelOps& SelectKernels(const char* override_name);

/// The process-wide table: resolved from DOPPLER_KERNEL + feature
/// detection on first use, then a relaxed atomic read. The first
/// resolution publishes the choice as the `kernel.dispatch_isa` gauge and
/// an info log line naming the selected path.
const KernelOps& ActiveKernels();

/// Swaps the process-wide table for a scope (tests and benchmarks that
/// compare variants end-to-end). Restores the previous table — including
/// the not-yet-resolved state — on destruction. Takes the same override
/// strings as DOPPLER_KERNEL.
class ScopedKernelOverride {
 public:
  explicit ScopedKernelOverride(const KernelOps* ops);
  explicit ScopedKernelOverride(KernelIsa isa)
      : ScopedKernelOverride(KernelOpsFor(isa)) {}
  ~ScopedKernelOverride();

  ScopedKernelOverride(const ScopedKernelOverride&) = delete;
  ScopedKernelOverride& operator=(const ScopedKernelOverride&) = delete;

 private:
  const KernelOps* previous_;
};

/// True when every bit past `num_rows` in the final word (and every bit of
/// any wholly-padding word) is zero — the invariant the bitset arena
/// establishes at allocation and the union kernels rely on instead of
/// per-kernel tail masking. Debug asserts at the set-build sites verify it.
bool PaddingBitsAreZero(const std::uint64_t* words, std::size_t num_words,
                        std::size_t num_rows);

/// Columns at or below this length take the branch-free count kernel for
/// the sorted-run boundary; longer columns keep the O(log n) binary
/// search. Both produce the same integer on a sorted column, so the
/// cutoff is a pure performance knob.
inline constexpr std::size_t kSortedScanCutoff = 128;

/// Rows of a sorted-ascending column strictly above `limit` (the
/// exceedance suffix length): branch-free scan for short columns, binary
/// search otherwise. Identical to `n - upper_bound` by sortedness.
inline std::size_t SortedCountAbove(const KernelOps& ops,
                                    const double* sorted, std::size_t n,
                                    double limit) {
  if (n <= kSortedScanCutoff) return ops.count_above(sorted, n, limit);
  return static_cast<std::size_t>(
      (sorted + n) - std::upper_bound(sorted, sorted + n, limit));
}

/// Rows of a sorted-ascending column strictly below `limit` (the inverted
/// dimension's exceedance prefix length). Identical to `lower_bound`.
inline std::size_t SortedCountBelow(const KernelOps& ops,
                                    const double* sorted, std::size_t n,
                                    double limit) {
  if (n <= kSortedScanCutoff) return ops.count_below(sorted, n, limit);
  return static_cast<std::size_t>(
      std::lower_bound(sorted, sorted + n, limit) - sorted);
}

}  // namespace doppler::kernels

#endif  // DOPPLER_UTIL_KERNELS_KERNELS_H_
