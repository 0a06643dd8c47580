#include "stream/stream_index.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"
#include "util/aligned.h"
#include "util/kernels/kernels.h"

namespace doppler::stream {

namespace {

void CountRowsPatched(std::size_t slots) {
  static obs::Counter* const kPatched =
      obs::DefaultMetrics().GetCounter("stream.rows_patched");
  kPatched->Increment(slots);
}

void CountIndexMiss() {
  static obs::Counter* const kMisses =
      obs::DefaultMetrics().GetCounter("stream.index_misses");
  kMisses->Increment();
}

void CountIndexHit() {
  static obs::Counter* const kHits =
      obs::DefaultMetrics().GetCounter("stream.index_hits");
  kHits->Increment();
}

}  // namespace

StreamIndex::StreamIndex(const StreamingTrace* trace, const StreamStats* stats)
    : trace_(trace), stats_(stats), num_words_((trace->capacity() + 63) / 64) {}

void StreamIndex::OnAppend(std::uint64_t seq) {
  const std::size_t slot = trace_->SlotOf(seq);
  std::size_t patched = 0;
  for (catalog::ResourceDim dim : trace_->dims()) {
    DimState& state = dims_[Index(dim)];
    if (state.memo.empty()) continue;
    const double value = trace_->ValueAt(dim, seq);
    for (auto& [capacity, set] : state.memo) {
      if (!ExceedsValue(dim, value, capacity)) continue;
      set.words[slot >> 6] |= std::uint64_t{1} << (slot & 63);
      ++set.count;
    }
    patched += state.memo.size();
  }
  if (patched != 0) CountRowsPatched(patched);
}

void StreamIndex::OnEvict(std::uint64_t seq) {
  const std::size_t slot = trace_->SlotOf(seq);
  std::size_t patched = 0;
  for (catalog::ResourceDim dim : trace_->dims()) {
    DimState& state = dims_[Index(dim)];
    if (state.memo.empty()) continue;
    const double value = trace_->ValueAt(dim, seq);
    for (auto& [capacity, set] : state.memo) {
      if (!ExceedsValue(dim, value, capacity)) continue;
      set.words[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
      --set.count;
    }
    patched += state.memo.size();
  }
  if (patched != 0) CountRowsPatched(patched);
}

const ExceedanceSet& StreamIndex::SetFor(catalog::ResourceDim dim,
                                               double capacity) const {
  DimState& state = dims_[Index(dim)];
  const auto it = state.memo.find(capacity);
  if (it != state.memo.end()) {
    CountIndexHit();
    return it->second;
  }

  // First sight of this capacity: the exceeding rows are one contiguous
  // run of the stats sorted order (suffix for normal dims, prefix for
  // inverted) — materialise their SLOTS. The boundary is a branch-free
  // count on short columns, a binary search on long ones.
  const kernels::KernelOps& ops = kernels::ActiveKernels();
  const std::vector<double>& sorted = stats_->Sorted(dim);
  const std::vector<std::uint64_t>& seqs = stats_->SortedSeqs(dim);
  std::size_t begin = 0;
  std::size_t end = sorted.size();
  if (catalog::IsInvertedDim(dim)) {
    end = kernels::SortedCountBelow(ops, sorted.data(), sorted.size(),
                                    capacity);
  } else {
    begin = sorted.size() - kernels::SortedCountAbove(ops, sorted.data(),
                                                      sorted.size(), capacity);
  }

  ExceedanceSet set;
  std::uint64_t* const words = state.arena.Allocate(num_words_);
  set.words = words;
  set.num_words = num_words_;
  set.count = end - begin;
  for (std::size_t j = begin; j < end; ++j) {
    const std::size_t slot = trace_->SlotOf(seqs[j]);
    words[slot >> 6] |= std::uint64_t{1} << (slot & 63);
  }
  assert(kernels::PaddingBitsAreZero(words, num_words_, trace_->capacity()));
  CountIndexMiss();
  CountRowsPatched(set.count);
  return state.memo.emplace(capacity, set).first->second;
}

std::size_t StreamIndex::CountExceedingUnion(
    const catalog::ResourceVector& capacities) const {
  std::array<const ExceedanceSet*, catalog::kNumResourceDims> sets;
  std::size_t num_sets = 0;
  for (catalog::ResourceDim dim : trace_->dims()) {
    if (!capacities.Has(dim)) continue;
    sets[num_sets++] = &SetFor(dim, capacities.Get(dim));
  }
  if (num_sets == 0) return 0;
  if (num_sets == 1) return sets[0]->count;

  // Dispatched union kernel: ORs each set in, counting newly set bits.
  const kernels::KernelOps& ops = kernels::ActiveKernels();
  const std::size_t live = trace_->size();
  thread_local AlignedVector<std::uint64_t> union_words;
  union_words.assign(num_words_, 0);
  std::size_t count = 0;
  for (std::size_t k = 0; k < num_sets && count < live; ++k) {
    count += ops.union_count(union_words.data(), sets[k]->words, num_words_);
  }
  TrimScratch(union_words);
  return count;
}

}  // namespace doppler::stream
