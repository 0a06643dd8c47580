#include "stream/stream_index.h"

#include <bit>
#include <utility>

#include "obs/metrics.h"

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

StreamIndex::StreamIndex(const StreamingTrace* trace)
    : trace_(trace), num_words_((trace->capacity() + 63) / 64) {}

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

  // First sight of this capacity: one pass over the live ring slots.
  ExceedanceSet set;
  set.words.assign(num_words_, 0);
  for (std::uint64_t seq = trace_->first_seq(); seq < trace_->next_seq();
       ++seq) {
    if (!ExceedsValue(dim, trace_->ValueAt(dim, seq), capacity)) continue;
    const std::size_t slot = trace_->SlotOf(seq);
    set.words[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    ++set.count;
  }
  CountIndexMiss();
  CountRowsPatched(trace_->size());
  return state.memo.emplace(capacity, std::move(set)).first->second;
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

  // Dead slots are zero in every set, so the popcount of the OR is the
  // number of live rows any dimension throttles.
  std::size_t count = 0;
  for (std::size_t w = 0; w < num_words_; ++w) {
    std::uint64_t word = 0;
    for (std::size_t k = 0; k < num_sets; ++k) word |= sets[k]->words[w];
    count += static_cast<std::size_t>(std::popcount(word));
  }
  return count;
}

}  // namespace doppler::stream
