#include "stats/histogram.h"

#include <algorithm>
#include <cmath>

#include "util/string_util.h"

namespace doppler::stats {

Histogram::Histogram(double lo, double hi, int bins) : lo_(lo) {
  if (bins < 1) bins = 1;
  if (hi <= lo) hi = lo + 1.0;
  width_ = (hi - lo) / bins;
  counts_.assign(static_cast<std::size_t>(bins), 0);
}

void Histogram::Add(double value) {
  int bin = static_cast<int>(std::floor((value - lo_) / width_));
  bin = std::clamp(bin, 0, num_bins() - 1);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

void Histogram::AddAll(const std::vector<double>& values) {
  for (double v : values) Add(v);
}

double Histogram::Fraction(int i) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_[static_cast<std::size_t>(i)]) /
         static_cast<double>(total_);
}

std::string Histogram::BinLabel(int i, int decimals) const {
  const double lo = lo_ + width_ * i;
  const double hi = lo + width_;
  std::string label = "[";
  label += FormatDouble(lo, decimals);
  label += ", ";
  label += FormatDouble(hi, decimals);
  label += i == num_bins() - 1 ? "]" : ")";
  return label;
}

std::vector<double> Histogram::Fractions() const {
  std::vector<double> fractions(counts_.size());
  for (int i = 0; i < num_bins(); ++i) fractions[i] = Fraction(i);
  return fractions;
}

}  // namespace doppler::stats
