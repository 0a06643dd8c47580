#include "stats/kde.h"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.h"

namespace doppler::stats {

namespace {

constexpr double kInvSqrt2Pi = 0.3989422804014327;
constexpr double kInvSqrt2 = 0.7071067811865476;

}  // namespace

StatusOr<GaussianKde> GaussianKde::Fit(std::vector<double> sample,
                                       double bandwidth) {
  if (sample.empty()) {
    return InvalidArgumentError("cannot fit a KDE on an empty sample");
  }
  if (bandwidth <= 0.0) {
    const double sigma = StdDev(sample);
    const double n = static_cast<double>(sample.size());
    bandwidth = 1.06 * sigma * std::pow(n, -0.2);
    if (bandwidth <= 0.0) bandwidth = 1e-6;  // Degenerate constant sample.
  }
  return GaussianKde(std::move(sample), bandwidth);
}

double GaussianKde::Density(double x) const {
  double sum = 0.0;
  for (double s : sample_) {
    const double z = (x - s) / bandwidth_;
    sum += std::exp(-0.5 * z * z);
  }
  return sum * kInvSqrt2Pi /
         (bandwidth_ * static_cast<double>(sample_.size()));
}

double GaussianKde::Cdf(double x) const {
  double sum = 0.0;
  for (double s : sample_) {
    const double z = (x - s) / bandwidth_;
    sum += 0.5 * (1.0 + std::erf(z * kInvSqrt2));
  }
  return sum / static_cast<double>(sample_.size());
}

}  // namespace doppler::stats
