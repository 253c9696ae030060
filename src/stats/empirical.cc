#include "stats/empirical.h"

#include <algorithm>

#include "stats/descriptive.h"

namespace fairlaw::stats {

Result<EmpiricalDistribution> EmpiricalDistribution::Make(
    std::span<const double> values) {
  if (values.empty()) {
    return Status::Invalid("EmpiricalDistribution requires a non-empty sample");
  }
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  return EmpiricalDistribution(std::move(sorted));
}

double EmpiricalDistribution::Cdf(double x) const {
  auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double EmpiricalDistribution::Quantile(double q) const {
  return QuantileOfSorted(sorted_, std::clamp(q, 0.0, 1.0));
}

Result<DiscreteDistribution> DiscreteDistribution::FromMasses(
    std::span<const double> masses) {
  if (masses.empty()) {
    return Status::Invalid("DiscreteDistribution requires >= 1 category");
  }
  double total = 0.0;
  for (double m : masses) {
    if (m < 0.0) {
      return Status::Invalid("DiscreteDistribution: negative mass");
    }
    total += m;
  }
  if (total <= 0.0) {
    return Status::Invalid("DiscreteDistribution: total mass is zero");
  }
  std::vector<double> probs(masses.size());
  for (size_t i = 0; i < masses.size(); ++i) probs[i] = masses[i] / total;
  return DiscreteDistribution(std::move(probs));
}

Result<DiscreteDistribution> DiscreteDistribution::FromCounts(
    std::span<const int64_t> counts) {
  std::vector<double> masses(counts.size());
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] < 0) {
      return Status::Invalid("DiscreteDistribution: negative count");
    }
    masses[i] = static_cast<double>(counts[i]);
  }
  return FromMasses(masses);
}

}  // namespace fairlaw::stats
