#include "audit/proxy.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "data/group_index.h"
#include "stats/empirical.h"
#include "stats/hypothesis.h"

namespace fairlaw::audit {
namespace {

/// One column's rows as discrete bin codes in [0, arity).
struct BinCodes {
  std::vector<uint32_t> codes;
  size_t arity = 0;
};

/// Maps each row to a discrete bin index for the candidate feature:
/// categorical columns use their first-seen keys (data::EncodeKeys);
/// numeric columns are cut at quantile boundaries of one sorted copy.
Result<BinCodes> DiscretizeColumn(const data::Table& table,
                                  const std::string& name, size_t bins) {
  FAIRLAW_ASSIGN_OR_RETURN(const data::Column* column, table.GetColumn(name));
  if (column->null_count() > 0) {
    return Status::Invalid("DetectProxies: column '" + name + "' has nulls");
  }
  if (column->type() == data::DataType::kString ||
      column->type() == data::DataType::kBool) {
    data::KeyCodes keys = data::EncodeKeys(*column);
    return BinCodes{std::move(keys.codes), keys.dictionary.size()};
  }

  FAIRLAW_ASSIGN_OR_RETURN(std::vector<double> values, column->ToDoubles());
  if (bins < 2) return Status::Invalid("DetectProxies: bins must be >= 2");
  // NaN breaks the sort's strict weak ordering and an infinity
  // interpolates to NaN, so either would corrupt the cuts silently.
  if (!std::all_of(values.begin(), values.end(),
                   [](double v) { return std::isfinite(v); })) {
    return Status::Invalid("DetectProxies: column '" + name +
                           "' has non-finite values");
  }
  if (values.empty()) return Status::Invalid("Quantile of empty sample");
  FAIRLAW_ASSIGN_OR_RETURN(stats::EmpiricalDistribution distribution,
                           stats::EmpiricalDistribution::Make(values));
  // Quantile cut points; duplicates collapse for low-cardinality columns.
  std::vector<double> cuts;
  for (size_t b = 1; b < bins; ++b) {
    cuts.push_back(distribution.Quantile(static_cast<double>(b) /
                                         static_cast<double>(bins)));
  }
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  BinCodes binned{std::vector<uint32_t>(values.size()), cuts.size() + 1};
  for (size_t i = 0; i < values.size(); ++i) {
    binned.codes[i] = static_cast<uint32_t>(
        std::upper_bound(cuts.begin(), cuts.end(), values[i]) - cuts.begin());
  }
  return binned;
}

std::vector<std::vector<int64_t>> Contingency(const BinCodes& feature,
                                              const BinCodes& protected_attr) {
  std::vector<std::vector<int64_t>> contingency(
      feature.arity, std::vector<int64_t>(protected_attr.arity, 0));
  for (size_t row = 0; row < feature.codes.size(); ++row) {
    ++contingency[feature.codes[row]][protected_attr.codes[row]];
  }
  return contingency;
}

}  // namespace

Result<std::vector<std::vector<int64_t>>> ProxyContingencyTable(
    const data::Table& table, const std::string& feature_column,
    const std::string& protected_column, size_t bins) {
  FAIRLAW_ASSIGN_OR_RETURN(BinCodes feature,
                           DiscretizeColumn(table, feature_column, bins));
  FAIRLAW_ASSIGN_OR_RETURN(BinCodes protected_attr,
                           DiscretizeColumn(table, protected_column, bins));
  return Contingency(feature, protected_attr);
}

Result<std::vector<ProxyFinding>> DetectProxies(
    const data::Table& table, const std::string& protected_column,
    const std::vector<std::string>& candidate_columns,
    const ProxyDetectionOptions& options) {
  if (candidate_columns.empty()) {
    return Status::Invalid("DetectProxies: no candidate columns");
  }
  if (options.flag_threshold < 0.0 || options.flag_threshold > 1.0) {
    return Status::Invalid("DetectProxies: flag_threshold must lie in [0,1]");
  }

  std::vector<ProxyFinding> findings;
  findings.reserve(candidate_columns.size());
  // Coded on first use, after the first candidate's own checks, so the
  // error precedence matches ProxyContingencyTable's per candidate.
  std::optional<BinCodes> protected_attr;
  for (const std::string& name : candidate_columns) {
    if (name == protected_column) {
      return Status::Invalid("DetectProxies: protected column listed among "
                             "candidates");
    }
    FAIRLAW_ASSIGN_OR_RETURN(BinCodes feature,
                             DiscretizeColumn(table, name, options.bins));
    if (!protected_attr.has_value()) {
      FAIRLAW_ASSIGN_OR_RETURN(
          protected_attr,
          DiscretizeColumn(table, protected_column, options.bins));
    }
    const std::vector<std::vector<int64_t>> contingency =
        Contingency(feature, *protected_attr);
    ProxyFinding finding;
    finding.feature = name;
    FAIRLAW_ASSIGN_OR_RETURN(finding.cramers_v, stats::CramersV(contingency));
    FAIRLAW_ASSIGN_OR_RETURN(finding.mutual_information,
                             stats::MutualInformation(contingency));

    // Predictability probe: guess the protected value as the majority
    // class within each feature bin; gain over the global majority.
    int64_t total = 0;
    std::vector<int64_t> protected_totals(contingency[0].size(), 0);
    int64_t per_bin_correct = 0;
    for (const auto& row : contingency) {
      int64_t best_in_bin = 0;
      for (size_t p = 0; p < row.size(); ++p) {
        protected_totals[p] += row[p];
        total += row[p];
        best_in_bin = std::max(best_in_bin, row[p]);
      }
      per_bin_correct += best_in_bin;
    }
    int64_t majority =
        *std::max_element(protected_totals.begin(), protected_totals.end());
    finding.predictability_gain =
        total > 0 ? (static_cast<double>(per_bin_correct) -
                     static_cast<double>(majority)) /
                        static_cast<double>(total)
                  : 0.0;
    finding.flagged = finding.cramers_v > options.flag_threshold;
    findings.push_back(std::move(finding));
  }
  std::sort(findings.begin(), findings.end(),
            [](const ProxyFinding& a, const ProxyFinding& b) {
              return a.cramers_v > b.cramers_v;
            });
  return findings;
}

}  // namespace fairlaw::audit
