#ifndef FAIRLAW_AUDIT_PARTIALS_H_
#define FAIRLAW_AUDIT_PARTIALS_H_

#include <array>
#include <string>
#include <vector>

#include "audit/auditor.h"
#include "base/result.h"
#include "data/group_index.h"
#include "data/table.h"
#include "stats/mergeable.h"

namespace fairlaw::audit {

/// Key extraction shared by the chunk fold and the MetricInput entry
/// points: the column's data::EncodeKeys codes, after the lookup and the
/// audit's null check ("column '<name>' has nulls; ...").
FAIRLAW_NODISCARD Result<data::KeyCodes> AuditKeyCodes(
    const data::Table& table, const std::string& name);

/// Stratum codes per row over `strata_columns` (non-empty). Each column
/// is coded by AuditKeyCodes, in order; several columns combine per
/// distinct code tuple, and each tuple's '|'-joined rendering is
/// inserted into one dictionary, so tuples that render alike share a
/// stratum exactly as a per-row join of the renderings would.
FAIRLAW_NODISCARD Result<data::KeyCodes> StrataCodes(
    const data::Table& table, const std::vector<std::string>& strata_columns);

/// The extraction steps, in the order the serial whole-table pass runs
/// them: it scans whole columns in this order, so a step's failure
/// anywhere outranks any later step's failure.
enum ExtractionStep : size_t {
  kProtectedStep, kPredictionStep, kLabelStep, kScoreStep, kStrataStep,
  kNumExtractionSteps
};

/// Everything one morsel contributes to the audit: exact integer tallies
/// for the count metrics, row-ordered series for the order-sensitive
/// score paths, and one status per extraction step so the error that
/// wins after the merge is the one the serial whole-table pass would
/// have reported. Chunks are never empty, so once every step has
/// extracted its column the tally itself cannot fail.
struct ChunkPartial {
  std::array<Status, kNumExtractionSteps> step_status;
  stats::GroupCountsAccumulator counts;
  stats::StratifiedCountsAccumulator strata_counts;
  stats::GroupedSeries score_series;
  std::vector<double> scores;
};

/// Extracts and tallies one chunk: the protected and strata columns are
/// coded once, and each row adds into its group's slot by code. Pure
/// function of (chunk, config), so it runs on pool workers without
/// touching shared mutable state.
ChunkPartial ProcessChunk(const data::Table& chunk, const AuditConfig& config,
                          const std::string& parent_path);

/// Chunk partials folded in chunk order. Step statuses rank extraction
/// steps in the order the serial pass runs them; within a step the
/// earliest chunk wins (all of a step's failure messages are identical
/// anyway — none embeds a row number).
class MergedPartials {
 public:
  void Fold(ChunkPartial&& partial);

  FAIRLAW_NODISCARD Status FirstError() const;

  const stats::GroupCountsAccumulator& counts() const { return counts_; }
  const stats::StratifiedCountsAccumulator& strata_counts() const {
    return strata_counts_;
  }
  const stats::GroupedSeries& score_series() const { return score_series_; }
  const std::vector<double>& scores() const { return scores_; }

 private:
  std::array<Status, kNumExtractionSteps> step_status_;
  stats::GroupCountsAccumulator counts_;
  stats::StratifiedCountsAccumulator strata_counts_;
  stats::GroupedSeries score_series_;
  std::vector<double> scores_;
};

}  // namespace fairlaw::audit

#endif  // FAIRLAW_AUDIT_PARTIALS_H_
