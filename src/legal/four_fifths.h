#ifndef FAIRLAW_LEGAL_FOUR_FIFTHS_H_
#define FAIRLAW_LEGAL_FOUR_FIFTHS_H_

#include <string>
#include <vector>

#include "base/result.h"
#include "metrics/fairness_metric.h"
#include "stats/hypothesis.h"

namespace fairlaw::legal {

// The EEOC four-fifths (80%) rule — the operational US disparate-impact
// screen: a selection rate for any protected group below 4/5 of the rate
// of the group with the highest rate is evidence of adverse impact. The
// implementation pairs the ratio test with a two-proportion z-test per
// group, because courts weigh statistical significance alongside the
// bare ratio.

/// Ratio and significance for one group vs the reference group.
struct FourFifthsGroup {
  std::string group;
  int64_t count = 0;
  int64_t selected = 0;
  double selection_rate = 0.0;
  /// selection_rate / reference rate.
  double impact_ratio = 1.0;
  bool below_threshold = false;
  /// Two-proportion z-test of this group's rate vs the reference group's.
  stats::TestResult significance;
};

struct FourFifthsResult {
  /// Group with the highest selection rate (the comparison baseline).
  std::string reference_group;
  double reference_rate = 0.0;
  std::vector<FourFifthsGroup> groups;
  double threshold = 0.8;
  /// True when no group falls below the threshold.
  bool passed = true;
  /// True when some group both fails the ratio and differs significantly.
  bool adverse_impact_indicated = false;
  std::string detail;
};

/// Runs the four-fifths screen over `input` (labels not required):
/// checks `threshold`, then metrics::ComputeGroupStats and
/// FourFifthsFromStats.
FAIRLAW_NODISCARD Result<FourFifthsResult> FourFifthsTest(const metrics::MetricInput& input,
                                        double threshold = 0.8,
                                        double alpha = 0.05);

/// The screen over per-group selection counts, in the shape the metric
/// `...FromStats` kernels take; the audit passes the merged tallies of
/// its demographic_parity report, so no second pass over the rows runs.
FAIRLAW_NODISCARD Result<FourFifthsResult> FourFifthsFromStats(
    const std::vector<metrics::GroupStats>& stats, double threshold = 0.8,
    double alpha = 0.05);

/// Renders the screen as human-readable text.
std::string RenderFourFifths(const FourFifthsResult& result);

}  // namespace fairlaw::legal

#endif  // FAIRLAW_LEGAL_FOUR_FIFTHS_H_
