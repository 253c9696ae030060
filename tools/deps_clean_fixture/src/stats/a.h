// Clean fixture for the deps pass: this tree has no include edges. A
// scanner that searched the raw text read this comment's
// #include "ml/model.h" as an upward stats -> ml edge (layering) that
// nothing uses (unused-include); the raw string below spells the same
// directive.
#ifndef FAIRLAW_STATS_A_H_
#define FAIRLAW_STATS_A_H_

namespace fairlaw::stats {

inline const char* kIncludeExample = R"(#include "ml/model.h")";

}  // namespace fairlaw::stats

#endif  // FAIRLAW_STATS_A_H_
