// Fixture violations: names legal::Threshold, which only the
// transitively included legal/threshold.h declares (transitive-include),
// and closes the legal -> metrics -> legal module cycle.
#ifndef FAIRLAW_LEGAL_RULING_H_
#define FAIRLAW_LEGAL_RULING_H_

#include "metrics/gap.h"

namespace fairlaw::legal {

struct Ruling {
  metrics::Gap gap;
  Threshold applied;
};

}  // namespace fairlaw::legal

#endif  // FAIRLAW_LEGAL_RULING_H_
