// Fixture violation: metrics includes legal while legal/ruling.h
// includes metrics. Both modules rank 3 and no file-level cycle exists,
// but the module graph has one (module-cycle).
#ifndef FAIRLAW_METRICS_GAP_H_
#define FAIRLAW_METRICS_GAP_H_

#include "legal/threshold.h"

namespace fairlaw::metrics {

struct Gap {
  legal::Threshold threshold;
};

}  // namespace fairlaw::metrics

#endif  // FAIRLAW_METRICS_GAP_H_
