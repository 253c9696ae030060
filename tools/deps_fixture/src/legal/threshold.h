// Declares the name that legal/ruling.h reaches only through
// metrics/gap.h (transitive-include).
#ifndef FAIRLAW_LEGAL_THRESHOLD_H_
#define FAIRLAW_LEGAL_THRESHOLD_H_

namespace fairlaw::legal {

struct Threshold {
  double ratio = 0.8;
};

}  // namespace fairlaw::legal

#endif  // FAIRLAW_LEGAL_THRESHOLD_H_
