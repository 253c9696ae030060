// Rank-4 header that stats/a.h only mentions, never includes.
#ifndef FAIRLAW_ML_MODEL_H_
#define FAIRLAW_ML_MODEL_H_

namespace fairlaw::ml {

struct Model {};

}  // namespace fairlaw::ml

#endif  // FAIRLAW_ML_MODEL_H_
