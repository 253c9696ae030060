// Deliberate thread-primitive violation for the fairlaw_check lint
// self-test: a library call site that builds its own one-shot pool
// instead of calling fairlaw::ParallelFor.
#include <cstddef>
#include <vector>

#include "base/thread_pool.h"

namespace fairlaw_fixture {

void SquareAll(std::vector<double>* values) {
  fairlaw::ThreadPool pool(4);
  pool.ParallelFor(values->size(),
                   [values](size_t i) { (*values)[i] *= (*values)[i]; });
}

}  // namespace fairlaw_fixture
