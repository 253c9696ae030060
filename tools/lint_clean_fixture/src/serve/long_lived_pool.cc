// Clean-fixture for the owned-pool check: a pool that outlives one
// fan-out carries the `lint: allow-owned-pool` escape, and pointers,
// references and `ThreadPool::` names are uses of a pool, not pools.
#include <cstddef>
#include <memory>

#include "base/thread_pool.h"

namespace fairlaw_fixture {

class Daemon {
 public:
  explicit Daemon(size_t num_threads)
      // Serves every request for the daemon's lifetime.
      // lint: allow-owned-pool
      : pool_(std::make_unique<fairlaw::ThreadPool>(num_threads)) {}

  fairlaw::ThreadPool* pool() const { return pool_.get(); }

 private:
  std::unique_ptr<fairlaw::ThreadPool> pool_;
};

size_t Workers(const fairlaw::ThreadPool& pool) { return pool.num_threads(); }

auto ParallelForOf() { return &fairlaw::ThreadPool::ParallelFor; }

}  // namespace fairlaw_fixture
