#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "common/logging.h"

namespace pimine {
namespace {

size_t NumChunks(size_t n, size_t chunk) {
  return chunk == 0 ? 1 : (n + chunk - 1) / chunk;
}

struct PoolRegistry {
  std::mutex mu;
  // Earlier (smaller) pools stay alive so callers holding a reference keep
  // a valid pool while a later caller grows the shared capacity.
  std::vector<std::unique_ptr<ThreadPool>> pools;
};

}  // namespace

size_t NumSlots(const ExecPolicy& policy, size_t n, size_t chunk) {
  if (policy.num_threads <= 1 || n == 0) return 1;
  return std::max<size_t>(
      1, std::min<size_t>(static_cast<size_t>(policy.num_threads),
                          NumChunks(n, chunk)));
}

ThreadPool& SharedPool(size_t min_threads) {
  static PoolRegistry registry;
  min_threads = std::max<size_t>(1, min_threads);
  std::lock_guard<std::mutex> lock(registry.mu);
  if (registry.pools.empty() ||
      registry.pools.back()->num_threads() < min_threads) {
    registry.pools.push_back(std::make_unique<ThreadPool>(min_threads));
  }
  return *registry.pools.back();
}

void ParallelChunks(const ExecPolicy& policy, size_t n, size_t chunk,
                    const std::function<void(size_t, size_t, size_t)>& fn) {
  if (n == 0) return;
  const size_t slots = NumSlots(policy, n, chunk);
  if (slots <= 1) {
    fn(0, n, 0);
    return;
  }
  const size_t effective_chunk = chunk == 0 ? n : chunk;
  const size_t num_chunks = NumChunks(n, effective_chunk);

  ThreadPool& pool = SharedPool(static_cast<size_t>(policy.num_threads));
  std::atomic<size_t> next_chunk(0);
  std::mutex mu;
  std::condition_variable done;
  size_t pending = slots;

  for (size_t slot = 0; slot < slots; ++slot) {
    pool.Submit([&, slot] {
      for (size_t c = next_chunk.fetch_add(1); c < num_chunks;
           c = next_chunk.fetch_add(1)) {
        const size_t begin = c * effective_chunk;
        const size_t end = std::min(n, begin + effective_chunk);
        fn(begin, end, slot);
      }
      {
        // Notify while holding the lock: the caller owns mu/done on its
        // stack and destroys them as soon as wait() returns, which it can
        // only do after this worker releases mu — signalling outside the
        // lock could touch a destroyed condition variable.
        std::lock_guard<std::mutex> lock(mu);
        --pending;
        if (pending == 0) done.notify_one();
      }
    });
  }
  // Wait for this batch only (the pool is shared; ThreadPool::Wait would
  // also wait on unrelated submissions). The condition-variable handshake
  // provides the happens-before edge that makes worker-thread side effects
  // (results, the traffic in slot sinks) visible to the caller.
  std::unique_lock<std::mutex> lock(mu);
  done.wait(lock, [&] { return pending == 0; });
}

}  // namespace pimine
