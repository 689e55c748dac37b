// Regression test for process-exit teardown order. It holds a swan::Mutex
// on the main thread (so the main thread's lock-rank bookkeeping is in
// use), starts the global thread pool at width 4 and returns from main.
// The pool is a static object, so its destructor runs after the main
// thread's thread_local objects are gone, and it still takes its wake
// mutex. The test passes when the process exits 0 (ASan turns any touch
// of freed thread-local storage into a failure).

#include <cstdint>
#include <cstdio>

#include "common/mutex.h"
#include "exec/thread_pool.h"

int main() {
  swan::Mutex mutex(swan::LockRank::kMetrics, "test.exit-teardown");
  {
    swan::MutexLock lock(&mutex);
  }
  swan::exec::SetThreads(4);
  uint64_t sum = 0;
  swan::exec::ParallelFor(64, 1, [&](uint64_t begin, uint64_t end, uint64_t) {
    swan::MutexLock lock(&mutex);
    for (uint64_t i = begin; i < end; ++i) sum += i;
  });
  std::printf("exit teardown: sum %llu\n",
              static_cast<unsigned long long>(sum));
  return sum == 64 * 63 / 2 ? 0 : 1;
}
